"""Dense GF(2) linear algebra on bit-packed rows.

Vectors and matrix rows are Python ints (bit i = coordinate i) and a
matrix is a tuple or list of rows, so every row operation is a single
XOR and inner products are one AND plus a popcount.  Every function
takes rows, and a width (the column count) only where the answer needs
one; matrices come back as tuples.

The library has two elimination kernels.  ``eliminate``, a forward
elimination, serves rank, row selection for puncturing (whose basis
the punctured code keeps), ``solve``, basis extension in the normal
forms (which only the benchmark's trace hooks and the tests reach) and
the ``LinearCode`` constructor's rank check on few rows.  ``rref``, a
Gauss-Jordan elimination on rows packed as lanes of one int, serves
every reduced row form: ``inverse``, ``nullspace``, a code's RREF and
dual, its information sets, and the constructor's rank check from
``codes.BZ_MIN_K`` rows on, which then yields the code's RREF in the
same pass.  ``lanes_nonsingular`` runs the same lane step on a square
matrix the caller already keeps packed, the exhaustive tables' LCD
test, and stops at the first dependent row; ``is_nonsingular``, which
no library code calls, stays for the benchmark's trace hooks.

``BitVector`` and ``BitMatrix`` are records for the parse and print
boundaries: a 0/1 string is read by ``parse_bits`` and written by
``format_bits``, and the records carry the length a string was checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# the kinds of the nonsingular block A of a Gram normal form diag(0_s, A)
ORTHONORMAL = "orthonormal"
SYMPLECTIC = "symplectic"
ABSENT = "absent"


def parse_bits(s: str) -> int:
    """The int of a 0/1 string, character i as bit i."""
    # strip("01") leaves exactly the characters int(..., 2) must not
    # see: it alone accepts "1_0", "+1", "0b1" and surrounding spaces.
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a 0/1 string: {s!r}")
    return int(s[::-1], 2) if s else 0


def format_bits(bits: int, length: int) -> str:
    """The 0/1 string of the first length bits, bit i as character i."""
    # bin() of bits with a 1 placed above them, reversed, up to that 1
    return bin(bits | 1 << length)[:2:-1]


@dataclass(frozen=True)
class BitVector:
    """A 0/1 string read as an int, with the length it was checked
    against.  Bit i of ``bits`` is coordinate i (0-based)."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits >> self.length:
            raise ValueError("set bits beyond vector length")

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        bits = parse_bits(s)
        return cls(len(s), bits)


@dataclass(frozen=True)
class BitMatrix:
    """Rows bit-packed as ints (bit j = column j) with their column count."""

    rows: tuple
    cols: int

    def __post_init__(self):
        for r in self.rows:
            if r >> self.cols:
                raise ValueError("set bits beyond column count")

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BitMatrix":
        vecs = [BitVector.from_string(s) for s in lines]
        if not vecs:
            raise ValueError("empty matrix needs explicit column count")
        cols = vecs[0].length
        if any(v.length != cols for v in vecs):
            raise ValueError("ragged rows")
        return cls(tuple(v.bits for v in vecs), cols)

    def __str__(self) -> str:
        return "\n".join(format_bits(r, self.cols) for r in self.rows)


def eliminate(rows: Iterable[int]) -> tuple:
    """Forward elimination over GF(2), one row against the rows before it.

    Returns (basis, kept): basis holds one (pivot column, reduced row)
    pair per independent row, the pivot being the reduced row's lowest
    set bit, and kept lists the input indices of those rows.  Each row
    is reduced against the basis built from the rows before it, so kept
    is the greedy earliest-first choice of a maximal independent subset.
    """
    basis = []
    kept = []
    for i, r in enumerate(rows):
        for col, w in basis:
            if (r >> col) & 1:
                r ^= w
        if r:
            basis.append(((r & -r).bit_length() - 1, r))
            kept.append(i)
    return basis, kept


def rank(rows: Sequence[int]) -> int:
    """GF(2) rank of bit-packed rows."""
    return len(eliminate(rows)[0])


# the benchmark's trace hooks still name this kernel by its old name
rank_of_rows = rank


def pack_lanes(rows: Sequence[int], stride: int) -> tuple:
    """(M, rep): row i placed at bit i * stride of M, and a 1 there in rep.

    Each row must fit in stride bits.
    """
    M = 0
    for r in reversed(rows):
        M = M << stride | r
    return M, ((1 << len(rows) * stride) - 1) // ((1 << stride) - 1)


def rref(rows: Sequence[int], width: int) -> tuple:
    """Reduced row form by Gauss-Jordan on lane-packed rows.

    Row i is lane i of one int M, the width + 1 bits from i (width + 1)
    on.  Row i's turn reads its lane, as reduced so far; when nonzero,
    its lowest set bit p is its pivot.  (M >> p) & rep holds the bit p
    of every lane at that lane's bit 0, so XORing the row into every
    other lane with bit p set is one step,
    M ^= ((M >> p & rep) ^ (1 << shift)) * row,
    a multiple of the row placed in disjoint lanes.  A pivot row never
    gains a bit below its pivot: a later pivot row it meets has all its
    bits above that later pivot, which is above this one.

    Returns (R, pivots): the nonzero reduced rows as a tuple ordered by
    pivot, and the pivot columns as an increasing list.  Rows must fit
    in width bits.
    """
    stride = width + 1
    M, rep = pack_lanes(rows, stride)
    mask = (1 << width) - 1
    lanes = {}  # pivot -> its row's shift
    shift = 0
    for _ in rows:
        row = M >> shift & mask
        if row:
            p = (row & -row).bit_length() - 1
            M ^= ((M >> p & rep) ^ (1 << shift)) * row
            lanes[p] = shift
        shift += stride
    pivots = sorted(lanes)
    return tuple([M >> lanes[p] & mask for p in pivots]), pivots


def lanes_nonsingular(M: int, k: int) -> bool:
    """Whether the k x k matrix held as k lanes of k bits in M, row i
    from bit i k on (as ``pack_lanes(rows, k)`` places it), is
    nonsingular.

    ``rref``'s Gauss-Jordan step on those lanes, stopping at the first
    row that reduces to zero: it lies in the span of the rows before it.
    """
    mask = (1 << k) - 1
    rep = ((1 << k * k) - 1) // mask if k else 0
    shift = 0
    for _ in range(k):
        row = M >> shift & mask
        if not row:
            return False
        p = (row & -row).bit_length() - 1
        M ^= ((M >> p & rep) ^ (1 << shift)) * row
        shift += k
    return True


def gram(rows: Sequence[int]) -> tuple:
    """G G^T: the rows of the Gram matrix of rows, each packed into an int.

    The matrix is symmetric, so each inner product is taken once, for
    j <= i, and set in both rows.
    """
    out = [0] * len(rows)
    for i, ri in enumerate(rows):
        for j in range(i + 1):
            if (ri & rows[j]).bit_count() & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return tuple(out)


def transpose(rows: Sequence[int], width: int) -> tuple:
    """The width columns of rows, column j with bit i from row i."""
    out = [0] * width
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return tuple(out)


def mul(a: Sequence[int], b: Sequence[int]) -> tuple:
    """A B: row i is the sum of the rows b[j] for the bits j of a[i]."""
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def is_nonsingular(rows: Sequence[int]) -> bool:
    """Whether rows form a nonsingular square matrix: k rows of rank k,
    each within k bits.  No library code calls it; the benchmark's
    trace hooks name it."""
    k = len(rows)
    return max(rows, default=0) >> k == 0 and rank(rows) == k


def inverse(rows: Sequence[int]) -> tuple:
    """M^-1 for the k x k matrix M of k rows; ValueError when a row is
    wider than k bits or M is singular.

    Reduces the tagged rows [M | I]: when M is nonsingular the RREF is
    [I | M^-1], and otherwise some reduced row pivots on a bare tag.
    """
    k = len(rows)
    if max(rows, default=0) >> k:
        raise ValueError("matrix is not square")
    R, pivots = rref([r | 1 << (k + i) for i, r in enumerate(rows)], 2 * k)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return tuple(w >> k for w in R)


def solve(rows: Sequence[int], b: int, width: int) -> Optional[int]:
    """Express b as a combination of rows, each of width bits.

    Returns x with bit i the coefficient of row i, or None when b is
    outside the row space.  Absence is a value, not an error.  When the
    rows are dependent, x is one of several solutions.
    """
    if b >> width:
        raise ValueError("dimension mismatch")
    # Tag each row with its combination in the bits above the columns.
    # A dependent row reduces to a bare tag, pivots above the columns and
    # is never used below.
    basis, _ = eliminate([r | (1 << (width + i)) for i, r in enumerate(rows)])
    mask = (1 << width) - 1
    combo = 0
    for col, w in basis:
        if (b >> col) & 1:
            b ^= w & mask
            combo ^= w >> width
    return None if b else combo


def nullspace(rows: Sequence[int], width: int) -> tuple:
    """Basis of the right null space {v : M v = 0}, one int per vector."""
    R, pivot_cols = rref(rows, width)
    return _free_column_basis(R, pivot_cols, width)


def _free_column_basis(R: Sequence[int], pivot_cols: Sequence[int],
                       cols: int) -> tuple:
    """Null-space basis read off RREF rows: one vector per free column.

    The vector for free column f is e_f plus e_p for every RREF row
    with pivot p and bit f set; vectors come in increasing order of f.
    """
    pivset = set(pivot_cols)
    out = []
    for f in range(cols):
        if f in pivset:
            continue
        v = 1 << f
        for prow, pcol in zip(R, pivot_cols):
            if (prow >> f) & 1:
                v |= 1 << pcol
        out.append(v)
    return tuple(out)


def congruent_normal_form(rows: Sequence[int]) -> tuple:
    """Gram normal form of rows under change of basis.

    Returns (B, s, kind): B = P G for an invertible P and G the matrix
    of rows, so B's rows span G's row space, and gram(B) = diag(0_s, A)
    with s = len(rows) - rank(G G^T).  ``kind`` names A: ORTHONORMAL (an
    identity block) when some row has odd weight, SYMPLECTIC (a direct
    sum of J_2 blocks) when every row is even but not every row lies in
    the radical, ABSENT when s = len(rows).

    Inner products are taken between rows, one popcount each.  Pivoting
    is greedy: first a row of odd weight, else a coupled pair, else the
    row lies in the radical; ties break to the lowest index.

    Only ``normal_form`` calls it, and only the benchmark's trace hooks
    and the tests reach either.
    """
    pending = list(rows)
    ortho = []
    sympl = []
    while pending:
        di = next((i for i, v in enumerate(pending) if v.bit_count() & 1),
                  None)
        if di is not None:
            w = pending.pop(di)
            pending = [v ^ w if (v & w).bit_count() & 1 else v
                       for v in pending]
            ortho.append(w)
            continue
        pair = None
        for i in range(len(pending)):
            for j in range(i + 1, len(pending)):
                if (pending[i] & pending[j]).bit_count() & 1:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break  # radical
        i, j = pair
        u, v = pending[i], pending[j]
        del pending[j], pending[i]
        pending = [x ^ (u if (x & v).bit_count() & 1 else 0)
                   ^ (v if (x & u).bit_count() & 1 else 0)
                   for x in pending]
        sympl.append((u, v))
    radical = pending
    if ortho and sympl:
        # non-alternating: fold each J_2 block into orthonormal directions
        for u, v in sympl:
            w = ortho.pop()
            ortho.extend([u ^ w, v ^ w, u ^ v ^ w])
        sympl = []
    out = list(radical)
    if sympl:
        kind = SYMPLECTIC
        for u, v in sympl:
            out.extend([u, v])
    else:
        kind = ORTHONORMAL if ortho else ABSENT
        out.extend(ortho)
    return tuple(out), len(radical), kind

"""Dense GF(2) linear algebra on bit-packed rows.

Vectors and matrix rows are stored as Python ints (bit i = coordinate i),
so every row operation is a single XOR and inner products are one AND plus
a popcount.  All values are immutable once constructed.

The library has two elimination kernels.  ``eliminate``, a forward
elimination, serves rank, row selection for puncturing, ``solve``, the
exhaustive tables' LCD test, basis extension in the normal forms and
the ``LinearCode`` constructor's rank check on few rows.  ``echelon``, a
Gauss-Jordan elimination on rows packed as lanes of one int, serves
every reduced row echelon form: ``rref`` (and through it ``inverse``
and ``nullspace``), a code's RREF and dual, its information sets, and
the constructor's rank check from ``codes.BZ_MIN_K`` rows on, which
then yields the code's RREF in the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# the kinds of the nonsingular block A of a Gram normal form diag(0_s, A)
ORTHONORMAL = "orthonormal"
SYMPLECTIC = "symplectic"
ABSENT = "absent"


@dataclass(frozen=True)
class BitVector:
    """A vector over GF(2). Bit i of ``bits`` is coordinate i (0-based)."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits >> self.length:
            raise ValueError("set bits beyond vector length")

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        if not isinstance(s, str):
            raise ValueError(f"not a 0/1 string: {s!r}")
        # strip("01") leaves exactly the characters int(..., 2) must not
        # see: it alone accepts "1_0", "+1", "0b1" and surrounding spaces.
        if s.strip("01"):
            raise ValueError(f"not a 0/1 string: {s!r}")
        return cls(len(s), int(s[::-1], 2) if s else 0)

    @classmethod
    def zero(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        return cls(length, (1 << length) - 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    __add__ = __xor__

    def inner(self, other: "BitVector") -> int:
        if self.length != other.length:
            raise ValueError("length mismatch")
        return (self.bits & other.bits).bit_count() & 1

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0"
                       for i in range(self.length))


@dataclass(frozen=True)
class BitMatrix:
    """A matrix over GF(2), rows bit-packed as ints (bit j = column j)."""

    rows: tuple
    cols: int

    def __post_init__(self):
        for r in self.rows:
            if r >> self.cols:
                raise ValueError("set bits beyond column count")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[int], cols: int) -> "BitMatrix":
        return cls(tuple(rows), cols)

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BitMatrix":
        vecs = [BitVector.from_string(s) for s in lines]
        if not vecs:
            raise ValueError("empty matrix needs explicit column count")
        cols = vecs[0].length
        if any(v.length != cols for v in vecs):
            raise ValueError("ragged rows")
        return cls(tuple(v.bits for v in vecs), cols)

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls(tuple(1 << i for i in range(k)), k)

    @classmethod
    def zeros(cls, nrows: int, cols: int) -> "BitMatrix":
        return cls((0,) * nrows, cols)

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.rows[i])

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        out = [0] * self.cols
        for i, r in enumerate(self.rows):
            while r:
                j = (r & -r).bit_length() - 1
                out[j] |= 1 << i
                r &= r - 1
        return BitMatrix(tuple(out), self.nrows)

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.nrows:
            raise ValueError("dimension mismatch")
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                j = (rr & -rr).bit_length() - 1
                acc ^= other.rows[j]
                rr &= rr - 1
            out.append(acc)
        return BitMatrix(tuple(out), other.cols)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.nrows))


def rank(M: BitMatrix) -> int:
    return rank_of_rows(M.rows)


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


def rank_of_rows(rows: Iterable[int]) -> int:
    """GF(2) rank of bit-packed rows."""
    return len(eliminate(rows)[0])


def pack_lanes(rows: Sequence[int], stride: int) -> tuple:
    """(M, rep): row i placed at bit i * stride of M, and a 1 there in rep.

    Each row must fit in stride bits.
    """
    M = 0
    for r in reversed(rows):
        M = M << stride | r
    return M, ((1 << len(rows) * stride) - 1) // ((1 << stride) - 1)


def echelon(rows: Sequence[int], width: int) -> tuple:
    """Reduced row echelon form by Gauss-Jordan on lane-packed rows.

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


def rref(M: BitMatrix) -> tuple:
    """Reduced row echelon form.

    Returns (R, pivot_cols) with zero rows dropped and pivot columns in
    increasing order.
    """
    rows, pivots = echelon(M.rows, M.cols)
    return BitMatrix(rows, M.cols), pivots


def gram(G: BitMatrix) -> BitMatrix:
    """G * G^T: the Gram matrix of the rows of G."""
    return BitMatrix(gram_rows(G.rows), G.nrows)


def gram_rows(rows: Sequence[int]) -> tuple:
    """The rows of the Gram matrix of rows, each packed into an int.

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


def is_nonsingular(M: BitMatrix) -> bool:
    return M.nrows == M.cols and rank(M) == M.nrows


def inverse(M: BitMatrix) -> BitMatrix:
    """M^-1 for a square nonsingular M; raises ValueError otherwise.

    Reduces the tagged rows [M | I]: when M is nonsingular the RREF is
    [I | M^-1], and otherwise some reduced row pivots on a bare tag.
    """
    k = M.nrows
    if M.cols != k:
        raise ValueError("matrix is not square")
    R, pivots = rref(BitMatrix(tuple(r | 1 << (k + i)
                                     for i, r in enumerate(M.rows)), 2 * k))
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return BitMatrix(tuple(w >> k for w in R.rows), k)


def solve(M: BitMatrix, b: BitVector) -> Optional[BitVector]:
    """Express b as a combination of the rows of M.

    Returns x (length M.nrows) with x * M = b, or None when b is outside
    the row space.  Absence is a value, not an error.  When the rows of
    M are dependent, x is one of several solutions.
    """
    if b.length != M.cols:
        raise ValueError("dimension mismatch")
    k = M.nrows
    # Tag each row with its combination in the bits above the columns.
    # A dependent row reduces to a bare tag, pivots above the columns and
    # is never used below.
    basis, _ = eliminate(M.rows[i] | (1 << (M.cols + i)) for i in range(k))
    mask = (1 << M.cols) - 1
    acc = b.bits
    combo = 0
    for col, w in basis:
        if (acc >> col) & 1:
            acc ^= w & mask
            combo ^= w >> M.cols
    if acc:
        return None
    return BitVector(k, combo)


def nullspace(M: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : M v = 0}, rows of the result."""
    R, pivot_cols = rref(M)
    return BitMatrix(_free_column_basis(R.rows, pivot_cols, M.cols), M.cols)


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


def congruent_normal_form(G: BitMatrix) -> tuple:
    """Gram normal form of the rows of G under change of basis.

    Returns (B, s, kind): B = P G for an invertible P, so B's rows span
    G's row space, and gram(B) = diag(0_s, A) with s = nrows - rank(G G^T).
    ``kind`` names A: ORTHONORMAL (an identity block) when some row of G
    has odd weight, SYMPLECTIC (a direct sum of J_2 blocks) when every
    row is even but not every row lies in the radical, ABSENT when
    s = nrows.

    Inner products are taken between rows, one popcount each.  Pivoting
    is greedy: first a row of odd weight, else a coupled pair, else the
    row lies in the radical; ties break to the lowest index.
    """
    pending = list(G.rows)
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
    rows = list(radical)
    if sympl:
        kind = SYMPLECTIC
        for u, v in sympl:
            rows.extend([u, v])
    else:
        kind = ORTHONORMAL if ortho else ABSENT
        rows.extend(ortho)
    return BitMatrix(tuple(rows), G.cols), len(radical), kind

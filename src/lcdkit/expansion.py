"""Binary expansion of codes over GF(2^m) through a self-dual basis.

Provides GF(2^m) arithmetic with fixed moduli, the absolute trace,
self-dual basis discovery (once per field; the basis keeps one table of
every element's trace coordinates), codes held by generator matrices
of field elements, and the expansion map that turns an [n, k] code over
GF(2^m) into a binary [mn, mk] code.  Expansion through a self-dual basis
preserves the inner product up to trace, so hulls commute with the map
and LCD status transfers in both directions.

An ``ExtFieldCode`` is analysed only through that binary image: its rank
check is the image's, its hull dimension is the image's divided by m,
and its symbol distance is the binary distance of the image
concatenated with the simplex code [2^m - 1, m, 2^(m-1)], divided by
2^(m-1).  No elimination or codeword walk runs over the field.

EXTGEN1 files are read by ``codes.read_framed``, as GEN1 files are;
``parse_extgen1`` adds only the degree and element rules, and
``read_code`` lets the header choose between the two.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import List, Sequence, Tuple

from .codes import (K_FULL, EngineBudgetError, LinearCode, header_width,
                    min_weight, parse_gen1, read_framed)
from .gf2 import rank


class ExpansionError(AssertionError):
    """Field arithmetic or a self-dual basis broke an invariant.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


# Exhaustive self-dual basis search is limited to this extension degree.
M_MAX = 4

# One fixed irreducible modulus per degree, so element encodings are
# reproducible across runs.
FIXED_MODULI = {
    1: 0b11,        # x + 1
    2: 0b111,       # x^2 + x + 1
    3: 0b1011,      # x^3 + x + 1
    4: 0b10011,     # x^4 + x + 1
}


@dataclass(frozen=True)
class ExtField:
    """GF(2^m) with elements encoded as integers 0 .. 2^m - 1."""

    m: int
    modulus: int

    @classmethod
    def of_degree(cls, m: int) -> "ExtField":
        if m not in FIXED_MODULI:
            raise ValueError(f"unsupported degree m={m}")
        return cls(m, FIXED_MODULI[m])

    @property
    def order(self) -> int:
        return 1 << self.m

    def check(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise ValueError(f"element {x} out of range for GF(2^{self.m})")
        return x

    def mul(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
        for i in range(p.bit_length() - 1, self.m - 1, -1):
            if (p >> i) & 1:
                p ^= self.modulus << (i - self.m)
        return p

    def trace(self, x: int) -> int:
        """Absolute trace x + x^2 + ... + x^(2^(m-1)); always 0 or 1."""
        self.check(x)
        acc = x
        t = x
        for _ in range(self.m - 1):
            acc = self.mul(acc, acc)
            t ^= acc
        if t not in (0, 1):
            raise ExpansionError("trace must land in the prime field")
        return t


@dataclass(frozen=True)
class SelfDualBasis:
    """Basis {alpha_1..alpha_m} of GF(2^m) with Tr(a_i a_j) = delta_ij."""

    field: ExtField
    alphas: Tuple[int, ...]

    def verify(self) -> None:
        F = self.field
        m = F.m
        if len(self.alphas) != m:
            raise ExpansionError("basis size must equal the degree")
        for i, a in enumerate(self.alphas):
            for j, b in enumerate(self.alphas):
                want = 1 if i == j else 0
                if F.trace(F.mul(a, b)) != want:
                    raise ExpansionError("trace Gram matrix is not identity")
        if rank(self.alphas) != m:
            raise ExpansionError("basis elements are dependent")

    @functools.cached_property
    def _coordinates(self) -> Tuple[int, ...]:
        """Each element's m trace coordinates, coordinate j as bit j."""
        F = self.field
        return tuple(sum(F.trace(F.mul(v, a)) << j
                         for j, a in enumerate(self.alphas))
                     for v in range(F.order))


@functools.lru_cache(maxsize=None)
def find_self_dual_basis(field: ExtField) -> SelfDualBasis:
    """The lexicographically least self-dual basis, once per field: the
    first m-subset, in increasing order, of the elements with
    Tr(a^2) = 1 that is pairwise trace-orthogonal and of rank m."""
    m = field.m
    if m > M_MAX:
        raise EngineBudgetError(
            f"self-dual basis search capped at degree {M_MAX}")
    units = [a for a in range(1, field.order)
             if field.trace(field.mul(a, a)) == 1]
    for alphas in itertools.combinations(units, m):
        if rank(alphas) == m and not any(
                field.trace(field.mul(a, b))
                for a, b in itertools.combinations(alphas, 2)):
            basis = SelfDualBasis(field, alphas)
            basis.verify()
            return basis
    raise ExpansionError("self-dual basis must exist in characteristic two")


def expand_vector(basis: SelfDualBasis, x: Sequence[int]) -> int:
    """Replace each field entry by its m trace coordinates: entry i's
    coordinate j is bit i m + j of the int returned."""
    F = basis.field
    coordinates = basis._coordinates
    bits = 0
    for i, xi in enumerate(x):
        bits |= coordinates[F.check(xi)] << (i * F.m)
    return bits


def expand_code(C: "ExtFieldCode", basis: SelfDualBasis) -> LinearCode:
    """Binary [mn, mk] code generated by expansions of alpha_j * row_i."""
    if basis.field != C.field:
        raise ValueError("basis and code fields differ")
    F = C.field
    return LinearCode([expand_vector(basis, [F.mul(a, x) for x in g])
                       for g in C.gen for a in basis.alphas], F.m * C.n)


@dataclass(frozen=True)
class ExtFieldCode:
    """An [n, k] code over GF(2^m) held by a full-row-rank generator.

    Every analysis reads ``image``, the binary [mn, mk] expansion through
    the field's self-dual basis, built once by the constructor.  The
    generator has full rank over GF(2^m) exactly when its image has mk
    independent rows, so the image's own rank check is the code's.  The
    image's hull is the expansion of the code's hull, so its hull
    dimension is m times the code's and the two are LCD together.  The
    symbol distance is read off the image concatenated with the binary
    simplex code [2^m - 1, m, 2^(m-1)]: that code maps each nonzero
    m-bit block, a nonzero symbol, to a block of weight exactly 2^(m-1),
    so its minimum distance is 2^(m-1) d.  The generator's rows may be
    any sequences; they are stored as tuples.
    """

    field: ExtField
    gen: Tuple[Tuple[int, ...], ...]
    n: int
    image: LinearCode = dataclass_field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gen", tuple(map(tuple, self.gen)))
        for row in self.gen:
            if len(row) != self.n:
                raise ValueError("ragged generator matrix")
        object.__setattr__(self, "image", expand_code(
            self, find_self_dual_basis(self.field)))

    @property
    def k(self) -> int:
        return len(self.gen)

    def hull_dimension(self) -> int:
        return self.image.hull_dimension() // self.field.m

    def is_lcd(self) -> bool:
        return self.image.is_lcd()

    def min_distance(self) -> int:
        """Exact symbol distance: ``min_weight`` of the image concatenated
        with the simplex code, capped at mk <= K_FULL.  The simplex map is
        injective on each block, so the concatenated rows stay
        independent.  No low-weight engine runs here: a concatenated
        weight is 2^(m-1) times a symbol weight, so it reaches only small
        distances."""
        m = self.field.m
        if m * self.k > K_FULL:
            raise EngineBudgetError(
                f"full enumeration capped at k <= {K_FULL}")
        width = (1 << m) - 1
        # block value b -> the simplex codeword with bit l - 1 set
        # exactly when b . l is odd
        simplex = [sum(1 << (l - 1) for l in range(1, width + 1)
                       if (b & l).bit_count() & 1)
                   for b in range(1 << m)]
        rows = [sum(simplex[r >> (i * m) & width] << (i * width)
                    for i in range(self.n))
                for r in self.image.gen.rows]
        return min_weight(rows) >> (m - 1)


def expansion_indices(n: int, k: int, m: int) -> Tuple[int, int]:
    """Extension-field parameters whose distance bounds d_LCD(n, k).

    Kept as API: these are the parameters (n // m, ceil(k / m)) of the
    GF(2^m) code whose expansion gives the paper's lower bound on
    d_LCD(n, k) by expanded codes.
    """
    if n < 1 or k < 1 or m < 1:
        raise ValueError("inputs must be positive")
    return n // m, math.ceil(k / m)


# ----------------------------------------------------------------------
# EXTGEN1 text format: "n k m" header, then k lines of n integers.


def _extgen1_row(line: str, header: tuple) -> List[int]:
    n, _, m = header
    parts = line.split()
    if len(parts) != n:
        raise ValueError(f"expected {n} entries")
    try:
        row = [int(p) for p in parts]
    except ValueError:
        raise ValueError("non-integer entry") from None
    for v in row:
        if not 0 <= v < (1 << m):
            raise ValueError(f"element {v} out of range")
    return row


def parse_extgen1(text: str) -> ExtFieldCode:
    (n, _, m), rows = read_framed(text, "n k m", _extgen1_row,
                                  lambda header: ExtField.of_degree(header[2]))
    return ExtFieldCode(ExtField.of_degree(m), rows, n)


def read_code(text: str):
    """The code of a GEN1 or EXTGEN1 file: a 3-field header is EXTGEN1's,
    and any other is read, or refused, as GEN1."""
    if header_width(text) == 3:
        return parse_extgen1(text)
    return parse_gen1(text)


def format_extgen1(C: ExtFieldCode) -> str:
    lines = [f"{C.n} {C.k} {C.field.m}"]
    for row in C.gen:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"

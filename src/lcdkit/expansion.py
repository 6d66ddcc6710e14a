"""Binary expansion of codes over GF(2^m) through a self-dual basis.

Provides GF(2^m) arithmetic with fixed moduli, the absolute trace,
self-dual basis discovery, codes held by generator matrices of field
elements, and the expansion map that turns an [n, k] code over GF(2^m)
into a binary [mn, mk] code.  Expansion through a self-dual basis
preserves the inner product up to trace, so hulls commute with the map
and LCD status transfers in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .codes import EngineBudgetError, ParseError
from .gf2 import BitVector, rank_of_rows


class ExpansionError(AssertionError):
    """Field arithmetic or a self-dual basis broke an invariant.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


# Exhaustive self-dual basis search is limited to this extension degree.
M_MAX = 4
# ExtFieldCode.min_distance walks all 2^(m k) codewords up to m k = MK_MAX.
MK_MAX = 20

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
            raise ValueError(f"no fixed modulus for degree {m}")
        return cls(m, FIXED_MODULI[m])

    @property
    def order(self) -> int:
        return 1 << self.m

    def check(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise ValueError(f"element {x} out of range for GF(2^{self.m})")
        return x

    def mul(self, a: int, b: int) -> int:
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

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.pow(a, self.order - 2)

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
        if rank_of_rows(self.alphas) != m:
            raise ExpansionError("basis elements are dependent")


def find_self_dual_basis(field: ExtField) -> SelfDualBasis:
    """Lexicographically least self-dual basis, by pruned exhaustive search."""
    m = field.m
    if m > M_MAX:
        raise EngineBudgetError(
            f"self-dual basis search capped at degree {M_MAX}")
    chosen: List[int] = []

    def search() -> bool:
        if len(chosen) == m:
            return rank_of_rows(chosen) == m
        for a in range(1, field.order):
            if field.trace(field.mul(a, a)) != 1:
                continue
            if any(field.trace(field.mul(a, b)) for b in chosen):
                continue
            chosen.append(a)
            if search():
                return True
            chosen.pop()
        return False

    if not search():
        raise ExpansionError(
            "self-dual basis must exist in characteristic two")
    basis = SelfDualBasis(field, tuple(chosen))
    basis.verify()
    return basis


def expand_vector(basis: SelfDualBasis, x: Sequence[int]) -> BitVector:
    """Replace each field entry by its m trace coordinates."""
    F = basis.field
    m = F.m
    bits = 0
    for i, xi in enumerate(x):
        F.check(xi)
        for j, a in enumerate(basis.alphas):
            if F.trace(F.mul(xi, a)):
                bits |= 1 << (i * m + j)
    return BitVector(len(x) * m, bits)


# ----------------------------------------------------------------------
# Linear algebra over GF(2^m)


def _field_rref(field: ExtField,
                rows: Sequence[Sequence[int]],
                ncols: int) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    work = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [vi ^ field.mul(f, vr)
                           for vi, vr in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def _field_nullspace(field: ExtField,
                     rows: Sequence[Sequence[int]],
                     ncols: int) -> List[List[int]]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = _field_rref(field, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, p in zip(red, pivots):
            vec[p] = r[f]
        out.append(vec)
    return out


@dataclass(frozen=True)
class ExtFieldCode:
    """An [n, k] code over GF(2^m) held by a full-row-rank generator."""

    field: ExtField
    gen: Tuple[Tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        for row in self.gen:
            if len(row) != self.n:
                raise ValueError("ragged generator matrix")
            for v in row:
                self.field.check(v)
        if len(_field_rref(self.field, self.gen, self.n)[0]) != \
                len(self.gen):
            raise ValueError("generator matrix does not have full row rank")

    @classmethod
    def from_rows(cls, field: ExtField,
                  rows: Sequence[Sequence[int]], n: int) -> "ExtFieldCode":
        return cls(field, tuple(tuple(r) for r in rows), n)

    @property
    def k(self) -> int:
        return len(self.gen)

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        F = self.field
        acc = 0
        for a, b in zip(x, y):
            acc ^= F.mul(a, b)
        return acc

    def gram(self) -> List[List[int]]:
        return [[self.inner(a, b) for b in self.gen] for a in self.gen]

    def hull_dimension(self) -> int:
        return self.k - len(_field_rref(self.field, self.gram(), self.k)[0])

    def hull(self) -> "ExtFieldCode":
        """C intersected with its Euclidean dual, over the field."""
        F = self.field
        coeffs = _field_nullspace(F, self.gram(), self.k)
        rows = []
        for x in coeffs:
            row = [0] * self.n
            for xi, g in zip(x, self.gen):
                if xi:
                    row = [r ^ F.mul(xi, gi) for r, gi in zip(row, g)]
            rows.append(row)
        red, _ = _field_rref(F, rows, self.n)
        return ExtFieldCode.from_rows(F, red, self.n)

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    def codewords(self):
        """All q^k codewords (exhaustive; intended for small k)."""
        F = self.field
        def rec(i, acc):
            if i == self.k:
                yield tuple(acc)
                return
            for c in range(F.order):
                nxt = [a ^ F.mul(c, g) for a, g in zip(acc, self.gen[i])]
                yield from rec(i + 1, nxt)
        yield from rec(0, [0] * self.n)

    def min_distance(self) -> int:
        if self.field.m * self.k > MK_MAX:
            raise EngineBudgetError(
                f"exhaustive distance capped at q^k <= 2^{MK_MAX}")
        best = None
        for w in self.codewords():
            wt = sum(1 for v in w if v)
            if wt and (best is None or wt < best):
                best = wt
        if best is None:
            raise ValueError("minimum distance undefined for the zero code")
        return best


def expand_code(C: ExtFieldCode, basis: SelfDualBasis):
    """Binary [mn, mk] code generated by expansions of alpha_j * row_i."""
    from .codes import LinearCode
    if basis.field != C.field:
        raise ValueError("basis and code fields differ")
    F = C.field
    m = F.m
    rows = []
    for g in C.gen:
        for a in basis.alphas:
            scaled = [F.mul(a, x) for x in g]
            rows.append(expand_vector(basis, scaled).bits)
    if not rows:
        return LinearCode.zero_code(m * C.n)
    return LinearCode.from_rows(rows, m * C.n)


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


def parse_extgen1(text: str) -> ExtFieldCode:
    header: Optional[Tuple[int, int, int]] = None
    rows: List[List[int]] = []
    field: Optional[ExtField] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected header 'n k m'", lineno)
            try:
                n, k, m = (int(p) for p in parts)
            except ValueError:
                raise ParseError("non-integer header", lineno) from None
            if n < 1 or k < 0 or k > n:
                raise ParseError(f"bad parameters n={n} k={k}", lineno)
            if m not in FIXED_MODULI:
                raise ParseError(f"unsupported degree m={m}", lineno)
            header = (n, k, m)
            field = ExtField.of_degree(m)
            continue
        n, k, m = header
        if len(rows) >= k:
            raise ParseError("more rows than declared", lineno)
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries", lineno)
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ParseError("non-integer entry", lineno) from None
        for v in row:
            if not 0 <= v < (1 << m):
                raise ParseError(f"element {v} out of range", lineno)
        rows.append(row)
    if header is None:
        raise ParseError("missing header", 1)
    n, k, m = header
    if len(rows) != k:
        raise ParseError(f"expected {k} rows, found {len(rows)}",
                         len(text.splitlines()) + 1)
    return ExtFieldCode.from_rows(field, rows, n)


def format_extgen1(C: ExtFieldCode) -> str:
    lines = [f"{C.n} {C.k} {C.field.m}"]
    for row in C.gen:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"

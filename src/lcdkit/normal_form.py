"""Constructive basis theory for binary codes under the standard form.

Produces self-verifying certificates: a transformed generator basis
together with the exact block structure its Gram matrix must take —
either diag(0_s, A) for a code alone, or the coupled block form

    ( 0_s  0    I_s  0  )
    ( 0    A_1  0    0  )          A_2 = diag(1,...,1,0,...,0), s_1 ones
    ( I_s  0    A_2  0  )          A_1, A_3 each identity or a direct
    ( 0    0    0    A_3 )         sum of J_2 blocks

for a distinguished subcode spanned by the first k_1 rows.  Every
certificate is checked bit-exactly against its declared shape before it
is returned.

For an LCD code the hull-normal basis has s = 0: it is orthonormal when
the code is odd-like (``orthonormal_basis``) and a J_2 sum when it is
even-like.  No construction needs its input's stored generator in
either form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from . import gf2
from .gf2 import ABSENT, ORTHONORMAL, SYMPLECTIC
from .codes import LinearCode


class NormalFormError(AssertionError):
    """A normal-form reduction or its certificate broke an invariant.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


def _ip(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def _block_rows(kind: str, size: int, offset: int) -> List[int]:
    """Rows of an identity or J_2-sum block placed at a diagonal offset."""
    rows = []
    if kind == ORTHONORMAL:
        for i in range(size):
            rows.append(1 << (offset + i))
    elif kind == SYMPLECTIC:
        if size % 2:
            raise ValueError("symplectic block needs even size")
        for i in range(0, size, 2):
            rows.append(1 << (offset + i + 1))
            rows.append(1 << (offset + i))
    elif kind == ABSENT:
        if size:
            raise ValueError("absent block must be empty")
    else:
        raise ValueError(f"unknown block kind {kind!r}")
    return rows


@dataclass(frozen=True)
class GramShape:
    """Declared block structure of a certificate's Gram matrix."""

    s: int
    k1: int
    a1_kind: str
    s1: int
    a3_kind: str
    t: int
    coupled: bool

    def expected_gram(self, k: int) -> tuple:
        if self.coupled:
            rows = [0] * k
            s, k1, t = self.s, self.k1, self.t
            if s + (k1 - s) + s + t != k:
                raise ValueError("inconsistent shape sizes")
            # hull rows couple to the s rows after the subcode block
            for i in range(s):
                rows[i] |= 1 << (k1 + i)
                rows[k1 + i] |= 1 << i
            for i, r in enumerate(_block_rows(self.a1_kind, k1 - s, s)):
                rows[s + i] |= r
            for i in range(self.s1):
                rows[k1 + i] |= 1 << (k1 + i)
            for i, r in enumerate(_block_rows(self.a3_kind, t, k1 + s)):
                rows[k1 + s + i] |= r
            return tuple(rows)
        rows = [0] * self.s
        rows.extend(_block_rows(self.a1_kind, k - self.s, self.s))
        return tuple(rows)


@dataclass(frozen=True)
class NormalFormCertificate:
    """A basis, as int rows, and the shape its Gram matrix must take."""

    basis: tuple
    shape: GramShape

    @property
    def k(self) -> int:
        return len(self.basis)

    def verify(self) -> None:
        actual = gf2.gram(self.basis)
        expected = self.shape.expected_gram(self.k)
        if actual != expected:
            def show(rows):
                return "\n".join(gf2.format_bits(r, self.k) for r in rows)
            raise NormalFormError(
                "certificate Gram matrix does not match declared shape:\n"
                f"expected\n{show(expected)}\ngot\n{show(actual)}")


def _checked(basis: tuple, shape: GramShape) -> NormalFormCertificate:
    cert = NormalFormCertificate(basis, shape)
    cert.verify()
    return cert


def hull_normal_basis(C: LinearCode) -> NormalFormCertificate:
    """Basis whose first s rows span Hull(C), Gram = diag(0_s, A).

    The generator's own rows are reduced by ``gf2.congruent_normal_form``;
    A is I when C is odd-like, a direct sum of J_2 blocks otherwise, and
    empty when C is self-orthogonal.
    """
    basis, s, kind = gf2.congruent_normal_form(C.gen.rows)
    shape = GramShape(s=s, k1=C.k, a1_kind=kind, s1=0,
                      a3_kind=ABSENT, t=0, coupled=False)
    return _checked(basis, shape)


def orthonormal_basis(C: LinearCode) -> tuple:
    """Basis with Gram = I_k; exists exactly for odd-like LCD codes.

    It is the hull-normal basis, whose block is I for an odd-like code.
    """
    if not C.is_lcd():
        raise ValueError("code is not LCD")
    if C.is_even_like():
        raise ValueError("even-like code has no orthonormal basis")
    cert = hull_normal_basis(C)
    if cert.shape.s != 0 or cert.shape.a1_kind != ORTHONORMAL:
        raise NormalFormError("odd-like LCD reduction failed")
    return cert.basis


def subcode_normal_form(C: LinearCode,
                        D: LinearCode) -> NormalFormCertificate:
    """Five-step congruent reduction relative to a distinguished subcode.

    Returns a basis of C whose first k_1 rows span D and whose Gram
    matrix takes the coupled block form in the module docstring.  No
    library code calls it; the benchmark's trace hooks name it.
    """
    if not C.is_lcd() or C.is_even_like():
        raise ValueError("code must be odd-like LCD")
    if D.n != C.n or D.k >= C.k:
        raise ValueError("subcode must have strictly smaller dimension")
    if gf2.rank(C.gen.rows + D.gen.rows) != C.k:
        raise ValueError("D is not a subcode of C")
    k, n, k1 = C.k, C.n, D.k

    dcert = hull_normal_basis(D)
    s = dcert.shape.s
    a1_kind = dcert.shape.a1_kind
    hull_rows = list(dcert.basis[:s])
    a1_rows = list(dcert.basis[s:])

    # extend the subcode basis to a basis of C
    cand = hull_rows + a1_rows + list(C.gen.rows)
    ext = [cand[i] for i in gf2.eliminate(cand)[1] if i >= k1]
    if len(ext) != k - k1:
        raise NormalFormError("subcode basis does not extend to a basis of C")

    # Step 1: kill couplings between extension rows and the A_1 block.
    # A_1 is I or a J_2 sum (D's certificate checked it), its own
    # inverse, so e's coefficient on row j is e's coupling with row j's
    # partner: row j itself, or row j ^ 1
    swap = a1_kind == SYMPLECTIC
    for idx, e in enumerate(ext):
        for j, a in enumerate(a1_rows):
            if _ip(e, a1_rows[j ^ swap]):
                ext[idx] ^= a

    # Step 2: reduce the hull-coupling matrix to [I_s ; 0],
    # lowest-index pivots first
    m = len(ext)
    pivset: set = set()
    pivots: List[int] = []
    for j in range(s):
        pi = next(i for i in range(m)
                  if i not in pivset and _ip(ext[i], hull_rows[j]))
        for i in range(m):
            if i != pi and _ip(ext[i], hull_rows[j]):
                ext[i] ^= ext[pi]
        pivset.add(pi)
        pivots.append(pi)
    p_rows = [ext[i] for i in pivots]
    t_rows = [ext[i] for i in range(m) if i not in pivset]

    # Step 3: clear couplings into the coupled block using hull rows
    for fi, f in enumerate(t_rows):
        for j in range(s):
            if _ip(f, p_rows[j]):
                f ^= hull_rows[j]
        t_rows[fi] = f
    for i in range(s):
        for j in range(i + 1, s):
            if _ip(p_rows[i], p_rows[j]):
                p_rows[i] ^= hull_rows[j]

    # Step 4: permute the coupled pairs so diagonal ones come first
    order = sorted(range(s),
                   key=lambda i: (1 - _ip(p_rows[i], p_rows[i]), i))
    hull_rows = [hull_rows[i] for i in order]
    p_rows = [p_rows[i] for i in order]
    s1 = sum(_ip(p, p) for p in p_rows)

    # Step 5: bring the trailing block to identity / J_2-sum form
    t = len(t_rows)
    a3_kind = ABSENT
    if t:
        T, st, a3_kind = gf2.congruent_normal_form(t_rows)
        if st != 0:
            raise NormalFormError(
                "trailing block must be nonsingular for LCD input")
        t_rows = list(T)

    basis = tuple(hull_rows + a1_rows + p_rows + t_rows)
    shape = GramShape(s=s, k1=k1, a1_kind=a1_kind, s1=s1,
                      a3_kind=a3_kind, t=t, coupled=True)
    cert = _checked(basis, shape)
    # first k1 rows span D, all rows span C
    if gf2.rref(basis[:k1], n)[0] != D.rref():
        raise NormalFormError("leading rows do not span the subcode")
    if gf2.rref(basis, n)[0] != C.rref():
        raise NormalFormError("basis does not span the code")
    return cert


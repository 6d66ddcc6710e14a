"""Code-to-code construction operators.

Hull-guided puncturing/shortening plus the extension constructions:
parity-style row extensions from an orthonormal basis, systematic
leading-column extension with an exact LCD verdict, hull-dropping
row/column extensions, and the multi-output two-column extension.

Every operator returns the LinearCode it builds, so its output can be
the next construction's input.  extend_systematic returns None when its
verdict is "not LCD", and extend_two_multi returns a list of codes.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from . import gf2
from .gf2 import BitMatrix, BitVector
from .codes import LinearCode, check_coords
from . import normal_form as nf

# exhaustive coordinate-subset fallback is allowed up to this length
EXHAUSTIVE_N = 20
# cap on candidate subsets tried by the hull-guided searches
SEARCH_BUDGET = 200_000


class ConstructionSearchError(RuntimeError):
    """A guaranteed-to-exist witness was not found within budget."""


class ConstructionError(AssertionError):
    """A construction's output broke the property it guarantees.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


def _prepend_bit(rows, bits):
    """New first coordinate: row i gets bits[i] there, old coords shift."""
    return [(r << 1) | b for r, b in zip(rows, bits)]


def _require_lcd(C: LinearCode) -> None:
    if not C.is_lcd():
        raise ValueError("input code is not LCD")


def extend_even(C: LinearCode) -> LinearCode:
    """[n,k,d] LCD with d odd, k even -> even-like [n+1,k,d+1] LCD.

    Rows (1, c_i) over an orthonormal basis {c_i}.
    """
    _require_lcd(C)
    if C.min_distance() % 2 == 0:
        raise ValueError("minimum distance must be odd")
    if C.k % 2:
        raise ValueError("dimension must be even")
    basis = nf.orthonormal_basis(C)
    rows = _prepend_bit(list(basis.rows), [1] * C.k)
    out = LinearCode(BitMatrix.from_rows(rows, C.n + 1))
    if not (out.is_lcd() and out.is_even_like()):
        raise ConstructionError("extension must be even-like LCD")
    return out


def extend_odd_two(C: LinearCode) -> LinearCode:
    """[n,k,d] LCD with d odd, k odd -> odd-like [n+2,k,>=d+1] LCD.

    Rows (1, 1, c_i) over an orthonormal basis {c_i}.
    """
    _require_lcd(C)
    if C.min_distance() % 2 == 0:
        raise ValueError("minimum distance must be odd")
    if C.k % 2 == 0:
        raise ValueError("dimension must be odd")
    basis = nf.orthonormal_basis(C)
    rows = [(r << 2) | 0b11 for r in basis.rows]
    out = LinearCode(BitMatrix.from_rows(rows, C.n + 2))
    if not out.is_lcd() or out.is_even_like():
        raise ConstructionError("extension must be odd-like LCD")
    return out


def puncture_even_lcd(C: LinearCode, i: int) -> LinearCode:
    """Even-like [n,k,d] LCD punctured on coordinate i -> [n-1,k,>=d-1] LCD."""
    _require_lcd(C)
    if not C.is_even_like():
        raise ValueError("input code is not even-like")
    check_coords([i], C.n)
    out = C.puncture([i])
    if not out.is_lcd():
        raise ConstructionError("output is not LCD")
    return out


def shorten_odd_lcd(C: LinearCode,
                    i: Optional[int] = None) -> LinearCode:
    """Odd-like [n,k,d] LCD shortened on one coordinate -> LCD
    [n-1,k-1 or k,>=d].

    When the all-one vector lies in C any coordinate works (default: 1).
    Otherwise i is ignored and the code is shortened at the first
    coordinate j whose shortening is LCD: a zero column or Π_jj = 1
    (``LinearCode.projector``).  One exists: diag Π is the codeword s
    with s . c = |c| mod 2 on C, nonzero on an odd-like code.
    """
    _require_lcd(C)
    if C.is_even_like():
        raise ValueError("input code is not odd-like")
    if C.contains_all_one():
        coord = 1 if i is None else i
        check_coords([coord], C.n)
    else:
        coord = next(j + 1 for j, row in enumerate(C.projector().rows)
                     if not row or (row >> j) & 1)
    out = C.shorten([coord])
    if not out.is_lcd():
        raise ConstructionError("output is not LCD")
    return out


def _first_hull_subset(C: LinearCode, l: int, build, k: int,
                       what: str) -> LinearCode:
    """build(T) for the first l-subset T whose build is an LCD
    [n - l, k] code, over coordinates sorted by hull support, most first.
    Gives up past SEARCH_BUDGET subsets unless n <= EXHAUSTIVE_N."""
    hull = C.hull().gen.rows
    order = sorted(range(1, C.n + 1),
                   key=lambda c: (-sum((r >> (c - 1)) & 1 for r in hull), c))
    tried = 0
    for combo in itertools.combinations(order, l):
        tried += 1
        if tried > SEARCH_BUDGET and C.n > EXHAUSTIVE_N:
            break
        out = build(tuple(sorted(combo)))
        if out.k == k and out.is_lcd():
            return out
    raise ConstructionSearchError(
        f"no size-{l} {what} set found within budget ({tried} tried)")


def hull_shorten(C: LinearCode) -> LinearCode:
    """Shorten away the hull: [n,k,d] with hull dim l -> [n-l,k-l,>=d] LCD."""
    l = C.hull_dimension()
    if l < 1:
        raise ValueError("hull is already trivial")
    if l == C.k:
        raise ValueError("hull equals the code; shortening would be empty")
    return _first_hull_subset(C, l, C.shorten, C.k - l, "shortening")


def hull_puncture(C: LinearCode) -> LinearCode:
    """Puncture away the hull: hull dim l < d -> [n-l,k,>=d-l] LCD."""
    l = C.hull_dimension()
    if l < 1:
        raise ValueError("hull is already trivial")
    if l >= C.min_distance():
        raise ValueError("hull dimension must be below the distance")
    return _first_hull_subset(C, l, C.puncture, C.k, "puncturing")


def extend_row_dual(C: LinearCode, x: BitVector) -> LinearCode:
    """Adjoin row (1,x) with x an even-weight dual word -> [n+1,k+1] LCD."""
    _require_lcd(C)
    if x.length != C.n:
        raise ValueError("x has wrong length")
    if not C.dual().contains(x):
        raise ValueError("x is not in the dual code")
    if x.weight() % 2:
        raise ValueError("x must have even weight")
    rows = [(x.bits << 1) | 1] + [r << 1 for r in C.gen.rows]
    out = LinearCode(BitMatrix.from_rows(rows, C.n + 1))
    if not out.is_lcd():
        raise ConstructionError("output is not LCD")
    return out


def _stored_gram_kind(C: LinearCode) -> Optional[str]:
    """Identify the stored generator's Gram as identity / J_2-sum."""
    G = C.gram()
    if G == BitMatrix.identity(C.k):
        return nf.ORTHONORMAL
    try:
        expect = nf.GramShape(0, C.k, nf.SYMPLECTIC, 0, nf.ABSENT, 0,
                              False).expected_gram(C.k)
    except ValueError:
        return None
    if G == expect:
        return nf.SYMPLECTIC
    return None


def extend_systematic(C: LinearCode, x: BitVector) -> Optional[LinearCode]:
    """Leading-column extension [n+1,k+1] with an exact LCD verdict.

    The stored generator must already be orthonormal or symplectic with
    its first k columns independent.  x ranges over the last n-k
    coordinates and is padded to x~ = (0,...,0,x); the candidate code has
    generator [[1, x~], [0, G]].  The verdict is computed from the parity
    rule and always cross-checked against Gram nonsingularity; the code
    is returned when the verdict is LCD, None otherwise.
    """
    _require_lcd(C)
    if x.length != C.n - C.k:
        raise ValueError("x must cover the last n-k coordinates")
    kind = _stored_gram_kind(C)
    if kind is None:
        raise ValueError(
            "stored generator is not in orthonormal/symplectic form")
    lead = BitMatrix.from_rows(
        [r & ((1 << C.k) - 1) for r in C.gen.rows], C.k)
    if gf2.rank(lead) != C.k:
        raise ValueError("first k columns are not linearly independent")
    xt = x.bits << C.k
    if kind == nf.SYMPLECTIC:
        verdict = x.weight() % 2 == 0
    else:
        touched = sum(1 for r in C.gen.rows
                      if (r & xt).bit_count() & 1)
        verdict = (x.weight() + touched) % 2 == 0
    rows = [(xt << 1) | 1] + [r << 1 for r in C.gen.rows]
    M = BitMatrix.from_rows(rows, C.n + 1)
    actual = gf2.is_nonsingular(gf2.gram(M))
    if actual != verdict:
        raise ConstructionError("parity verdict disagrees with Gram test")
    return LinearCode(M) if verdict else None


def _hull_drop(C: LinearCode, x: BitVector,
               rows: List[int]) -> LinearCode:
    """The [n+1] code with these rows, checked to drop C's hull by one
    (x must meet the hull)."""
    s = C.hull_dimension()
    if s < 1:
        raise ValueError("hull is already trivial")
    if x.length != C.n:
        raise ValueError("x has wrong length")
    hull = C.hull()
    if all((x.bits & r).bit_count() % 2 == 0 for r in hull.gen.rows):
        raise ValueError("x is orthogonal to the whole hull")
    out = LinearCode(BitMatrix.from_rows(rows, C.n + 1))
    if out.hull_dimension() != s - 1:
        raise ConstructionError("hull dimension did not drop by one")
    return out


def extend_hull_drop(C: LinearCode, x: BitVector) -> LinearCode:
    """Adjoin row (1,x) meeting the hull -> [n+1,k+1], hull dimension
    one smaller."""
    rows = [(x.bits << 1) | 1] + [r << 1 for r in C.gen.rows]
    return _hull_drop(C, x, rows)


def extend_column_hull_drop(C: LinearCode, x: BitVector) -> LinearCode:
    """Prepend the column y_i = <x, r_i> -> [n+1,k]; the hull drops by one.

    This is the column-side mirror of extend_hull_drop: the output is the
    dual of the row extension [[1,x],[0,H]] of the dual code, so x must
    pair nontrivially with the (shared) hull.  Note that no x orthogonal
    to the hull can work — in particular no codeword of C can.
    """
    y = [(x.bits & r).bit_count() & 1 for r in C.gen.rows]
    return _hull_drop(C, x, _prepend_bit(list(C.gen.rows), y))


def parity_extend(C: LinearCode) -> LinearCode:
    """Append an overall parity coordinate; output is even-like."""
    rows = [r | ((r.bit_count() & 1) << C.n) for r in C.gen.rows]
    return LinearCode(BitMatrix.from_rows(rows, C.n + 1))


def extend_two_multi(C: LinearCode) -> List[LinearCode]:
    """All 2^(k-1) two-column extensions of an odd-k, odd-d [n,k,d] LCD
    code, each an [n+2,k,>=d+1] LCD code.

    Parity-extend to an even [n+1,k,d+1] code with one-dimensional hull,
    normalize so the first row spans the hull, then for every column
    y = (1, y_2, ..., y_k) append it with the row fix-up that restores
    orthogonality.  Outputs are ordered by the integer value of
    (y_2,...,y_k) and are pairwise distinct as codeword sets.
    """
    _require_lcd(C)
    if C.k % 2 == 0:
        raise ValueError("dimension must be odd")
    if C.min_distance() % 2 == 0:
        raise ValueError("minimum distance must be odd")
    k, n = C.k, C.n
    Cp = parity_extend(C)
    if Cp.hull_dimension() != 1:
        raise ConstructionError("parity extension must have hull dimension 1")
    cert = nf.hull_normal_basis(Cp)
    g = list(cert.basis.rows)  # g[0] spans the hull, rest symplectic
    outputs = []
    seen = set()
    for v in range(1 << (k - 1)):
        rows = [g[0] | (1 << (n + 1))]
        for i in range(1, k):
            yi = (v >> (i - 1)) & 1
            rows.append(g[i] ^ (yi * g[0]))
        out = LinearCode(BitMatrix.from_rows(rows, n + 2))
        if not out.is_lcd():
            raise ConstructionError("output is not LCD")
        key = out.rref().rows
        if key in seen:
            raise ConstructionError("duplicate codeword set")
        seen.add(key)
        outputs.append(out)
    return outputs

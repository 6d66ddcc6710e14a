"""Code-to-code construction operators.

Hull-guided puncturing/shortening plus the extension constructions:
parity-column extensions, systematic leading-column extension with an
exact LCD verdict, hull-dropping row/column extensions, and the
multi-output two-column extension.

The operators read their witnesses off the code, for any stored
generator: the hull's greedy information set, diag Π
(``LinearCode.projector``), each row's weight parity, or the null
vector of the Gram matrix.

The extensions build through two row maps: the row (1, x) over
[0 | G] (``_row_over``) and the column <x, r> prepended to each stored
row r (``_columns_before``).  ``_checked`` is the one check that a
built code is LCD of the promised dimension.

Every operator returns the LinearCode it builds, so its output can be
the next construction's input.  extend_systematic returns None when its
verdict is "not LCD", and extend_two_multi returns a list of codes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from . import gf2
from .gf2 import BitVector
from .codes import LinearCode, check_coords


class ConstructionError(AssertionError):
    """A construction's output broke the property it guarantees.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


def _require_lcd(C: LinearCode) -> None:
    if not C.is_lcd():
        raise ValueError("input code is not LCD")


def _require_odd_distance(C: LinearCode, k_odd: bool) -> None:
    """C is LCD, k has the given parity, and d is odd, checked in that
    order, so a wrong k costs no distance."""
    _require_lcd(C)
    if C.k % 2 != k_odd:
        raise ValueError(f"dimension must be {'odd' if k_odd else 'even'}")
    if C.min_distance() % 2 == 0:
        raise ValueError("minimum distance must be odd")


def _checked(out: LinearCode, k: int) -> LinearCode:
    """out, the built code, unless it is no LCD code of dimension k."""
    if out.k != k or not out.is_lcd():
        raise ConstructionError(f"output is not LCD of dimension {k}")
    return out


def _row_over(C: LinearCode, x: int) -> LinearCode:
    """The [n+1,k+1] code of the row (1, x) over [0 | G]."""
    return LinearCode([x << 1 | 1] + [r << 1 for r in C.gen.rows], C.n + 1)


def _columns_before(C: LinearCode, x: int, times: int = 1) -> LinearCode:
    """The [n+times,k] code whose stored row r gets the column <x, r>
    prepended times over."""
    ones = (1 << times) - 1
    return LinearCode([r << times | ones * ((x & r).bit_count() & 1)
                       for r in C.gen.rows], C.n + times)


def extend_even(C: LinearCode) -> LinearCode:
    """[n,k,d] LCD with d odd, k even -> even-like [n+1,k,d+1] LCD.

    Rows (|r| mod 2, r) for the stored rows r: the span of (1, c_i) over
    an orthonormal basis, as Σ c_i = diag Π and c . diag Π = |c| mod 2.
    """
    _require_odd_distance(C, k_odd=False)
    out = _checked(_columns_before(C, (1 << C.n) - 1), C.k)
    if not out.is_even_like():
        raise ConstructionError("extension must be even-like LCD")
    return out


def extend_odd_two(C: LinearCode) -> LinearCode:
    """[n,k,d] LCD with d odd, k odd -> odd-like [n+2,k,>=d+1] LCD.

    Rows (p, p, r), p = |r| mod 2: the span of (1, 1, c_i) over an
    orthonormal basis {c_i}, as in extend_even.
    """
    _require_odd_distance(C, k_odd=True)
    out = _checked(_columns_before(C, (1 << C.n) - 1, times=2), C.k)
    if out.is_even_like():
        raise ConstructionError("extension must be odd-like LCD")
    return out


def puncture_even_lcd(C: LinearCode, *T: int) -> LinearCode:
    """Even-like [n,k,d] LCD punctured on the coordinates T ->
    [n-|T|,k,>=d-|T|] LCD.

    Every coordinate refers to C: the set goes in one puncture, since
    after one coordinate of the support some row is odd.  diag Π = 0 on
    an even-like code (``LinearCode.projector``), so one coordinate
    always keeps the code LCD and of dimension k; a set T does exactly
    when I + Π[T,T] is nonsingular (for a pair u, v, when Π_uv = 0),
    and ValueError tells when it is not.
    """
    _require_lcd(C)
    if not C.is_even_like():
        raise ValueError("input code is not even-like")
    out = C.puncture(T)
    if out.k == C.k and out.is_lcd():
        return out
    if len(T) > 1:
        raise ValueError(f"I + Π[T,T] is singular for T = {sorted(T)}: "
                         f"the punctured code is no LCD [{out.n},{C.k}] code")
    raise ConstructionError("output is not LCD")


def shorten_odd_lcd(C: LinearCode,
                    i: Optional[int] = None) -> LinearCode:
    """Odd-like [n,k,d] LCD shortened on one coordinate -> LCD
    [n-1,k-1 or k,>=d].

    i is validated whenever it is given, and picks the coordinate only
    when the all-one vector lies in C: then any coordinate works
    (default: 1).  Otherwise the code is shortened at the first
    coordinate j whose shortening is LCD: a zero column or Π_jj = 1
    (``LinearCode.projector``).  One exists: diag Π is the codeword s
    with s . c = |c| mod 2 on C, nonzero on an odd-like code.
    """
    _require_lcd(C)
    if C.is_even_like():
        raise ValueError("input code is not odd-like")
    if i is not None:
        check_coords([i], C.n)
    if C.contains_all_one():
        coord = 1 if i is None else i
    else:
        coord = next(j + 1 for j, row in enumerate(C.projector())
                     if not row or (row >> j) & 1)
    # shortening drops a dimension unless the column is zero
    return _checked(C.shorten([coord]),
                    C.k - any(r >> (coord - 1) & 1 for r in C.gen.rows))


def _hull_information_set(C: LinearCode) -> Tuple[int, ...]:
    """The greedy information set of the hull, over coordinates sorted
    by hull support, most first, then by coordinate.

    Shortening T gives an LCD [n - l, k - l] code exactly when T is an
    information set of the l-dimensional hull: a hull word zero on T
    would lie in the hull of the result.  Puncturing T gives an LCD
    [n - l, k] code exactly then too, since (C^T)⊥ = (C⊥)_T and C⊥ has
    the same hull.  The greedy set is the lexicographically first
    basis, so it is the first l-subset, in that order, that works.
    """
    cols = gf2.transpose(C.hull().gen.rows, C.n)  # the hull's columns
    order = sorted(range(C.n), key=lambda c: (-cols[c].bit_count(), c))
    _, kept = gf2.eliminate([cols[c] for c in order])
    return tuple(sorted(order[i] + 1 for i in kept))


def hull_shorten(C: LinearCode) -> LinearCode:
    """Shorten away the hull: [n,k,d] with hull dim l -> [n-l,k-l,>=d] LCD."""
    l = C.hull_dimension()
    if l < 1:
        raise ValueError("hull is already trivial")
    if l == C.k:
        raise ValueError("hull equals the code; shortening would be empty")
    return _checked(C.shorten(_hull_information_set(C)), C.k - l)


def hull_puncture(C: LinearCode) -> LinearCode:
    """Puncture away the hull: hull dim l < d -> [n-l,k,>=d-l] LCD."""
    l = C.hull_dimension()
    if l < 1:
        raise ValueError("hull is already trivial")
    if l >= C.min_distance():
        raise ValueError("hull dimension must be below the distance")
    return _checked(C.puncture(_hull_information_set(C)), C.k)


def extend_row_dual(C: LinearCode, x: BitVector) -> LinearCode:
    """Adjoin row (1,x) with x an even-weight dual word -> [n+1,k+1] LCD."""
    _require_lcd(C)
    if x.length != C.n:
        raise ValueError("x has wrong length")
    if any((x.bits & r).bit_count() & 1 for r in C.gen.rows):
        raise ValueError("x is not in the dual code")
    if x.bits.bit_count() % 2:
        raise ValueError("x must have even weight")
    return _checked(_row_over(C, x.bits), C.k + 1)


def extend_systematic(C: LinearCode, x: BitVector) -> Optional[LinearCode]:
    """Leading-column extension [n+1,k+1] with an exact LCD verdict.

    x ranges over the last n-k coordinates and is padded to
    x~ = (0,...,0,x); the candidate code has generator [[1, x~], [0, G]]
    for the stored G, whatever basis it is.  By the Schur complement its
    Gram determinant is det(G Gᵀ)(1 + |x~| + x~ Π x~ᵀ), and
    x~ Π x~ᵀ = |x~ & s| with s = diag Π, so the candidate is LCD exactly
    when |x~ & ~s| is even.  The code is returned on that verdict, None
    otherwise.
    """
    _require_lcd(C)
    if x.length != C.n - C.k:
        raise ValueError("x must cover the last n-k coordinates")
    s = sum(row & (1 << j) for j, row in enumerate(C.projector()))
    xt = x.bits << C.k
    if (xt & ~s).bit_count() % 2:
        return None
    return _checked(_row_over(C, xt), C.k + 1)


def _hull_drop(C: LinearCode, x: BitVector,
               build: Callable[[LinearCode, int], LinearCode]) -> LinearCode:
    """build(C, x), checked to drop C's hull by one (x must meet the
    hull)."""
    s = C.hull_dimension()
    if s < 1:
        raise ValueError("hull is already trivial")
    if x.length != C.n:
        raise ValueError("x has wrong length")
    hull = C.hull()
    if all((x.bits & r).bit_count() % 2 == 0 for r in hull.gen.rows):
        raise ValueError("x is orthogonal to the whole hull")
    out = build(C, x.bits)
    if out.hull_dimension() != s - 1:
        raise ConstructionError("hull dimension did not drop by one")
    return out


def extend_hull_drop(C: LinearCode, x: BitVector) -> LinearCode:
    """Adjoin row (1,x) meeting the hull -> [n+1,k+1], hull dimension
    one smaller."""
    return _hull_drop(C, x, _row_over)


def extend_column_hull_drop(C: LinearCode, x: BitVector) -> LinearCode:
    """Prepend the column y_i = <x, r_i> -> [n+1,k]; the hull drops by one.

    This is the column-side mirror of extend_hull_drop: the output is the
    dual of the row extension [[1,x],[0,H]] of the dual code, so x must
    pair nontrivially with the (shared) hull.  Note that no x orthogonal
    to the hull can work — in particular no codeword of C can.
    """
    return _hull_drop(C, x, _columns_before)


def parity_extend(C: LinearCode) -> LinearCode:
    """Append an overall parity coordinate; output is even-like."""
    rows = [r | ((r.bit_count() & 1) << C.n) for r in C.gen.rows]
    return LinearCode(rows, C.n + 1)


def extend_two_multi(C: LinearCode) -> List[LinearCode]:
    """All 2^(k-1) two-column extensions of an odd-k, odd-d [n,k,d] LCD
    code, each an [n+2,k,>=d+1] LCD code.

    Parity-extend to an even [n+1,k,d+1] code C' whose hull is x G'
    (x spans the null space of G' G'^T), then append bit a_j to row j of
    G' for every a with a . x odd: a new column that is 1 on the hull.
    Each output is LCD: its Gram matrix's Schur complement at the hull
    is the nonsingular form on a complement of the hull.  Outputs are
    ordered by the integer value of a and are pairwise distinct as
    codeword sets.
    """
    _require_odd_distance(C, k_odd=True)
    k, n = C.k, C.n
    Cp = parity_extend(C)
    if Cp.hull_dimension() != 1:
        raise ConstructionError("parity extension must have hull dimension 1")
    (x,) = gf2.nullspace(Cp.gram(), k)
    outputs = []
    seen = set()
    for a in range(1 << k):
        if not (a & x).bit_count() & 1:
            continue
        out = _checked(LinearCode([r | (a >> j & 1) << (n + 1)
                                   for j, r in enumerate(Cp.gen.rows)],
                                  n + 2), k)
        key = out.rref()
        if key in seen:
            raise ConstructionError("duplicate codeword set")
        seen.add(key)
        outputs.append(out)
    return outputs

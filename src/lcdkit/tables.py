"""Exhaustive small-length tables of the best LCD minimum distance.

d_lcd(n, k) is the largest minimum distance of any binary [n, k] LCD
code.  The search runs over systematic generator matrices [I_k | B]
modulo column permutations: every code is column-equivalent to a
systematic one, and row/column permutations of B realize the remaining
symmetry, so it suffices to enumerate matrices B in doubly lexical
form (rows and columns both sorted).  The redundant part is always
taken on the smaller side — [I_k | B] and [B^T | I_k] have Gram
matrices I + BB^T and I + B^T B, which are singular together — so B
never has more than min(k, n-k) rows.

The enumerator takes its callers' rejection tests into its recursion:
a distance floor on the generator rows (the current best distance for
d_lcd, d_min - 1 for the corpus) and, for the corpus, membership of
the all-one vector.  Together they cut whole subtrees that no
completion could pass.  Every caller still applies its full checks to
what is yielded, and a pruned matrix is one those checks would reject,
so callers see a subsequence of the unpruned sequence in the same order
and every result is unchanged.

Also exposes the exhaustive corpus of odd-like LCD codes containing
the all-one vector (one representative set covering every such code up
to column permutation), used to exercise the step-down engine.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import gf2
from .codes import EngineBudgetError, LinearCode, min_weight

# Exhaustive table search budget.
N_MAX = 12


class TableLawError(AssertionError):
    """A search result or table breaks a law every d_lcd table obeys.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


def canonical_b_matrices(
        r: int, m: int, *, floor: Optional[Callable[[], int]] = None,
        all_one: bool = False,
        transposed: bool = False) -> Iterator[Tuple[int, ...]]:
    """All r x m binary matrices in doubly lexical form.

    Rows are emitted as ints with bit j = column j.  Column values
    (read top row first) are non-increasing left to right, and row
    values (read leftmost column first) are non-increasing top to
    bottom.  Every matrix can be brought to such a form by row and
    column permutations, so the iterator covers every equivalence
    class at least once.  Matrices come in decreasing order of their
    column sequence.

    The keyword constraints read B as the redundant part of a
    systematic generator matrix: [I_r | B], whose generator rows are
    e_i | row i, or with ``transposed`` [B^T | I_m], whose generator
    rows are column j | e_j.  They cut whole subtrees of the search,
    and drop only matrices that the same test would reject once built:

    - ``floor``: every generator row, and the sum of every two, must
      weigh more than ``floor()``.  It is read afresh at each node, so
      a caller may raise it while iterating.  Untransposed, a column
      is cut when some row could not exceed the floor even with every
      remaining column set; transposed, a column (one generator row)
      is skipped when it or its sum with an earlier column is too
      light.
    - ``all_one``: the all-one vector must lie in the code.  Its
      coefficients over the identity part are all ones, so every
      redundant coordinate of the sum of all generator rows must be
      1: untransposed only odd-weight columns are tried, transposed
      the last column is forced to make every row's weight odd.

    With no constraint the full sequence is yielded.
    """
    odd_cols = all_one and not transposed
    # allowed column values, in the order they are tried
    values = [v for v in range((1 << r) - 1, -1, -1)
              if not odd_cols or v.bit_count() & 1]
    rows = [0] * r
    cols: List[int] = []  # placed columns (transposed: generator rows)

    def column_heavy(v: int, f: int) -> bool:
        # transposed: generator row v and its sums with earlier ones
        return v.bit_count() + 1 > f and all(
            (v ^ w).bit_count() + 2 > f for w in cols)

    def rows_can_be_heavy(prefixes: List[int], left: int, f: int) -> bool:
        # untransposed: each row and pair sum, with every column left set
        return all(p.bit_count() + left + 1 > f for p in prefixes) and all(
            (p ^ q).bit_count() + left + 2 > f
            for i, p in enumerate(prefixes) for q in prefixes[i + 1:])

    def rec(j: int, start: int,
            prefixes: List[int]) -> Iterator[Tuple[int, ...]]:
        if j == m:
            yield tuple(rows)
            return
        left = m - j - 1  # columns still to place after this one
        candidates = range(start, len(values))
        if all_one and transposed and left == 0:
            parity = 0
            for p in prefixes:
                parity = (parity << 1) | (~p.bit_count() & 1)
            forced = len(values) - 1 - parity  # values run 2^r - 1 .. 0
            candidates = range(max(forced, start), forced + 1)
        f = floor() if floor is not None else None
        for idx in candidates:
            v = values[idx]
            if f is not None and transposed and not column_heavy(v, f):
                continue
            new_pref = []
            ok = True
            last: Optional[int] = None
            for i in range(r):
                bit = (v >> (r - 1 - i)) & 1
                p = (prefixes[i] << 1) | bit
                if last is not None and p > last:
                    ok = False
                    break
                last = p
                new_pref.append(p)
            if not ok:
                continue
            if f is not None and not transposed and f > left and \
                    not rows_can_be_heavy(new_pref, left, f):
                continue
            for i in range(r):
                if (v >> (r - 1 - i)) & 1:
                    rows[i] |= 1 << j
            cols.append(v)
            yield from rec(j + 1, idx, new_pref)
            cols.pop()
            for i in range(r):
                if (v >> (r - 1 - i)) & 1:
                    rows[i] &= ~(1 << j)
            if f is not None:
                f = floor()  # the caller may have raised it

    yield from rec(0, 0, [0] * r)


def _systematic_rows(n: int, k: int, b_rows: Tuple[int, ...]) -> List[int]:
    """Generator rows of the [n, k] code determined by the small-side B."""
    c = n - k
    if k <= c:
        # [I_k | B], B is k x c
        return [(1 << i) | (b_rows[i] << k) for i in range(k)]
    # [B^T | I_k], B is c x k
    out = []
    for i in range(k):
        col = 0
        for j in range(c):
            col |= ((b_rows[j] >> i) & 1) << j
        out.append(col | (1 << (c + i)))
    return out


def _gram_nonsingular(b_rows: Tuple[int, ...]) -> bool:
    """Whether I + B B^T is nonsingular (LCD test on the small side)."""
    r = len(b_rows)
    g = []
    for i in range(r):
        row = 1 << i
        for j in range(r):
            if (b_rows[i] & b_rows[j]).bit_count() & 1:
                row ^= 1 << j
        g.append(row)
    return gf2.rank_of_rows(g) == r


def _weights_above(rows: List[int], limit: int) -> bool:
    """Cheap filter: all single rows and row pairs heavier than limit."""
    k = len(rows)
    for i in range(k):
        if rows[i].bit_count() <= limit:
            return False
        for j in range(i + 1, k):
            if (rows[i] ^ rows[j]).bit_count() <= limit:
                return False
    return True


def _dmin_above(rows: List[int], limit: int) -> Optional[int]:
    """Exact minimum distance if it exceeds limit, else None."""
    if not _weights_above(rows, limit):
        return None
    d = min_weight(rows, limit)
    return d if d > limit else None


def dlcd_value(n: int, k: int) -> int:
    """Exact d_lcd(n, k) by canonical exhaustive search."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return 1  # the full space is LCD with distance 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for b in canonical_b_matrices(r, m, floor=lambda: best,
                                  transposed=k > n - k):
        rows = _systematic_rows(n, k, b)
        if not _weights_above(rows, best):
            continue
        if not _gram_nonsingular(b):
            continue
        best = max(best, min_weight(rows, best))
    if best < 1:
        raise TableLawError(f"no LCD code found for (n={n}, k={k})")
    return best


def dlcd_value_oracle(n: int, k: int) -> int:
    """d_lcd(n, k) over every systematic generator, n <= 7: the
    reference that dlcd_value's canonical pruning is tested against."""
    if n > 7:
        raise EngineBudgetError("oracle search limited to n <= 7")
    if k == n:
        return 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for b in itertools.product(range(1 << m), repeat=r):
        if not _gram_nonsingular(b):
            continue
        rows = _systematic_rows(n, k, b)
        d = _dmin_above(rows, best)
        if d is not None:
            best = d
    return best


def dlcd_table(n_max: int) -> Dict[Tuple[int, int], int]:
    """Exact d_lcd(n, k) for all 1 <= k <= n <= n_max."""
    if n_max > N_MAX:
        raise EngineBudgetError(f"table search capped at n <= {N_MAX}")
    table = {}
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            table[(n, k)] = dlcd_value(n, k)
    return table


def check_step_property(table: Dict[Tuple[int, int], int]) -> None:
    """Verify the closed form at k = 1 and the unit-step law at k >= 2.

    Also checks monotonicity in n and antitonicity in k.  Raises
    TableLawError, an AssertionError, on any violation.
    """
    n_max = max(n for n, _ in table)
    for n in range(1, n_max + 1):
        expect = n if n % 2 else n - 1
        if (n, 1) in table and table[(n, 1)] != expect:
            raise TableLawError(f"k=1 closed form fails at n={n}")
    for (n, k), d in table.items():
        if (n + 1, k) in table:
            diff = table[(n + 1, k)] - d
            if diff < 0:
                raise TableLawError(f"not monotone in n at (n={n}, k={k})")
            if k >= 2 and diff not in (0, 1):
                raise TableLawError(
                    f"step property fails at (n={n}, k={k}): diff={diff}")
        if (n, k + 1) in table and table[(n, k + 1)] > d:
            raise TableLawError(f"not antitone in k at (n={n}, k={k})")


def all_one_lcd_codes(length: int, d_min: int = 3,
                      k_min: int = 2) -> Iterator[LinearCode]:
    """All odd-like LCD codes containing 1_n, up to column permutation.

    Yields one systematic representative per canonical matrix with
    dimension >= k_min and minimum distance >= d_min.  Any LCD code
    containing the all-one vector is automatically odd-like.
    """
    n = length
    for k in range(k_min, n + 1):
        if k == n:
            continue  # full space has d = 1 < 3
        c = n - k
        r, m = min(k, c), max(k, c)
        for b in canonical_b_matrices(r, m, floor=lambda: d_min - 1,
                                      all_one=True, transposed=k > c):
            rows = _systematic_rows(n, k, b)
            d = _dmin_above(rows, d_min - 1)
            if d is None:
                continue
            if not _gram_nonsingular(b):
                continue
            code = LinearCode.from_rows(rows, n)
            code._cache["dmin_value"] = d
            yield code

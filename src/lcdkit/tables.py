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

The enumerator owns the distance test.  Its callers give it a floor
(the current best distance for d_lcd, d_min - 1 for the corpus) and,
for the corpus, membership of the all-one vector; it yields only the
matrices that pass, each with its code's exact minimum distance, so a
caller keeps only its LCD test.  On the [I_k | B] side the weights of
all messages on the placed columns are lanes of one ``WeightTable``:
a subtree is cut as soon as some nonzero message could not beat the
floor even with every remaining column set, and the leaf's distance is
read off the lanes.  On the [B^T | I_k] side light generator rows and
pair sums are skipped and the leaf is measured with ``min_weight``.
Either way the yields are, in the same order, exactly the matrices of
the unpruned sequence whose code passes, so every result is unchanged.

Also exposes the exhaustive corpus of odd-like LCD codes containing
the all-one vector (one representative set covering every such code up
to column permutation), used to exercise the step-down engine.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import xor
from typing import Callable, Dict, Iterator, List, Tuple

from . import gf2
from .codes import EngineBudgetError, LinearCode, WeightTable, min_weight

# Exhaustive table search budget.
N_MAX = 12


class TableLawError(AssertionError):
    """A search result or table breaks a law every d_lcd table obeys.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


def canonical_b_matrices(
        r: int, m: int, *, floor: Callable[[], int] = lambda: 0,
        all_one: bool = False, transposed: bool = False
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """All r x m binary matrices in doubly lexical form, with distances.

    Rows are emitted as ints with bit j = column j.  Column values
    (read top row first) are non-increasing left to right, and row
    values (read leftmost column first) are non-increasing top to
    bottom.  Every matrix can be brought to such a form by row and
    column permutations, so the iterator covers every equivalence
    class at least once.  Matrices come in decreasing order of their
    column sequence.

    B is read as the redundant part of a systematic generator matrix:
    [I_r | B], whose generator rows are e_i | row i, or with
    ``transposed`` [B^T | I_m], whose generator rows are column j | e_j.
    Each B is yielded as (B, d) with d its code's exact minimum
    distance, and only when it passes both constraints; subtrees that
    no completion could pass are cut:

    - ``floor``: d must exceed ``floor()``.  It is read afresh at each
      node, so a caller may raise it while iterating.  Untransposed,
      the weights of all 2^r messages on the placed columns are lanes
      of one ``WeightTable``; a column is cut when some nonzero message
      could not exceed the floor even with every remaining column set,
      and d is read off the lanes.  Transposed, a column (one generator
      row) is skipped when it or its sum with an earlier column is too
      light, and d comes from ``min_weight``.
    - ``all_one``: the all-one vector must lie in the code.  Its
      coefficients over the identity part are all ones, so every
      redundant coordinate of the sum of all generator rows must be
      1: untransposed only odd-weight columns are tried, transposed
      the last column is forced to make every row's weight odd.

    The default floor of 0 yields the full sequence.
    """
    odd_cols = all_one and not transposed
    # allowed column values, in the order they are tried
    values = [v for v in range((1 << r) - 1, -1, -1)
              if not odd_cols or v.bit_count() & 1]
    table = WeightTable([1 << i for i in range(r)] + [0] * m, r)
    # the lanes a column value adds; its top bit is row 0's
    pattern = [0] * (1 << r)
    for v in range(1, 1 << r):
        low = v & -v
        pattern[v] = pattern[v ^ low] ^ table.units[r - low.bit_length()]
    cols: List[int] = []  # placed column values (transposed: generator rows)

    def column_heavy(v: int, f: int) -> bool:
        # transposed: generator row v and its sums with earlier ones
        return v.bit_count() + 1 > f and all(
            (v ^ w).bit_count() + 2 > f for w in cols)

    def rec(j: int, start: int, tied: int,
            w: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
        # tied: bit r-1-i set while rows i-1 and i agree on every placed
        # column; w: the message weights on the placed columns
        f = floor()
        if j == m:
            if transposed:
                d = min_weight(
                    [c | 1 << (r + t) for t, c in enumerate(cols)], f)
            else:
                d = table.minimum(w, f)
            if d > f:
                # column values are read top row first: bit r-1 is row 0
                yield gf2.transpose(cols, r)[::-1], d
            return
        left = m - j - 1  # columns still to place after this one
        candidates = range(start, len(values))
        if all_one and transposed and left == 0:
            # with x the rows' parities, value 2^r - 1 - x makes every
            # row odd; values run down from 2^r - 1, so its index is x
            forced = reduce(xor, cols, 0)
            candidates = range(max(forced, start), forced + 1)
        for idx in candidates:
            v = values[idx]
            if v & ~(v >> 1) & tied:
                continue  # a row would rise above the tied row before it
            nw = w + pattern[v]
            if transposed:
                if not column_heavy(v, f):
                    continue
            elif f > left and not table.at_least(nw, f + 1 - left):
                continue
            cols.append(v)
            yield from rec(j + 1, idx, tied & ~(v ^ v >> 1), nw)
            cols.pop()
            f = floor()  # the caller may have raised it

    yield from rec(0, 0, (1 << r) - 1 >> 1, table.weights)


def _systematic_rows(n: int, k: int, b_rows: Tuple[int, ...]) -> List[int]:
    """Generator rows of the [n, k] code determined by the small-side B."""
    c = n - k
    if k <= c:
        # [I_k | B], B is k x c
        return [(1 << i) | (b_rows[i] << k) for i in range(k)]
    # [B^T | I_k], B is c x k
    return [col | (1 << (c + i))
            for i, col in enumerate(gf2.transpose(b_rows, k))]


def _gram_nonsingular(b_rows: Tuple[int, ...]) -> bool:
    """Whether I + B B^T is nonsingular (LCD test on the small side)."""
    g = [row ^ 1 << i for i, row in enumerate(gf2.gram(b_rows))]
    return gf2.rank(g) == len(b_rows)


def dlcd_value(n: int, k: int) -> int:
    """Exact d_lcd(n, k) by canonical exhaustive search."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return 1  # the full space is LCD with distance 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for b, d in canonical_b_matrices(r, m, floor=lambda: best,
                                     transposed=k > n - k):
        if _gram_nonsingular(b):
            best = d
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
        if _gram_nonsingular(b):
            best = max(best, min_weight(_systematic_rows(n, k, b), best))
    return best


def dlcd_table(n_max: int) -> Dict[Tuple[int, int], int]:
    """Exact d_lcd(n, k) for all 1 <= k <= n <= n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
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


def all_one_lcd_codes(length: int) -> Iterator[LinearCode]:
    """All odd-like LCD codes containing 1_n, up to column permutation.

    Yields one systematic representative per canonical matrix with
    dimension >= 2 and minimum distance >= 3, the step-down's
    preconditions.  Any LCD code containing the all-one vector is
    automatically odd-like.
    """
    n = length
    for k in range(2, n):  # k = n is the full space, d = 1
        c = n - k
        r, m = min(k, c), max(k, c)
        for b, d in canonical_b_matrices(r, m, floor=lambda: 2,
                                         all_one=True, transposed=k > c):
            if _gram_nonsingular(b):
                code = LinearCode(_systematic_rows(n, k, b), n)
                code._cache["dmin_value"] = d
                yield code

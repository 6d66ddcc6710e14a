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

The enumerator owns the distance test and the LCD test.  Its callers
give it a floor (the current best distance for d_lcd, d_min - 1 for
the corpus), for the corpus membership of the all-one vector, and ask
for LCD codes; it yields only the matrices that pass, each with its
code's exact minimum distance, and a caller tests nothing itself.
Both sides keep one int of lanes, one lane per r-bit vector, and cut a
subtree as soon as a lane shows that no completion can beat the
floor.  On the [I_k | B] side lane x is the weight of message x on the
placed columns (a ``WeightTable``), and a subtree is cut when some
nonzero message could not beat the floor even with every remaining
column set.  On the [B^T | I_k] side each placed column is a whole
generator row, so every message on the placed rows is final; lane s is
the least weight of a word of the placed rows plus (s | 0), a column v
is cut when the messages it makes final, the lightest weighing
1 + lane v, do not beat the floor, and no codeword is walked.  Either
way the leaf's distance is read off the lanes, and the yields are, in
the same order, exactly the matrices of the unpruned sequence whose
code passes, so every result is unchanged.

A code is LCD exactly when its Gram matrix is nonsingular (Massey),
and I + BB^T is singular exactly when I + B^T B is, so both sides test
the r x r matrix S = I_r + BB^T, the sum of I_r and the outer products
v v^T of B's column values v.  The enumerator carries S as one int of
r lanes, XORs in a precomputed v v^T as it places each column, and
tests S's rank only at a leaf that beats the floor, before the leaf is
transposed into rows.

Also exposes the exhaustive corpus of odd-like LCD codes containing
the all-one vector (one representative set covering every such code up
to column permutation), used to exercise the step-down engine.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import xor
from typing import Callable, Dict, Iterator, List, Tuple

from . import gf2
from .codes import EngineBudgetError, LinearCode, WeightTable

# Exhaustive table search budget.
N_MAX = 12


class TableLawError(AssertionError):
    """A search result or table breaks a law every d_lcd table obeys.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


@lru_cache(maxsize=None)
def _outer_products(r: int) -> Tuple[Tuple[int, ...], int]:
    """(outer, identity) as r lanes of r bits, lane p for bit p of a
    column value: outer[v] = v v^T holds v in the lanes of v's bits, and
    identity is I_r.  Built once per r, which takes few values, and
    never changed."""
    spread = [0] * (1 << r)  # bit 0 of the lanes of v's bits
    for v in range(1, 1 << r):
        low = v & -v
        spread[v] = spread[v ^ low] | 1 << r * (low.bit_length() - 1)
    return (tuple([v * lanes for v, lanes in enumerate(spread)]),
            sum(1 << (r + 1) * p for p in range(r)))


def canonical_b_matrices(
        r: int, m: int, *, floor: Callable[[], int] = lambda: 0,
        all_one: bool = False, lcd: bool = False, transposed: bool = False
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
    distance, and only when it passes every constraint; the floor and
    ``all_one`` also cut the subtrees that no completion could pass:

    - ``floor``: d must exceed ``floor()``.  It is read afresh at each
      node, so a caller may raise it while iterating.  Untransposed,
      the weights of all 2^r messages on the placed columns are lanes
      of one ``WeightTable``; a column is cut when some nonzero message
      could not exceed the floor even with every remaining column set,
      and d is read off the lanes.  Transposed, lane s holds the least
      weight of x G + (s | 0) over the messages x on the placed
      generator rows; placing column j with value v makes the messages
      with bit j final, and the lightest of them weighs 1 + lane v, so
      the column is cut when that is at most the floor, and the lanes
      step to min(lane s, 1 + lane s ^ v).  d is the least of those
      weights over the placed rows, so it is exact at the leaf.
    - ``all_one``: the all-one vector must lie in the code.  Its
      coefficients over the identity part are all ones, so every
      redundant coordinate of the sum of all generator rows must be
      1: untransposed only odd-weight columns are tried, transposed
      the last column is forced to make every row's weight odd.
    - ``lcd``: the code must be LCD, that is I_r + BB^T nonsingular.
      That matrix, the sum of I_r and v v^T over the placed column
      values v (transposed: the placed generator rows), rides the
      recursion as r lanes of r bits, and a leaf that beats the floor
      is yielded only when ``gf2.lanes_nonsingular`` passes it.

    The default floor of 0 with no constraint set yields the full
    sequence.
    """
    odd_cols = all_one and not transposed
    # allowed column values, in the order they are tried
    values = [v for v in range((1 << r) - 1, -1, -1)
              if not odd_cols or v.bit_count() & 1]
    table = WeightTable([1 << i for i in range(r)] + [0] * m, r)
    width = table.width
    if transposed:
        # lane s: the least weight of x G + (s | 0), s on B's coordinates
        # read as a column value, over the messages x on the placed rows,
        # x = 0 included; with no row placed it is |s|, table.weights
        lane = (1 << width) - 1
        top = width - 1
        ones = table.nonzero | 1
        guards = ones << top
        # moves[v]: the lane swaps (shift, lanes whose index lacks the
        # bit) that take lane s to lane s ^ v, one per bit of v
        moves: List[List[Tuple[int, int]]] = [[]]
        for v in range(1, 1 << r):
            low = v & -v
            if v == low:
                has_bit = table.units[v.bit_length() - 1] * lane
                moves.append([(width * v, ~has_bit)])
            else:
                moves.append(moves[v ^ low] + moves[low])
    else:
        # the lanes a column value adds; its top bit is row 0's
        pattern = [0] * (1 << r)
        for v in range(1, 1 << r):
            low = v & -v
            pattern[v] = pattern[v ^ low] ^ table.units[r - low.bit_length()]
    outer, identity = _outer_products(r)
    cols: List[int] = []  # placed column values (transposed: generator rows)

    def rec(j: int, start: int, tied: int, w: int, d: int,
            s: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
        # tied: bit r-1-i set while rows i-1 and i agree on every placed
        # column; w: the lanes; d (transposed): the least weight of a
        # nonzero message on the placed generator rows; s: I_r plus the
        # outer products of the placed column values
        f = floor()
        if j == m:
            if not transposed:
                d = table.minimum(w, f)
            # the rank test runs last: most leaves fail the floor first
            if d > f and (not lcd or gf2.lanes_nonsingular(s, r)):
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
            if transposed:
                # the messages with bit j, final now, weigh 1 + lane v
                # at the least
                e = w >> width * v & lane
                if e < f:
                    continue
                b = w
                for shift, low in moves[v]:
                    b = (b & low) << shift | (b >> shift) & low
                b += ones  # lane s: 1 + lane s ^ v, through row j
                ge = ((w | guards) - b) & guards  # guard set: lane >= b's
                nw = w ^ ((w ^ b) & (ge - (ge >> top)))
                nd = min(d, e + 1)
            else:
                nw = w + pattern[v]
                if f > left and not table.at_least(nw, f + 1 - left):
                    continue
                nd = d
            cols.append(v)
            yield from rec(j + 1, idx, tied & ~(v ^ v >> 1), nw, nd,
                           s ^ outer[v])
            cols.pop()
            f = floor()  # the caller may have raised it
            if d <= f:
                return  # a placed message no longer beats it

    try:
        yield from rec(0, 0, (1 << r) - 1 >> 1, table.weights, r + m + 1,
                       identity)
    finally:
        del rec  # rec holds itself through its closure: no cycle left


def _systematic_rows(n: int, k: int, b_rows: Tuple[int, ...]) -> List[int]:
    """Generator rows of the [n, k] code determined by the small-side B."""
    c = n - k
    if k <= c:
        # [I_k | B], B is k x c
        return [(1 << i) | (b_rows[i] << k) for i in range(k)]
    # [B^T | I_k], B is c x k
    return [col | (1 << (c + i))
            for i, col in enumerate(gf2.transpose(b_rows, k))]


def dlcd_value(n: int, k: int) -> int:
    """Exact d_lcd(n, k) by canonical exhaustive search."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return 1  # the full space is LCD with distance 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for _, d in canonical_b_matrices(r, m, floor=lambda: best, lcd=True,
                                     transposed=k > n - k):
        best = d  # the walk's floor from here on
    if best < 1:
        raise TableLawError(f"no LCD code found for (n={n}, k={k})")
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


def law_violations(bounds: Dict[Tuple[int, int], Tuple[int, int]]
                   ) -> List[str]:
    """Where (lower, upper) bounds on d_lcd(n, k) break its laws: monotone
    in n, antitone in k and, for k >= 2, a unit step in n.  Cells present
    together are compared, a lower bound against an upper one."""
    bad = []
    for (n, k), (lower, upper) in sorted(bounds.items()):
        up = bounds.get((n + 1, k))
        if up is not None:
            if up[1] < lower:
                bad.append(f"({n + 1},{k}) upper {up[1]} below "
                           f"({n},{k}) lower {lower}")
            if k >= 2 and up[0] > upper + 1:
                bad.append(f"({n + 1},{k}) lower {up[0]} exceeds "
                           f"({n},{k}) upper {upper} + 1")
        left = bounds.get((n, k - 1))
        if left is not None and left[1] < lower:
            bad.append(f"({n},{k - 1}) upper {left[1]} below "
                       f"({n},{k}) lower {lower}")
    return bad


def check_step_property(table: Dict[Tuple[int, int], int]) -> None:
    """Verify the closed form at k = 1 and the laws of ``law_violations``;
    raises TableLawError, an AssertionError, on the first violation."""
    for (n, k), d in sorted(table.items()):
        if k == 1 and d != n - 1 + n % 2:
            raise TableLawError(f"k=1 closed form fails at n={n}")
    bad = law_violations({key: (d, d) for key, d in table.items()})
    if bad:
        raise TableLawError(bad[0])


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
        for b, d in canonical_b_matrices(r, m, floor=lambda: 2, all_one=True,
                                         lcd=True, transposed=k > c):
            code = LinearCode(_systematic_rows(n, k, b), n)
            code._cache["dmin_value"] = d
            yield code

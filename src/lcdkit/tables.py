"""Exhaustive small-length tables of the best LCD minimum distance.

d_lcd(n, k) is the largest minimum distance of any binary [n, k] LCD
code.  The search runs over systematic generator matrices modulo column
permutations: every code is column-equivalent to a systematic one, and
row/column permutations of the redundant part B realize the remaining
symmetry, so it suffices to enumerate matrices B in doubly lexical
form (rows and columns both sorted).  B is always taken on the smaller
side — [I_k | B] when k <= n - k, else [B^T | I_k]; their Gram
matrices I + BB^T and I + B^T B are singular together — so B never has
more than min(k, n-k) rows.  ``canonical_b_matrices(n, k)`` is the one
place that knows this layout: it takes the cell and yields its codes'
generator rows.

The enumerator owns the distance test and the LCD test.  Its callers
give it a floor (the current best distance for d_lcd, d_min - 1 for
the corpus) and, for the corpus, the membership of the all-one vector;
it yields only the LCD codes that pass, each with its exact minimum
distance, and a caller tests nothing itself.  On both sides one int of
lanes, one lane per r-bit vector, cuts a subtree as soon as a lane
shows that no completion can beat the floor, and the leaf's distance
is read off the lanes, so no codeword is walked; the yields are, in
the same order, exactly the codes of the unpruned sequence that pass.
A code is LCD exactly when its Gram matrix is nonsingular (Massey),
and I + BB^T is singular exactly when I + B^T B is, so both sides test
the r x r matrix I_r + BB^T, carried through the recursion as r lanes
of r bits and tested only at a leaf that beats the floor, before the
leaf's generator rows are built.

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


@lru_cache(maxsize=None)
def _bottom_first(r: int) -> Tuple[int, ...]:
    """flip[v]: the r-bit column value v, read top row first, as a
    column of B with bit i from row i.  Built once per r."""
    return tuple(int(f"{v:0{r}b}"[::-1], 2) for v in range(1 << r))


def canonical_b_matrices(
        n: int, k: int, *, floor: Callable[[], int], all_one: bool = False
) -> Iterator[Tuple[List[int], int]]:
    """The [n, k] LCD codes of the doubly lexical matrices B, with distances.

    B is r x m with r = min(k, n - k) and m = max(k, n - k): the
    generator matrix is [I_k | B] when k <= n - k, whose row i is
    e_i | row i of B, and else [B^T | I_k], whose row j is column j of
    B | e_j.  B's column values (read top row first) are non-increasing
    left to right, and its row values (read leftmost column first) are
    non-increasing top to bottom.  Every matrix can be brought to such a
    form by row and column permutations, so the codes cover every LCD
    code up to column permutation at least once.  They come in
    decreasing order of B's column sequence.

    Each code is yielded as (rows, d), its generator rows and exact
    minimum distance, and only when it is LCD (I_r + BB^T nonsingular)
    and passes both constraints; the constraints also cut the subtrees
    that no completion could pass:

    - ``floor``: d must exceed ``floor()``.  It is read afresh at each
      node, so a caller may raise it while iterating.  On the [I_k | B]
      side the weights of all 2^r messages on the placed columns are
      lanes of one ``WeightTable``; a column is cut when some nonzero
      message could not exceed the floor even with every remaining
      column set, and d is read off the lanes.  On the [B^T | I_k]
      side lane s holds the least weight of x G + (s | 0) over the
      messages x on the placed generator rows; placing column j with
      value v makes the messages with bit j final, and the lightest of
      them weighs 1 + lane v, so the column is cut when that is at most
      the floor, and the lanes step to min(lane s, 1 + lane s ^ v).  d
      is the least of those weights over the placed rows, so it is
      exact at the leaf.
    - ``all_one``: the all-one vector must lie in the code.  Its
      coefficients over the identity part are all ones, so every
      redundant coordinate of the sum of all generator rows must be
      1: on the [I_k | B] side only odd-weight columns are tried, on
      the other the last column is forced to make every row's weight
      odd.

    I_r + BB^T, the sum of I_r and v v^T over the placed column values
    v, rides the recursion as r lanes of r bits, and a leaf that beats
    the floor is yielded only when ``gf2.lanes_nonsingular`` passes it.
    ValueError unless 1 <= k <= n.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    transposed = k > n - k  # B on the smaller side
    r, m = min(k, n - k), max(k, n - k)
    if r == 0:
        # k = n: the full space, with d = 1.  The walk below finds it
        # too, but through m nested generators at every call
        if floor() < 1:
            yield [1 << j for j in range(n)], 1
        return
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
    flip = _bottom_first(r)
    cols: List[int] = []  # placed column values (transposed: generator rows)

    def rec(j: int, start: int, tied: int, w: int, d: int,
            s: int) -> Iterator[Tuple[List[int], int]]:
        # tied: bit r-1-i set while rows i-1 and i agree on every placed
        # column; w: the lanes; d (transposed): the least weight of a
        # nonzero message on the placed generator rows; s: I_r plus the
        # outer products of the placed column values
        f = floor()
        if j == m:
            if not transposed:
                d = table.minimum(w, f)
            # the rank test runs last: most leaves fail the floor first
            if d > f and gf2.lanes_nonsingular(s, r):
                if transposed:  # row i is column i of B | e_i
                    rows = [flip[v] | 1 << r + i for i, v in enumerate(cols)]
                else:  # row i is e_i | row i of B; bit r-1 of v is row 0
                    rows = [1 << i | row << r for i, row in
                            enumerate(reversed(gf2.transpose(cols, r)))]
                yield rows, d
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


def dlcd_value(n: int, k: int) -> int:
    """Exact d_lcd(n, k) by canonical exhaustive search."""
    best = 0
    for _, d in canonical_b_matrices(n, k, floor=lambda: best):
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
    for k in range(2, length):  # k = n is the full space, d = 1
        for rows, d in canonical_b_matrices(length, k, floor=lambda: 2,
                                            all_one=True):
            code = LinearCode(rows, length)
            code._cache["dmin_value"] = d
            yield code

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

Also exposes the exhaustive corpus of odd-like LCD codes containing
the all-one vector (one representative set covering every such code up
to column permutation), used to exercise the step-down engine.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from . import gf2
from .codes import EngineBudgetError, LinearCode, min_weight

# Exhaustive table search budget.
N_MAX = 12


def canonical_b_matrices(r: int, m: int) -> Iterator[Tuple[int, ...]]:
    """All r x m binary matrices in doubly lexical form.

    Rows are emitted as ints with bit j = column j.  Column values
    (read top row first) are non-increasing left to right, and row
    values (read leftmost column first) are non-increasing top to
    bottom.  Every matrix can be brought to such a form by row and
    column permutations, so the iterator covers every equivalence
    class at least once.
    """
    if r == 0 or m == 0:
        yield (0,) * r
        return
    rows = [0] * r

    def rec(j: int, prev_col: int,
            prefixes: List[int]) -> Iterator[Tuple[int, ...]]:
        if j == m:
            yield tuple(rows)
            return
        for v in range(prev_col, -1, -1):
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
            for i in range(r):
                if (v >> (r - 1 - i)) & 1:
                    rows[i] |= 1 << j
            yield from rec(j + 1, v, new_pref)
            for i in range(r):
                if (v >> (r - 1 - i)) & 1:
                    rows[i] &= ~(1 << j)

    yield from rec(0, (1 << r) - 1, [0] * r)


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
    for b in canonical_b_matrices(r, m):
        rows = _systematic_rows(n, k, b)
        if not _weights_above(rows, best):
            continue
        if not _gram_nonsingular(b):
            continue
        best = max(best, min_weight(rows, best))
    assert best >= 1, "an LCD code exists for every (n, k)"
    return best


def dlcd_value_oracle(n: int, k: int) -> int:
    """d_lcd(n, k) with no canonical pruning (cross-check, n <= 7)."""
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
    AssertionError on any violation.
    """
    n_max = max(n for n, _ in table)
    for n in range(1, n_max + 1):
        expect = n if n % 2 else n - 1
        if n >= 1 and (n, 1) in table:
            assert table[(n, 1)] == expect, f"k=1 closed form fails at n={n}"
    for (n, k), d in table.items():
        if (n + 1, k) in table:
            diff = table[(n + 1, k)] - d
            assert diff >= 0, f"not monotone in n at (n={n}, k={k})"
            if k >= 2:
                assert diff in (0, 1), \
                    f"step property fails at (n={n}, k={k}): diff={diff}"
        if (n, k + 1) in table:
            assert table[(n, k + 1)] <= d, \
                f"not antitone in k at (n={n}, k={k})"


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
        for b in canonical_b_matrices(r, m):
            # all-one membership: the coefficient vector over the
            # identity part must be all ones, so every redundant
            # column must have odd weight.
            if k <= c:
                cols_odd = all(
                    sum((b[i] >> j) & 1 for i in range(r)) & 1
                    for j in range(m))
            else:
                cols_odd = all(row.bit_count() & 1 for row in b)
            if not cols_odd:
                continue
            rows = _systematic_rows(n, k, b)
            d = _dmin_above(rows, d_min - 1)
            if d is None:
                continue
            if not _gram_nonsingular(b):
                continue
            code = LinearCode.from_rows(rows, n)
            code._cache["dmin_value"] = d
            yield code

"""Independent checks of lcdkit's outputs, written with the standard library only.

Nothing here imports lcdkit.  Codes are lists of generator rows packed as
ints, bit i being coordinate i + 1.  The distance oracles deliberately use
other algorithms than lcdkit's engines: a split-half enumeration driven by
``map`` for small dimension, and subset-sum collisions over the columns of
a parity-check matrix for small distance.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

# d_lcd(n, k) for k = 1..n, as computed by lcdkit's dlcd_table(12) at the
# commit that introduced this benchmark.
FROZEN_DLCD = {
    1: [1],
    2: [1, 1],
    3: [3, 2, 1],
    4: [3, 2, 1, 1],
    5: [5, 2, 2, 2, 1],
    6: [5, 3, 2, 2, 1, 1],
    7: [7, 4, 3, 2, 2, 2, 1],
    8: [7, 5, 3, 3, 2, 2, 1, 1],
    9: [9, 6, 4, 4, 3, 2, 2, 2, 1],
    10: [9, 6, 5, 4, 3, 3, 2, 2, 1, 1],
    11: [11, 6, 5, 4, 4, 4, 3, 2, 2, 2, 1],
    12: [11, 7, 6, 5, 4, 4, 3, 2, 2, 2, 1, 1],
}

# Odd-like LCD codes containing the all-one vector, k >= 2, d >= 3, one per
# canonical matrix, counted by length (lcdkit's all_one_lcd_codes).
FROZEN_CORPUS_COUNTS = {4: 0, 5: 0, 6: 1, 7: 0, 8: 2, 9: 15, 10: 69, 11: 702}

BRUTE_FORCE_N_MAX = 7


class OracleError(Exception):
    """The benchmark's own reference data is inconsistent."""


def echelon(rows: Sequence[int]) -> Dict[int, int]:
    """Row-reduce to {pivot bit: row}, pivot = highest set bit, fully reduced."""
    basis: Dict[int, int] = {}
    for r in rows:
        for p in sorted(basis, reverse=True):
            if (r >> p) & 1:
                r ^= basis[p]
        if r:
            p = r.bit_length() - 1
            for q in basis:
                if (basis[q] >> p) & 1:
                    basis[q] ^= r
            basis[p] = r
    return basis


def rank(rows: Sequence[int]) -> int:
    return len(echelon(rows))


def same_span(a: Sequence[int], b: Sequence[int]) -> bool:
    return echelon(a) == echelon(b)


def in_span(rows: Sequence[int], v: int) -> bool:
    return rank(list(rows) + [v]) == rank(rows)


def hull_dim(rows: Sequence[int]) -> int:
    """k minus the rank of the Gram matrix G G^T."""
    gram = [sum(((a & b).bit_count() & 1) << j for j, b in enumerate(rows))
            for a in rows]
    return len(rows) - rank(gram)


def all_sums(rows: Sequence[int]) -> List[int]:
    out = [0]
    for r in rows:
        out += [x ^ r for x in out]
    return out


def min_distance_split(rows: Sequence[int]) -> int:
    """Minimum nonzero weight over the span of independent rows.

    Every codeword is x ^ y with x from the span of the first half of the
    rows and y from the span of the second half; the pair (0, 0) is the
    only one giving the zero word.
    """
    half = len(rows) // 2
    left, right = all_sums(rows[:half]), all_sums(rows[half:])
    best = min(map(int.bit_count, right[1:]), default=None)
    for x in left[1:]:
        w = min(map(int.bit_count, map(x.__xor__, right)))
        if best is None or w < best:
            best = w
    if best is None:
        raise ValueError("the zero code has no minimum distance")
    return best


def check_columns(rows: Sequence[int], n: int) -> List[int]:
    """Columns of a parity-check matrix, one int per coordinate."""
    basis = echelon(rows)
    pivots = set(basis)
    checks = []
    for f in range(n):
        if f in pivots:
            continue
        h = 1 << f
        for p, r in basis.items():
            if (r >> f) & 1:
                h |= 1 << p
        checks.append(h)
    return [sum(((h >> j) & 1) << i for i, h in enumerate(checks))
            for j in range(n)]


def min_distance_columns(rows: Sequence[int], n: int, w_max: int) -> int:
    """Minimum distance when it is at most w_max: the fewest dependent columns.

    Two different column subsets A and B with equal sums give the codeword
    A xor B.  Every codeword of weight w splits into subsets of sizes
    floor(w/2) and ceil(w/2), so the first w for which such a split exists
    is the distance.
    """
    cols = check_columns(rows, n)
    by_size: Dict[int, Dict[int, List[int]]] = {}

    def sums(size: int) -> Dict[int, List[int]]:
        if size not in by_size:
            table: Dict[int, List[int]] = {}
            for sub in itertools.combinations(range(n), size):
                s = 0
                for i in sub:
                    s ^= cols[i]
                table.setdefault(s, []).append(sum(1 << i for i in sub))
            by_size[size] = table
        return by_size[size]

    for w in range(1, w_max + 1):
        small, large = sums(w // 2), sums(w - w // 2)
        for s, masks in large.items():
            if any(a & b == 0 and (a | b).bit_count() == w
                   for a in masks for b in small.get(s, ())):
                return w
    raise ValueError(f"minimum distance exceeds {w_max}")


def drop_coords(word: int, coords: Sequence[int]) -> int:
    """Delete 1-indexed coordinates from a packed word."""
    out, j = 0, 0
    for i in range(word.bit_length()):
        if i + 1 in coords:
            continue
        out |= ((word >> i) & 1) << j
        j += 1
    return out


# ----------------------------------------------------------------------
# table


def subspaces(n: int, k: int):
    """Every k-dimensional subspace of GF(2)^n once, as reduced echelon rows."""
    for pivots in itertools.combinations(range(n), k):
        pset = set(pivots)
        free = [[j for j in range(p) if j not in pset] for p in pivots]
        for bits in itertools.product(
                *(range(1 << len(f)) for f in free)):
            rows = []
            for p, f, b in zip(pivots, free, bits):
                r = 1 << p
                for t, j in enumerate(f):
                    if (b >> t) & 1:
                        r |= 1 << j
                rows.append(r)
            yield rows


def brute_force_dlcd(n: int, k: int) -> int:
    best = 0
    for rows in subspaces(n, k):
        if hull_dim(rows) == 0:
            best = max(best, min_distance_split(rows))
    return best


def table_expectations(n_max: int) -> Dict[Tuple[int, int], int]:
    """Expected d_lcd(n, k): frozen rows, cross-checked by brute force and laws."""
    want = {(n, k): d for n, row in FROZEN_DLCD.items() if n <= n_max
            for k, d in enumerate(row, start=1)}
    for n in range(1, min(n_max, BRUTE_FORCE_N_MAX) + 1):
        for k in range(1, n + 1):
            if brute_force_dlcd(n, k) != want[(n, k)]:
                raise OracleError(f"frozen d_lcd({n},{k}) disagrees "
                                  "with brute force")
    if table_law_violations(want):
        raise OracleError("frozen table breaks the step law")
    return want


def table_law_violations(table: Dict[Tuple[int, int], int]) -> List[str]:
    """Breaches of the k = 1 closed form, the k = n value and the step law."""
    bad = []
    for (n, k), d in table.items():
        if k == 1 and d != (n if n % 2 else n - 1):
            bad.append(f"k=1 closed form at n={n}")
        if k == n and d != 1:
            bad.append(f"d_lcd({n},{n}) != 1")
        up = table.get((n + 1, k))
        if up is not None and k >= 2 and up - d not in (0, 1):
            bad.append(f"step law at (n={n}, k={k})")
    return bad


# ----------------------------------------------------------------------
# corpus


def corpus_code_ok(rows: Sequence[int], n: int) -> bool:
    """An odd-like LCD [n, k >= 2, d >= 3] code containing the all-one word."""
    return (len(rows) >= 2 and rank(rows) == len(rows)
            and hull_dim(rows) == 0
            and in_span(rows, (1 << n) - 1)
            and any(r.bit_count() % 2 for r in rows)
            and min_distance_split(rows) >= 3)


def certificate_ok(in_rows: Sequence[int], n_in: int, u: int, v: int,
                   out_rows: Sequence[int], n_out: int) -> bool:
    """Re-puncture the input at (u, v) and check the output against it.

    The output must be an LCD [n_in - 1, k, >= d_in - 1] code whose
    first n_in - 2 coordinates span exactly the doubly punctured input.
    """
    k = len(in_rows)
    if n_out != n_in - 1 or len(out_rows) != k or rank(out_rows) != k:
        return False
    if not (1 <= u <= n_in and 1 <= v <= n_in and u != v):
        return False
    punctured = [drop_coords(r, (u, v)) for r in in_rows]
    trimmed = [r & ((1 << (n_out - 1)) - 1) for r in out_rows]
    return (same_span(punctured, trimmed) and hull_dim(out_rows) == 0
            and min_distance_split(out_rows)
            >= min_distance_split(in_rows) - 1)


# ----------------------------------------------------------------------
# analyze


def analysis(rows: Sequence[int], n: int, w_max: int,
             small_dim: bool) -> Tuple[int, int, int, int, str]:
    """(n, k, d, hull dimension, parity label) as lcdkit's analyze reports.

    small_dim selects the split-half enumeration for d; otherwise d is
    searched among at most w_max columns of a parity-check matrix.
    """
    k = len(rows)
    d = (min_distance_split(rows) if small_dim
         else min_distance_columns(rows, n, w_max))
    h = hull_dim(rows)
    if h:
        label = "NotLCD"
    else:
        odd = any(r.bit_count() % 2 for r in rows)
        dual_even = in_span(rows, (1 << n) - 1)
        label = "LCD_" + ("o" if odd else "e") + ("e" if dual_even else "o")
    return (n, k, d, h, label)


# ----------------------------------------------------------------------
# search


def search_result_ok(rows: Optional[Sequence[int]], length: int, n: int,
                     k: int, d_target: int) -> bool:
    return (rows is not None and length == n and len(rows) == k
            and rank(rows) == k and hull_dim(rows) == 0
            and min_distance_split(rows) >= d_target)

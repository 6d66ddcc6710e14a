"""lcd_search: the incremental hill-climb against the plain per-trial loop."""

import random

import pytest

from lcdkit import gf2
from lcdkit.codes import BZ_MIN_K, min_weight
from lcdkit.gf2 import BitMatrix
from lcdkit.search import (_apply_update, _flip_update, lcd_search,
                           random_lcd_code)

BUDGET_MS = 10000

# (n, k, d_target): k = 1 (no move keeps the code LCD, so only restarts
# help), k = n, one target from BZ_MIN_K rows on, and lengths on both
# sides of a weight-table lane width (n = 2^m - 1 and 2^m), up to the
# last k below BZ_MIN_K
CASES = [
    (5, 1, 5), (6, 1, 5), (4, 4, 1), (6, 6, 1),
    (8, 2, 5), (8, 3, 3), (10, 4, 4), (10, 5, 3),
    (12, 4, 5), (12, 6, 4), (14, 5, 5), (14, 7, 4),
    (16, 4, 7), (16, 6, 6), (18, 5, 7), (18, 7, 6),
    (20, 8, 6), (22, 9, 6), (24, 10, 6), (16, BZ_MIN_K, 3),
    (15, 5, 6), (31, 6, 13), (32, 6, 14), (32, BZ_MIN_K - 1, 10),
    (63, 8, 26), (64, BZ_MIN_K - 1, 24),
]


def reference_search(n, k, d_target, seed, max_restarts=1000):
    """The hill-climb with every check run in full on every trial."""
    rng = random.Random(seed)
    for _ in range(max_restarts):
        rows = list(random_lcd_code(rng, n, k).gen.rows)
        current = min_weight(rows)
        stale = 0
        # with one row no flip keeps the code LCD: restarts only
        while k > 1 and current < d_target and stale < 40 * n:
            i = rng.randrange(k)
            j = rng.randrange(n)
            trial = rows.copy()
            trial[i] ^= 1 << j
            if gf2.rank_of_rows(trial) != k:
                stale += 1
                continue
            M = BitMatrix.from_rows(trial, n)
            if not gf2.is_nonsingular(gf2.gram(M)):
                stale += 1
                continue
            d2 = min_weight(trial, current - 1)
            if d2 >= current:
                if d2 > current:
                    stale = 0
                rows = trial
                current = d2
            else:
                stale += 1
        if current >= d_target:
            return rows
    return None


class TestAgainstReference:
    @pytest.mark.parametrize("n, k, d", CASES)
    def test_same_code(self, n, k, d):
        seed = n * 100 + k * 10 + d
        got = lcd_search(n, k, d, seed=seed, budget_ms=BUDGET_MS)
        expect = reference_search(n, k, d, seed)
        assert expect is not None
        assert got is not None and list(got.gen.rows) == expect
        assert got.is_lcd() and got.min_distance() >= d


class TestNoSearch:
    def test_zero_budget(self):
        assert lcd_search(8, 3, 4, seed=1, budget_ms=0) is None

    @pytest.mark.parametrize("n, k, d", [(8, 3, 0), (8, 3, -1), (3, 4, 1),
                                         (4, 0, 1)])
    def test_invalid_request(self, n, k, d):
        assert lcd_search(n, k, d, seed=1, budget_ms=BUDGET_MS) is None


class TestFlipUpdate:
    def test_matches_full_gram(self):
        # a is reused for every i, j, so an update in place also fails
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            n = rng.randrange(1, 13)
            k = rng.randrange(1, min(n, 9) + 1)
            rows = [rng.getrandbits(n) for _ in range(k)]
            G = BitMatrix.from_rows(rows, n)
            if not gf2.is_nonsingular(gf2.gram(G)):
                continue
            checked += 1
            a = list(gf2.inverse(gf2.gram(G)).rows)
            cols = G.transpose().rows
            for i in range(k):
                for j in range(n):
                    flipped = rows.copy()
                    flipped[i] ^= 1 << j
                    M = gf2.gram(BitMatrix.from_rows(flipped, n))
                    update = _flip_update(a, cols[j], i)
                    assert (update is not None) == gf2.is_nonsingular(M)
                    if update is not None:
                        a2 = a.copy()
                        _apply_update(a2, update)
                        assert BitMatrix.from_rows(a2, k).mul(M) == \
                            BitMatrix.identity(k)

    def test_accepted_walk_keeps_inverse(self):
        # a long walk of accepted flips, each from the updated inverse
        rng = random.Random(32)
        for _ in range(20):
            n = rng.randrange(2, 13)
            k = rng.randrange(2, min(n, 9) + 1)
            rows = list(random_lcd_code(rng, n, k).gen.rows)
            a = list(gf2.inverse(gf2.gram(BitMatrix.from_rows(rows, n))).rows)
            for _ in range(50):
                i = rng.randrange(k)
                j = rng.randrange(n)
                c = sum((r >> j & 1) << l for l, r in enumerate(rows))
                update = _flip_update(a, c, i)
                if update is None:
                    continue
                _apply_update(a, update)
                rows[i] ^= 1 << j
                M = gf2.gram(BitMatrix.from_rows(rows, n))
                assert BitMatrix.from_rows(a, k).mul(M) == \
                    BitMatrix.identity(k)

    def test_one_row_never_stays_lcd(self):
        # [[1]] is its own inverse; c is 0 or 1 and both flips fail
        assert _flip_update([1], 0, 0) is None
        assert _flip_update([1], 1, 0) is None

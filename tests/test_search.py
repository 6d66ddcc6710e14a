"""lcd_search: the incremental hill-climb against the plain per-trial loop."""

import random
import time
from functools import reduce
from operator import or_

import pytest

from lcdkit import gf2, search
from lcdkit.codes import BZ_MIN_K, WeightTable, min_weight
from lcdkit.search import (_flip_update, _stays_lcd, lcd_search,
                           random_lcd_code)
from random_codes import random_code

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
            if gf2.rank(trial) != k:
                stale += 1
                continue
            if not gf2.is_nonsingular(gf2.gram(trial)):
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


def draw_lcd_code(rng, n, k):
    """random_lcd_code the plain way: full-rank draws until one is LCD."""
    while True:
        C = random_code(rng, n, k)
        if C.is_lcd():
            return C


class TestRandomLcdCode:
    def test_same_draws_as_full_rank_then_lcd(self):
        # the Gram test alone accepts exactly the full-rank LCD draws,
        # so the code and the generator's state after it are the same
        rng = random.Random(33)
        shapes = set()
        for _ in range(240):
            seed = rng.getrandbits(32)
            n = rng.randrange(1, 17)
            k = rng.choice([1, n, rng.randrange(1, n + 1)])
            shapes.add("k = 1" if k == 1 else "k = n" if k == n else "k < n")
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_lcd_code(got_rng, n, k)
            want = draw_lcd_code(want_rng, n, k)
            assert got.gen.rows == want.gen.rows
            assert got_rng.getstate() == want_rng.getstate()
        assert shapes == {"k = 1", "k = n", "k < n"}

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            random_lcd_code(random.Random(1), 3, 4)

    def test_gives_up_after_max_tries(self):
        # a square generator is LCD iff it is invertible: rarely in one try
        rng = random.Random(34)
        with pytest.raises(RuntimeError):
            for _ in range(100):
                random_lcd_code(rng, 8, 8, max_tries=1)


class TestNoSearch:
    def test_zero_budget(self):
        assert lcd_search(8, 3, 4, seed=1, budget_ms=0) is None

    @pytest.mark.parametrize("n, k, d", [(8, 3, 0), (8, 3, -1), (3, 4, 1),
                                         (4, 0, 1)])
    def test_invalid_request(self, n, k, d):
        assert lcd_search(n, k, d, seed=1, budget_ms=BUDGET_MS) is None

    @pytest.mark.parametrize("n, k, d", [(6, 3, 5), (4, 2, 3), (3, 1, 4),
                                         (7, 4, 4)])
    def test_below_griesmer_length(self, n, k, d):
        # sum of ceil(d / 2^i) over i < k exceeds n: no [n, k, d] code
        # exists, so the budget is not spent looking for one
        assert sum(-(-d // 2 ** i) for i in range(k)) > n
        start = time.monotonic()
        assert lcd_search(n, k, d, seed=1, budget_ms=30000) is None
        assert time.monotonic() - start < 1.0


def lcd_codes(rng, count, shapes):
    """count random LCD generators as (rows, n, k), some with zero
    columns; shapes collects which of "k = 1" and "zero column" it saw."""
    out = []
    while len(out) < count:
        n = rng.randrange(1, 13)
        k = rng.randrange(1, min(n, 9) + 1)
        mask = (1 << n) - 1
        if rng.random() < 0.3:
            mask ^= 1 << rng.randrange(n)
        rows = [rng.getrandbits(n) & mask for _ in range(k)]
        if not gf2.is_nonsingular(gf2.gram(rows)):
            continue
        if k == 1:
            shapes.add("k = 1")
        if reduce(or_, rows) != (1 << n) - 1:
            shapes.add("zero column")
        out.append((rows, n, k))
    return out


def inverse_and_diagonal(rows, n):
    a = list(gf2.inverse(gf2.gram(rows)))
    return a, sum(al & 1 << l for l, al in enumerate(a))


class TestFlipUpdate:
    def test_matches_full_gram(self):
        # every (i, j) of each code; an accepted flip is applied to a
        # copy and checked to give the flipped Gram matrix's inverse
        rng = random.Random(31)
        shapes = set()
        for rows, n, k in lcd_codes(rng, 80, shapes):
            a, diag = inverse_and_diagonal(rows, n)
            cols = gf2.transpose(rows, n)
            for i in range(k):
                for j in range(n):
                    flipped = rows.copy()
                    flipped[i] ^= 1 << j
                    M = gf2.gram(flipped)
                    stays = _stays_lcd(a[i], diag, cols[j], i)
                    assert stays == gf2.is_nonsingular(M)
                    if stays:
                        a2 = a.copy()
                        diag2 = _flip_update(a2, diag, cols[j], i)
                        assert (a2, diag2) == inverse_and_diagonal(flipped, n)
        assert shapes == {"k = 1", "zero column"}

    def test_accepted_walk_keeps_inverse(self):
        # a long walk of accepted flips, each from the updated inverse
        rng = random.Random(32)
        for _ in range(20):
            n = rng.randrange(2, 13)
            k = rng.randrange(2, min(n, 9) + 1)
            rows = list(random_lcd_code(rng, n, k).gen.rows)
            a, diag = inverse_and_diagonal(rows, n)
            accepted = 0
            for _ in range(50):
                i = rng.randrange(k)
                j = rng.randrange(n)
                c = sum((r >> j & 1) << l for l, r in enumerate(rows))
                if not _stays_lcd(a[i], diag, c, i):
                    continue
                diag = _flip_update(a, diag, c, i)
                rows[i] ^= 1 << j
                accepted += 1
                assert (a, diag) == inverse_and_diagonal(rows, n)
            assert accepted

    def test_one_row_never_stays_lcd(self):
        # [[1]] is its own inverse; c is 0 or 1 and both flips fail
        assert not _stays_lcd(1, 1, 0, 0)
        assert not _stays_lcd(1, 1, 1, 0)

    def test_update_only_for_accepted_flips(self, monkeypatch):
        # below BZ_MIN_K an accepted flip is the one kept table swap, so
        # A c and Woodbury run exactly once per kept swap, and rejected
        # trials (the most) take neither
        calls = {"verdict": 0, "update": 0, "keep": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(search, "_stays_lcd",
                            counted("verdict", _stays_lcd))
        monkeypatch.setattr(search, "_flip_update",
                            counted("update", _flip_update))
        monkeypatch.setattr(WeightTable, "keep",
                            counted("keep", WeightTable.keep))
        got = lcd_search(20, 6, 7, seed=3, budget_ms=BUDGET_MS)
        assert got is not None
        assert calls["update"] == calls["keep"] > 0
        assert calls["verdict"] > 2 * calls["update"]

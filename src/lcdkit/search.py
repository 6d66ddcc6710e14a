"""Randomized code generation: test corpora and a seeded LCD hill-climb."""

from __future__ import annotations

import random
import time
from typing import Optional

from . import gf2
from .gf2 import BitMatrix
from .codes import LinearCode, min_weight

DEFAULT_SEED = 20240801


def random_full_rank_matrix(rng: random.Random, k: int, n: int) -> BitMatrix:
    """A uniformly random k×n matrix conditioned on full row rank."""
    if k > n:
        raise ValueError("k exceeds n")
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if gf2.rank_of_rows(rows) == k:
            return BitMatrix.from_rows(rows, n)


def random_code(rng: random.Random, n: int, k: int) -> LinearCode:
    return LinearCode(random_full_rank_matrix(rng, k, n))


def random_lcd_code(rng: random.Random, n: int, k: int,
                    max_tries: int = 10000) -> LinearCode:
    for _ in range(max_tries):
        C = random_code(rng, n, k)
        if C.is_lcd():
            return C
    raise RuntimeError(f"no LCD [{n},{k}] code found in {max_tries} tries")


def random_lcd_oe_code(rng: random.Random, n: int, k: int,
                       max_tries: int = 20000) -> LinearCode:
    """Random odd-like LCD code containing the all-one vector.

    Built by forcing the all-one vector into the span: the first row is
    the sum of the others plus 1_n.
    """
    ones = (1 << n) - 1
    for _ in range(max_tries):
        rows = [rng.getrandbits(n) for _ in range(k - 1)]
        first = ones
        for r in rows:
            first ^= r
        rows = [first] + rows
        if gf2.rank_of_rows(rows) != k:
            continue
        C = LinearCode(BitMatrix.from_rows(rows, n))
        if C.is_lcd() and not C.is_even_like():
            return C
    raise RuntimeError(f"no LCD_oe [{n},{k}] code found in {max_tries} tries")


def random_lcd_eo_code(rng: random.Random, n: int, k: int,
                       max_tries: int = 40000) -> LinearCode:
    """Random even-like LCD code (k must be even)."""
    if k % 2:
        raise ValueError("even-like LCD codes have even dimension")
    for _ in range(max_tries):
        rows = []
        for _ in range(k):
            r = rng.getrandbits(n)
            if r.bit_count() % 2:
                r ^= 1 << rng.randrange(n)
            rows.append(r)
        if gf2.rank_of_rows(rows) != k:
            continue
        C = LinearCode(BitMatrix.from_rows(rows, n))
        if C.is_lcd():
            return C
    raise RuntimeError(f"no LCD_eo [{n},{k}] code found in {max_tries} tries")


def lcd_search(n: int, k: int, d_target: int, seed: int = DEFAULT_SEED,
               budget_ms: int = 2000) -> Optional[LinearCode]:
    """Randomized hill-climb over LCD generator matrices.

    Moves flip one bit of one generator row and are rejected unless the
    matrix stays full-rank LCD.  Returns the first code reaching the
    distance target, or None when the time budget runs out.  Fully
    deterministic for a fixed seed and budget outcome.
    """
    if d_target <= 0 or k < 1 or k > n:
        return None
    rng = random.Random(seed)
    deadline = time.monotonic() + budget_ms / 1000.0
    while time.monotonic() < deadline:
        C = random_lcd_code(rng, n, k)
        rows = list(C.gen.rows)
        current = min_weight(rows)
        stale = 0
        while current < d_target and stale < 40 * n and \
                time.monotonic() < deadline:
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
            # a trial below current is rejected whatever its exact value
            d2 = min_weight(trial, current - 1)
            if d2 >= current:
                if d2 > current:
                    stale = 0
                rows = trial
                current = d2
            else:
                stale += 1
        if current >= d_target:
            return LinearCode(BitMatrix.from_rows(rows, n))
    return None

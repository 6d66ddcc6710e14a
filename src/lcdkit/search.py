"""Randomized code generation: test corpora and a seeded LCD hill-climb.

Each hill-climb trial flips one bit of one generator row and is made
incremental: the Gram rows are updated in O(k) instead of rebuilt, one
k-row rank decides LCD-ness (which implies full rank), and below
``BZ_MIN_K`` rows the distance test walks the 2^(k-1) words of the
flipped row's coset before, and usually instead of, the rest of the code.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from . import gf2
from .gf2 import BitMatrix
from .codes import BZ_MIN_K, LinearCode, _gray_min, min_weight

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


def _flipped_gram(g: List[int], c: int, i: int) -> List[int]:
    """Gram rows after flipping one bit of generator row i, in O(k).

    g holds the rows of G * G^T as k-bit ints and c is the flipped
    column of G, also as a k-bit int.  Entry (i, l) changes by bit l of
    c for l != i, and the diagonal entry (i, i), the parity of row i's
    weight, always changes; the matrix stays symmetric.
    """
    bit = 1 << i
    out = [r ^ bit if c >> l & 1 else r for l, r in enumerate(g)]
    out[i] = g[i] ^ (c | bit)
    return out


def lcd_search(n: int, k: int, d_target: int, seed: int = DEFAULT_SEED,
               budget_ms: int = 2000) -> Optional[LinearCode]:
    """Randomized hill-climb over LCD generator matrices.

    Moves flip one bit of one generator row and are rejected unless the
    matrix stays LCD (a nonsingular Gram matrix also means full rank)
    and its minimum distance does not drop.  Returns the first code
    reaching the distance target, or None when the time budget runs out.
    Fully deterministic for a fixed seed and budget outcome.

    A trial costs O(k) plus one k-row rank for the LCD test: the Gram
    rows and the generator's columns are kept beside the rows, and
    ``_flipped_gram`` updates the flipped row's Gram row and bit i of
    every other row that the flipped column meets.  Below ``BZ_MIN_K`` rows the distance test walks the
    coset t + span(others) of the flipped row t first.  Every word of
    span(others) is in the current code and weighs at least the current
    distance, so a coset word below it rejects the trial, a coset
    minimum equal to it accepts the trial at that distance, and only a
    heavier coset needs the minimum of span(others) as well.  From
    ``BZ_MIN_K`` rows on, the whole trial goes to ``min_weight``.
    """
    if d_target <= 0 or k < 1 or k > n:
        return None
    rng = random.Random(seed)
    deadline = time.monotonic() + budget_ms / 1000.0
    while time.monotonic() < deadline:
        C = random_lcd_code(rng, n, k)
        rows = list(C.gen.rows)
        g = list(C.gram().rows)  # cached by the LCD test
        cols = list(C.gen.transpose().rows)
        current = min_weight(rows)
        stale = 0
        while current < d_target and stale < 40 * n and \
                time.monotonic() < deadline:
            i = rng.randrange(k)
            j = rng.randrange(n)
            trial_g = _flipped_gram(g, cols[j], i)
            if gf2.rank_of_rows(trial_g) != k:
                stale += 1
                continue
            t = rows[i] ^ 1 << j
            if k >= BZ_MIN_K:
                # a trial below current is rejected whatever its exact value
                d2 = min_weight(rows[:i] + [t] + rows[i + 1:], current - 1)
            else:
                # span(others) lies in the current code: walk t's coset first
                others = rows[:i] + rows[i + 1:]
                d2 = _gray_min(others, current - 1, t)
                if d2 > current and others:
                    d2 = min(d2, min_weight(others, current))
            if d2 >= current:
                if d2 > current:
                    stale = 0
                rows[i] = t
                g = trial_g
                cols[j] ^= 1 << i
                current = d2
            else:
                stale += 1
        if current >= d_target:
            return LinearCode(BitMatrix.from_rows(rows, n))
    return None

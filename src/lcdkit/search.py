"""Randomized code generation: test corpora and a seeded LCD hill-climb.

Each hill-climb trial flips one bit of one generator row and is made
incremental.  LCD-ness (which implies full rank) is decided in O(k) with
no elimination: a flip changes the Gram matrix G G^T by a rank-2
symmetric term, so the search keeps (G G^T)^-1 and tests the term's 2x2
capacitance matrix (Sherman-Morrison-Woodbury over GF(2)), updating the
inverse in O(k) when a flip is accepted.  Below ``BZ_MIN_K`` rows the
distance test reads ``codes.WeightTable``, the weights of all 2^k
messages kept as lanes of one int: a flip changes one column, so the
trial's weights are one subtraction and one addition away, and the
verdict is one add and one AND.  No codeword is walked.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from . import gf2
from .gf2 import BitMatrix
from .codes import BZ_MIN_K, LinearCode, WeightTable, min_weight

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
    the sum of the others plus 1_n.  A test corpus of step-down inputs.
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
    """Random even-like LCD code (k even), a test corpus."""
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


def _flip_update(a: List[int], c: int, i: int) -> Optional[tuple]:
    """Whether flipping bit j of generator row i keeps the code LCD, in O(k).

    a holds the rows of A = (G G^T)^-1 as k-bit ints (A is symmetric)
    and c is column j of G.  The flip changes the Gram matrix M to
    M + U V^T with U = [e_i, c] and V = [c + e_i, e_i], so the new Gram
    matrix is nonsingular iff the capacitance matrix
    K = I + V^T A U = [[1+p+q, r+p], [q, 1+p]] is, where p is bit i of
    A c, q is bit i of A e_i and r = c^T A c; det K = 1 + p + q (1 + r).
    Returns None when the trial is not LCD, else the rank-2 update
    (x, z, y, w) with (M + U V^T)^-1 = A + x z^T + y w^T (Woodbury):
    [x y] = [A e_i, A c] K^-1, z = A (c + e_i) and w = A e_i.
    """
    ai = a[i]
    ac = 0
    bits = c
    while bits:
        low = bits & -bits
        ac ^= a[low.bit_length() - 1]
        bits ^= low
    p = ac >> i & 1
    q = ai >> i & 1
    r = (ac & c).bit_count() & 1
    if p != q & (r ^ 1):
        return None
    # K^-1 = [[1+p, r+p], [q, 1+p+q]] since det K = 1; with p = q (1 + r)
    # the columns of [A e_i, A c] K^-1 reduce to these three cases
    if not q:
        x, y = ai, (ai if r else 0) ^ ac
    elif p:
        x, y = ac, ai ^ ac
    else:
        x, y = ai ^ ac, ai
    return x, ac ^ ai, y, ai


def _apply_update(a: List[int], update: tuple) -> None:
    """Adds the rank-2 update x z^T + y w^T of ``_flip_update`` to a."""
    x, z, y, w = update
    bits = x | y
    while bits:
        low = bits & -bits
        l = low.bit_length() - 1
        if x & low:
            a[l] ^= z
        if y & low:
            a[l] ^= w
        bits ^= low


def lcd_search(n: int, k: int, d_target: int, seed: int = DEFAULT_SEED,
               budget_ms: int = 2000) -> Optional[LinearCode]:
    """Randomized hill-climb over LCD generator matrices.

    Moves flip one bit of one generator row and are rejected unless the
    matrix stays LCD (a nonsingular Gram matrix also means full rank)
    and its minimum distance does not drop.  Returns the first code
    reaching the distance target, or None when the time budget runs out.
    Fully deterministic for a fixed seed and budget outcome.

    A trial's LCD test costs O(k) and no elimination: the inverse
    (G G^T)^-1 and the generator's columns are kept beside the rows, a
    flip changes G G^T by a rank-2 symmetric term, and ``_flip_update``
    decides nonsingularity from its 2x2 capacitance matrix; an accepted
    flip updates the kept inverse in place by Woodbury.  With k = 1 every
    flip changes the one row's weight parity and so makes the 1x1 Gram
    matrix singular, so each restart only checks its drawn code.  Below
    ``BZ_MIN_K`` rows each restart builds a ``codes.WeightTable`` from
    the columns and reads its starting distance off it.  Flipping bit j
    of row i turns column j from c to c ^ e_i, whose pattern is the old
    one XOR ``units[i]``; the swapped table is rejected unless every
    nonzero message weighs at least the current distance, an accepted
    trial steps that bound up to its exact distance, and only an
    accepted trial is kept.  From ``BZ_MIN_K`` rows on, the whole trial
    goes to ``min_weight``.
    """
    if d_target <= 0 or k < 1 or k > n:
        return None
    rng = random.Random(seed)
    # randrange(k) and randrange(n) inlined: CPython's getrandbits
    # rejection loop (Random._randbelow_with_getrandbits), same draws
    getrandbits = rng.getrandbits
    k_bits, n_bits = k.bit_length(), n.bit_length()
    deadline = time.monotonic() + budget_ms / 1000.0
    while time.monotonic() < deadline:
        C = random_lcd_code(rng, n, k)
        rows = list(C.gen.rows)
        # Gram cached by the LCD test: a restart's code never has its dual
        # built, so is_lcd read the k x k Gram matrix, not the dual's
        a = list(gf2.inverse(C.gram()).rows)
        cols = list(C.gen.transpose().rows)
        if k < BZ_MIN_K:
            table = WeightTable(cols, k)
            current = table.minimum(table.weights)
        else:
            current = min_weight(rows)
        stale = 0
        while k > 1 and current < d_target and stale < 40 * n and \
                time.monotonic() < deadline:
            i = getrandbits(k_bits)
            while i >= k:
                i = getrandbits(k_bits)
            j = getrandbits(n_bits)
            while j >= n:
                j = getrandbits(n_bits)
            update = _flip_update(a, cols[j], i)
            if update is None:
                stale += 1
                continue
            t = rows[i] ^ 1 << j
            if k >= BZ_MIN_K:
                # a trial below current is rejected whatever its exact value
                d2 = min_weight(rows[:i] + [t] + rows[i + 1:], current - 1)
            else:
                # column j turns from c to c ^ e_i; as above, a trial
                # below current reads as current - 1 with no exact value
                f = table.patterns[j] ^ table.units[i]
                weights = table.swap(j, f)
                d2 = table.minimum(weights, known=current - 1)
            if d2 >= current:
                if d2 > current:
                    stale = 0
                rows[i] = t
                _apply_update(a, update)
                cols[j] ^= 1 << i
                if k < BZ_MIN_K:
                    table.keep(j, f, weights)
                current = d2
            else:
                stale += 1
        if current >= d_target:
            return LinearCode(BitMatrix.from_rows(rows, n))
    return None

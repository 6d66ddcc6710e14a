"""Randomized code generation: test corpora and a seeded LCD hill-climb.

Each hill-climb trial flips one bit of one generator row and is made
incremental.  A rejected trial costs O(1), with no elimination: a flip
changes the Gram matrix G G^T by a rank-2 symmetric term, so the search
keeps A = (G G^T)^-1 and its diagonal, and the term's 2x2 capacitance
matrix (Sherman-Morrison-Woodbury over GF(2)) is read off one row of A
and the diagonal; that decides LCD-ness, which implies full rank.  Only
an accepted flip computes A c and updates A in O(k).  Below ``BZ_MIN_K``
rows the distance test reads ``codes.WeightTable``, the weights of all
2^k messages kept as lanes of one int: a flip changes one column, so the
trial's weights are one subtraction and one addition away, and the
verdict is one add and one AND.  No codeword is walked.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from . import gf2
from .codes import BZ_MIN_K, LinearCode, WeightTable, min_weight

DEFAULT_SEED = 20240801


def random_lcd_code(rng: random.Random, n: int, k: int,
                    max_tries: int = 10000) -> LinearCode:
    """A uniformly random [n, k] LCD code, drawn at most max_tries times.

    Each draw is k random rows, kept when their Gram matrix is
    nonsingular: that also makes the rows independent, so a draw needs
    no rank test of its own and the one code built is the one returned.
    """
    if k > n:
        raise ValueError("k exceeds n")
    for _ in range(max_tries):
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if gf2.rank(gf2.gram(rows)) == k:
            return LinearCode(rows, n)
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
        if gf2.rank(rows) != k:
            continue
        C = LinearCode(rows, n)
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
        if gf2.rank(rows) != k:
            continue
        C = LinearCode(rows, n)
        if C.is_lcd():
            return C
    raise RuntimeError(f"no LCD_eo [{n},{k}] code found in {max_tries} tries")


def _stays_lcd(ai: int, diag: int, c: int, i: int) -> bool:
    """Whether flipping bit j of generator row i keeps the code LCD, in O(1).

    ai is row i of A = (G G^T)^-1, diag holds A's diagonal and c is
    column j of G.  The flip changes the Gram matrix M to M + U V^T with
    U = [e_i, c] and V = [c + e_i, e_i], so the new Gram matrix is
    nonsingular iff the capacitance matrix K = I + V^T A U =
    [[1+p+q, r+p], [q, 1+p]] is, where p = (A c)_i, q = A_ii and
    r = c^T A c; det K = 1 + p + q (1 + r).  A is symmetric, so p is the
    parity of ai & c, and the off-diagonal terms of c^T A c cancel in
    pairs, so r is the parity of diag & c.
    """
    p = (ai & c).bit_count() & 1
    r = (diag & c).bit_count() & 1
    return p == ai >> i & (r ^ 1)


def _flip_update(a: List[int], diag: int, c: int, i: int) -> int:
    """Applies a flip that ``_stays_lcd`` passed to A in place; returns
    A's new diagonal.

    By Woodbury, (M + U V^T)^-1 = A + x z^T + y w^T with
    [x y] = [A e_i, A c] K^-1, z = A (c + e_i) and w = A e_i, where
    K^-1 = [[1+p, r+p], [q, 1+p+q]] since det K = 1.  A c is the one
    O(k) step, so only an accepted flip takes it.
    """
    ai = a[i]
    ac = 0
    bits = c
    while bits:
        low = bits & -bits
        ac ^= a[low.bit_length() - 1]
        bits ^= low
    q = ai >> i & 1
    r = (diag & c).bit_count() & 1
    # with p = q (1 + r) the columns of [A e_i, A c] K^-1 reduce to
    # these three cases
    if not q:
        x, y = ai, (ai if r else 0) ^ ac
    elif not r:
        x, y = ac, ai ^ ac
    else:
        x, y = ai ^ ac, ai
    z, w = ac ^ ai, ai
    bits = x | y
    while bits:
        low = bits & -bits
        l = low.bit_length() - 1
        if x & low:
            a[l] ^= z
        if y & low:
            a[l] ^= w
        bits ^= low
    return diag ^ (x & z) ^ (y & w)


def _griesmer_length(k: int, d: int) -> int:
    """The least length of a binary [n, k, d] code by the Griesmer bound,
    the sum of ceil(d / 2^i) over i < k."""
    return sum(-(-d >> i) for i in range(k))


def lcd_search(n: int, k: int, d_target: int, seed: int = DEFAULT_SEED,
               budget_ms: int = 2000) -> Optional[LinearCode]:
    """Randomized hill-climb over LCD generator matrices.

    Moves flip one bit of one generator row and are rejected unless the
    matrix stays LCD (a nonsingular Gram matrix also means full rank)
    and its minimum distance does not drop.  Returns the first code
    reaching the distance target, or None when the time budget runs out,
    and None at once when the Griesmer bound rules the target out.
    Fully deterministic for a fixed seed and budget outcome.

    A rejected trial costs O(1) and no elimination: the inverse
    A = (G G^T)^-1, its diagonal and the generator's columns are kept
    beside the rows, a flip changes G G^T by a rank-2 symmetric term,
    and ``_stays_lcd`` decides nonsingularity from its 2x2 capacitance
    matrix, read off one row of A and the diagonal.  Only a flip that
    also passes the distance test takes ``_flip_update``'s O(k) step,
    which updates the kept inverse in place by Woodbury.  With k = 1
    every flip changes the one row's weight parity and so makes the 1x1
    Gram matrix singular, so each restart only checks its drawn code.
    Below ``BZ_MIN_K`` rows each restart builds a ``codes.WeightTable``
    from the columns and reads its starting distance off it.  Flipping
    bit j of row i turns column j from c to c ^ e_i, whose pattern is
    the old one XOR ``units[i]``; the swapped table is rejected unless
    every nonzero message weighs at least the current distance, one add
    of a kept floor and one AND against the guard bits, an accepted
    trial steps that bound up to its exact distance, and only an
    accepted trial is kept.  From ``BZ_MIN_K`` rows on, the whole
    distance test goes to ``min_weight``.
    """
    if d_target <= 0 or k < 1 or k > n or _griesmer_length(k, d_target) > n:
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
        a = list(gf2.inverse(C.gram()))
        diag = sum(al & 1 << l for l, al in enumerate(a))
        cols = list(gf2.transpose(rows, n))
        if k < BZ_MIN_K:
            table = WeightTable(cols, k)
            patterns, units = table.patterns, table.units
            guards, nonzero = table.guards, table.nonzero
            top = 1 << table.width - 1
            current = table.minimum(table.weights)
            # (weights + floor) & guards == guards iff every nonzero
            # message weighs at least current (WeightTable.at_least)
            floor = (top - current) * nonzero
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
            c = cols[j]
            if not _stays_lcd(a[i], diag, c, i):
                stale += 1
                continue
            t = rows[i] ^ 1 << j
            if k < BZ_MIN_K:
                # column j turns from c to c ^ e_i
                f = patterns[j] ^ units[i]
                weights = table.swap(j, f)
                if (weights + floor) & guards != guards:
                    stale += 1
                    continue
                d2 = table.minimum(weights, known=current)
                table.keep(j, f, weights)
            else:
                # a trial below current is rejected whatever its exact value
                d2 = min_weight(rows[:i] + [t] + rows[i + 1:], current - 1)
                if d2 < current:
                    stale += 1
                    continue
            if d2 > current:
                stale = 0
                current = d2
                if k < BZ_MIN_K:
                    floor = (top - current) * nonzero
            rows[i] = t
            cols[j] = c ^ 1 << i
            diag = _flip_update(a, diag, c, i)
        if current >= d_target:
            return LinearCode(rows, n)
    return None

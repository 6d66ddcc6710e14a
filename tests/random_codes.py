"""Random codes and reference values for tests.

``random_code`` draws k uniformly random rows of length n again until
they are independent, so each full-rank generator matrix is equally
likely, and ``random_lcd_code`` does the same until their Gram matrix is
nonsingular, so each LCD generator matrix is equally likely;
``random_lcd_oe_code`` and ``random_lcd_eo_code`` draw LCD codes of one
parity class, the step-down's and the symplectic paths' inputs.  Their
ranks come from ``gf2_oracle``, not from lcdkit.
``dlcd_value_oracle`` is the unpruned reference that
``tables.dlcd_value``'s canonical pruning is checked against, and
``systematic_lcd`` the LCD test the table references share; both take
their Gram matrices and ranks from ``gf2_oracle`` too.
"""

import itertools

import gf2_oracle as oracle
from lcdkit.codes import EngineBudgetError, LinearCode, min_weight
from lcdkit.tables import _systematic_rows


def random_code(rng, n, k):
    """A uniformly random [n, k] binary linear code."""
    if k > n:
        raise ValueError("k exceeds n")
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if len(oracle.rref(rows, n)[0]) == k:
            return LinearCode(rows, n)


def random_lcd_code(rng, n, k, max_tries=10000):
    """A uniformly random [n, k] LCD code, drawn at most max_tries times.

    Each draw is k random rows, kept when their Gram matrix is
    nonsingular: that also makes the rows independent.  These are
    ``lcd_search``'s restart draws, so the two consume the same stream.
    """
    if k > n:
        raise ValueError("k exceeds n")
    for _ in range(max_tries):
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if oracle.rank(oracle.gram(rows), k) == k:
            return LinearCode(rows, n)
    raise RuntimeError(f"no LCD [{n},{k}] code found in {max_tries} tries")


def random_lcd_oe_code(rng, n, k, max_tries=20000):
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
        if oracle.rank(rows, n) != k:
            continue
        C = LinearCode(rows, n)
        if C.is_lcd() and not C.is_even_like():
            return C
    raise RuntimeError(f"no LCD_oe [{n},{k}] code found in {max_tries} tries")


def random_lcd_eo_code(rng, n, k, max_tries=40000):
    """Random even-like LCD code (k even)."""
    if k % 2:
        raise ValueError("even-like LCD codes have even dimension")
    for _ in range(max_tries):
        rows = []
        for _ in range(k):
            r = rng.getrandbits(n)
            if r.bit_count() % 2:
                r ^= 1 << rng.randrange(n)
            rows.append(r)
        if oracle.rank(rows, n) != k:
            continue
        C = LinearCode(rows, n)
        if C.is_lcd():
            return C
    raise RuntimeError(f"no LCD_eo [{n},{k}] code found in {max_tries} tries")


def systematic_lcd(b):
    """Whether the systematic code with redundant part B (r rows) is
    LCD, that is whether I_r + B B^T is nonsingular."""
    r = len(b)
    return oracle.rank([row ^ 1 << i for i, row in
                        enumerate(oracle.gram(b))], r) == r


def dlcd_value_oracle(n, k):
    """d_lcd(n, k) over every systematic generator, n <= 7."""
    if n > 7:
        raise EngineBudgetError("oracle search limited to n <= 7")
    if k == n:
        return 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for b in itertools.product(range(1 << m), repeat=r):
        if systematic_lcd(b):
            best = max(best, min_weight(_systematic_rows(n, k, b), best))
    return best

"""Random codes for tests: k uniformly random rows of length n, drawn
again until they are independent, so each full-rank generator matrix is
equally likely.  The rank comes from ``gf2_oracle``, not from lcdkit.
"""

import gf2_oracle as oracle
from lcdkit.codes import LinearCode


def random_code(rng, n, k):
    """A uniformly random [n, k] binary linear code."""
    if k > n:
        raise ValueError("k exceeds n")
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        if len(oracle.rref(rows, n)[0]) == k:
            return LinearCode(rows, n)

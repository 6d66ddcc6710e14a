"""GF(2) row reduction the textbook way, for tests only.

Rows are ints (bit j = column j), as in lcdkit, but nothing here comes
from lcdkit: column by column, the first remaining row with a 1 there
is swapped up and that column is cleared from every other row.  The
tests check ``gf2.echelon`` and the codes built on it against these
answers.  Quadratic and unoptimized: meant for small inputs.
"""


def rref(rows, width):
    """(R, pivots): the nonzero reduced rows ordered by pivot column, as
    a tuple, and the increasing pivot columns, as a list."""
    work = list(rows)
    pivots = []
    top = 0
    for c in range(width):
        i = next((i for i in range(top, len(work)) if work[i] >> c & 1),
                 None)
        if i is None:
            continue
        work[top], work[i] = work[i], work[top]
        for j in range(len(work)):
            if j != top and work[j] >> c & 1:
                work[j] ^= work[top]
        pivots.append(c)
        top += 1
    return tuple(work[:top]), pivots


def rank(rows, width):
    return len(rref(rows, width)[1])


def in_span(rows, v, width):
    """Whether v is a sum of some of the rows."""
    return rank(list(rows) + [v], width) == rank(rows, width)


def nullspace(rows, width):
    """{v : every row . v = 0}, one basis vector per free column f in
    increasing order: e_f plus e_p for each reduced row with pivot p
    and bit f set."""
    R, pivots = rref(rows, width)
    out = []
    for f in range(width):
        if f in pivots:
            continue
        v = 1 << f
        for r, p in zip(R, pivots):
            if r >> f & 1:
                v |= 1 << p
        out.append(v)
    return out


def parity_columns(rows, width):
    """The columns of the parity-check matrix whose row at bit f is the
    null-space vector of free column f: column j has bit f set when
    that vector has bit j."""
    _, pivots = rref(rows, width)
    free = [f for f in range(width) if f not in pivots]
    H = nullspace(rows, width)
    return [sum((h >> j & 1) << f for f, h in zip(free, H))
            for j in range(width)]

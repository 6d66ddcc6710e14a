"""GF(2) row reduction and Gram normal forms the textbook way, for
tests only.

Rows are ints (bit j = column j), as in lcdkit, but nothing here comes
from lcdkit: column by column, the first remaining row with a 1 there
is swapped up and that column is cleared from every other row.  The
tests check ``gf2.echelon`` and the codes built on it against these
answers, and ``gf2.congruent_normal_form`` against the matrix-form
reduction below.  Quadratic and unoptimized: meant for small inputs.
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


def gram(rows):
    """G G^T: row i has bit j set when rows i and j have odd overlap."""
    return [sum(((a & b).bit_count() & 1) << j for j, b in enumerate(rows))
            for a in rows]


def mul(A, B):
    """A B, with row i of the product the sum of the rows of B that row
    i of A selects."""
    out = []
    for a in A:
        acc = 0
        for j, b in enumerate(B):
            if a >> j & 1:
                acc ^= b
        out.append(acc)
    return out


def congruent_normal_form(S):
    """(P, N, s) for the k x k symmetric matrix S (rows as ints): P
    invertible, N = P S P^T = diag(0_s, A), s = k - rank(S).

    The reduction runs on coefficient vectors x, y with the form
    x^T S y.  Pivoting is greedy: first a vector with x^T S x = 1, else
    a coupled pair, else the vector lies in the radical; ties break to
    the lowest index.  When both kinds of pivot were taken, each J_2
    pair (u, v) is folded with one orthonormal w into u+w, v+w, u+v+w,
    so A is an identity block; otherwise it is the J_2 pairs in order.
    """
    k = len(S)

    def form(x, y):
        return sum((S[i] & y).bit_count() for i in range(k)
                   if x >> i & 1) & 1

    pending = [1 << i for i in range(k)]
    ortho, sympl = [], []
    while pending:
        di = next((i for i, v in enumerate(pending) if form(v, v)), None)
        if di is not None:
            w = pending.pop(di)
            pending = [v ^ w if form(v, w) else v for v in pending]
            ortho.append(w)
            continue
        pair = next(((i, j) for i in range(len(pending))
                     for j in range(i + 1, len(pending))
                     if form(pending[i], pending[j])), None)
        if pair is None:
            break
        i, j = pair
        u, v = pending[i], pending[j]
        del pending[j], pending[i]
        pending = [x ^ (u if form(x, v) else 0) ^ (v if form(x, u) else 0)
                   for x in pending]
        sympl.append((u, v))
    if ortho and sympl:
        for u, v in sympl:
            w = ortho.pop()
            ortho.extend([u ^ w, v ^ w, u ^ v ^ w])
        sympl = []
    P = pending + [x for pair in sympl for x in pair] + ortho
    N = mul(mul(P, S), transpose(P, k))
    return P, N, len(pending)


def transpose(rows, width):
    return [sum((r >> j & 1) << i for i, r in enumerate(rows))
            for j in range(width)]

"""Linear algebra over GF(2^m) by field arithmetic, for tests only.

``ExtFieldCode`` answers rank, hull and distance through its binary
image; this module answers the same questions the direct way, by
Gauss-Jordan elimination over the field and by walking all q^k
codewords, so the tests can check the image-based answers against it.
Exhaustive: meant for small codes.
"""

from lcdkit import expansion as xp


def inv(field, a):
    """The inverse of a nonzero element, by search over the q - 1
    nonzero elements."""
    for b in range(1, field.order):
        if field.mul(a, b) == 1:
            return b
    raise ZeroDivisionError(f"{a} has no inverse in GF(2^{field.m})")


def rref(field, rows, ncols):
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        a = inv(field, work[r][c])
        work[r] = [field.mul(a, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [vi ^ field.mul(f, vr)
                           for vi, vr in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def rank(field, rows, ncols):
    return len(rref(field, rows, ncols)[0])


def nullspace(field, rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(field, rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for row, p in zip(red, pivots):
            vec[p] = row[f]
        out.append(vec)
    return out


def inner(field, x, y):
    acc = 0
    for a, b in zip(x, y):
        acc ^= field.mul(a, b)
    return acc


def gram(C):
    return [[inner(C.field, a, b) for b in C.gen] for a in C.gen]


def hull_dimension(C):
    return C.k - rank(C.field, gram(C), C.k)


def hull(C):
    """C intersected with its Euclidean dual, as an ExtFieldCode."""
    F = C.field
    rows = []
    for x in nullspace(F, gram(C), C.k):
        row = [0] * C.n
        for xi, g in zip(x, C.gen):
            if xi:
                row = [r ^ F.mul(xi, gi) for r, gi in zip(row, g)]
        rows.append(row)
    return xp.ExtFieldCode.from_rows(F, rref(F, rows, C.n)[0], C.n)


def codewords(C):
    """All q^k codewords, as tuples of field elements."""
    F = C.field
    words = [(0,) * C.n]
    for g in C.gen:
        words = [tuple(a ^ F.mul(c, gi) for a, gi in zip(w, g))
                 for w in words for c in range(F.order)]
    return words


def min_distance(C):
    """Least symbol weight of a nonzero codeword, by exhaustion."""
    weights = [sum(1 for v in w if v) for w in codewords(C)]
    nonzero = [wt for wt in weights if wt]
    if not nonzero:
        raise ValueError("minimum distance undefined for the zero code")
    return min(nonzero)

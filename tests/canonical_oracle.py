"""Doubly lexical matrices and the systematic layout, for tests only.

Nothing here comes from lcdkit.  ``canonical_matrices`` is the
unfiltered sequence of r x m matrices with sorted rows and columns that
``tables.canonical_b_matrices`` cuts down to the LCD codes beating a
floor, and ``systematic_rows`` reads such a matrix B as the redundant
part of a systematic generator matrix on its smaller side.
"""


def canonical_matrices(r, m):
    """Every r x m binary matrix in doubly lexical form, as its rows
    (bit j = column j).

    A column's value is read top row first (row 0 is its most
    significant bit), and the column values do not increase left to
    right; a row is read leftmost column first, and the rows do not
    increase top to bottom.  The matrices come in decreasing order of
    their column sequence.
    """
    def rows_sorted(cols):
        rows = [[c >> r - 1 - i & 1 for c in cols] for i in range(r)]
        return all(rows[i - 1] >= rows[i] for i in range(1, r))

    def place(cols):
        if len(cols) == m:
            yield tuple(sum((c >> r - 1 - i & 1) << j
                            for j, c in enumerate(cols)) for i in range(r))
            return
        for v in range(cols[-1] if cols else (1 << r) - 1, -1, -1):
            # a prefix of sorted rows is sorted, so no completion of an
            # unsorted prefix is
            if rows_sorted(cols + [v]):
                yield from place(cols + [v])

    return place([])


def systematic_rows(n, k, b):
    """The generator rows of the [n, k] code whose redundant part B
    (r = min(k, n - k) rows, bit j = column j) sits on the smaller
    side: [I_k | B] when k <= n - k, row i being e_i | row i of B, and
    else [B^T | I_k], row j being column j of B (bit i from row i)
    | e_j."""
    c = n - k
    if k <= c:
        return [1 << i | row << k for i, row in enumerate(b)]
    return [sum((row >> j & 1) << i for i, row in enumerate(b)) | 1 << c + j
            for j in range(k)]

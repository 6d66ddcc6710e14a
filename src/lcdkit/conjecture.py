"""Certified distance step-down for odd-like LCD codes containing 1_n.

Given an [n+1, k, d] LCD code that is odd-like with an even-like dual
(label LCD_oe), k >= 2 and d >= 3, this module produces a verified
[n, k, >= d-1] LCD code together with an auditable certificate.  The
engine searches coordinate pairs (u, v) guided by the one-dimensional
hull that appears after puncturing a single coordinate:

  * route "padded-puncture": some doubly-punctured code is already LCD
    with minimum distance >= d-1; append an all-zero column.
  * route "extension": find a pair whose doubly-punctured code C^{u,v}
    is LCD and takes a column lifting every weight-(d-2) word to weight
    d-1 while keeping the code LCD; that column is one linear solve
    (``lift_column``).

Everything is read off the input's projector Pi = G^T (G G^T)^-1 G
(``LinearCode.projector``), kept with a ``codes.WeightTable`` over G's
columns and the input checks in the code's cache.  Puncturing u keeps
k (d >= 3) and leaves a one-dimensional hull exactly when Pi_uu = 1.
That hull is spanned by z, row u of Pi punctured at u (Pi G^T = G^T
gives z . r = r_u for each row r of G, and z_u = 1 cancels it), so
C^u is never built.  The pair lemma: C^{u,v} is then LCD exactly when
I + Pi[{u,v},{u,v}], of determinant Pi_uv, is nonsingular, that is
for the v in z's support.  Its distance is the least lane of the table
without columns u's and v's patterns (``min_weight`` of G's punctured
rows from ``BZ_MIN_K`` rows on).  A witness builds C^{u,v} only when
read, and checks then that it is LCD, so a certification builds the
code of the pair it uses and of the pairs the extension route scans
before it.

The extension column: C^{u,v} contains 1 because C does.  A column
y = M zeta, with M the Gram matrix of C^{u,v}'s generator G and
z = zeta G, gives each codeword a the trailing bit a . z, and
det(M + y y^T) = det M (1 + z . z).  So the column lifts every
weight-(d-2) word a and keeps the code LCD exactly when z . a = 1 for
each such a and z . 1 = 0; a pair whose system has no solution is
skipped.

Every certificate re-verifies its output independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import gf2
from .codes import (BZ_MIN_K, LinearCode, WeightTable, check_coords,
                    min_weight, _drop_bits)

ROUTE_PADDED = "padded-puncture"
ROUTE_EXTENSION = "extension"


class ConjectureError(AssertionError):
    """A step-down or its certificate broke an invariant of the proof.

    An AssertionError, the documented type, raised explicitly so the
    checks also run under ``python -O``.
    """


@dataclass(frozen=True)
class PunctureWitness:
    """A pair (u, v) of a source code C whose doubly-punctured code
    C^{u,v} is LCD, with the minimum distance of C^{u,v}.

    ``punctured`` builds C^{u,v} on first read and checks that it is
    LCD, as the pair lemma says.
    """

    source: LinearCode
    u: int
    v: int
    dmin: int

    @cached_property
    def punctured(self) -> LinearCode:
        P = self.source.puncture([self.u, self.v])
        if not P.is_lcd():
            raise ConjectureError(
                f"punctured code at ({self.u},{self.v}) is not LCD")
        return P


@dataclass(frozen=True)
class ConjectureCertificate:
    """A verified step-down: input [n+1,k,d] -> output [n,k,>=d-1] LCD."""

    input_params: Tuple[int, int, int]
    route: str
    output: LinearCode
    trace: Tuple[Dict, ...]

    def verify(self) -> None:
        n1, k, d = self.input_params
        out = self.output
        if out.n != n1 - 1:
            raise ConjectureError("output length must drop by exactly one")
        if out.k != k:
            raise ConjectureError("output dimension changed")
        if not out.is_lcd():
            raise ConjectureError("output is not LCD")
        if out.min_distance() < d - 1:
            raise ConjectureError(
                f"output distance {out.min_distance()} < {d - 1}")

    def trace_jsonl(self) -> str:
        return "".join(json.dumps(entry) + "\n" for entry in self.trace)


def _step_down_basis(
        C: LinearCode) -> Tuple[int, Tuple[int, ...], Optional[WeightTable]]:
    """C's distance d, the rows of its projector Pi and, below
    ``BZ_MIN_K`` rows, the weight table over G's columns; checked and
    built once per code, kept in its cache.

    Raises ValueError on an input the step-down does not take; each
    message starts with the name of the first failed precondition.
    """
    def build():
        if C.k < 2:
            raise ValueError("k<2: dimension must be at least 2")
        if C.is_even_like():
            raise ValueError("not-odd-like: every codeword has even weight")
        if not C.contains_all_one():
            raise ValueError("dual-not-even: the all-one vector is not "
                             "a codeword")
        if not C.is_lcd():
            raise ValueError("not-lcd: the code meets its dual")
        d = C.min_distance()
        if d < 3:
            raise ValueError("d<3: minimum distance must be at least 3")
        table = (WeightTable(gf2.transpose(C.gen.rows, C.n), C.k)
                 if C.k < BZ_MIN_K else None)
        return d, C.projector(), table
    return C._cached("step_down_basis", build)


def good_puncture_pairs(C: LinearCode, u: int) -> List[PunctureWitness]:
    """All v for which C^{u,v} is LCD, read off the hull of C^u.

    With Pi_uu = 1, puncturing u leaves a hull spanned by z, row u of
    the projector Pi punctured at u, checked from Pi and G without
    building C^u; by the pair lemma (module docstring), C^{u,v} is LCD
    exactly for the v in z's support.  Returns these at least d-1
    witnesses in ascending v order, each with its distance from the
    weight table; a witness builds C^{u,v} when its ``punctured`` is read.
    """
    d, proj, table = _step_down_basis(C)
    (u,) = check_coords([u], C.n)
    bit = u - 1
    z = proj[bit]
    if not (z >> bit) & 1:
        raise ConjectureError("single puncture must leave hull dim 1")
    keep = ~(1 << bit)
    rows = C.gen.rows
    if any((z & r & keep).bit_count() & 1 for r in rows):
        raise ConjectureError("projector row must span the punctured hull")
    if (z & keep).bit_count() < d - 1:
        raise ConjectureError("punctured hull vector lighter than d - 1")

    witnesses: List[PunctureWitness] = []
    for j in range(C.n):
        if j == bit or not (z >> j) & 1:
            continue
        v = j + 1
        if table is not None:
            dmin = table.minimum(
                table.weights - table.patterns[bit] - table.patterns[j],
                d - 3)
        else:
            drop = (u, v) if u < v else (v, u)
            dmin = min_weight([_drop_bits(r, drop) for r in rows], d - 3)
        if dmin < d - 2:
            raise ConjectureError(
                f"punctured code at ({u},{v}) has distance below d - 2")
        witnesses.append(PunctureWitness(source=C, u=u, v=v, dmin=dmin))
    return witnesses


def lift_column(P: LinearCode, words: List[int]) -> Optional[int]:
    """A column lifting every word of ``words`` while P stays LCD.

    P is LCD and contains the all-one vector.  Solves z . a = 1 for
    each word a and z . 1 = 0 for z = zeta G in P (module docstring)
    and returns y = M zeta, with M P's Gram matrix and y_i = g_i . z,
    the entry of generator row g_i, as bit i; None when the system has
    no solution.
    """
    m = len(words)
    # row i of the system's transpose: g_i . a for each word a, then
    # g_i . 1, the parity of |g_i|
    system = [sum(((g & a).bit_count() & 1) << j for j, a in enumerate(words))
              | (g.bit_count() & 1) << m for g in P.gen.rows]
    zeta = gf2.solve(system, (1 << m) - 1, m + 1)
    if zeta is None:
        return None
    return sum(((r & zeta).bit_count() & 1) << i
               for i, r in enumerate(P.gram()))


def certify_step_down(C: LinearCode) -> ConjectureCertificate:
    """Produce a verified [n, k, >= d-1] LCD code from [n+1, k, d] input.

    Scans pairs (u, v) with u ascending and v in hull-support order,
    preferring the padded-puncture route; falls back to the extension
    route on the first pair for which ``lift_column`` finds a column.
    An input outside the step-down's hypotheses raises ValueError
    naming the failed precondition.  The guarantee is constructive:
    failure to find a route signals an implementation bug and raises
    RuntimeError.
    """
    d = _step_down_basis(C)[0]
    n1, k = C.n, C.k

    all_witnesses: List[PunctureWitness] = []
    for u in range(1, n1 + 1):
        for W in good_puncture_pairs(C, u):
            all_witnesses.append(W)
            if W.dmin >= d - 1:
                padded = LinearCode(W.punctured.gen.rows, W.punctured.n + 1)
                trace = (
                    {"op": "puncture_pair", "u": W.u, "v": W.v,
                     "lcd": True, "dmin": W.dmin},
                    {"op": "pad_zero_column", "length": padded.n},
                )
                cert = ConjectureCertificate(
                    (n1, k, d), ROUTE_PADDED, padded, trace)
                cert.verify()
                return cert

    for W in all_witnesses:
        # every witness here has dmin == d - 2, so it has such words
        P = W.punctured
        words = P.weight_words(d - 2)
        y = lift_column(P, words)
        if y is None:
            continue
        out = LinearCode(
            [r | ((y >> i) & 1) << P.n for i, r in enumerate(P.gen.rows)],
            P.n + 1)
        trace = (
            {"op": "puncture_pair", "u": W.u, "v": W.v,
             "lcd": True, "dmin": W.dmin},
            {"op": "lift_column", "weight": d - 2, "words": len(words),
             "y": gf2.format_bits(y, k)},
        )
        cert = ConjectureCertificate(
            (n1, k, d), ROUTE_EXTENSION, out, trace)
        cert.verify()
        return cert

    raise RuntimeError(
        "no certified step-down found: no pair's weight-(d-2) words "
        "take a lifting column, which should be impossible")

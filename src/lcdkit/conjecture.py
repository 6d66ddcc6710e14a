"""Certified distance step-down for odd-like LCD codes containing 1_n.

Given an [n+1, k, d] LCD code that is odd-like with an even-like dual
(label LCD_oe), k >= 2 and d >= 3, this module produces a verified
[n, k, >= d-1] LCD code together with an auditable certificate.  The
engine searches coordinate pairs (u, v) guided by the one-dimensional
hull that appears after puncturing a single coordinate:

  * route "padded-puncture": some doubly-punctured code is already LCD
    with minimum distance >= d-1; append an all-zero column.
  * route "extension": find a pair whose doubly-punctured code is LCD
    and whose span of weight-(d-2) words misses the all-one vector,
    then append a column that lifts every weight-(d-2) word to weight
    d-1 while keeping the code LCD.

Everything is read off the input's orthonormal basis B (Gram I_k),
with columns c_1 .. c_{n+1}; B, a ``codes.WeightTable`` over the
columns and the input checks are made once per code and kept in its
cache.  Puncturing u keeps k (d >= 3), so C^u has Gram matrix
I + c_u c_u^T over B's punctured rows, of rank k - 1 when |c_u| is odd.
Its one-dimensional hull is spanned by z = c_u^T B, the sum of the rows
supported at u, punctured at u: that z is orthogonal to every punctured
row.  These hull checks are read from B; C^u is never built.

The pair lemma: with |c_u| odd, I + c_u c_u^T + c_v c_v^T is
nonsingular exactly when c_u . c_v = 1, which is bit v of z (it is as
singular as I_2 + U^T U with U = [c_u c_v], of determinant
(c_u . c_v)^2).  So C^{u,v} is LCD for exactly the v in z's support,
and no pair needs a rank.  Its distance is the least lane of the table
without c_u's and c_v's patterns (``min_weight`` of B's punctured rows
from ``BZ_MIN_K`` rows on).  A witness builds C^{u,v} only when read,
and checks then that it is LCD, so a certification builds the code of
the pair it uses and of the pairs the extension route scans before it.

Every certificate re-verifies its output independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import gf2
from . import normal_form as nf
from .codes import (BZ_MIN_K, LinearCode, WeightTable, check_coords,
                    min_weight, _drop_bits)
from .gf2 import BitMatrix, BitVector

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
        C: LinearCode
) -> Tuple[int, BitMatrix, List[int], Optional[WeightTable]]:
    """C's distance d, its orthonormal basis B, B's columns and, below
    ``BZ_MIN_K`` rows, the weight table over them; checked and built
    once per code, kept in its cache.

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
        B = nf.orthonormal_basis(C)
        cols = list(B.transpose().rows)
        table = WeightTable(cols, C.k) if C.k < BZ_MIN_K else None
        return d, B, cols, table
    return C._cached("step_down_basis", build)


def good_puncture_pairs(C: LinearCode, u: int) -> List[PunctureWitness]:
    """All v for which C^{u,v} is LCD, read off the hull of C^u.

    Over the orthonormal basis B with columns c_j, puncturing u leaves
    a one-dimensional hull spanned by z, the sum of the rows supported
    at u, punctured at u; these hull checks are read from B, without
    building C^u.  By the pair lemma (module docstring), C^{u,v} is LCD
    exactly when c_u . c_v = 1, that is for the v in z's support and
    no other.  Returns these at least d-1 witnesses in ascending v
    order, each with its distance from the weight table; a witness
    builds C^{u,v} when its ``punctured`` is read.
    """
    d, B, cols, table = _step_down_basis(C)
    (u,) = check_coords([u], C.n)
    bit = u - 1
    cu = cols[bit]
    # z = c_u^T B; its bit j is c_u . c_j
    z = 0
    for r in B.rows:
        if (r >> bit) & 1:
            z ^= r
    if not (z >> bit) & 1:
        raise ConjectureError("column at u must meet an odd number of rows")

    k = C.k
    gram_u = [(1 << i) ^ (cu if (cu >> i) & 1 else 0) for i in range(k)]
    if gf2.rank_of_rows(gram_u) != k - 1:
        raise ConjectureError("single puncture must leave hull dim 1")
    keep = ~(1 << bit)
    if any((z & r & keep).bit_count() & 1 for r in B.rows):
        raise ConjectureError("row sum must span the punctured hull")
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
            dmin = min_weight([_drop_bits(r, drop) for r in B.rows], d - 3)
        if dmin < d - 2:
            raise ConjectureError(
                f"punctured code at ({u},{v}) has distance below d - 2")
        witnesses.append(PunctureWitness(source=C, u=u, v=v, dmin=dmin))
    return witnesses


def column_append_odd(C: LinearCode, y_prefix: BitVector) -> LinearCode:
    """Append a column completing y_prefix so the result stays LCD.

    Requires the stored generator's last row to be orthogonal to all
    other rows.  The final entry is chosen by the subcode parity rule:
    zero when the leading rows span an even-like code, otherwise the
    bit making the total column weight even; the choice is verified
    and the alternative is used if verification fails.
    """
    if not C.is_lcd() or C.is_even_like():
        raise ValueError("code must be odd-like LCD")
    k = C.k
    if y_prefix.length != k - 1:
        raise ValueError(f"prefix must have length {k - 1}")
    last = C.gen.rows[-1]
    for r in C.gen.rows[:-1]:
        if (last & r).bit_count() & 1:
            raise ValueError(
                "last generator row must be orthogonal to the others")
    leading_even = all(r.bit_count() % 2 == 0 for r in C.gen.rows[:-1])
    predicted = 0 if leading_even else y_prefix.weight() % 2
    for y_k in (predicted, 1 - predicted):
        bits = y_prefix.bits | (y_k << (k - 1))
        rows = [r | (((bits >> i) & 1) << C.n)
                for i, r in enumerate(C.gen.rows)]
        out = LinearCode.from_rows(rows, C.n + 1)
        if out.is_lcd():
            return out
    raise ConjectureError("no completing entry keeps the code LCD")


def extend_after_puncture(
        W: PunctureWitness,
        span_d2: LinearCode) -> Tuple[LinearCode, Dict]:
    """Extension route: append a column lifting every minimum-weight word.

    span_d2 is the nonzero span of C^{u,v}'s weight-(d-2) words.  Finds
    an odd-weight codeword c of C^{u,v} outside span_d2 and orthogonal
    to it, solves for prefix entries so each spanning word gains a
    trailing 1, then completes the column keeping LCD.  Returns the
    [n, k, d-1] LCD code and the trace entry's data: c and the appended
    column y.
    """
    P = W.punctured
    npunc, k = P.n, P.k
    if span_d2.contains(BitVector.ones(npunc)):
        raise ValueError("all-one vector lies in the minimum-weight span")

    cert = nf.subcode_normal_form(P, span_d2)
    sh = cert.shape
    if sh.a3_kind != nf.ORTHONORMAL or sh.t < 1:
        raise ConjectureError(
            "no odd-weight codeword orthogonal to the span: "
            "the all-one vector should then lie in the span")
    basis = cert.basis
    Dmat = BitMatrix.from_rows(basis.rows[:sh.k1], npunc)
    w = span_d2.min_distance()
    words = span_d2.weight_words(w)
    lam_rows = []
    for a in words:
        lam = gf2.solve(Dmat, BitVector(npunc, a))
        if lam is None:
            raise ConjectureError("spanning word outside leading rows")
        lam_rows.append(lam.bits)
    L = BitMatrix.from_rows(lam_rows, sh.k1)
    ysol = gf2.solve(L.transpose(),
                     BitVector(len(words), (1 << len(words)) - 1))
    if ysol is None:
        raise ConjectureError("lift containment system unsolvable")
    base = LinearCode(basis)
    y_prefix = BitVector(k - 1, ysol.bits)

    out = column_append_odd(base, y_prefix)
    y_full = "".join(str(out.gen.get(i, npunc)) for i in range(k))
    info = {
        "c": str(basis.row(k - 1)),
        "y": y_full,
    }
    return out, info


def certify_step_down(C: LinearCode) -> ConjectureCertificate:
    """Produce a verified [n, k, >= d-1] LCD code from [n+1, k, d] input.

    Scans pairs (u, v) with u ascending and v in hull-support order,
    preferring the padded-puncture route; falls back to the extension
    route on the first pair whose minimum-weight span misses the
    all-one vector.  An input outside the step-down's hypotheses raises
    ValueError naming the failed precondition.  The guarantee is
    constructive: failure to find a route signals an implementation bug
    and raises RuntimeError.
    """
    d = _step_down_basis(C)[0]
    n1, k = C.n, C.k

    all_witnesses: List[PunctureWitness] = []
    for u in range(1, n1 + 1):
        for W in good_puncture_pairs(C, u):
            all_witnesses.append(W)
            if W.dmin >= d - 1:
                padded = LinearCode.from_rows(
                    W.punctured.gen.rows, W.punctured.n + 1)
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
        # every witness here has dmin == d - 2, so the span is nonzero
        span = W.punctured.codeword_span(d - 2)
        if span.contains(BitVector.ones(span.n)):
            continue
        out, info = extend_after_puncture(W, span)
        trace = (
            {"op": "puncture_pair", "u": W.u, "v": W.v,
             "lcd": True, "dmin": W.dmin},
            {"op": "min_weight_span", "weight": d - 2, "dim": span.k,
             "contains_all_one": False},
            {"op": "extend_after_puncture", **info},
        )
        cert = ConjectureCertificate(
            (n1, k, d), ROUTE_EXTENSION, out, trace)
        cert.verify()
        return cert

    raise RuntimeError(
        "no certified step-down found: every pair's minimum-weight span "
        "contains the all-one vector, which should be impossible")

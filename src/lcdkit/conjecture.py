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

Each pair is decided from the input's orthonormal basis B (Gram I_k),
which is built once per code and kept in the code's cache together with
a ``codes.WeightTable`` over B's columns c_1 .. c_{n+1}.  Puncturing u
and v keeps k (d >= 3), and its messages x B weigh the table's lanes
minus the patterns of c_u and c_v, so the pair's distance is one lane
minimum; its Gram matrix is I + c_u c_u^T + c_v c_v^T, so its LCD
verdict is the rank of that k x k matrix.  From ``BZ_MIN_K`` rows on no
table is kept and the distance is ``min_weight`` of B's punctured rows.
A witness builds its punctured code only when read, and re-tests it for
LCD then, so a certification builds the code of the pair it uses and
of the pairs the extension route scans before it.

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
    """The pair (u, v) of a source code C, with the LCD status and
    minimum distance of the doubly-punctured code C^{u,v}.

    ``punctured`` builds C^{u,v} on first read and checks that its
    ``is_lcd()`` agrees with ``lcd``.
    """

    source: LinearCode
    u: int
    v: int
    lcd: bool
    dmin: int

    @cached_property
    def punctured(self) -> LinearCode:
        P = self.source.puncture([self.u, self.v])
        if P.is_lcd() != self.lcd:
            raise ConjectureError(
                f"punctured code at ({self.u},{self.v}) contradicts "
                "its Gram verdict")
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


def _require_oe(C: LinearCode) -> None:
    label = C.parity_class().label
    if label != "LCD_oe":
        raise ValueError(
            f"expected an odd-like LCD code with even-like dual, got {label}")
    if C.k < 2:
        raise ValueError("dimension must be at least 2")


def _orthonormal_lanes(
        C: LinearCode) -> Tuple[BitMatrix, List[int], Optional[WeightTable]]:
    """C's orthonormal basis B, B's columns and, below ``BZ_MIN_K`` rows,
    the weight table over them; built once per code, kept in its cache."""
    def build():
        B = nf.orthonormal_basis(C)
        cols = list(B.transpose().rows)
        return B, cols, WeightTable(cols, C.k) if C.k < BZ_MIN_K else None
    return C._cached("orthonormal_lanes", build)


def good_puncture_pairs(C: LinearCode, u: int) -> List[PunctureWitness]:
    """All v for which C^{u,v} is LCD, read off the hull of C^u.

    Over an orthonormal generator basis, puncturing coordinate u leaves
    a one-dimensional hull spanned by the sum of the rows supported at
    u; puncturing any further coordinate in that hull vector's support
    removes the hull entirely.  Returns at least d-1 verified witnesses,
    in ascending v order.

    C^u itself is built for its hull checks, but no C^{u,v} is: with B
    the orthonormal basis and c_j its columns, the pair's LCD verdict is
    the rank of its Gram matrix I + c_u c_u^T + c_v c_v^T, and its
    distance is the least lane of the table without c_u's and c_v's
    patterns (``min_weight`` of B's punctured rows from ``BZ_MIN_K``
    rows on).  A witness builds C^{u,v} when its ``punctured`` is read.
    """
    _require_oe(C)
    d = C.min_distance()
    if d < 3:
        raise ValueError("minimum distance must be at least 3")
    (u,) = check_coords([u], C.n)
    B, cols, table = _orthonormal_lanes(C)
    bit = u - 1
    z = 0
    for r in B.rows:
        if (r >> bit) & 1:
            z ^= r
    if not (z >> bit) & 1:
        raise ConjectureError("column at u must meet an odd number of rows")

    Cu = C.puncture([u])
    zu = _drop_bits(z, (u,))
    if Cu.hull_dimension() != 1:
        raise ConjectureError("single puncture must leave hull dim 1")
    if not Cu.hull().contains(BitVector(Cu.n, zu)):
        raise ConjectureError("row sum must span the punctured hull")
    if zu.bit_count() < d - 1:
        raise ConjectureError("punctured hull vector lighter than d - 1")

    k = C.k
    cu = cols[bit]
    gram_u = [(1 << i) ^ (cu if (cu >> i) & 1 else 0) for i in range(k)]
    witnesses: List[PunctureWitness] = []
    for j in range(C.n):
        if j == bit or not (z >> j) & 1:
            continue
        v = j + 1
        cv = cols[j]
        lcd = gf2.rank_of_rows(
            [g ^ cv if (cv >> i) & 1 else g for i, g in enumerate(gram_u)]
        ) == k
        if not lcd:
            raise ConjectureError(f"punctured code at ({u},{v}) must be LCD")
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
        witnesses.append(PunctureWitness(source=C, u=u, v=v,
                                         lcd=lcd, dmin=dmin))
    if len(witnesses) < d - 1:
        raise ConjectureError("fewer than d - 1 puncture witnesses")
    return witnesses


def min_weight_span_punctured(W: PunctureWitness, d: int) -> LinearCode:
    """Span of all weight-(d-2) codewords of C^{u,v} (possibly zero)."""
    if not W.lcd:
        raise ValueError("witness must be LCD")
    w = d - 2
    if w < 1:
        raise ValueError("need d >= 3")
    P = W.punctured
    if P.min_distance() > w:
        return LinearCode.zero_code(P.n)
    return P.codeword_span(w)


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

    Finds an odd-weight codeword c of C^{u,v} outside span_d2 and
    orthogonal to it, solves for prefix entries so each spanning word
    gains a trailing 1, then completes the column keeping LCD.  Returns
    the [n, k, d-1] LCD code and the trace entry's data: c and the
    appended column y.
    """
    if not W.lcd:
        raise ValueError("witness must be LCD")
    P = W.punctured
    npunc, k = P.n, P.k
    if span_d2.contains(BitVector.ones(npunc)):
        raise ValueError("all-one vector lies in the minimum-weight span")

    if span_d2.k == 0:
        basis = nf.orthonormal_basis(P)
        base = LinearCode(basis)
        y_prefix = BitVector(k - 1, 0)
    else:
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
    all-one vector.  The guarantee is constructive: failure to find a
    route signals an implementation bug and raises RuntimeError.
    """
    _require_oe(C)
    d = C.min_distance()
    if d < 3:
        raise ValueError("minimum distance must be at least 3")
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
        span = min_weight_span_punctured(W, d)
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

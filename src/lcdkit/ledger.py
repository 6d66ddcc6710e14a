"""Replayable construction ledger and published distance-bounds tables.

A construction ledger is a JSON-lines file whose records name a
registered construction operation, its input code, auxiliary data
(coordinates, appended vectors), and the expected output parameters.
An input is inline, a seeded search, an externally distributed seed
file, or the output of row i (``{"source": "row", "ref": i}``, 0-based,
earlier or later in the file).  ``replay_ledger`` replays each row
once, after the row it refers to; a ref that is no row index, names
its own row or lies on a cycle fails.  A row whose external seed is
absent is skipped — never failed — and so is a row whose producer did
not pass, with a message naming the producer.  The data picks the
reader: an inline record that gives a field degree ``m`` is EXTGEN1
and any other is GEN1, and an external file is read by its header.  A
record whose expected distance, or the input distance its operation
needs, ``min_distance`` cannot compute within its budget is skipped
too (``UNVERIFIED``), never passed.  A row and the chain of
rows it refers to decide its replay: a search input runs with the
seed it records, ``DEFAULT_SEED`` if none.

The bounds table holds published (lower, upper) bounds on the best LCD
minimum distance d_lcd(n, k) at lengths beyond exhaustive reach, read
as ``{(n, k): (lower, upper)}``, the data ``tables.law_violations``
checks against the d_lcd laws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from . import constructions as cons
from . import expansion as xp
from .codes import EngineBudgetError, LinearCode
from .gf2 import BitVector
from .search import DEFAULT_SEED, lcd_search

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED-MISSING-SEED"
# a distance the replay needs, of the input or of the output, could not
# be computed at budget
UNVERIFIED = "SKIPPED-UNVERIFIED-DISTANCE"

class _ReplayFailure(Exception):
    """Internal: the replayed construction contradicts the record."""


class _ReplaySkip(Exception):
    """Internal: the record's input is not available."""


@dataclass(frozen=True)
class ConstructionRecord:
    """One ledger row: an operation, its inputs, and the expected result.

    expect is (n, k, d), integers with 0 <= k <= n and n, d >= 1, where
    d may be None; n and k are verified exactly and d as a lower bound
    on the replayed minimum distance; every output must also be LCD
    unless its op's ``lcd`` is False.
    status records the verdict of the run that produced the file (for
    shipped rows: PASS for replayable rows, SKIPPED-MISSING-SEED for a
    row whose chain of row refs ends at an external seed).
    """

    op: str
    inputs: Dict
    aux: Dict = field(default_factory=dict)
    expect: Tuple[int, int, Optional[int]] = (0, 0, None)
    status: Optional[str] = None

    def __post_init__(self):
        if self.op not in REGISTERED_OPS:
            raise ValueError(f"unknown operation {self.op!r}")
        n, k, d = self.expect
        # type(): a JSON true is an int to isinstance
        given = (n, k) if d is None else (n, k, d)
        if not all(type(v) is int for v in given) or n < 1 \
                or not 0 <= k <= n or d is not None and d < 1:
            raise ValueError(f"bad expected parameters {self.expect}")
        for key in REGISTERED_OPS[self.op].aux:
            if self.aux.get(key) in (None, []):
                raise ValueError(f"{self.op} requires aux {key!r}")

    @classmethod
    def from_json_obj(cls, obj: Dict) -> "ConstructionRecord":
        expect = obj["expect"]
        if not isinstance(expect, list) or len(expect) not in (2, 3):
            raise ValueError(
                f"expect must be [n, k] or [n, k, d], got {expect!r}")
        return cls(op=obj["op"], inputs=dict(obj["inputs"]),
                   aux=dict(obj.get("aux", {})),
                   expect=(expect[0], expect[1],
                           expect[2] if len(expect) > 2 else None),
                   status=obj.get("status"))


@dataclass(frozen=True)
class ReplayResult:
    record: ConstructionRecord
    status: str
    message: str = ""
    output: Optional[LinearCode] = None


def parse_records(text: str) -> List[ConstructionRecord]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
            records.append(ConstructionRecord.from_json_obj(obj))
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"ledger line {lineno}: {e}") from None
    return records


def load_builtin_records() -> List[ConstructionRecord]:
    text = resources.files("lcdkit").joinpath(
        "data/constructions.jsonl").read_text()
    return parse_records(text)


# ----------------------------------------------------------------------
# input resolution


def _resolve_input(rec: ConstructionRecord, seed_dir: Optional[Path],
                   budget_ms: int, produced: Dict[int, ReplayResult]):
    """The input code; raises _ReplaySkip when it is not available.
    produced holds the results so far of ``replay_ledger``, which has
    checked a row input's ref."""
    inputs = rec.inputs
    source = inputs.get("source", "inline")
    if source == "inline":
        # a field degree m makes the rows EXTGEN1 data, as a third
        # header field does for an external file
        if "m" in inputs:
            field_ = xp.ExtField.of_degree(inputs["m"])
            return xp.ExtFieldCode(field_, inputs["rows"], inputs["n"])
        return LinearCode.from_strings(inputs["rows"])
    if source == "search":
        n, k, d = (inputs.get(key) for key in ("n", "k", "d"))
        seed = inputs.get("seed", DEFAULT_SEED)
        # type(): a JSON true is an int to isinstance
        if not all(type(v) is int for v in (n, k, d)) \
                or not 1 <= k <= n or d < 1:
            raise _ReplayFailure(
                f"bad search target n={n!r} k={k!r} d={d!r}: need "
                f"integers with 1 <= k <= n and d >= 1")
        if type(seed) is not int:
            raise _ReplayFailure(f"bad search seed {seed!r}: need an integer")
        code = lcd_search(n, k, d, seed=seed, budget_ms=budget_ms)
        if code is None:
            raise _ReplayFailure(
                f"search found no [{n},{k},{d}] LCD code within budget")
        return code
    if source == "external":
        name = inputs.get("file", "")
        path = None if seed_dir is None else Path(seed_dir) / name
        if path is None or not path.is_file():
            raise _ReplaySkip(f"external seed {name!r} not available")
        return xp.read_code(path.read_text())
    if source == "row":
        ref = inputs["ref"]
        producer = produced[ref]
        if producer.status != PASS:
            raise _ReplaySkip(f"producer row {ref} is {producer.status}")
        return producer.output
    raise _ReplayFailure(f"unknown input source {source!r}")


def _ref(records: Sequence[ConstructionRecord], i: int) -> Optional[int]:
    """The index of the row that row i's input refers to, None for an
    input of another source; raises _ReplayFailure for a ref that names
    no other row."""
    inputs = records[i].inputs
    if inputs.get("source") != "row":
        return None
    ref = inputs.get("ref")
    # type(): a JSON true is an int to isinstance
    if type(ref) is not int or not 0 <= ref < len(records):
        raise _ReplayFailure(
            f"bad row ref {ref!r}: need a row index in "
            f"0..{len(records) - 1}")
    if ref == i:
        raise _ReplayFailure(f"row ref {ref} is the row itself")
    return ref


# ----------------------------------------------------------------------
# operation application


def _expand(seed_code: xp.ExtFieldCode, aux: Dict) -> List[LinearCode]:
    transform = aux.get("transformation", "id")
    if transform != "id":
        if not isinstance(transform, list):
            raise _ReplayFailure(
                "only identity or explicit diagonal transformations "
                "replay")
        if len(transform) != seed_code.n:
            raise _ReplayFailure("diagonal length must equal n")
        F = seed_code.field
        if not all(type(t) is int and 0 < t < F.order for t in transform):
            raise _ReplayFailure(
                f"diagonal entries must be nonzero elements of "
                f"GF({F.order})")
        rows = [[F.mul(t, v) for t, v in zip(transform, row)]
                for row in seed_code.gen]
        seed_code = xp.ExtFieldCode(F, rows, seed_code.n)
    return [seed_code.image]


def _one(construct: Callable) -> Callable:
    """Handler for a construction with a single output."""
    return lambda code, aux: [construct(code)]


def _with_vector(construct: Callable) -> Callable:
    """Handler for a construction taking the aux vector x."""
    return lambda code, aux: [
        construct(code, BitVector.from_string(aux["x"]))]


class _Op(NamedTuple):
    replay: Callable  # (input code, aux) -> list of output codes
    aux: Tuple[str, ...] = ()  # aux keys the op reads; must be present
    input: type = LinearCode  # the type of code the op replays on
    lcd: bool = True  # every output must be LCD


# Operations a ledger record may name.  The hull-guided ops pick their
# coordinates from the hull, so any coordinates in their aux are
# provenance only.  The hull-drop ops promise only a hull one smaller
# than the input's, and check that themselves.  extend_two_multi
# checks its own outputs are distinct; there are 2^(k-1) by construction.
REGISTERED_OPS: Dict[str, _Op] = {
    "extend_even": _Op(_one(cons.extend_even)),
    "extend_odd_two": _Op(_one(cons.extend_odd_two)),
    "puncture_even_lcd": _Op(lambda code, aux: [
        cons.puncture_even_lcd(code, *aux["coordinates"])], ("coordinates",)),
    "shorten_odd_lcd": _Op(lambda code, aux: [
        cons.shorten_odd_lcd(code, aux.get("coordinate"))]),
    "hull_shorten": _Op(_one(cons.hull_shorten)),
    "hull_puncture": _Op(_one(cons.hull_puncture)),
    "extend_row_dual": _Op(_with_vector(cons.extend_row_dual), ("x",)),
    "extend_systematic": _Op(_with_vector(cons.extend_systematic), ("x",)),
    "extend_hull_drop": _Op(_with_vector(cons.extend_hull_drop), ("x",),
                            lcd=False),
    "extend_column_hull_drop": _Op(
        _with_vector(cons.extend_column_hull_drop), ("x",), lcd=False),
    "extend_two_multi": _Op(lambda code, aux: cons.extend_two_multi(code)),
    "expand": _Op(_expand, input=xp.ExtFieldCode),
}


def _apply_op(rec: ConstructionRecord, seed_code) -> List[LinearCode]:
    """Replays rec.op on the resolved input; returns output code(s)."""
    spec = REGISTERED_OPS[rec.op]
    if not isinstance(seed_code, spec.input):
        raise _ReplayFailure(
            f"{rec.op} needs an input of type {spec.input.__name__}")
    outputs = spec.replay(seed_code, rec.aux)
    if any(code is None for code in outputs):
        raise _ReplayFailure(f"{rec.op} verdict: the extension is not LCD")
    return outputs


def _verify(code: LinearCode,
            expect: Tuple[int, int, Optional[int]], lcd: bool) -> bool:
    """Whether code meets expect; False when its expected distance is
    beyond the engine's budget.  Raises _ReplayFailure on a mismatch.

    The distance is computed only when expect names one.
    """
    n, k, d = expect
    if (code.n, code.k) != (n, k):
        raise _ReplayFailure(
            f"parameters [{code.n},{code.k}] differ from expected "
            f"[{n},{k}]")
    if lcd and not code.is_lcd():
        raise _ReplayFailure("output is not LCD")
    if d is None:
        return True
    try:
        dmin = code.min_distance()
    except EngineBudgetError:
        return False
    if dmin < d:
        raise _ReplayFailure(f"minimum distance {dmin} below expected {d}")
    return True


def _replay(rec: ConstructionRecord, seed_dir: Optional[Union[str, Path]],
            budget_ms: int,
            produced: Dict[int, ReplayResult]) -> ReplayResult:
    try:
        seed_code = _resolve_input(
            rec, None if seed_dir is None else Path(seed_dir), budget_ms,
            produced)
        try:
            outputs = _apply_op(rec, seed_code)
        except EngineBudgetError:
            # an op whose precondition reads the input's distance
            return ReplayResult(rec, UNVERIFIED,
                                "input distance unverifiable at budget")
        lcd = REGISTERED_OPS[rec.op].lcd
        # every output is checked, so a later mismatch still fails
        if all([_verify(code, rec.expect, lcd) for code in outputs]):
            return ReplayResult(rec, PASS, "", outputs[0])
        # an expected distance that was never checked is no PASS
        return ReplayResult(rec, UNVERIFIED,
                            "distance unverifiable at budget", outputs[0])
    except _ReplaySkip as e:
        return ReplayResult(rec, SKIPPED, str(e))
    except _ReplayFailure as e:
        return ReplayResult(rec, FAIL, str(e))
    # a malformed record field surfaces from the code that reads it: a
    # ValueError for a bit string that is not a 0/1 str ("rows": [5]), a
    # TypeError or LookupError for a field of the wrong shape ("rows": 5)
    except (ValueError, TypeError, LookupError) as e:
        return ReplayResult(rec, FAIL, f"{type(e).__name__}: {e}")


def replay_ledger(records: Sequence[ConstructionRecord],
                  seed_dir: Optional[Union[str, Path]] = None,
                  budget_ms: int = 2000) -> List[ReplayResult]:
    """One result per record, in file order; each row replays once,
    after the row it refers to, and its outputs are verified against the
    record, every distance by ``min_distance``.  A chain is walked by a
    loop, so no chain is too long."""
    results: Dict[int, ReplayResult] = {}
    for start in range(len(records)):
        # walk down the refs to a row replayed already or one whose
        # input needs no other row
        chain, on_chain, i = [], set(), start
        while i is not None and i not in results:
            if i in on_chain:
                cycle = chain[chain.index(i):]
                for j in cycle:
                    results[j] = ReplayResult(
                        records[j], FAIL,
                        f"row ref lies on the cycle of rows {cycle}")
                break
            chain.append(i)
            on_chain.add(i)
            try:
                i = _ref(records, i)
            except _ReplayFailure as e:
                results[i] = ReplayResult(records[i], FAIL, str(e))
                break
        # then back up it, each row after the one it refers to
        for j in reversed(chain):
            if j not in results:
                results[j] = _replay(records[j], seed_dir, budget_ms,
                                     results)
    return [results[i] for i in range(len(records))]


def summary_exit_code(results: Sequence[ReplayResult]) -> int:
    """0 when something passed and nothing failed, 1 on any failure,
    2 when every record was skipped (a missing seed or a distance not
    verified at budget)."""
    if any(r.status == FAIL for r in results):
        return 1
    if any(r.status == PASS for r in results):
        return 0
    return 2


# ----------------------------------------------------------------------
# published bounds tables


def parse_bounds(obj: Dict) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """The entries of a bounds file as ``{(n, k): (lower, upper)}``;
    refuses a repeated cell and a lower bound above its upper one."""
    bounds = {}
    for e in obj["entries"]:
        key = (e["n"], e["k"])
        if key in bounds:
            raise ValueError(f"duplicate entry for {key}")
        if e["lower"] > e["upper"]:
            raise ValueError(f"lower bound exceeds upper bound at {key}")
        bounds[key] = (e["lower"], e["upper"])
    return bounds


def load_builtin_bounds() -> Dict[Tuple[int, int], Tuple[int, int]]:
    text = resources.files("lcdkit").joinpath(
        "data/bounds_tables.json").read_text()
    return parse_bounds(json.loads(text))

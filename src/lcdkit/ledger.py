"""Replayable construction ledger and published distance-bounds tables.

A construction ledger is a JSON-lines file whose records name a
registered construction operation, its input code, auxiliary data
(coordinates, appended vectors), and the expected output parameters.
Records with inline or searchable inputs replay deterministically;
records whose input is an externally distributed seed file are skipped
— never failed — when the seed is absent.  A record whose expected
distance, or the input distance its operation needs, the engine cannot
compute within its budget is skipped too (``UNVERIFIED``), never passed.

A bounds ledger holds published lower/upper bounds on the best LCD
minimum distance d_lcd(n, k) at lengths beyond exhaustive reach, and
supports internal consistency checks (interval sanity, monotonicity in
n, antitonicity in k, and the unit-step law).
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
from .codes import EngineBudgetError, LinearCode, check_coords, parse_gen1
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


@dataclass(frozen=True)
class ConstructionRecord:
    """One ledger row: an operation, its inputs, and the expected result.

    expect is (n, k, d) where d may be None; n and k are verified
    exactly and d as a lower bound on the replayed minimum distance;
    every output must also be LCD unless its op's ``lcd`` is False.
    status records the verdict of the run that produced the file (for
    shipped rows: PASS for replayable rows, SKIPPED-MISSING-SEED for
    external-seed rows).
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
        if n < 1 or not 0 <= k <= n:
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
                   seed: int, budget_ms: int):
    """Returns (object, None) or (None, skip_message)."""
    inputs = rec.inputs
    source = inputs.get("source", "inline")
    fmt = inputs.get("format", "gen1")
    if source == "inline":
        if fmt == "gen1":
            return LinearCode.from_strings(inputs["rows"]), None
        if fmt == "extgen1":
            field_ = xp.ExtField.of_degree(inputs["m"])
            return xp.ExtFieldCode(field_, inputs["rows"], inputs["n"]), None
        raise _ReplayFailure(f"unknown inline format {fmt!r}")
    if source == "search":
        code = lcd_search(inputs["n"], inputs["k"], inputs["d"],
                          seed=inputs.get("seed", seed),
                          budget_ms=budget_ms)
        if code is None:
            raise _ReplayFailure(
                f"search found no [{inputs['n']},{inputs['k']},"
                f"{inputs['d']}] LCD code within budget")
        return code, None
    if source == "external":
        name = inputs.get("file", "")
        path = None if seed_dir is None else Path(seed_dir) / name
        if path is None or not path.is_file():
            return None, f"external seed {name!r} not available"
        text = path.read_text()
        if fmt == "extgen1":
            return xp.parse_extgen1(text), None
        return parse_gen1(text), None
    raise _ReplayFailure(f"unknown input source {source!r}")


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


def _puncture_even_lcd(code: LinearCode, aux: Dict) -> List[LinearCode]:
    # puncture highest coordinates first so the recorded positions keep
    # referring to the original code
    for i in reversed(check_coords(aux["coordinates"], code.n)):
        code = cons.puncture_even_lcd(code, i)
    return [code]


def _extend_two_multi(code: LinearCode, aux: Dict) -> List[LinearCode]:
    outputs = cons.extend_two_multi(code)
    want = 1 << (code.k - 1)
    if len(outputs) != want:
        raise _ReplayFailure(f"expected {want} outputs, got {len(outputs)}")
    if len(set(outputs)) != len(outputs):
        raise _ReplayFailure("outputs are not pairwise distinct")
    return outputs


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
# than the input's, and check that themselves.
REGISTERED_OPS: Dict[str, _Op] = {
    "extend_even": _Op(_one(cons.extend_even)),
    "extend_odd_two": _Op(_one(cons.extend_odd_two)),
    "puncture_even_lcd": _Op(_puncture_even_lcd, ("coordinates",)),
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
    "extend_two_multi": _Op(_extend_two_multi),
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
            expect: Tuple[int, int, Optional[int]],
            lcd: bool, engine: str = "auto") -> bool:
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
        dmin = code.min_distance(engine)
    except EngineBudgetError:
        return False
    if dmin < d:
        raise _ReplayFailure(f"minimum distance {dmin} below expected {d}")
    return True


def replay_record(rec: ConstructionRecord,
                  seed_dir: Optional[Union[str, Path]] = None,
                  seed: int = DEFAULT_SEED,
                  budget_ms: int = 2000,
                  engine: str = "auto") -> ReplayResult:
    """Replays one record and verifies the output against expectations."""
    try:
        seed_code, skip = _resolve_input(
            rec, None if seed_dir is None else Path(seed_dir),
            seed, budget_ms)
        if skip is not None:
            return ReplayResult(rec, SKIPPED, skip)
        try:
            outputs = _apply_op(rec, seed_code)
        except EngineBudgetError:
            # an op whose precondition reads the input's distance
            return ReplayResult(rec, UNVERIFIED,
                                "input distance unverifiable at budget")
        lcd = REGISTERED_OPS[rec.op].lcd
        # every output is checked, so a later mismatch still fails
        if all([_verify(code, rec.expect, lcd, engine)
                for code in outputs]):
            return ReplayResult(rec, PASS, "", outputs[0])
        # an expected distance that was never checked is no PASS
        return ReplayResult(rec, UNVERIFIED,
                            "distance unverifiable at budget", outputs[0])
    except _ReplayFailure as e:
        return ReplayResult(rec, FAIL, str(e))
    # a malformed record field surfaces from the code that reads it: a
    # ValueError for a bit string that is not a 0/1 str ("rows": [5]), a
    # TypeError or LookupError for a field of the wrong shape ("rows": 5)
    except (ValueError, TypeError, LookupError) as e:
        return ReplayResult(rec, FAIL, f"{type(e).__name__}: {e}")


def replay_ledger(records: Sequence[ConstructionRecord],
                  seed_dir: Optional[Union[str, Path]] = None,
                  seed: int = DEFAULT_SEED,
                  budget_ms: int = 2000,
                  engine: str = "auto") -> List[ReplayResult]:
    return [replay_record(r, seed_dir, seed, budget_ms, engine)
            for r in records]


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


@dataclass(frozen=True)
class BoundsEntry:
    lower: int
    upper: int
    status: str  # "exact" | "interval"

    def __post_init__(self):
        if self.status not in ("exact", "interval"):
            raise ValueError(f"bad status {self.status!r}")
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.status == "exact" and self.lower != self.upper:
            raise ValueError("exact entry with lower != upper")


@dataclass(frozen=True)
class BoundsLedger:
    """Published lower/upper bounds on d_lcd(n, k), keyed by (n, k)."""

    entries: Dict[Tuple[int, int], BoundsEntry]

    @classmethod
    def from_json_obj(cls, obj: Dict) -> "BoundsLedger":
        entries = {}
        for e in obj["entries"]:
            key = (e["n"], e["k"])
            if key in entries:
                raise ValueError(f"duplicate entry for {key}")
            entries[key] = BoundsEntry(e["lower"], e["upper"], e["status"])
        return cls(entries)

    @classmethod
    def load_builtin(cls) -> "BoundsLedger":
        text = resources.files("lcdkit").joinpath(
            "data/bounds_tables.json").read_text()
        return cls.from_json_obj(json.loads(text))

    def check_consistency(self) -> List[str]:
        """Violation messages; an empty list means the table is sane.

        Checks, wherever both cells are present:
        monotone in n (an [n, k] code extends, so the best distance
        cannot drop when n grows), antitone in k (a subcode of an
        [n, k] code), and the unit-step law in n for k >= 2.  On
        intervals the checks use the weakest consistent reading
        (compare lower bounds against upper bounds).
        """
        bad = []
        for (n, k), e in sorted(self.entries.items()):
            up = self.entries.get((n + 1, k))
            if up is not None:
                if up.upper < e.lower:
                    bad.append(f"({n + 1},{k}) upper {up.upper} below "
                               f"({n},{k}) lower {e.lower}")
                if k >= 2 and up.lower > e.upper + 1:
                    bad.append(f"({n + 1},{k}) lower {up.lower} exceeds "
                               f"({n},{k}) upper {e.upper} + 1")
            left = self.entries.get((n, k - 1))
            if left is not None and left.upper < e.lower:
                bad.append(f"({n},{k - 1}) upper {left.upper} below "
                           f"({n},{k}) lower {e.lower}")
        return bad

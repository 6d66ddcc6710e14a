"""Spans around lcdkit's layers, installed from outside for the traced run.

Hooks replace module attributes and ``LinearCode`` methods by wrappers
that record one span per call (one per ``next()`` for generators).  Each
target is looked up by name when the hooks are installed; a target that
no longer exists is reported as absent and its metrics read 0, so the
benchmark keeps running when later changes merge or rename layers.

Spans are kept in compact arrays and summarised when the run ends.  A
layer's self time is its span durations minus the time covered by its
child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

SMALL_ROWS = 16
GF2_FUNCTIONS = ("rank", "rank_of_rows", "rref", "gram", "solve", "nullspace",
                 "is_nonsingular", "congruent_normal_form")
K_FULL_DEFAULT = 26


class Tracer:
    """Span recorder: name, start, end, parent span and item id per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.counters: Counter = Counter()
        self.current_item = -1
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.item.append(self.current_item)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def summary(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """Per span name: calls and self time (ns); and top-level time (ns)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        top = 0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        calls: Dict[str, int] = Counter()
        self_ns: Dict[str, int] = Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
        return calls, self_ns, top

    def open_name(self) -> str:
        """Name of the innermost open span, or "" outside every span."""
        return self.names[self.name[self._open[-1]]] if self._open else ""

    def write_csv(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,item\n")
            for i, nid in enumerate(self.name):
                out.write(f"{i},{self.names[nid]},{self.start[i]},"
                          f"{self.end[i]},{self.parent[i]},{self.item[i]}\n")


# ----------------------------------------------------------------------
# span names chosen per call


def _rows(m) -> int:
    n = getattr(m, "nrows", None)
    return n if n is not None else len(m)


def _gf2_namer(fn: str) -> Callable:
    def namer(tracer, args, kwargs) -> str:
        size = "small" if _rows(args[0]) <= SMALL_ROWS else "large"
        return f"gf2.{fn}.{size}"
    return namer


def _min_distance_namer(tracer, args, kwargs) -> str:
    code = args[0]
    if "dmin_value" in getattr(code, "_cache", {}):
        return "codes.min_distance.cached"
    k_full = getattr(sys.modules.get("lcdkit.codes"), "K_FULL", K_FULL_DEFAULT)
    if code.k <= k_full:
        # Upper bound: the walk stops early only at a weight-1 word.
        tracer.counters["codes.gray_steps.computed"] += (1 << code.k) - 1
        return "codes.min_distance.full"
    return "codes.min_distance.lowweight"


def _count_route(tracer, result) -> None:
    tracer.counters[f"conjecture.route.{getattr(result, 'route', None)}"] += 1


def _count_witnesses(tracer, result) -> None:
    tracer.counters["conjecture.witnesses"] += len(result)


def _count_found(tracer, result) -> None:
    tracer.counters["search.lcd_search.found"] += result is not None


FN, GEN = "fn", "gen"

# (module, attribute path, kind, span name or namer, result hook)
HOOKS = [
    ("tables", "canonical_b_matrices", GEN, None, None),
    ("tables", "all_one_lcd_codes", GEN, None, None),
    ("tables", "dlcd_value", FN, None, None),
    ("conjecture", "certify_step_down", FN, None, _count_route),
    ("conjecture", "good_puncture_pairs", FN, None, _count_witnesses),
    ("normal_form", "orthonormal_basis", FN, None, None),
    ("normal_form", "hull_normal_basis", FN, None, None),
    ("normal_form", "subcode_normal_form", FN, None, None),
    ("codes", "LinearCode.min_distance", FN, _min_distance_namer, None),
    ("codes", "LinearCode.puncture", FN, "codes.puncture", None),
    ("codes", "LinearCode.shorten", FN, "codes.shorten", None),
    ("codes", "LinearCode.__init__", FN, "codes.LinearCode.init", None),
    ("codes", "parse_gen1", FN, None, None),
    ("search", "lcd_search", FN, None, _count_found),
] + [("gf2", fn, FN, _gf2_namer(fn), None) for fn in GF2_FUNCTIONS]


def _wrap_fn(tracer: Tracer, fn, name, on_result):
    namer = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(namer(tracer, args, kwargs) if namer else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        if on_result is not None:
            on_result(tracer, result)
        return result
    return wrapper


def _wrap_gen(tracer: Tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            span = tracer.begin(name)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                tracer.finish(span)
            tracer.counters[name + ".yielded"] += 1
            tracer.counters[f"{name}.yielded.in.{tracer.open_name()}"] += 1
            yield value
    return wrapper


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(f"lcdkit.{module}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def missing_targets() -> List[str]:
    return [f"{m}.{p}" for m, p, *_ in HOOKS if _resolve(m, p) is None]


class Hooks:
    """Installs every hook on enter and restores the originals on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for module, path, kind, name, on_result in HOOKS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            span_name = name or f"{module}.{attr}"
            wrapped = (_wrap_gen(self.tracer, fn, span_name) if kind == GEN
                       else _wrap_fn(self.tracer, fn, span_name, on_result))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


# ----------------------------------------------------------------------
# per-layer metrics


def _layer_names() -> List[Tuple[str, str]]:
    out = [
        ("tables.canonical_b_matrices.yielded", "count"),
        ("tables.canonical_b_matrices.self_s", "s"),
        ("tables.dlcd_value.self_s", "s"),
        ("tables.all_one_lcd_codes.self_s", "s"),
        ("tables.all_one_lcd_codes.yield_ratio", "ratio"),
        ("conjecture.certify_step_down.self_s", "s"),
        ("conjecture.good_puncture_pairs.calls", "count"),
        ("conjecture.good_puncture_pairs.self_s", "s"),
        ("conjecture.witnesses", "count"),
        ("conjecture.route.padded-puncture", "count"),
        ("conjecture.route.extension", "count"),
        ("normal_form.orthonormal_basis.self_s", "s"),
        ("normal_form.hull_normal_basis.self_s", "s"),
        ("normal_form.subcode_normal_form.self_s", "s"),
        ("codes.min_distance.full.calls", "count"),
        ("codes.min_distance.full.self_s", "s"),
        ("codes.min_distance.lowweight.calls", "count"),
        ("codes.min_distance.lowweight.self_s", "s"),
        ("codes.min_distance.cached.calls", "count"),
        ("codes.gray_steps.computed", "count"),
        ("codes.puncture.calls", "count"),
        ("codes.puncture.self_s", "s"),
        ("codes.shorten.calls", "count"),
        ("codes.shorten.self_s", "s"),
        ("codes.LinearCode.init.calls", "count"),
        ("codes.parse_gen1.self_s", "s"),
    ]
    for fn in GF2_FUNCTIONS:
        for size in ("small", "large"):
            out += [(f"gf2.{fn}.{size}.calls", "count"),
                    (f"gf2.{fn}.{size}.self_s", "s")]
    out += [
        ("search.lcd_search.self_s", "s"),
        ("search.lcd_search.found_ratio", "ratio"),
        ("bench.item.self_s", "s"),
        ("bench.stage.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.top_level_coverage", "ratio"),
        ("trace.spans", "count"),
        ("trace.hooks_absent", "count"),
    ]
    return out


LAYER_METRICS = _layer_names()


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                  absent: List[str]) -> Dict[str, float]:
    calls, self_ns, top_ns = tracer.summary()
    values: Dict[str, float] = dict(tracer.counters)
    for name in calls:
        values[name + ".calls"] = calls[name]
        values[name + ".self_s"] = self_ns[name] / 1e9
    enumerated = values.get("tables.canonical_b_matrices.yielded.in."
                            "tables.all_one_lcd_codes", 0)
    values["tables.all_one_lcd_codes.yield_ratio"] = (
        values.get("tables.all_one_lcd_codes.yielded", 0) / enumerated
        if enumerated else 0.0)
    searches = values.get("search.lcd_search.calls", 0)
    values["search.lcd_search.found_ratio"] = (
        values.get("search.lcd_search.found", 0) / searches
        if searches else 0.0)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.top_level_coverage"] = top_ns / 1e9 / traced_s
    values["trace.spans"] = len(tracer.name)
    values["trace.hooks_absent"] = len(absent)
    return {name: values.get(name, 0) for name, _ in LAYER_METRICS}

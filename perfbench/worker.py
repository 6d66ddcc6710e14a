"""One share of a benchmark run in a fresh process; started by run.py.

Prints "ready" once lcdkit is imported and the workload's inputs are
built, then runs the job and prints one JSON line.  Untraced workers
repeat the job for about --seconds and report every job's wall time and
every job's item and stage times at reference speed; traced workers do
one untraced and one traced job.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Recorder:
    """Runs one job's items and stages, keeping their times, outputs and errors."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.item_times = []
        self.stage_times = []
        self.outputs = []
        self.errors = []

    def item(self, key, fn, *args, **kwargs):
        return self._call("bench.item", self.item_times, key, fn, args, kwargs)

    def stage(self, key, fn, *args, **kwargs):
        return self._call("bench.stage", self.stage_times, key, fn, args,
                          kwargs)

    def _call(self, span_name, times, key, fn, args, kwargs):
        tracer = self.tracer
        if tracer is not None:
            tracer.current_item = len(self.outputs) + len(self.errors)
            span = tracer.begin(span_name)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising item counts as failed
            out = None
            self.errors.append((key, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()))
        else:
            self.outputs.append((key, out))
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.finish(span)
        times.append(t1 - t0)
        return out


class Results:
    """Outputs of every job, reduced to plain data, and the failure count."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.data = {}
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, rec: Recorder) -> None:
        self.attempted += len(rec.outputs) + len(rec.errors)
        self.failed += len(rec.errors)
        self.messages += [f"{key!r}: {msg}" for key, msg in rec.errors]
        for key, out in rec.outputs:
            summary = self.workload.summarize(key, out)
            if self.data.setdefault(key, summary) != summary:
                self.failed += 1
                self.messages.append(f"{key!r}: output differs between jobs")
            self.seen[key] = self.seen.get(key, 0) + 1

    def check(self) -> None:
        # A key that no job returned is a fault of the benchmark itself:
        # indexing raises, so it stops the run instead of counting nothing.
        for key in self.workload.check(self.data):
            self.failed += self.seen[key]
            self.messages.append(f"{key!r}: output fails the benchmark's check")


# The reference kernel: fixed pure-Python work shaped like lcdkit's inner
# loops (a Gray-code walk over int rows, then small eliminations).  It
# shares no code with lcdkit, so its time tracks only the machine's speed.
# A block of KERNEL_RUNS runs is timed before the first job and after
# every job, and each job's step times are scaled by REF_KERNEL_S over the
# median kernel time of the blocks on either side of it.  REF_KERNEL_S is
# the kernel's median time on the machine the benchmark was written on (a
# 2-vCPU x86-64 VM, Python 3.11.7), so scaled times read as seconds there.
KERNEL_ROWS = tuple((0x9E3779B97F4A7C15 * (2 * i + 1)) % (1 << 48)
                    for i in range(11))
KERNEL_RUNS = 5
REF_KERNEL_S = 0.00075


def _eliminate(rows):
    basis = []
    for row in rows:
        for p in basis:
            row = min(row, row ^ p)
        if row:
            basis.append(row)
    return len(basis)


def reference_kernel():
    best, acc, rows = 49, 0, KERNEL_ROWS
    for x in range(1, 1 << len(rows)):
        acc ^= rows[(x & -x).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
    ranks = sum(_eliminate([r ^ (r >> s) for r in rows]) for s in range(1, 17))
    if (best, ranks) != (6, 176):
        raise RuntimeError("reference kernel returned a wrong result")


def kernel_block():
    times = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


def timed_job(workload, tracer=None):
    rec = Recorder(tracer)
    t0 = time.perf_counter()
    workload.job(rec)
    return rec, time.perf_counter() - t0


def measure(workload, seconds: float) -> dict:
    results = Results(workload)
    walls, kernel, item_s, stage_s = [], kernel_block(), [], []
    start = time.perf_counter()
    while True:
        rec, wall = timed_job(workload)
        before = kernel[-KERNEL_RUNS:]
        kernel += kernel_block()
        scale = REF_KERNEL_S / statistics.median(before + kernel[-KERNEL_RUNS:])
        walls.append(wall)
        item_s.append([t * scale for t in rec.item_times])
        stage_s.append([t * scale for t in rec.stage_times])
        results.add(rec)
        # Free this job's outputs before the next job, so that peak RSS
        # does not grow with the number of jobs.
        del rec
        # Stop when the next job would end more than half a job past the
        # share, so that the run lasts about --seconds whatever the job's
        # length.
        if time.perf_counter() - start + wall / 2 > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results.check()
    return {
        "walls_s": walls,
        "kernel_s": kernel,
        "item_s": item_s,
        "stage_s": stage_s,
        "peak_rss_mib": peak_kib / 1024,
        "attempted": results.attempted,
        "failed": results.failed,
        "messages": results.messages[:5],
    }


def measure_traced(workload, trace_path: str) -> dict:
    import tracing

    results = Results(workload)
    rec, untraced = timed_job(workload)
    results.add(rec)
    del rec
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        rec, traced = timed_job(workload, tracer)
    results.add(rec)
    del rec
    layers = tracing.layer_metrics(tracer, traced, untraced, hooks.absent)
    tracer.write_csv(trace_path)
    results.check()
    return {
        "jobs": 2,
        "wall_s": untraced,
        "traced_wall_s": traced,
        "layers": layers,
        "absent_hooks": hooks.absent,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "attempted": results.attempted,
        "failed": results.failed,
        "messages": results.messages[:5],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if sys.flags.optimize:
        print("refusing to run under python -O: lcdkit's asserts carry logic",
              file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        result = measure_traced(workload, os.path.join(
            out_dir, f"trace-{args.workload}.csv.gz"))
    else:
        result = measure(workload, args.seconds)
    result["sizes"] = workload.sizes
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

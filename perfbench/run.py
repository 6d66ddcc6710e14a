"""lcdkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {table,corpus,analyze,search} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --check-hooks

Run from the repository root.  An untraced run splits its seconds among
WORKERS fresh single-threaded Python processes, started one at a time.
Each sets up (imports lcdkit and builds the inputs), then repeats the job
for its share.  setup_s is the median time from starting a worker to its
"ready" line.  Every step of a job (an item or a stage) is timed in every
job and scaled to reference speed by a fixed kernel timed next to it
(worker.py); a step's time is the median over the run's jobs.  wall_s is
the sum of these and the item percentiles are taken over the items' times
(see README.md for why).  A traced run is one worker.  The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics; --trace 0 reports the end-to-end metrics and --trace 1 the
per-layer metrics of a separate traced job.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("table", "corpus", "analyze", "search")
WORKERS = 8
DEADLINE_S = 170


class BenchError(Exception):
    """The run cannot produce a result."""


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a clone."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def start_worker(args, seconds, deadline):
    """Start a worker; return (process, seconds until it printed "ready")."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline) -> str:
    """Wait for a worker until the deadline; return the rest of its output."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None
    return out


def run_worker(args, seconds, deadline):
    """Run one worker to the end; return (its result, its setup time)."""
    proc, setup = start_worker(args, seconds, deadline)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    if args.trace:
        return run_worker(args, args.seconds, deadline)[0]
    # The machine's speed changes by up to 1.9x, for seconds to minutes.
    # Scaling every job by the reference kernel timed next to it takes
    # that out; the median over jobs takes out shorter bursts.  Workers
    # spread over the run put the setup samples in different spells.
    parts, setups = [], []
    for _ in range(WORKERS):
        part, setup = run_worker(args, args.seconds / WORKERS, deadline)
        parts.append(part)
        setups.append(setup)
    walls = [w for part in parts for w in part["walls_s"]]
    kernel = [k for part in parts for k in part["kernel_s"]]
    item_s, stage_s = ([statistics.median(times) for times in
                        zip(*(job for part in parts for job in part[name]))]
                       for name in ("item_s", "stage_s"))
    deciles = statistics.quantiles(item_s, n=10)
    return {
        "sizes": parts[0]["sizes"],
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "jobs": len(walls),
        "wall_s": sum(item_s) + sum(stage_s),
        "wall_median_s": statistics.median(walls),
        "kernel_median_s": statistics.median(kernel),
        "items": len(item_s),
        "item_p50_ms": deciles[4] * 1e3,
        "item_p90_ms": deciles[8] * 1e3,
        "peak_rss_mib": max(part["peak_rss_mib"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "messages": [m for part in parts for m in part["messages"]][:5],
    }


def report(args, result) -> dict:
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": result["sizes"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "commit": git_commit(),
    }
    print("env " + json.dumps(env))
    attempted, failed = result["attempted"], result["failed"]
    for msg in result["messages"]:
        print(f"failure {msg}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    if args.trace:
        if result["absent_hooks"]:
            print("absent hooks: " + ", ".join(result["absent_hooks"]))
        print(f"trace written to {result['trace_file']}")
        import tracing

        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "item_p50_ms": {"value": result["item_p50_ms"], "unit": "ms"},
            "item_p90_ms": {"value": result["item_p90_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
        print(f"samples: {result['items']} items, each the median of "
              f"{result['jobs']} jobs; unscaled median job "
              f"{result['wall_median_s']:.6g} s; median reference kernel "
              f"{result['kernel_median_s'] * 1e3:.4g} ms; setup "
              f"{len(result['setup_samples'])} processes")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def check_hooks() -> int:
    """Exit status 0 when every hook target exists and the metric list
    matches BENCHMARK.json's per_layer entries."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing

    problems = [f"hook target missing: {t}" for t in tracing.missing_targets()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    if declared != tracing.LAYER_METRICS:
        problems.append("per_layer in BENCHMARK.json differs from "
                        "tracing.LAYER_METRICS")
    for p in problems:
        print(p, file=sys.stderr)
    print(f"{len(tracing.HOOKS)} hooks, {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-hooks", action="store_true")
    args = ap.parse_args()
    if sys.flags.optimize:
        print("refusing to run under python -O: lcdkit's asserts carry logic",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "lcdkit", "__init__.py")):
        print("lcdkit sources not found under src/; run from a checkout",
              file=sys.stderr)
        return 2
    if args.check_hooks:
        return check_hooks()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands: analyze, construct, expand, certify, dlcd-table, search,
verify-ledger.  Exit codes: 0 pass, 1 fail (including a failed internal
check, reported on one line), 2 skipped-only, 3 usage or parse error
(a search target with k outside 1..n or d_target < 1, a negative
--budget-ms, a file that cannot be read or written, or input that is
not UTF-8, included).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from . import conjecture, expansion as xp, ledger, tables
from .codes import EngineBudgetError, ParseError, format_gen1, parse_gen1
from .search import DEFAULT_SEED, lcd_search

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _budget_ms(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="lcdkit",
                description="Workbench for binary LCD codes.")
    # one parent parser per flag: a subcommand accepts only those it reads
    def flag(*names, **kw):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kw)
        return parent

    seed = flag("--seed", type=int, default=DEFAULT_SEED,
                help="seed for randomized operations")
    engine = flag("--engine", choices=("auto", "full", "lowweight"),
                  default="auto", help="minimum-distance engine")
    budget = flag("--budget-ms", type=_budget_ms, default=2000,
                  help="time budget for randomized search")
    fmt = flag("--format", choices=("gen1", "extgen1"), default=None,
               help="input format (default: detect from header)")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    def add(name, *flags, **kw):
        return sub.add_parser(name, parents=list(flags), **kw)

    q = add("analyze", engine, fmt, help="report code parameters")
    q.add_argument("path")

    q = add("construct", seed, budget, engine,
            help="replay a construction ledger")
    q.add_argument("path", help="JSON-lines ledger file")
    q.add_argument("--seed-dir", default=None,
                   help="directory holding external seed files")
    q.add_argument("--out-dir", default=None,
                   help="write each replayed output as a GEN1 file here")

    q = add("expand",
            help="binary expansion of an extension-field code")
    q.add_argument("path", help="EXTGEN1 file")
    q.add_argument("--output", default=None, help="GEN1 output file")

    q = add("certify",
            help="certified distance step-down (length n+1 -> n)")
    q.add_argument("path", help="GEN1 file")
    q.add_argument("--trace", default=None,
                   help="write the certificate trace (JSON lines) here")
    q.add_argument("--output", default=None, help="GEN1 output file")

    q = add("dlcd-table",
            help="exhaustive best-LCD-distance table")
    q.add_argument("n_max", type=int)

    q = add("search", seed, budget, help="randomized LCD code search")
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)
    q.add_argument("d_target", type=int)

    q = add("verify-ledger", seed, budget, engine,
            help="replay the built-in construction ledger and "
                 "check the bounds tables")
    q.add_argument("--path", default=None,
                   help="ledger file (default: the built-in ledger)")
    q.add_argument("--seed-dir", default=None,
                   help="directory holding external seed files")
    return p


def _read_code(path: str, fmt: Optional[str]):
    """Parse a code file as GEN1 or EXTGEN1, detecting by header width."""
    text = Path(path).read_text()
    if fmt is None:
        header = next((line.split("#", 1)[0].split()
                       for line in text.splitlines()
                       if line.split("#", 1)[0].strip()), [])
        fmt = "extgen1" if len(header) == 3 else "gen1"
    if fmt == "extgen1":
        return xp.parse_extgen1(text)
    return parse_gen1(text)


def _cmd_analyze(args) -> int:
    code = _read_code(args.path, args.format)
    if isinstance(code, xp.ExtFieldCode):
        d = code.min_distance() if code.k else 0
        label = "LCD" if code.is_lcd() else "NotLCD"
        print(f"{code.n} {code.k} {d} hull={code.hull_dimension()} {label}")
        return EXIT_PASS
    d = code.min_distance(args.engine) if code.k else 0
    label = code.parity_class().label
    print(f"{code.n} {code.k} {d} hull={code.hull_dimension()} {label}")
    return EXIT_PASS


def _cmd_construct(args) -> int:
    records = ledger.parse_records(Path(args.path).read_text())
    out_dir = None if args.out_dir is None else Path(args.out_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    results = ledger.replay_ledger(records, seed_dir=args.seed_dir,
                                   seed=args.seed,
                                   budget_ms=args.budget_ms,
                                   engine=args.engine)
    for i, res in enumerate(results):
        n, k, d = res.record.expect
        tag = f"{res.record.op} -> [{n},{k}" + \
            (f",{d}]" if d is not None else "]")
        note = f" ({res.message})" if res.message else ""
        print(f"{res.status} {tag}{note}")
        if out_dir is not None and res.output is not None:
            (out_dir / f"row{i:03d}.gen1").write_text(
                format_gen1(res.output))
    return ledger.summary_exit_code(results)


def _cmd_expand(args) -> int:
    text = format_gen1(_read_code(args.path, "extgen1").image)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_PASS


def _cmd_certify(args) -> int:
    # an input the step-down does not take raises a ValueError named
    # after the failed precondition (k<2, not-odd-like, ...): exit 1
    cert = conjecture.certify_step_down(_read_code(args.path, "gen1"))
    cert.verify()
    if args.trace:
        Path(args.trace).write_text(cert.trace_jsonl())
    text = format_gen1(cert.output)
    if args.output:
        Path(args.output).write_text(text)
    n1, k, d = cert.input_params
    print(f"[{n1},{k},{d}] -> [{cert.output.n},{cert.output.k},"
          f">={d - 1}] via {cert.route}")
    if not args.output:
        print(text, end="")
    return EXIT_PASS


def _cmd_dlcd_table(args) -> int:
    if args.n_max < 1:
        print("error: n_max must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    table = tables.dlcd_table(args.n_max)
    tables.check_step_property(table)
    for n in range(1, args.n_max + 1):
        row = " ".join(str(table[(n, k)]) for k in range(1, n + 1))
        print(f"{n}: {row}")
    return EXIT_PASS


def _cmd_search(args) -> int:
    if not 1 <= args.k <= args.n or args.d_target < 1:
        print("error: need 1 <= k <= n and d_target >= 1", file=sys.stderr)
        return EXIT_USAGE
    code = lcd_search(args.n, args.k, args.d_target, seed=args.seed,
                      budget_ms=args.budget_ms)
    if code is None:
        print("none")
        return EXIT_FAIL
    print(format_gen1(code), end="")
    return EXIT_PASS


def _cmd_verify_ledger(args) -> int:
    if args.path is None:
        records = ledger.load_builtin_records()
    else:
        records = ledger.parse_records(Path(args.path).read_text())
    results = ledger.replay_ledger(records, seed_dir=args.seed_dir,
                                   seed=args.seed,
                                   budget_ms=args.budget_ms,
                                   engine=args.engine)
    counts = Counter(res.status for res in results)
    skipped = len(results) - counts[ledger.PASS] - counts[ledger.FAIL]
    for res in results:
        if res.status == ledger.FAIL:
            n, k, d = res.record.expect
            print(f"FAIL {res.record.op} -> [{n},{k},{d}]: {res.message}")
    bounds = ledger.BoundsLedger.load_builtin()
    violations = bounds.check_consistency()
    for msg in violations:
        print(f"BOUNDS {msg}")
    print(f"pass={counts[ledger.PASS]} fail={counts[ledger.FAIL]} "
          f"skipped={skipped} "
          f"bounds_entries={len(bounds.entries)} "
          f"bounds_violations={len(violations)}")
    if violations:
        return EXIT_FAIL
    return ledger.summary_exit_code(results)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "expand": _cmd_expand,
    "certify": _cmd_certify,
    "dlcd-table": _cmd_dlcd_table,
    "search": _cmd_search,
    "verify-ledger": _cmd_verify_ledger,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, EngineBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (RuntimeError, AssertionError) as e:
        # an internal invariant failed: one line, never a traceback
        lines = str(e).strip().splitlines()
        print(f"error: {lines[0] if lines else type(e).__name__}",
              file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line surface.

Subcommands: analyze, construct, expand, certify, dlcd-table, search,
verify-ledger.  Exit codes: 0 pass, 1 fail (including a failed internal
check, reported on one line), 2 skipped-only, 3 usage or parse error
(a search target with k outside 1..n or d_target < 1, a negative
--budget-ms, a file that cannot be read or written, or input that is
not UTF-8, included).

No flag restates the input: ``analyze`` reads a 3-field header as
EXTGEN1 and any other as GEN1, the code's dimension picks its distance
engine, and a ledger row and the chain of rows it refers to decide
its replay.
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
    # a subcommand accepts only the flags it reads; this one is shared
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget-ms", type=_budget_ms, default=2000,
                        help="time budget for randomized search")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    # no prefixes either: --seed would otherwise be read as --seed-dir
    def add(name, *flags, **kw):
        return sub.add_parser(name, parents=list(flags), allow_abbrev=False,
                              **kw)

    q = add("analyze", help="report code parameters")
    q.add_argument("path", help="GEN1 or EXTGEN1 file (told apart by "
                                "the header's field count)")

    q = add("construct", budget,
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

    q = add("search", budget, help="randomized LCD code search")
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)
    q.add_argument("d_target", type=int)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the search")

    q = add("verify-ledger", budget,
            help="replay the built-in construction ledger and "
                 "check the bounds tables")
    q.add_argument("--path", default=None,
                   help="ledger file (default: the built-in ledger)")
    q.add_argument("--seed-dir", default=None,
                   help="directory holding external seed files")
    return p


def _cmd_analyze(args) -> int:
    code = xp.read_code(Path(args.path).read_text())
    d = code.min_distance() if code.k else 0
    if isinstance(code, xp.ExtFieldCode):
        label = "LCD" if code.is_lcd() else "NotLCD"
    else:
        label = code.parity_class().label
    print(f"{code.n} {code.k} {d} hull={code.hull_dimension()} {label}")
    return EXIT_PASS


def _row_tag(rec: ledger.ConstructionRecord) -> str:
    """``op -> [n,k,d]``, or ``[n,k]`` for a row that expects no d."""
    n, k, d = rec.expect
    return f"{rec.op} -> [{n},{k}" + (f",{d}]" if d is not None else "]")


def _cmd_construct(args) -> int:
    records = ledger.parse_records(Path(args.path).read_text())
    out_dir = None if args.out_dir is None else Path(args.out_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    results = ledger.replay_ledger(records, seed_dir=args.seed_dir,
                                   budget_ms=args.budget_ms)
    for i, res in enumerate(results):
        note = f" ({res.message})" if res.message else ""
        print(f"{res.status} {_row_tag(res.record)}{note}")
        if out_dir is not None and res.output is not None:
            (out_dir / f"row{i:03d}.gen1").write_text(
                format_gen1(res.output))
    return ledger.summary_exit_code(results)


def _cmd_expand(args) -> int:
    text = format_gen1(xp.parse_extgen1(Path(args.path).read_text()).image)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_PASS


def _cmd_certify(args) -> int:
    # an input the step-down does not take raises a ValueError named
    # after the failed precondition (k<2, not-odd-like, ...): exit 1
    cert = conjecture.certify_step_down(
        parse_gen1(Path(args.path).read_text()))
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
                                   budget_ms=args.budget_ms)
    counts = Counter(res.status for res in results)
    skipped = len(results) - counts[ledger.PASS] - counts[ledger.FAIL]
    for res in results:
        if res.status == ledger.FAIL:
            print(f"FAIL {_row_tag(res.record)}: {res.message}")
    bounds = ledger.load_builtin_bounds()
    violations = tables.law_violations(bounds)
    for msg in violations:
        print(f"BOUNDS {msg}")
    print(f"pass={counts[ledger.PASS]} fail={counts[ledger.FAIL]} "
          f"skipped={skipped} "
          f"bounds_entries={len(bounds)} "
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

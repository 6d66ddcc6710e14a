"""Command-line surface: subcommands, formats, and exit codes."""

import argparse
import json
import random
import time
from importlib import resources

import pytest

from lcdkit import cli, conjecture, ledger, tables
from lcdkit.codes import (W_MAX, EngineBudgetError, LinearCode, ParseError,
                          format_gen1, min_weight, parse_gen1)
from lcdkit.expansion import ExtFieldCode, parse_extgen1
from random_codes import random_code, random_lcd_eo_code


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_worked_example(self, tmp_path, capsys):
        path = write(tmp_path, "c.gen1", "6 2\n111000\n000111\n")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert out.strip() == "6 2 3 hull=0 LCD_oe"

    def test_not_lcd(self, tmp_path, capsys):
        path = write(tmp_path, "c.gen1", "2 1\n11\n")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert out.strip() == "2 1 2 hull=1 NotLCD"

    def test_malformed_width_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "c.gen1", "6 2\n111000\n0001\n")
        code, _, err = run(capsys, "analyze", path)
        assert code == 3
        assert "parse error" in err

    def test_extension_field_autodetected(self, tmp_path, capsys):
        path = write(tmp_path, "c.extgen1", "2 1 2\n1 2\n")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert out.strip() == "2 1 2 hull=0 LCD"

    def test_extension_field_full_engine(self, tmp_path, capsys):
        # the GF(4) repetition code [5,1,5]: its concatenated image has
        # distance 2 * 5 = 10 > W_MAX, which only min_weight reaches
        path = write(tmp_path, "c.extgen1", "5 1 2\n1 1 1 1 1\n")
        code, out, _ = run(capsys, "analyze", path)
        assert (code, out) == (0, "5 1 5 hull=0 LCD\n")

    def test_zero_dimensional_code(self, tmp_path, capsys):
        # d = 0 for k = 0, as the EXTGEN1 branch prints it
        path = write(tmp_path, "c.gen1", "4 0\n")
        code, out, err = run(capsys, "analyze", path)
        assert (code, out, err) == (0, "4 0 0 hull=0 LCD_eo\n", "")

    def test_engine_flag_after_subcommand(self, tmp_path, capsys):
        # the code's dimension picks the engine; --engine is refused
        # (TestUsage)
        path = write(tmp_path, "c.gen1", "6 2\n111000\n000111\n")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0 and out.strip() == "6 2 3 hull=0 LCD_oe"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.gen1"))
        assert code == 3

    def test_directory_is_one_line_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", str(tmp_path))
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_non_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "c.gen1"
        path.write_bytes(b"2 1\n1\xff\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("parse error:")

    def test_extension_field_distance_over_budget(self, tmp_path, capsys):
        # [14,7] over GF(16): m k = 28 > K_FULL, refused before the walk
        rows = [" ".join("1" if j == i else "0" if j < 7 else
                         str((i + j) % 16) for j in range(14))
                for i in range(7)]
        path = write(tmp_path, "c.extgen1", "14 7 4\n" + "\n".join(rows))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", path)
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_extension_field_distance_past_the_old_cap(self, tmp_path,
                                                       capsys):
        # [12,6] over GF(16): m k = 24, answered on the binary image
        rows = [" ".join("1" if j == i else "0" if j < 6 else
                         str((i + j) % 16) for j in range(12))
                for i in range(6)]
        path = write(tmp_path, "c.extgen1", "12 6 4\n" + "\n".join(rows))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert out.strip() == "12 6 5 hull=0 LCD"


class TestCertify:
    def test_worked_example(self, tmp_path, capsys):
        path = write(tmp_path, "c.gen1", "6 2\n111000\n000111\n")
        trace = tmp_path / "trace.jsonl"
        out_file = tmp_path / "out.gen1"
        code, out, _ = run(capsys, "certify", path,
                           "--trace", str(trace),
                           "--output", str(out_file))
        assert code == 0
        assert "[6,2,3] -> [5,2,>=2]" in out
        result = parse_gen1(out_file.read_text())
        assert (result.n, result.k) == (5, 2)
        assert result.is_lcd()
        assert result.min_distance() >= 2
        entries = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert all("op" in e for e in entries)

    def test_padded_example(self, tmp_path, capsys):
        path = write(tmp_path, "p.gen1", "8 2\n10111100\n01000011\n")
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "certify", path, "--trace", str(trace))
        assert code == 0
        assert out == ("[8,2,3] -> [7,2,>=2] via padded-puncture\n"
                       "7 2\n0111000\n1000110\n")
        assert trace.read_text().splitlines()[1] == (
            '{"op": "lift_column", "weight": 1, "words": 0, "y": "00"}')

    def test_verifies_once(self, tmp_path, capsys, monkeypatch):
        # certify_step_down returns a verified, immutable certificate
        calls = []
        verify = conjecture.ConjectureCertificate.verify

        def counting(cert):
            calls.append(cert)
            verify(cert)

        monkeypatch.setattr(conjecture.ConjectureCertificate, "verify",
                            counting)
        path = write(tmp_path, "c.gen1", "6 2\n111000\n000111\n")
        code, _, _ = run(capsys, "certify", path)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("rows,name", [
        ("4 2\n1100\n0110\n", "not-odd-like"),
        ("3 2\n100\n010\n", "dual-not-even"),
        ("3 2\n111\n100\n", "not-lcd"),
        ("4 2\n1111\n1000\n", "d<3"),
        ("3 1\n111\n", "k<2"),
    ])
    def test_precondition_names(self, tmp_path, capsys, rows, name):
        path = write(tmp_path, "c.gen1", rows)
        code, _, err = run(capsys, "certify", path)
        assert code == 1
        assert name in err

    def test_internal_error_is_one_line(self, tmp_path, capsys,
                                        monkeypatch):
        def broken(code):
            raise conjecture.ConjectureError(
                "no certified step-down found\nsecond line")
        monkeypatch.setattr(conjecture, "certify_step_down", broken)
        path = write(tmp_path, "c.gen1", "6 2\n111000\n000111\n")
        code, _, err = run(capsys, "certify", path)
        assert code == 1
        assert err == "error: no certified step-down found\n"


class TestExpand:
    def test_expand_to_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "c.extgen1", "2 1 2\n1 2\n")
        code, out, _ = run(capsys, "expand", path)
        assert code == 0
        result = parse_gen1(out)
        assert (result.n, result.k) == (4, 2)
        assert result.is_lcd()

    def test_expand_to_file(self, tmp_path, capsys):
        path = write(tmp_path, "c.extgen1", "2 1 2\n1 2\n")
        dest = tmp_path / "out.gen1"
        code, _, _ = run(capsys, "expand", path, "--output", str(dest))
        assert code == 0
        assert parse_gen1(dest.read_text()).k == 2


class TestDlcdTable:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "dlcd-table", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[5] == "6: 5 3 2 2 1 1"

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_empty_table_is_usage_error(self, capsys, n_max):
        code, out, err = run(capsys, "dlcd-table", "--", n_max)
        assert code == 3
        assert out == ""
        assert err == "error: n_max must be at least 1\n"

    def test_budget(self, capsys):
        code, _, err = run(capsys, "dlcd-table", "13")
        assert code == 1
        assert "capped" in err

    @pytest.mark.parametrize("exc,line", [
        (tables.TableLawError("d(6,2) = 5 > d(5,2) + 1\nrow 6"),
         "error: d(6,2) = 5 > d(5,2) + 1\n"),
        (AssertionError(), "error: AssertionError\n"),
        # a RuntimeError of Python's own is reported the same way
        (RecursionError("maximum recursion depth exceeded"),
         "error: maximum recursion depth exceeded\n"),
    ])
    def test_law_violation_is_one_line(self, capsys, monkeypatch, exc,
                                       line):
        def broken(n_max):
            raise exc
        monkeypatch.setattr(tables, "dlcd_table", broken)
        code, out, err = run(capsys, "dlcd-table", "6")
        assert code == 1
        assert (out, err) == ("", line)


class TestSearch:
    def test_finds_witness(self, capsys):
        code, out, _ = run(capsys, "search", "6", "2", "3")
        assert code == 0
        witness = parse_gen1(out)
        assert witness.is_lcd()
        assert witness.min_distance() >= 3

    def test_no_such_code(self, capsys):
        code, out, _ = run(capsys, "search", "4", "2", "3",
                           "--budget-ms", "200")
        assert code == 1
        assert out.strip() == "none"

    @pytest.mark.parametrize("args", [
        ("0", "0", "1"), ("-3", "1", "1"), ("5", "-1", "2"),
        ("5", "0", "2"), ("5", "6", "2"), ("5", "2", "0"), ("5", "2", "-4"),
    ], ids=" ".join)
    def test_malformed_target_is_usage_error(self, capsys, args):
        # n < 1, k outside 1..n or d_target < 1 is no search at all
        code, out, err = run(capsys, "search", *args)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "search", "8", "3", "4", "--seed", "7")
        _, out2, _ = run(capsys, "search", "8", "3", "4", "--seed", "7")
        assert out1 == out2


class TestConstruct:
    LEDGER = ('{"op": "extend_even", "inputs": {"source": "inline", '
              '"format": "gen1", "rows": ["111000", "000111"]}, '
              '"aux": {}, "expect": [7, 2, 4]}\n')
    EXTERNAL = ('{"op": "extend_even", "inputs": {"source": "external", '
                '"format": "gen1", "params": [40, 4, 20], '
                '"file": "seeds/none.gen1"}, "aux": {}, '
                '"expect": [41, 4, 21]}\n')

    def test_pass_row(self, tmp_path, capsys):
        path = write(tmp_path, "ledger.jsonl", self.LEDGER)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "construct", path,
                           "--out-dir", str(out_dir))
        assert code == 0
        assert out.startswith("PASS extend_even -> [7,2,4]")
        built = parse_gen1((out_dir / "row000.gen1").read_text())
        assert (built.n, built.k) == (7, 2)

    def test_out_dir_is_a_file(self, tmp_path, capsys):
        path = write(tmp_path, "ledger.jsonl", self.LEDGER)
        taken = write(tmp_path, "taken", "")
        code, _, err = run(capsys, "construct", path, "--out-dir", taken)
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_out_dir_is_checked_before_any_row(self, tmp_path, capsys,
                                               monkeypatch):
        replayed = []
        # the function replay_ledger replays each row with
        monkeypatch.setattr(ledger, "_replay",
                            lambda *args, **kwargs: replayed.append(args))
        path = write(tmp_path, "ledger.jsonl", self.LEDGER * 3)
        taken = write(tmp_path, "taken", "")
        code, out, _ = run(capsys, "construct", path, "--out-dir", taken)
        assert (code, out, replayed) == (3, "", [])

    def test_non_utf8_ledger_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(self.LEDGER.encode() + b"\xff\n")
        code, out, err = run(capsys, "construct", str(path))
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("parse error:")

    def test_outputs_are_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "ledger.jsonl", self.LEDGER)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "construct", path, "--out-dir", str(d1))
        run(capsys, "construct", path, "--out-dir", str(d2))
        assert (d1 / "row000.gen1").read_text() == \
            (d2 / "row000.gen1").read_text()

    def test_fail_row(self, tmp_path, capsys):
        bad = self.LEDGER.replace("[7, 2, 4]", "[7, 2, 5]")
        path = write(tmp_path, "ledger.jsonl", bad)
        code, out, _ = run(capsys, "construct", path)
        assert code == 1
        assert out.startswith("FAIL")

    def test_skipped_only(self, tmp_path, capsys):
        path = write(tmp_path, "ledger.jsonl", self.EXTERNAL)
        code, out, _ = run(capsys, "construct", path)
        assert code == 2
        assert out.startswith("SKIPPED-MISSING-SEED")


    def test_short_expect_is_one_line_error(self, tmp_path, capsys):
        bad = self.LEDGER.replace("[7, 2, 4]", "[4]")
        path = write(tmp_path, "ledger.jsonl", bad)
        code, out, err = run(capsys, "construct", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ledger line 1: expect must be")
        assert len(err.splitlines()) == 1

    def test_non_list_rows_fail(self, tmp_path, capsys):
        bad = self.LEDGER.replace('["111000", "000111"]', "5")
        path = write(tmp_path, "ledger.jsonl", bad)
        code, out, err = run(capsys, "construct", path)
        assert code == 1
        assert out.startswith("FAIL extend_even -> [7,2,4] (TypeError")
        assert err == ""

    def test_puncture_needs_no_input_distance(self, tmp_path, capsys):
        # an even-like LCD [62, 28, 10] input: k > K_FULL sends it to the
        # low-weight engine, which cannot reach d = 10
        seed = random_lcd_eo_code(random.Random(5), 62, 28)
        assert min_weight(seed.gen.rows) > W_MAX
        row = {"op": "puncture_even_lcd",
               "inputs": {"source": "inline", "format": "gen1",
                          "rows": str(seed.gen).splitlines()},
               "aux": {"coordinates": [1]}, "expect": [61, 28]}
        path = write(tmp_path, "ledger.jsonl",
                     json.dumps(row) + "\n" + self.LEDGER)
        code, out, err = run(capsys, "construct", path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS puncture_even_lcd -> [61,28]")
        assert lines[1] == "PASS extend_even -> [7,2,4]"
        assert err == ""

    def test_input_distance_over_budget_is_skipped(self, tmp_path, capsys,
                                                   monkeypatch):
        exact = LinearCode.min_distance

        def give_up(self):
            # only extend_even's [6, 2] input, whose distance it reads
            if self.n == 6:
                raise EngineBudgetError("over budget")
            return exact(self)
        monkeypatch.setattr(LinearCode, "min_distance", give_up)
        passing = ('{"op": "puncture_even_lcd", "inputs": {"source": '
                   '"inline", "format": "gen1", "rows": ["1100", "0110"]}, '
                   '"aux": {"coordinates": [1]}, "expect": [3, 2, 1]}\n')
        path = write(tmp_path, "ledger.jsonl", self.LEDGER + passing)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "construct", path,
                             "--out-dir", str(out_dir))
        assert code == 0
        assert out.splitlines() == [
            "SKIPPED-UNVERIFIED-DISTANCE extend_even -> [7,2,4] "
            "(input distance unverifiable at budget)",
            "PASS puncture_even_lcd -> [3,2,1]"]
        assert err == ""
        assert sorted(p.name for p in out_dir.iterdir()) == ["row001.gen1"]


class TestVerifyLedger:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "verify-ledger")
        assert code == 0
        assert "pass=14 fail=0 skipped=132" in out
        assert "bounds_violations=0" in out

    def test_malformed_path(self, tmp_path, capsys):
        bad = TestConstruct.LEDGER.replace("[7, 2, 4]", "[4]")
        path = write(tmp_path, "ledger.jsonl", bad)
        code, _, err = run(capsys, "verify-ledger", "--path", path)
        assert code == 1
        assert err.startswith("error: ledger line 1:")
        assert len(err.splitlines()) == 1

    def test_non_list_rows_fail(self, tmp_path, capsys):
        bad = TestConstruct.LEDGER.replace('["111000", "000111"]', "5")
        path = write(tmp_path, "ledger.jsonl", bad)
        code, out, err = run(capsys, "verify-ledger", "--path", path)
        assert code == 1
        assert "FAIL extend_even -> [7,2,4]: TypeError" in out
        assert err == ""

    def test_fail_line_of_row_without_distance(self, tmp_path, capsys):
        # the row tag is construct's: an [n, k] row prints no None
        bad = ('{"op": "extend_even", "inputs": {"source": "inline", '
               '"rows": ["1100", "0110"]}, "expect": [5, 2]}\n')
        path = write(tmp_path, "ledger.jsonl", bad)
        code, out, _ = run(capsys, "verify-ledger", "--path", path)
        assert code == 1
        assert out.splitlines()[0] == ("FAIL extend_even -> [5,2]: "
                                       "ValueError: minimum distance must "
                                       "be odd")
        _, out, _ = run(capsys, "construct", path)
        assert out == ("FAIL extend_even -> [5,2] (ValueError: minimum "
                       "distance must be odd)\n")

    def test_non_string_aux_fails(self, tmp_path, capsys):
        bad = ('{"op": "extend_row_dual", "inputs": {"source": "inline", '
               '"format": "gen1", "rows": ["111000", "000111"]}, '
               '"aux": {"x": 5}, "expect": [7, 3, 2]}\n')
        path = write(tmp_path, "ledger.jsonl", bad)
        code, out, err = run(capsys, "verify-ledger", "--path", path)
        assert code == 1
        assert "FAIL extend_row_dual -> [7,3,2]: ValueError" in out
        assert err == ""

    def test_unverified_distance_is_skipped(self, tmp_path, capsys,
                                            monkeypatch):
        exact = LinearCode.min_distance

        def give_up(self):
            # only the replayed [7, 2] output: extend_even reads its input's
            if self.n == 7:
                raise EngineBudgetError("over budget")
            return exact(self)
        monkeypatch.setattr(LinearCode, "min_distance", give_up)
        path = write(tmp_path, "ledger.jsonl", TestConstruct.LEDGER)
        code, out, _ = run(capsys, "verify-ledger", "--path", path)
        assert code == 2
        assert "pass=0 fail=0 skipped=1" in out


def _ledger_rows():
    """The built-in ledger's inline and search rows, as JSON objects."""
    text = resources.files("lcdkit").joinpath(
        "data/constructions.jsonl").read_text()
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [r for r in rows if r["inputs"]["source"] in ("inline", "search")]


def _paths(value, path=()):
    """Every (container, key) path into a JSON value."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _ledger_mutant(rng, rows):
    """A copy of one ledger row with one or two values replaced."""
    row = json.loads(json.dumps(rng.choice(rows)))
    for _ in range(rng.randint(1, 2)):
        *parent, key = rng.choice(list(_paths(row)))
        node = row
        for p in parent:
            node = node[p]
        node[key] = rng.choice([5, "x", [], None, [[node[key]]]])
    return json.dumps(row)


class TestLedgerFuzz:
    """Mutated ledger rows keep the exit-code contract of construct and
    of verify-ledger --path: every malformed field is a FAIL row or a
    one-line error, never a traceback.  The mutants include the inline
    expand row, so they reach ExtFieldCode's rank check too."""

    NON_STRING_ROW = TestConstruct.LEDGER.replace(
        '["111000", "000111"]', "[5]")

    def test_non_string_row_is_a_fail_row(self, tmp_path, capsys):
        path = write(tmp_path, "ledger.jsonl", self.NON_STRING_ROW)
        code, out, err = run(capsys, "construct", path)
        assert code == 1
        assert out.startswith("FAIL extend_even -> [7,2,4] (ValueError")
        assert err == ""

    @pytest.mark.parametrize("command", ["construct", "verify-ledger"])
    def test_exit_codes(self, tmp_path, capsys, command):
        rng = random.Random(2028)
        rows = _ledger_rows()
        path = tmp_path / "ledger.jsonl"
        argv = [str(path)] if command == "construct" else \
            ["--path", str(path)]
        codes = set()
        texts = [self.NON_STRING_ROW] + [
            _ledger_mutant(rng, rows) + "\n" for _ in range(600)]
        for text in texts:
            path.write_text(text)
            try:
                code, _, err = run(capsys, command, *argv,
                                   "--budget-ms", "20")
            except Exception as e:  # noqa: BLE001 - report the row
                pytest.fail(f"{type(e).__name__}: {e} on {text}")
            assert code in (0, 1, 2, 3), text
            assert "Traceback" not in err, text
            codes.add(code)
        assert codes == {0, 1}


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["bogus"])
        assert ei.value.code == 3
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main([])
        assert ei.value.code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["certify", "c.gen1", "--engine", "lowweight"],
        ["certify", "c.gen1", "--format", "extgen1"],
        ["expand", "c.extgen1", "--seed", "1"],
        ["dlcd-table", "4", "--budget-ms", "10"],
        ["analyze", "c.gen1", "--seed", "1"],
        ["search", "8", "3", "4", "--engine", "full"],
        ["construct", "l.jsonl", "--format", "gen1"],
        ["verify-ledger", "--format", "gen1"],
        # the file's header, or the ledger row, decides these
        ["analyze", "c.gen1", "--format", "gen1"],
        ["construct", "l.jsonl", "--seed", "1"],
        ["construct", "l.jsonl", "--engine", "full"],
        ["verify-ledger", "--seed", "1"],
        ["verify-ledger", "--engine", "full"],
        # the code's dimension picks its distance engine
        ["analyze", "c.gen1", "--engine", "full"],
    ])
    def test_flag_the_subcommand_ignores(self, capsys, argv):
        # a flag a subcommand would not read is a usage error, not a no-op
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flag_set(self):
        # every flag the CLI takes, 11 in all: a new knob is a test edit
        parser = cli._build_parser()
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(f for a in q._actions for f in a.option_strings
                              if f not in ("-h", "--help"))
                 for name, q in sub.choices.items()}
        assert flags == {
            "analyze": [],
            "construct": ["--budget-ms", "--out-dir", "--seed-dir"],
            "expand": ["--output"],
            "certify": ["--output", "--trace"],
            "dlcd-table": [],
            "search": ["--budget-ms", "--seed"],
            "verify-ledger": ["--budget-ms", "--path", "--seed-dir"],
        }

    @pytest.mark.parametrize("argv", [
        ["search", "8", "3", "4", "--budget-ms", "-1"],
        ["construct", "l.jsonl", "--budget-ms", "-5"],
        ["verify-ledger", "--budget-ms", "-1"],
    ])
    def test_negative_budget_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 3
        assert "--budget-ms: must be at least 0" in capsys.readouterr().err


BAD_HEADERS = ("", "5", "a b", "5 x", "5 -1", "0 0", "3 4", "5 2 1",
               "5 2 7", "5 2 2 2", "-3 1", "5, 2", "1e1 2")


def _mutant(rng):
    """A seeded GEN1 text with one to three random corruptions."""
    n = rng.randint(1, 12)
    code = random_code(rng, n, rng.randint(0, n))
    lines = format_gen1(code).splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(7)
        if op == 0 and lines[i]:  # flip or replace one character
            j = rng.randrange(len(lines[i]))
            c = {"0": "1", "1": "0"}.get(lines[i][j], "0")
            c = rng.choice([c, c, " ", "2", "x", "#", "\t", "-"])
            lines[i] = lines[i][:j] + c + lines[i][j + 1:]
        elif op == 1 and lines[i]:  # drop one character
            j = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:j] + lines[i][j + 1:]
        elif op == 2:  # drop a line
            del lines[i]
        elif op == 3:  # duplicate a line (a repeated row is dependent)
            lines.insert(i, lines[i])
        elif op == 4:
            lines[0] = rng.choice(BAD_HEADERS)
        elif op == 5 and len(lines) > 2:  # a row made dependent
            a, b = rng.sample(range(1, len(lines)), 2)
            lines[a] = rng.choice([lines[b], "0" * len(lines[b])])
        else:  # swap two lines
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            lines = [""]
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"])


class TestGen1Fuzz:
    """Corrupted GEN1 texts parse, or fail with ValueError; the CLI keeps
    its exit-code contract on them."""

    def test_parse_or_value_error(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(600):
            text = _mutant(rng)
            try:
                code = parse_gen1(text)
            except ParseError:
                outcomes.add("parse error")
                continue
            except ValueError as e:
                assert "full row rank" in str(e), (text, e)
                outcomes.add("rank error")
                continue
            assert isinstance(code, LinearCode)
            outcomes.add("parsed")
        assert outcomes == {"parsed", "parse error", "rank error"}

    # certify refuses every mutant that parses (none meets its
    # preconditions), so no run of it exits 0
    @pytest.mark.parametrize("command, expected", [
        ("analyze", {0, 1, 3}), ("certify", {1, 3})],
        ids=["analyze", "certify"])
    def test_exit_codes(self, tmp_path, capsys, command, expected):
        rng = random.Random(2025)
        path = tmp_path / "c.gen1"
        codes = set()
        for _ in range(300):
            text = _mutant(rng)
            path.write_text(text)
            code, _, err = run(capsys, command, str(path))
            assert code in (0, 1, 2, 3), text
            assert "Traceback" not in err, text
            codes.add(code)
        assert codes == expected


BAD_EXT_HEADERS = ("", "5", "5 2", "a b c", "5 2 x", "5 -1 2", "0 0 1",
                   "3 4 2", "5 2 5", "5 2 0", "5 2 2 2", "-3 1 2",
                   "5, 2, 2", "1e1 2 2")


def _ext_mutant(rng):
    """A seeded EXTGEN1 text ("n k m", then k rows of n elements of
    GF(2^m)) with one to three random corruptions; q^k <= 64 before
    corruption, so analyze's exhaustive distance is quick."""
    m = rng.randint(1, 3)
    n = rng.randint(1, 6)
    k = rng.randint(0, min(n, 6 // m))
    lines = [f"{n} {k} {m}"] + [
        " ".join(str(rng.randrange(1 << m)) for _ in range(n))
        for _ in range(k)]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(7)
        parts = lines[i].split()
        if op == 0 and parts:  # replace one entry
            j = rng.randrange(len(parts))
            parts[j] = rng.choice([str(rng.randrange(1 << m)), str(1 << m),
                                   "-1", "x", "#", "1.0", "0x1", "+1"])
            lines[i] = " ".join(parts)
        elif op == 1 and lines[i]:  # drop or replace one character
            j = rng.randrange(len(lines[i]))
            c = rng.choice(["", "", " ", "7", "x", "#", "\t", "-"])
            lines[i] = lines[i][:j] + c + lines[i][j + 1:]
        elif op == 2:  # drop a line
            del lines[i]
        elif op == 3:  # duplicate a line (a repeated row is dependent)
            lines.insert(i, lines[i])
        elif op == 4:
            lines[0] = rng.choice(BAD_EXT_HEADERS)
        elif op == 5 and len(lines) > 2:  # a row made dependent
            a, b = rng.sample(range(1, len(lines)), 2)
            lines[a] = rng.choice(
                [lines[b], " ".join("0" * len(lines[b].split()))])
        else:  # swap two lines
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            lines = [""]
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"])


class TestExtGen1Fuzz:
    """Corrupted EXTGEN1 texts parse, or fail with ValueError; the CLI
    keeps its exit-code contract on them."""

    def test_parse_or_value_error(self):
        rng = random.Random(2026)
        outcomes = set()
        for _ in range(600):
            text = _ext_mutant(rng)
            try:
                code = parse_extgen1(text)
            except ParseError:
                outcomes.add("parse error")
                continue
            except ValueError as e:
                assert "full row rank" in str(e), (text, e)
                outcomes.add("rank error")
                continue
            assert isinstance(code, ExtFieldCode)
            outcomes.add("parsed")
        assert outcomes == {"parsed", "parse error", "rank error"}

    @pytest.mark.parametrize("command", ["analyze", "expand"])
    def test_exit_codes(self, tmp_path, capsys, command):
        rng = random.Random(2027)
        path = tmp_path / "c.extgen1"
        codes = set()
        for _ in range(300):
            text = _ext_mutant(rng)
            path.write_text(text)
            code, _, err = run(capsys, command, str(path))
            assert code in (0, 1, 2, 3), text
            assert "Traceback" not in err, text
            codes.add(code)
        assert codes == {0, 1, 3}

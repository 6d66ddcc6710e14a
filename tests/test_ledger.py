"""Construction-ledger replay and the published bounds tables."""

import hashlib
import json
from importlib import resources

import pytest

from lcdkit import ledger
from lcdkit.codes import EngineBudgetError, LinearCode
from lcdkit.ledger import (FAIL, PASS, SKIPPED, UNVERIFIED, ConstructionRecord,
                           load_builtin_bounds, parse_bounds, parse_records,
                           replay_ledger, summary_exit_code)
from lcdkit.tables import law_violations


def replay_one(rec, **kwargs):
    """The result of a ledger of the one record."""
    (res,) = replay_ledger([rec], **kwargs)
    return res


def inline(rows):
    return {"source": "inline", "format": "gen1", "rows": rows}


WORKED = inline(["111000", "000111"])


class TestRecordValidation:
    def test_unknown_op(self):
        with pytest.raises(ValueError):
            ConstructionRecord("frobnicate", WORKED, {}, (7, 2, 4))

    def test_bad_expect(self):
        with pytest.raises(ValueError):
            ConstructionRecord("extend_even", WORKED, {}, (2, 3, 1))

    def test_vector_op_needs_x(self):
        with pytest.raises(ValueError):
            ConstructionRecord("extend_systematic", WORKED, {}, (7, 3, 1))

    def test_puncture_needs_coordinates(self):
        with pytest.raises(ValueError):
            ConstructionRecord("puncture_even_lcd", WORKED, {}, (5, 2, 2))


class TestParseFormat:
    def test_roundtrip(self):
        recs = [ConstructionRecord("extend_even", WORKED, {}, (7, 2, 4),
                                   PASS),
                ConstructionRecord("extend_odd_two", inline(["1111111"]),
                                   {}, (9, 1, 8))]
        text = ('{"op": "extend_even", "inputs": ' + json.dumps(WORKED)
                + ', "expect": [7, 2, 4], "status": "PASS"}\n'
                '{"op": "extend_odd_two", "inputs": '
                + json.dumps(inline(["1111111"])) + ', "aux": {}, '
                '"expect": [9, 1, 8]}\n')
        assert parse_records(text) == recs

    def test_comments_and_blanks(self):
        text = ('# ledger\n\n{"op": "extend_even", "inputs": '
                + json.dumps(WORKED) + ', "expect": [7, 2, 4]}\n')
        (rec,) = parse_records(text)
        assert rec.op == "extend_even"
        assert rec.expect == (7, 2, 4)

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_records('# ok\n{"op": "nope", "inputs": {}, '
                          '"expect": [1, 1]}\n')

    @pytest.mark.parametrize("d", ["0", "-5", "true"])
    def test_expected_distance_must_be_positive_integer(self, d):
        # the inline [7,2,3] code: each row would pass on its [8, 2]
        # output if the distance were not refused first
        text = ('# [7,2,3]\n{"op": "extend_even", "inputs": '
                + json.dumps(inline(["1110000", "0001110"]))
                + f', "expect": [8, 2, {d}]}}\n')
        with pytest.raises(ValueError, match=(
                r"ledger line 2: bad expected parameters \(8, 2, ")):
            parse_records(text)


class TestReplayInline:
    def test_extend_even_passes(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 4))
        res = replay_one(rec)
        assert res.status == PASS
        assert (res.output.n, res.output.k) == (7, 2)
        assert res.output.min_distance() == 4

    def test_wrong_parameters_fail(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (8, 2, 4))
        res = replay_one(rec)
        assert res.status == FAIL
        assert "differ from expected" in res.message

    def test_distance_below_expected_fails(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 5))
        res = replay_one(rec)
        assert res.status == FAIL
        assert "below expected" in res.message

    def test_distance_is_lower_bound(self):
        # the replayed code may beat the recorded distance
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 3))
        assert replay_one(rec).status == PASS

    def test_precondition_violation_fails(self):
        # extend_even needs an LCD input; span{11} is not LCD
        rec = ConstructionRecord("extend_even", inline(["11"]),
                                 {}, (3, 1, 2))
        assert replay_one(rec).status == FAIL

    def test_multi_output_op(self):
        rec = ConstructionRecord("extend_two_multi", inline(["111"]),
                                 {}, (5, 1, 4))
        res = replay_one(rec)
        assert res.status == PASS

    def test_multi_output_row_replays_the_construction(self):
        # the [7,3,3] LCD code has 2^(k-1) = 4 two-column extensions,
        # and every one is checked against the record
        rows = ["1110000", "1001100", "0100011"]
        code = LinearCode.from_strings(rows)
        assert (code.k, code.min_distance(), code.is_lcd()) == (3, 3, True)
        outputs = ledger.REGISTERED_OPS["extend_two_multi"].replay(code, {})
        assert len(outputs) == 4
        res = replay_one(ConstructionRecord(
            "extend_two_multi", inline(rows), {}, (9, 3, 4)))
        assert (res.status, res.message) == (PASS, "")
        res = replay_one(ConstructionRecord(
            "extend_two_multi", inline(rows), {}, (9, 3, 5)))
        assert (res.status, res.message) == (
            FAIL, "minimum distance 4 below expected 5")

    @pytest.mark.parametrize("coordinate, message", [
        (999, "coordinate 999 out of range 1..3"),
        (True, "coordinate True out of range 1..3"),
    ], ids=["out-of-range", "json-true"])
    def test_shorten_coordinate_checked_without_all_one(self, coordinate,
                                                        message):
        # the all-one vector is not in span{100, 010}, so the coordinate
        # picks nothing, but it is validated all the same
        (rec,) = parse_records(json.dumps({
            "op": "shorten_odd_lcd", "inputs": inline(["100", "010"]),
            "aux": {"coordinate": coordinate}, "expect": [2, 1]}))
        res = replay_one(rec)
        assert (res.status, res.message) == (FAIL, f"ValueError: {message}")

    def test_puncture_sequence(self):
        # both recorded coordinates refer to the original code
        rec = ConstructionRecord(
            "puncture_even_lcd", inline(["11000", "01100"]),
            {"coordinates": [1, 5]}, (3, 2, 1))
        res = replay_one(rec)
        assert res.status == PASS, res.message
        assert res.output.n == 3

    @pytest.mark.parametrize("coordinates", [[2, 3], [3, 2]])
    def test_puncture_set_in_the_support(self, coordinates):
        # after coordinate 2 alone some row is odd; the set goes at once,
        # and Π_23 = 0 keeps the [5,2,2] code LCD
        rec = ConstructionRecord(
            "puncture_even_lcd", inline(["1111000", "1000111"]),
            {"coordinates": coordinates}, (5, 2, 2))
        res = replay_one(rec)
        assert res.status == PASS, res.message
        assert res.output == LinearCode([0b00011, 0b11101], 5)

    def test_puncture_set_with_singular_block_fails(self):
        # Π_25 = 1, so I + Π[T,T] is singular on T = {2, 5}
        rec = ConstructionRecord(
            "puncture_even_lcd", inline(["1111000", "1000111"]),
            {"coordinates": [2, 5]}, (5, 2, 2))
        res = replay_one(rec)
        assert res.status == FAIL
        assert res.message == ("ValueError: I + Π[T,T] is singular for "
                               "T = [2, 5]: the punctured code is no LCD "
                               "[5,2] code")

    @pytest.mark.parametrize("rows, coordinates, message", [
        # a JSON true is no coordinate, though Python counts it as 1
        (["11000", "01100"], [True], "coordinate True out of range 1..5"),
        (["11000", "01100"], ["1"], "coordinate '1' out of range 1..5"),
        # the second 1 would be coordinate 2 of the original code
        (["011000", "001100"], [1, 1], "coordinates must be distinct"),
    ], ids=["json-true", "string", "repeated"])
    def test_malformed_coordinates_fail(self, rows, coordinates, message):
        n = len(rows[0])
        (rec,) = parse_records(json.dumps({
            "op": "puncture_even_lcd", "inputs": inline(rows),
            "aux": {"coordinates": coordinates},
            "expect": [n - len(coordinates), 2]}))
        res = replay_one(rec)
        assert res.status == FAIL
        assert message in res.message

    def test_expand_identity(self):
        rec = ConstructionRecord(
            "expand",
            {"source": "inline", "format": "extgen1", "m": 2, "n": 2,
             "rows": [[1, 2]]},
            {"transformation": "id"}, (4, 2, 2))
        assert replay_one(rec).status == PASS

    @pytest.mark.parametrize("fmt", ["extgen", None])
    def test_inline_degree_picks_reader(self, fmt):
        # the recorded field degree m makes the row EXTGEN1, whatever
        # its "format" says or whether it says anything
        inputs = {"source": "inline", "m": 2, "n": 2, "rows": [[1, 2]]}
        if fmt is not None:
            inputs["format"] = fmt
        rec = ConstructionRecord(
            "expand", inputs, {"transformation": "id"}, (4, 2, 2))
        res = replay_one(rec)
        assert (res.status, res.message) == (PASS, "")

    def test_inline_rows_without_degree_are_gen1(self):
        rec = ConstructionRecord(
            "extend_even", {"source": "inline", "format": "GEN1",
                            "rows": ["111000", "000111"]}, {}, (7, 2, 4))
        res = replay_one(rec)
        assert (res.status, res.message) == (PASS, "")

    def test_expand_of_self_orthogonal_code_fails(self):
        # [[1, 1]] over GF(4) is self-orthogonal: the expanded [4, 2, 2]
        # code has hull dimension 2, so it is no LCD output
        rec = ConstructionRecord(
            "expand",
            {"source": "inline", "format": "extgen1", "m": 2, "n": 2,
             "rows": [[1, 1]]},
            {"transformation": "id"}, (4, 2, 2))
        res = replay_one(rec)
        assert res.status == FAIL
        assert res.message == "output is not LCD"

    def test_expand_diagonal(self):
        # scaling columns by nonzero field elements is a monomial map:
        # parameters are unchanged, so the diagonal row must replay to
        # the same (n, k, d) as the identity row
        base = {"source": "inline", "format": "extgen1", "m": 2, "n": 3,
                "rows": [[1, 2, 0], [0, 1, 3]]}
        plain = replay_one(ConstructionRecord(
            "expand", base, {"transformation": "id"}, (6, 4, None)))
        scaled = replay_one(ConstructionRecord(
            "expand", base, {"transformation": [2, 1, 1]}, (6, 4, None)))
        assert plain.status == scaled.status == PASS
        assert plain.output.min_distance() == scaled.output.min_distance()
        assert plain.output != scaled.output  # the scaling is not trivial

    @pytest.mark.parametrize("entry", [0, 4, 5, 7])
    def test_expand_diagonal_outside_field_fails(self, entry):
        # GF(4) has the elements 0..3; multiplying by 7 or 0 would zero a
        # column, and 5 or 4 would act as 2 or 3 after reduction
        base = {"source": "inline", "format": "extgen1", "m": 2, "n": 3,
                "rows": [[1, 2, 0], [0, 1, 3]]}
        res = replay_one(ConstructionRecord(
            "expand", base, {"transformation": [entry, 1, 1]},
            (6, 4, None)))
        assert res.status == FAIL
        assert res.message == ("diagonal entries must be nonzero elements "
                               "of GF(4)")


class TestDistanceOverBudget:
    @pytest.fixture(autouse=True)
    def no_budget(self, monkeypatch):
        exact = LinearCode.min_distance

        def give_up(self):
            # only the replayed [7, 2] output: extend_even reads its input's
            if self.n == 7:
                raise EngineBudgetError("over budget")
            return exact(self)
        monkeypatch.setattr(LinearCode, "min_distance", give_up)

    def test_expected_distance_is_not_passed(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 4))
        res = replay_one(rec)
        assert res.status == UNVERIFIED
        assert res.message == "distance unverifiable at budget"
        assert res.output.n == 7
        # a skip, like a missing seed: it fails nothing beside a PASS
        assert summary_exit_code([res]) == 2
        passed = ledger.ReplayResult(rec, PASS)
        assert summary_exit_code([res, passed]) == 0

    def test_parameters_only_pass(self):
        # no expected d: the output's distance is never computed
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, None))
        res = replay_one(rec)
        assert res.status == PASS
        assert res.message == ""


class TestReplaySearchAndExternal:
    def test_search_source(self):
        rec = ConstructionRecord(
            "extend_even", {"source": "search", "n": 6, "k": 2, "d": 3},
            {}, (7, 2, 4))
        assert replay_one(rec).status == PASS

    def test_search_miss_fails(self):
        # no [4,2,3] binary code exists at all
        rec = ConstructionRecord(
            "extend_even", {"source": "search", "n": 4, "k": 2, "d": 3},
            {}, (5, 2, 4))
        res = replay_one(rec, budget_ms=200)
        assert res.status == FAIL

    @pytest.mark.parametrize("target, message", [
        ({"n": 6, "k": 2, "d": 0},
         "bad search target n=6 k=2 d=0: need integers with 1 <= k <= n "
         "and d >= 1"),
        ({"n": 5, "k": 7, "d": 2},
         "bad search target n=5 k=7 d=2: need integers with 1 <= k <= n "
         "and d >= 1"),
        ({"n": True, "k": 1, "d": 1},
         "bad search target n=True k=1 d=1: need integers with "
         "1 <= k <= n and d >= 1"),
        ({"n": 6, "k": 2, "d": 3, "seed": 1.5},
         "bad search seed 1.5: need an integer"),
    ])
    def test_malformed_search_target_fails(self, target, message):
        # a malformed target is named, not searched for until the budget
        # runs out, nor read as a nearby integer
        rec = ConstructionRecord(
            "extend_even", {"source": "search", **target}, {}, (7, 2, 4))
        res = replay_one(rec)
        assert (res.status, res.message) == (FAIL, message)

    def test_external_missing_seed_skips(self, tmp_path):
        rec = ConstructionRecord(
            "extend_even",
            {"source": "external", "format": "gen1", "params": [6, 2, 3],
             "file": "seeds/C_6_2_3.gen1"}, {}, (7, 2, 4))
        assert replay_one(rec).status == SKIPPED
        assert replay_one(rec, seed_dir=tmp_path).status == SKIPPED

    def test_external_with_seed_passes(self, tmp_path):
        (tmp_path / "seeds").mkdir()
        (tmp_path / "seeds" / "C_6_2_3.gen1").write_text(
            "6 2\n111000\n000111\n")
        rec = ConstructionRecord(
            "extend_even",
            {"source": "external", "format": "gen1", "params": [6, 2, 3],
             "file": "seeds/C_6_2_3.gen1"}, {}, (7, 2, 4))
        res = replay_one(rec, seed_dir=tmp_path)
        assert res.status == PASS

    @pytest.mark.parametrize("fmt", ["extgen1", "extgen", None])
    def test_external_header_picks_reader(self, tmp_path, fmt):
        # the file's 3-field header makes it EXTGEN1, whatever the row's
        # "format" says or whether it says anything
        (tmp_path / "seeds").mkdir()
        (tmp_path / "seeds" / "C4_2_1_2.extgen1").write_text("2 1 2\n1 2\n")
        inputs = {"source": "external", "file": "seeds/C4_2_1_2.extgen1"}
        if fmt is not None:
            inputs["format"] = fmt
        rec = ConstructionRecord(
            "expand", inputs, {"transformation": "id"}, (4, 2, 2))
        res = replay_one(rec, seed_dir=tmp_path)
        assert (res.status, res.message) == (PASS, "")

    def test_external_file_unfit_for_op_fails(self, tmp_path):
        (tmp_path / "C_6_2_3.gen1").write_text("6 2\n111000\n000111\n")
        rec = ConstructionRecord(
            "expand",
            {"source": "external", "format": "extgen1",
             "file": "C_6_2_3.gen1"}, {"transformation": "id"}, (12, 4, 2))
        res = replay_one(rec, seed_dir=tmp_path)
        assert (res.status, res.message) == (
            FAIL, "expand needs an input of type ExtFieldCode")


def row(ref):
    return {"source": "row", "ref": ref}


# shorten_odd_lcd makes the [5, 1, 3] code that extend_odd_two takes
SHORTEN = ConstructionRecord("shorten_odd_lcd", WORKED, {}, (5, 1, 3))


def extend_odd_two_of(ref):
    return ConstructionRecord("extend_odd_two", row(ref), {}, (7, 1, 5))


class TestRowRefs:
    def test_forward_ref_replays_producer_once(self, monkeypatch):
        op = ledger.REGISTERED_OPS["shorten_odd_lcd"]
        calls = []

        def counted(code, aux):
            calls.append(code)
            return op.replay(code, aux)
        monkeypatch.setitem(ledger.REGISTERED_OPS, "shorten_odd_lcd",
                            op._replace(replay=counted))
        # rows 0 and 2 both read row 1's output
        records = [extend_odd_two_of(1), SHORTEN, extend_odd_two_of(1)]
        results = replay_ledger(records)
        assert [(r.status, r.message) for r in results] == [(PASS, "")] * 3
        assert len(calls) == 1
        assert str(results[0].output.gen) == "1100111"
        assert results[2].output == results[0].output

    @pytest.mark.parametrize("ref, message", [
        (True, "bad row ref True: need a row index in 0..1"),
        ("1", "bad row ref '1': need a row index in 0..1"),
        (-1, "bad row ref -1: need a row index in 0..1"),
        (2, "bad row ref 2: need a row index in 0..1"),
        (None, "bad row ref None: need a row index in 0..1"),
        (0, "row ref 0 is the row itself"),
    ], ids=["json-true", "string", "negative", "out-of-range", "missing",
            "own-index"])
    def test_bad_ref_fails(self, ref, message):
        records = [extend_odd_two_of(ref), SHORTEN]
        first, second = replay_ledger(records)
        assert (first.status, first.message) == (FAIL, message)
        assert second.status == PASS

    def test_cycle_fails_every_row_on_it(self):
        # row 2 waits on the cycle of rows 0 and 1 but lies outside it
        records = [extend_odd_two_of(1), extend_odd_two_of(0),
                   extend_odd_two_of(1)]
        results = replay_ledger(records)
        assert [(r.status, r.message) for r in results[:2]] == [
            (FAIL, "row ref lies on the cycle of rows [0, 1]")] * 2
        assert (results[2].status, results[2].message) == (
            SKIPPED, "producer row 1 is FAIL")

    def test_skipped_producer_is_named(self):
        missing = ConstructionRecord(
            "shorten_odd_lcd", {"source": "external", "params": [6, 2, 3],
                                "file": "seeds/C_6_2_3.gen1"}, {}, (5, 1, 3))
        first, second = replay_ledger([extend_odd_two_of(1), missing])
        assert (first.status, first.message) == (
            SKIPPED, "producer row 1 is SKIPPED-MISSING-SEED")
        assert (second.status, second.message) == (
            SKIPPED, "external seed 'seeds/C_6_2_3.gen1' not available")

    def test_row_input_needs_its_ledger(self):
        # alone, a row input's ref names no row of its ledger
        res = replay_one(extend_odd_two_of(1))
        assert (res.status, res.message) == (
            FAIL, "bad row ref 1: need a row index in 0..0")

    def test_long_chain_is_walked_without_recursion(self, monkeypatch):
        # every row refers to the next, the last to a missing seed, so
        # the walk from row 0 is 2,000 rows deep and no op runs
        monkeypatch.setattr(ledger, "_apply_op", None)
        rows = 2000
        records = [ConstructionRecord("extend_even", row(i + 1), {},
                                      (7, 2, 4)) for i in range(rows - 1)]
        records.append(ConstructionRecord(
            "extend_even", {"source": "external", "file": "none.gen1"},
            {}, (7, 2, 4)))
        results = replay_ledger(records)
        assert [r.status for r in results] == [SKIPPED] * rows
        assert results[0].message == "producer row 1 is SKIPPED-MISSING-SEED"


class TestBuiltinLedger:
    def test_replays_as_recorded(self):
        records = ledger.load_builtin_records()
        assert len(records) > 100
        results = replay_ledger(records)
        for rec, res in zip(records, results):
            assert res.status == rec.status, (rec.op, rec.expect,
                                              res.message)
        statuses = [r.status for r in results]
        assert statuses.count(PASS) == 14
        assert statuses.count(FAIL) == 0
        assert statuses.count(SKIPPED) == len(records) - 14

    def test_chains_are_explicit(self):
        # a seed file another row makes is a ref to that row; row 58's
        # [42, 30, 5] input has two producers (rows 14 and 112)
        records = ledger.load_builtin_records()
        expects = [list(r.expect) for r in records]
        sources = [r.inputs["source"] for r in records]
        assert (sources.count("row"), sources.count("external")) == (90, 42)
        files = {r.inputs["file"] for r in records
                 if r.inputs["source"] == "external"}
        assert len(files) == 41
        assert not any("format" in r.inputs for r in records)
        for i, rec in enumerate(records):
            if rec.inputs["source"] == "external" and i != 58:
                assert expects.count(rec.inputs["params"]) == 0, i
        assert expects.count(records[58].inputs["params"]) == 2
        # every ref is in range, and every chain ends at another source
        for start in range(len(records)):
            seen, i = set(), start
            while records[i].inputs["source"] == "row":
                seen.add(i)
                i = records[i].inputs["ref"]
                assert type(i) is int and 0 <= i < len(records), start
                assert i not in seen, start

    def test_every_registered_op_is_exercised(self):
        ops = {r.op for r in ledger.load_builtin_records()}
        assert ops == set(ledger.REGISTERED_OPS)

    def test_exit_code_summary(self):
        records = ledger.load_builtin_records()
        results = replay_ledger(records)
        assert summary_exit_code(results) == 0
        only_skipped = [r for r in results if r.status == SKIPPED]
        assert summary_exit_code(only_skipped) == 2
        assert summary_exit_code([]) == 2


def entry(n, k, lower, upper):
    return {"n": n, "k": k, "lower": lower, "upper": upper}


class TestBoundsLedger:
    def test_entry_validation(self):
        with pytest.raises(ValueError, match=r"upper bound at \(5, 2\)"):
            parse_bounds({"entries": [entry(5, 2, 5, 4)]})

    def test_builtin_loads_and_is_consistent(self):
        bounds = load_builtin_bounds()
        assert len(bounds) == 366
        assert law_violations(bounds) == []
        # spot checks on shipped values
        assert bounds[(41, 6)] == (19, 19)
        assert bounds[(50, 6)] == (24, 24)
        assert bounds[(38, 9)] == (14, 15)

    def test_detects_monotonicity_violation(self):
        bounds = {(5, 2): (4, 4), (6, 2): (2, 3)}
        assert any("upper 3 below" in m for m in law_violations(bounds))

    def test_detects_step_violation(self):
        bounds = {(5, 2): (2, 2), (6, 2): (4, 4)}
        assert any("exceeds" in m for m in law_violations(bounds))

    def test_detects_antitone_violation(self):
        bounds = {(6, 2): (3, 3), (6, 3): (4, 4)}
        assert law_violations(bounds) != []

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate entry for \(5, 2\)"):
            parse_bounds({"entries": [entry(5, 2, 2, 2)] * 2})

    def test_shipped_data_pinned(self):
        # the (n, k, lower, upper) cells as published, and no entry
        # carries a field beside them
        obj = json.loads(resources.files("lcdkit").joinpath(
            "data/bounds_tables.json").read_text())
        cells = sorted([e["n"], e["k"], e["lower"], e["upper"]]
                       for e in obj["entries"])
        assert len(cells) == 366
        assert hashlib.sha256(json.dumps(cells).encode()).hexdigest() == (
            "40ae94a362473e2f2e9faadf3728f0479cee884240b18c0a0c92afa63781f55e")
        assert all(set(e) == {"n", "k", "lower", "upper"}
                   for e in obj["entries"])

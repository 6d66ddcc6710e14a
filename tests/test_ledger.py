"""Construction-ledger replay and the published bounds tables."""

import json

import pytest

from lcdkit import ledger
from lcdkit.codes import EngineBudgetError, LinearCode
from lcdkit.ledger import (FAIL, PASS, SKIPPED, UNVERIFIED, BoundsEntry,
                           BoundsLedger, ConstructionRecord, parse_records,
                           replay_record, replay_ledger, summary_exit_code)


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


class TestReplayInline:
    def test_extend_even_passes(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 4))
        res = replay_record(rec)
        assert res.status == PASS
        assert (res.output.n, res.output.k) == (7, 2)
        assert res.output.min_distance() == 4

    def test_wrong_parameters_fail(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (8, 2, 4))
        res = replay_record(rec)
        assert res.status == FAIL
        assert "differ from expected" in res.message

    def test_distance_below_expected_fails(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 5))
        res = replay_record(rec)
        assert res.status == FAIL
        assert "below expected" in res.message

    def test_distance_is_lower_bound(self):
        # the replayed code may beat the recorded distance
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 3))
        assert replay_record(rec).status == PASS

    def test_precondition_violation_fails(self):
        # extend_even needs an LCD input; span{11} is not LCD
        rec = ConstructionRecord("extend_even", inline(["11"]),
                                 {}, (3, 1, 2))
        assert replay_record(rec).status == FAIL

    def test_multi_output_op(self):
        rec = ConstructionRecord("extend_two_multi", inline(["111"]),
                                 {}, (5, 1, 4))
        res = replay_record(rec)
        assert res.status == PASS

    def test_puncture_sequence(self):
        # two recorded coordinates are removed highest-first so both
        # keep referring to the original code
        rec = ConstructionRecord(
            "puncture_even_lcd", inline(["11000", "01100"]),
            {"coordinates": [1, 5]}, (3, 2, 1))
        res = replay_record(rec)
        assert res.status == PASS, res.message
        assert res.output.n == 3

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
        res = replay_record(rec)
        assert res.status == FAIL
        assert message in res.message

    def test_expand_identity(self):
        rec = ConstructionRecord(
            "expand",
            {"source": "inline", "format": "extgen1", "m": 2, "n": 2,
             "rows": [[1, 2]]},
            {"transformation": "id"}, (4, 2, 2))
        assert replay_record(rec).status == PASS

    def test_expand_of_self_orthogonal_code_fails(self):
        # [[1, 1]] over GF(4) is self-orthogonal: the expanded [4, 2, 2]
        # code has hull dimension 2, so it is no LCD output
        rec = ConstructionRecord(
            "expand",
            {"source": "inline", "format": "extgen1", "m": 2, "n": 2,
             "rows": [[1, 1]]},
            {"transformation": "id"}, (4, 2, 2))
        res = replay_record(rec)
        assert res.status == FAIL
        assert res.message == "output is not LCD"

    def test_expand_diagonal(self):
        # scaling columns by nonzero field elements is a monomial map:
        # parameters are unchanged, so the diagonal row must replay to
        # the same (n, k, d) as the identity row
        base = {"source": "inline", "format": "extgen1", "m": 2, "n": 3,
                "rows": [[1, 2, 0], [0, 1, 3]]}
        plain = replay_record(ConstructionRecord(
            "expand", base, {"transformation": "id"}, (6, 4, None)))
        scaled = replay_record(ConstructionRecord(
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
        res = replay_record(ConstructionRecord(
            "expand", base, {"transformation": [entry, 1, 1]},
            (6, 4, None)))
        assert res.status == FAIL
        assert res.message == ("diagonal entries must be nonzero elements "
                               "of GF(4)")


class TestDistanceOverBudget:
    @pytest.fixture(autouse=True)
    def no_budget(self, monkeypatch):
        exact = LinearCode.min_distance

        def give_up(self, engine="auto"):
            # only the replayed [7, 2] output: extend_even reads its input's
            if self.n == 7:
                raise EngineBudgetError("over budget")
            return exact(self, engine)
        monkeypatch.setattr(LinearCode, "min_distance", give_up)

    def test_expected_distance_is_not_passed(self):
        rec = ConstructionRecord("extend_even", WORKED, {}, (7, 2, 4))
        res = replay_record(rec)
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
        res = replay_record(rec)
        assert res.status == PASS
        assert res.message == ""


class TestReplaySearchAndExternal:
    def test_search_source(self):
        rec = ConstructionRecord(
            "extend_even", {"source": "search", "n": 6, "k": 2, "d": 3},
            {}, (7, 2, 4))
        assert replay_record(rec).status == PASS

    def test_search_miss_fails(self):
        # no [4,2,3] binary code exists at all
        rec = ConstructionRecord(
            "extend_even", {"source": "search", "n": 4, "k": 2, "d": 3},
            {}, (5, 2, 4))
        res = replay_record(rec, budget_ms=200)
        assert res.status == FAIL

    def test_external_missing_seed_skips(self, tmp_path):
        rec = ConstructionRecord(
            "extend_even",
            {"source": "external", "format": "gen1", "params": [6, 2, 3],
             "file": "seeds/C_6_2_3.gen1"}, {}, (7, 2, 4))
        assert replay_record(rec).status == SKIPPED
        assert replay_record(rec, seed_dir=tmp_path).status == SKIPPED

    def test_external_with_seed_passes(self, tmp_path):
        (tmp_path / "seeds").mkdir()
        (tmp_path / "seeds" / "C_6_2_3.gen1").write_text(
            "6 2\n111000\n000111\n")
        rec = ConstructionRecord(
            "extend_even",
            {"source": "external", "format": "gen1", "params": [6, 2, 3],
             "file": "seeds/C_6_2_3.gen1"}, {}, (7, 2, 4))
        res = replay_record(rec, seed_dir=tmp_path)
        assert res.status == PASS


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


class TestBoundsLedger:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BoundsEntry(5, 4, "interval")
        with pytest.raises(ValueError):
            BoundsEntry(4, 5, "exact")
        with pytest.raises(ValueError):
            BoundsEntry(4, 5, "maybe")

    def test_builtin_loads_and_is_consistent(self):
        bl = BoundsLedger.load_builtin()
        assert len(bl.entries) == 366
        assert bl.check_consistency() == []
        # spot checks on shipped values
        assert bl.entries[(41, 6)] == BoundsEntry(19, 19, "exact")
        assert bl.entries[(50, 6)] == BoundsEntry(24, 24, "exact")
        assert bl.entries[(38, 9)] == BoundsEntry(14, 15, "interval")

    def test_detects_monotonicity_violation(self):
        bl = BoundsLedger({(5, 2): BoundsEntry(4, 4, "exact"),
                           (6, 2): BoundsEntry(2, 3, "interval")})
        assert any("upper 3 below" in m for m in bl.check_consistency())

    def test_detects_step_violation(self):
        bl = BoundsLedger({(5, 2): BoundsEntry(2, 2, "exact"),
                           (6, 2): BoundsEntry(4, 4, "exact")})
        assert any("exceeds" in m for m in bl.check_consistency())

    def test_detects_antitone_violation(self):
        bl = BoundsLedger({(6, 2): BoundsEntry(3, 3, "exact"),
                           (6, 3): BoundsEntry(4, 4, "exact")})
        assert bl.check_consistency() != []

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError):
            BoundsLedger.from_json_obj({"entries": [
                {"n": 5, "k": 2, "lower": 2, "upper": 2,
                 "status": "exact"}] * 2})

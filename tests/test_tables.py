"""Exhaustive d_lcd tables, canonical enumeration, and the code corpus."""

import itertools
import os
import subprocess
import sys
from functools import reduce
from operator import xor
from pathlib import Path

import pytest

from lcdkit import tables
from lcdkit.codes import EngineBudgetError, LinearCode, min_weight


class TestCanonicalMatrices:
    def test_small_counts(self):
        # 1 x m: one matrix per weight (sorted columns)
        assert sum(1 for _ in tables.canonical_b_matrices(1, 4)) == 5
        # all 2 x 2 doubly lexical matrices
        mats = [b for b, _ in tables.canonical_b_matrices(2, 2)]
        assert len(set(mats)) == len(mats)

    def test_rows_and_columns_sorted(self):
        for b, _ in tables.canonical_b_matrices(3, 4):
            # row values, leftmost column most significant
            vals = [int(format(r, "04b")[::-1], 2) for r in b]
            assert vals == sorted(vals, reverse=True)
            cols = []
            for j in range(4):
                cols.append(sum(((b[i] >> j) & 1) << (2 - i)
                                for i in range(3)))
            assert cols == sorted(cols, reverse=True)

    def test_covers_all_classes(self):
        # every matrix must be row/column-permutable to some canonical
        # representative
        for r, m in ((2, 3), (3, 3), (2, 4), (3, 4)):
            canon = {b for b, _ in tables.canonical_b_matrices(r, m)}

            def variants(rows):
                out = set()
                for pr in itertools.permutations(rows):
                    for pc in itertools.permutations(range(m)):
                        out.add(tuple(
                            sum(((row >> c) & 1) << j
                                for j, c in enumerate(pc))
                            for row in pr))
                return out

            for rows in itertools.product(range(1 << m), repeat=r):
                assert variants(rows) & canon, (r, m, rows)

    def test_degenerate_sizes(self):
        for r, m, want in ((0, 0, ()), (2, 0, (0, 0)), (0, 3, ())):
            assert [b for b, _ in tables.canonical_b_matrices(r, m)] == \
                [want]


class TestPrunedEnumeration:
    """The constrained enumerator against the unconstrained one filtered
    by the constraints, with distances measured here by min_weight."""

    def test_constrained_is_filtered_subsequence(self):
        # (5, 5) has transposed matrices whose rows and pair sums beat a
        # floor that a sum of three rows does not
        sizes = [(r, m) for r in range(1, 5) for m in range(r, 6)]
        for r, m in sizes + [(5, 5)]:
            full = [b for b, _ in tables.canonical_b_matrices(r, m)]
            for transposed, all_one in itertools.product((False, True),
                                                         repeat=2):
                measured = []
                for b in full:
                    rows = _generator_rows(b, r, m, transposed)
                    if not all_one or reduce(xor, rows) == (1 << r + m) - 1:
                        measured.append((b, min_weight(rows)))
                for f in range(m + 3):
                    got = list(tables.canonical_b_matrices(
                        r, m, floor=lambda: f, all_one=all_one,
                        transposed=transposed))
                    assert got == [(b, d) for b, d in measured if d > f], \
                        (r, m, transposed, all_one, f)

    def test_all_one_corpus_matches_reference(self):
        for length in range(4, 10):
            got = [(list(code.gen.rows), code.min_distance())
                   for code in tables.all_one_lcd_codes(length)]
            assert got == list(_reference_all_one(length)), length

    def test_dlcd_value_matches_reference(self):
        for n in (8, 9):
            for k in range(1, n + 1):
                assert tables.dlcd_value(n, k) == _reference_dlcd(n, k), \
                    (n, k)

    def test_callers_use_the_module_enumerator(self, monkeypatch):
        calls = []
        enumerate_b = tables.canonical_b_matrices

        def counting(r, m, **constraints):
            calls.append(sorted(constraints))
            return enumerate_b(r, m, **constraints)

        monkeypatch.setattr(tables, "canonical_b_matrices", counting)
        tables.dlcd_value(6, 2)
        assert calls == [["floor", "transposed"]]
        list(tables.all_one_lcd_codes(6))
        assert calls[1:] == [["all_one", "floor", "transposed"]] * 4  # k 2-5


class TestDlcdValues:
    def test_known_small_values(self):
        assert tables.dlcd_value(2, 2) == 1
        assert tables.dlcd_value(6, 2) == 3
        assert tables.dlcd_value(5, 1) == 5
        assert tables.dlcd_value(6, 1) == 5
        assert tables.dlcd_value(11, 2) == 6  # matches naive full scan

    def test_oracle_cross_check(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert tables.dlcd_value(n, k) == \
                    tables.dlcd_value_oracle(n, k), (n, k)

    def test_oracle_budget(self):
        with pytest.raises(EngineBudgetError):
            tables.dlcd_value_oracle(8, 3)

    def test_table_budget(self):
        with pytest.raises(EngineBudgetError):
            tables.dlcd_table(13)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_table_needs_a_row(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            tables.dlcd_table(n_max)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            tables.dlcd_value(3, 4)


class TestStepProperty:
    def test_table_to_ten(self):
        tab = tables.dlcd_table(10)
        tables.check_step_property(tab)

    def test_detects_violation(self):
        tab = {(4, 2): 2, (5, 2): 4}
        with pytest.raises(AssertionError):
            tables.check_step_property(tab)

    def test_detects_violation_under_optimize(self):
        script = (
            "from lcdkit import tables\n"
            "assert False\n"  # stripped by -O
            "try:\n"
            "    tables.check_step_property({(4, 2): 2, (5, 2): 4})\n"
            "except AssertionError as e:\n"
            "    print(type(e).__name__)\n")
        src = str(Path(tables.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "TableLawError"


class TestAllOneCorpus:
    def test_worked_instance_class_present(self):
        codes = list(tables.all_one_lcd_codes(6))
        assert len(codes) == 1
        code = codes[0]
        assert (code.n, code.k, code.min_distance()) == (6, 2, 3)
        assert code.parity_class().label == "LCD_oe"
        assert code.contains_all_one()

    def test_counts_per_length(self):
        counts = [sum(1 for _ in tables.all_one_lcd_codes(length))
                  for length in range(4, 12)]
        assert counts == [0, 0, 1, 0, 2, 15, 69, 702]

    def test_corpus_facts(self):
        for length in range(4, 11):
            for code in tables.all_one_lcd_codes(length):
                assert code.is_lcd()
                assert code.contains_all_one()
                assert code.k >= 2
                assert code.min_distance() >= 3

    def test_exhaustive_against_bruteforce_length8(self):
        # brute-force: every [8,k] code over all full-rank generators
        # up to column permutation, via canonical rref keys of column
        # permutations; compare counts of qualifying classes
        orbits = {}
        found = set()
        for code in tables.all_one_lcd_codes(8):
            key = _perm_class_key(code, orbits)
            found.add(key)
        brute = set()
        n = 8
        for k in (2, 3, 4, 5, 6, 7):
            for code in _qualifying_codes_bruteforce(n, k):
                brute.add(_perm_class_key(code, orbits))
        assert found == brute


def _generator_rows(b, r, m, transposed):
    """The generator rows the enumerator reads the r x m matrix b as."""
    if transposed:  # [B^T | I_m]: generator row j is column j of B
        return [sum(((b[i] >> j) & 1) << i for i in range(r))
                | 1 << (r + j) for j in range(m)]
    return [(1 << i) | (b[i] << r) for i in range(r)]  # [I_r | B]


def _reference_all_one(n, d_min=3, k_min=2):
    """(rows, d) of the all-one corpus by unconstrained enumeration."""
    for k in range(k_min, n):
        c = n - k
        r, m = min(k, c), max(k, c)
        for b, _ in tables.canonical_b_matrices(r, m):
            if k <= c:
                cols_odd = all(
                    sum((b[i] >> j) & 1 for i in range(r)) & 1
                    for j in range(m))
            else:
                cols_odd = all(row.bit_count() & 1 for row in b)
            if not cols_odd:
                continue
            rows = tables._systematic_rows(n, k, b)
            d = min_weight(rows)
            if d >= d_min and tables._gram_nonsingular(b):
                yield rows, d


def _reference_dlcd(n, k):
    """d_lcd(n, k) by unconstrained enumeration and post-hoc filters."""
    if k == n:
        return 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for b, _ in tables.canonical_b_matrices(r, m):
        if tables._gram_nonsingular(b):
            rows = tables._systematic_rows(n, k, b)
            best = max(best, min_weight(rows, best))
    return best


def _perm_class_key(code, orbits):
    """Canonical key of a code class under column permutations: the
    least RREF over all column permutations.

    orbits maps every (n, RREF) met while keying a class to that class's
    key, so each class is walked once and a later code in it is one
    lookup.
    """
    start = (code.n, code.rref())
    if start not in orbits:
        orbit = set()
        for perm in itertools.permutations(range(code.n)):
            rows = [sum(((r >> p) & 1) << j for j, p in enumerate(perm))
                    for r in code.gen.rows]
            orbit.add(LinearCode(rows, code.n).rref())
        key = min(orbit)
        orbits.update(((code.n, rref), key) for rref in orbit)
    return orbits[start]


def _qualifying_codes_bruteforce(n, k):
    """All systematic [n,k] codes (no canonical pruning) that are LCD,
    contain the all-one vector, and have minimum distance >= 3.  Every
    code is column-equivalent to a systematic one, so this covers every
    qualifying class."""
    c = n - k
    r, m = min(k, c), max(k, c)
    for b in itertools.product(range(1 << m), repeat=r):
        rows = tables._systematic_rows(n, k, b)
        if min_weight(rows, 2) <= 2 or not tables._gram_nonsingular(b):
            continue
        code = LinearCode(rows, n)
        if code.contains_all_one():
            yield code

"""Exhaustive d_lcd tables, canonical enumeration, and the code corpus."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcdkit import tables
from lcdkit.codes import EngineBudgetError, LinearCode, min_weight


class TestCanonicalMatrices:
    def test_small_counts(self):
        # 1 x m: one matrix per weight (sorted columns)
        assert sum(1 for _ in tables.canonical_b_matrices(1, 4)) == 5
        # all 2 x 2 doubly lexical matrices
        mats = list(tables.canonical_b_matrices(2, 2))
        assert len(set(mats)) == len(mats)

    def test_rows_and_columns_sorted(self):
        for b in tables.canonical_b_matrices(3, 4):
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
            canon = set(tables.canonical_b_matrices(r, m))

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
        assert list(tables.canonical_b_matrices(0, 0)) == [()]
        assert list(tables.canonical_b_matrices(2, 0)) == [(0, 0)]
        assert list(tables.canonical_b_matrices(0, 3)) == [()]


class TestPrunedEnumeration:
    """The constrained enumerator against the unconstrained one plus the
    callers' old post-hoc filters, written out here as the reference."""

    def test_constrained_is_filtered_subsequence(self):
        for r in range(1, 5):
            for m in range(r, 6):
                full = list(tables.canonical_b_matrices(r, m))
                for transposed, all_one, f in itertools.product(
                        (False, True), (False, True), range(m + 3)):
                    got = list(tables.canonical_b_matrices(
                        r, m, floor=lambda: f, all_one=all_one,
                        transposed=transposed))
                    it = iter(full)
                    assert all(b in it for b in got), (r, m, transposed)
                    # nothing the filters accept is pruned
                    kept = set(got)
                    for b in full:
                        if _passes(b, r, m, f, all_one, transposed):
                            assert b in kept, (r, m, f, all_one, b)

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
        found = set()
        for code in tables.all_one_lcd_codes(8):
            key = _perm_class_key(code)
            found.add(key)
        brute = set()
        n = 8
        for k in (2, 3, 4, 5, 6, 7):
            for code in _qualifying_codes_bruteforce(n, k):
                brute.add(_perm_class_key(code))
        assert found == brute


def _passes(b, r, m, floor, all_one, transposed):
    """The callers' filters on a built matrix: every generator row and
    pair sum heavier than floor, and the all-one vector in the code."""
    if transposed:  # [B^T | I_m]: generator row j is column j of B
        rows = [sum(((b[i] >> j) & 1) << i for i in range(r)) | 1 << (r + j)
                for j in range(m)]
    else:  # [I_r | B]
        rows = [(1 << i) | (b[i] << r) for i in range(r)]
    if not tables._weights_above(rows, floor):
        return False
    total = 0
    for row in rows:
        total ^= row
    return not all_one or total == (1 << (r + m)) - 1


def _reference_all_one(n, d_min=3, k_min=2):
    """(rows, d) of the all-one corpus by unconstrained enumeration."""
    for k in range(k_min, n):
        c = n - k
        r, m = min(k, c), max(k, c)
        for b in tables.canonical_b_matrices(r, m):
            if k <= c:
                cols_odd = all(
                    sum((b[i] >> j) & 1 for i in range(r)) & 1
                    for j in range(m))
            else:
                cols_odd = all(row.bit_count() & 1 for row in b)
            if not cols_odd:
                continue
            rows = tables._systematic_rows(n, k, b)
            d = tables._dmin_above(rows, d_min - 1)
            if d is None or not tables._gram_nonsingular(b):
                continue
            yield rows, d


def _reference_dlcd(n, k):
    """d_lcd(n, k) by unconstrained enumeration and post-hoc filters."""
    if k == n:
        return 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for b in tables.canonical_b_matrices(r, m):
        rows = tables._systematic_rows(n, k, b)
        if not tables._weights_above(rows, best):
            continue
        if not tables._gram_nonsingular(b):
            continue
        best = max(best, min_weight(rows, best))
    return best


def _perm_class_key(code):
    """Canonical key of a code class under column permutations."""
    best = None
    for perm in itertools.permutations(range(code.n)):
        rows = [sum(((r >> p) & 1) << j for j, p in enumerate(perm))
                for r in code.gen.rows]
        key = LinearCode.from_rows(rows, code.n).rref().rows
        if best is None or key < best:
            best = key
    return best


def _qualifying_codes_bruteforce(n, k):
    """All systematic [n,k] codes (no canonical pruning) that are LCD,
    contain the all-one vector, and have minimum distance >= 3.  Every
    code is column-equivalent to a systematic one, so this covers every
    qualifying class."""
    c = n - k
    r, m = min(k, c), max(k, c)
    for b in itertools.product(range(1 << m), repeat=r):
        rows = tables._systematic_rows(n, k, b)
        if tables._dmin_above(rows, 2) is None:
            continue
        if not tables._gram_nonsingular(b):
            continue
        code = LinearCode.from_rows(rows, n)
        if code.contains_all_one():
            yield code

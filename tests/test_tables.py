"""Exhaustive d_lcd tables, canonical enumeration, and the code corpus."""

import gc
import itertools
import os
import random
import subprocess
import sys
from functools import lru_cache, reduce
from operator import xor
from pathlib import Path

import pytest

from lcdkit import tables
from lcdkit.codes import EngineBudgetError, LinearCode, min_weight
from lcdkit.ledger import BoundsEntry, BoundsLedger
from random_codes import dlcd_value_oracle, systematic_lcd


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

    def test_leaves_no_cyclic_garbage(self):
        """A finished or closed walk frees everything by reference count."""
        gc.collect()
        gc.disable()
        try:
            for n in range(1, 11):
                for k in range(1, n + 1):
                    tables.dlcd_value(n, k)
            assert gc.collect() == 0
            walk = tables.canonical_b_matrices(3, 4)
            next(walk)
            walk.close()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPrunedEnumeration:
    """The constrained enumerator against the unconstrained one filtered
    by the constraints, with distances measured here by min_weight."""

    def test_constrained_is_filtered_subsequence(self):
        # (5, 5) has transposed matrices whose rows and pair sums beat a
        # floor that a sum of three rows does not; the wide shapes are
        # the [B^T | I_m] side's, deep enough for its lane cuts to fire
        # well below the root
        sizes = [(r, m) for r in range(1, 5) for m in range(r, 6)]
        shapes = [(r, m, transposed) for r, m in sizes + [(5, 5)]
                  for transposed in (False, True)]
        shapes += [(r, m, True) for r in range(1, 4) for m in range(6, 9)]
        shapes.append((4, 6, True))
        for r, m, transposed in shapes:
            full = [b for b, _ in tables.canonical_b_matrices(r, m)]
            for all_one in (False, True):
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
                assert _raised_floor_walk(
                    r, m, all_one=all_one, transposed=transposed) == \
                    _record_breakers(measured), (r, m, transposed, all_one)

    def test_lcd_is_gram_filtered_subsequence(self):
        # every shape with r <= 4 and r <= m <= 8, on both sides, with and
        # without all_one, at every floor from 0 past the largest
        # distance: lcd=True yields the unfloored lcd=False sequence cut
        # to d above the floor and to the B whose I + B B^T the oracle
        # finds nonsingular.  The verdict depends on B alone, so each B
        # is judged once.
        verdict = lru_cache(maxsize=None)(systematic_lcd)
        for r in range(5):
            for m in range(r, 9):
                for transposed, all_one in itertools.product((False, True),
                                                             repeat=2):
                    case = dict(all_one=all_one, transposed=transposed)
                    full = [(b, d) for b, d in
                            tables.canonical_b_matrices(r, m, **case)
                            if verdict(b)]
                    for f in range(r + m + 2):
                        got = list(tables.canonical_b_matrices(
                            r, m, floor=lambda: f, lcd=True, **case))
                        assert got == [(b, d) for b, d in full if d > f], \
                            (r, m, case, f)
                    assert _raised_floor_walk(r, m, lcd=True, **case) == \
                        _record_breakers(full), (r, m, case)

    def test_transposed_unbeatable_floor_ends_at_the_root(self):
        # a generator row of [B^T | I_m] weighs at most r + 1, so each
        # first column is cut before any node below the root reads it
        for r, m in ((1, 6), (3, 5), (4, 7)):
            reads = []
            got = list(tables.canonical_b_matrices(
                r, m, floor=lambda: reads.append(r) or r + 1,
                transposed=True))
            assert got == [] and len(reads) == 1, (r, m)

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
            assert constraints["lcd"] is True
            return enumerate_b(r, m, **constraints)

        monkeypatch.setattr(tables, "canonical_b_matrices", counting)
        tables.dlcd_value(6, 2)
        assert calls == [["floor", "lcd", "transposed"]]
        list(tables.all_one_lcd_codes(6))
        assert calls[1:] == \
            [["all_one", "floor", "lcd", "transposed"]] * 4  # k 2-5


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
                    dlcd_value_oracle(n, k), (n, k)

    def test_transposed_cells_past_the_table_cap(self):
        # the k > n - k cells of n = 13 and 14, called directly: dlcd_table
        # stops at N_MAX, and no independent check covers these rows yet
        assert [tables.dlcd_value(13, k) for k in range(7, 14)] == \
            [4, 3, 2, 2, 2, 2, 1]
        assert [tables.dlcd_value(14, k) for k in range(8, 15)] == \
            [4, 3, 2, 2, 2, 1, 1]

    @pytest.mark.parametrize("n", range(2, 15))
    def test_closed_forms(self, n):
        # k = n - 1: the dual is one vector, and the code is LCD exactly
        # when that vector has odd weight, so d is 2 for odd n, 1 for even
        assert tables.dlcd_value(n, n - 1) == 1 + n % 2
        # k = 2: floor(2n/3), less 1 when n = 0 or 5 (mod 6)
        # (Galvez, Kim, Lee, Roe and Won, 2018)
        assert tables.dlcd_value(n, 2) == 2 * n // 3 - (n % 6 in (0, 5))

    def test_oracle_budget(self):
        with pytest.raises(EngineBudgetError):
            dlcd_value_oracle(8, 3)

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
        # it raises exactly when the bounds ledger of the same exact table
        # reports a violation, on single-cell mutations at k >= 2 (k = 1
        # has its closed form too)
        table = tables.dlcd_table(8)
        cells = sorted(key for key in table if key[1] >= 2)
        rng = random.Random(25)
        outcomes = set()
        for _ in range(300):
            key = rng.choice(cells)
            mutant = dict(table)
            mutant[key] += rng.choice([-2, -1, 1, 2])
            try:
                tables.check_step_property(mutant)
                raised = False
            except tables.TableLawError:
                raised = True
            bounds = BoundsLedger({cell: BoundsEntry(d, d, "exact")
                                   for cell, d in mutant.items()})
            assert raised == bool(bounds.check_consistency()), (key, mutant)
            outcomes.add(raised)
        assert outcomes == {True, False}

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


def _raised_floor_walk(r, m, **constraints):
    """The yields of a walk whose caller raises the floor to each d it
    is given, as dlcd_value does: a whole subtree may go at once."""
    got, best = [], 0
    for b, d in tables.canonical_b_matrices(r, m, floor=lambda: best,
                                            **constraints):
        got.append((b, d))
        best = d
    return got


def _record_breakers(seq):
    """The (b, d) of seq whose d beats every d before it."""
    out, best = [], 0
    for b, d in seq:
        if d > best:
            out.append((b, d))
            best = d
    return out


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
            if d >= d_min and systematic_lcd(b):
                yield rows, d


def _reference_dlcd(n, k):
    """d_lcd(n, k) by unconstrained enumeration and post-hoc filters."""
    if k == n:
        return 1
    r, m = min(k, n - k), max(k, n - k)
    best = 0
    for b, _ in tables.canonical_b_matrices(r, m):
        if systematic_lcd(b):
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
        if min_weight(rows, 2) <= 2 or not systematic_lcd(b):
            continue
        code = LinearCode(rows, n)
        if code.contains_all_one():
            yield code

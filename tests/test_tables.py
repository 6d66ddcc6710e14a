"""Exhaustive d_lcd tables, canonical enumeration, and the code corpus."""

import gc
import hashlib
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
import gf2_oracle as oracle
from canonical_oracle import canonical_matrices, systematic_rows
from random_codes import dlcd_value_oracle, systematic_lcd


class TestCanonicalMatrices:
    def test_small_counts(self):
        # 1 x m: one matrix per weight (sorted columns)
        assert sum(1 for _ in canonical_matrices(1, 4)) == 5
        # all 2 x 2 doubly lexical matrices
        mats = list(canonical_matrices(2, 2))
        assert len(mats) == 7 and len(set(mats)) == len(mats)
        # [1 | b] is LCD exactly when b has even weight: 1111, 1100, 0000
        assert [d for _, d in tables.canonical_b_matrices(
            5, 1, floor=lambda: 0)] == [5, 3, 1]
        # all of them but diag(1, 0) and I_2 give LCD [4, 2] codes
        codes = [tuple(rows) for rows, _ in
                 tables.canonical_b_matrices(4, 2, floor=lambda: 0)]
        assert len(set(codes)) == len(codes) == 5

    def test_rows_and_columns_sorted(self):
        # every yield's B has sorted rows and columns, and the yields of
        # a cell come in strictly decreasing order of B's column sequence
        for n in range(1, 9):
            for k in range(1, n + 1):
                seq = []
                for rows, _ in tables.canonical_b_matrices(
                        n, k, floor=lambda: 0):
                    b = _b_of(rows, n, k)
                    assert systematic_rows(n, k, b) == rows, (n, k, rows)
                    r, m = len(b), max(k, n - k)
                    vals = [int(format(row, f"0{m}b")[::-1], 2)
                            for row in b]
                    assert vals == sorted(vals, reverse=True)
                    cols = [sum((b[i] >> j & 1) << r - 1 - i
                                for i in range(r)) for j in range(m)]
                    assert cols == sorted(cols, reverse=True)
                    seq.append(cols)
                assert all(a > b for a, b in zip(seq, seq[1:])), (n, k)

    def test_covers_all_classes(self):
        # every LCD matrix must be row/column-permutable to the B of some
        # yield, on both sides: I + B B^T is invariant under both
        for r, m in ((2, 3), (3, 3), (2, 4), (3, 4)):
            for k in {r, m}:
                n = r + m
                variants = set()
                for rows, _ in tables.canonical_b_matrices(
                        n, k, floor=lambda: 0):
                    b = _b_of(rows, n, k)
                    for pr in itertools.permutations(b):
                        for pc in itertools.permutations(range(m)):
                            variants.add(tuple(
                                sum(((row >> c) & 1) << j
                                    for j, c in enumerate(pc))
                                for row in pr))
                for b in itertools.product(range(1 << m), repeat=r):
                    assert b in variants or not systematic_lcd(b), \
                        (n, k, b)

    def test_degenerate_sizes(self):
        for r, m, want in ((0, 0, ()), (2, 0, (0, 0)), (0, 3, ())):
            assert list(canonical_matrices(r, m)) == [want]
        # k = n: B has no row, and the full space has distance 1
        for n in range(1, 5):
            assert list(tables.canonical_b_matrices(n, n, floor=lambda: 0)) \
                == [([1 << j for j in range(n)], 1)]
        for n, k in ((3, 4), (3, 0), (0, 0)):
            with pytest.raises(ValueError, match="1 <= k <= n"):
                next(tables.canonical_b_matrices(n, k, floor=lambda: 0))

    def test_leaves_no_cyclic_garbage(self):
        """A finished or closed walk frees everything by reference count."""
        gc.collect()
        gc.disable()
        try:
            for n in range(1, 11):
                for k in range(1, n + 1):
                    tables.dlcd_value(n, k)
            assert gc.collect() == 0
            walk = tables.canonical_b_matrices(7, 3, floor=lambda: 0)
            next(walk)
            walk.close()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPrunedEnumeration:
    """The enumerator against the reference sequence of
    ``canonical_oracle`` filtered by each constraint, with distances
    measured here by min_weight and LCD decided by the oracle."""

    def test_constrained_is_filtered_subsequence(self):
        # every cell up to n = 10 on both sides, and the n = 11 cells of
        # the [B^T | I_k] side with r <= 3, deep enough for its lane cuts
        # to fire well below the root, with and without all_one, at every
        # floor from 0 past the largest distance: the yields are the
        # reference cut to the LCD codes, by I + B B^T, with d above the
        # floor
        cells = [(n, k) for n in range(1, 11) for k in range(1, n + 1)]
        cells += [(11, k) for k in range(8, 12)]
        for (n, k), all_one in itertools.product(cells, (False, True)):
            want = [(rows, d) for b, rows, d, ones in _reference(n, k)
                    if systematic_lcd(b) and (ones or not all_one)]
            for f in range(n + 2):
                got = list(tables.canonical_b_matrices(
                    n, k, floor=lambda: f, all_one=all_one))
                assert got == [(rows, d) for rows, d in want if d > f], \
                    (n, k, all_one, f)
            assert _raised_floor_walk(n, k, all_one=all_one) == \
                _record_breakers(want), (n, k, all_one)

    def test_lcd_is_gram_filtered_subsequence(self):
        # the LCD test sees only the r x r matrix I + B B^T; on every cell
        # up to n = 10, and on the n = 12 cells with r <= 3, its yields
        # are the reference cut to the codes whose own k x k Gram matrix
        # G G^T the oracle finds nonsingular (Massey), unfloored and on
        # the raised-floor walk
        cells = [(n, k) for n in range(1, 11) for k in range(1, n + 1)]
        cells += [(12, k) for k in (1, 2, 3, 9, 10, 11, 12)]
        for (n, k), all_one in itertools.product(cells, (False, True)):
            want = [(rows, d) for _, rows, d, ones in _reference(n, k)
                    if (ones or not all_one)
                    and oracle.rank(oracle.gram(rows), k) == k]
            got = list(tables.canonical_b_matrices(
                n, k, floor=lambda: 0, all_one=all_one))
            assert got == want, (n, k, all_one)
            assert _raised_floor_walk(n, k, all_one=all_one) == \
                _record_breakers(want), (n, k, all_one)

    def test_transposed_unbeatable_floor_ends_at_the_root(self):
        # a generator row of [B^T | I_k] weighs at most r + 1, so each
        # first column is cut before any node below the root reads it
        for n, k in ((7, 6), (8, 5), (11, 7)):
            r = n - k
            reads = []
            got = list(tables.canonical_b_matrices(
                n, k, floor=lambda: reads.append(r) or r + 1))
            assert got == [] and len(reads) == 1, (n, k)

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

        def counting(n, k, **constraints):
            calls.append(sorted(constraints))
            return enumerate_b(n, k, **constraints)

        monkeypatch.setattr(tables, "canonical_b_matrices", counting)
        tables.dlcd_value(6, 2)
        assert calls == [["floor"]]
        list(tables.all_one_lcd_codes(6))
        assert calls[1:] == [["all_one", "floor"]] * 4  # k 2-5


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
        # it raises exactly when law_violations reports a violation of
        # the same exact table read as bounds, on single-cell mutations
        # at k >= 2 (k = 1 has its closed form too)
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
            bounds = {cell: (d, d) for cell, d in mutant.items()}
            assert raised == bool(tables.law_violations(bounds)), (key,
                                                                   mutant)
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

    def test_same_codes_in_the_same_order(self):
        # the (n, rows, d) of all 7,902 codes of lengths 4-12, digested:
        # a change that reorders, adds or drops a code, or changes its
        # rows or distance, changes the digest
        digest = hashlib.sha256()
        count = 0
        for n in range(4, 13):
            for code in tables.all_one_lcd_codes(n):
                rows = " ".join(map(str, code.gen.rows))
                digest.update(f"{n} {rows} {code.min_distance()}\n".encode())
                count += 1
        assert count == 7902
        assert digest.hexdigest() == ("291e59dd51332fde29922e7d104244be"
                                      "ca717b6810b20eca30f6b9dfd353e694")

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


def _raised_floor_walk(n, k, **constraints):
    """The yields of a walk whose caller raises the floor to each d it
    is given, as dlcd_value does: a whole subtree may go at once."""
    got, best = [], 0
    for rows, d in tables.canonical_b_matrices(n, k, floor=lambda: best,
                                               **constraints):
        got.append((rows, d))
        best = d
    return got


def _record_breakers(seq):
    """The (rows, d) of seq whose d beats every d before it."""
    out, best = [], 0
    for rows, d in seq:
        if d > best:
            out.append((rows, d))
            best = d
    return out


def _b_of(rows, n, k):
    """The redundant part B (bit j = column j) of the systematic rows
    of an [n, k] code, as ``systematic_rows`` lays it out."""
    c = n - k
    if k <= c:
        return tuple(row >> k for row in rows)
    return tuple(sum((row >> i & 1) << j for j, row in enumerate(rows))
                 for i in range(c))


@lru_cache(maxsize=None)
def _reference(n, k):
    """(B, rows, d, whether 1_n is a codeword) over the unfiltered
    reference sequence of the cell (n, k)."""
    ones = (1 << n) - 1
    out = []
    for b in canonical_matrices(min(k, n - k), max(k, n - k)):
        rows = systematic_rows(n, k, b)
        out.append((b, rows, min_weight(rows), reduce(xor, rows) == ones))
    return tuple(out)


def _reference_all_one(n, d_min=3, k_min=2):
    """(rows, d) of the all-one corpus by unconstrained enumeration."""
    for k in range(k_min, n):
        for b, rows, d, ones in _reference(n, k):
            if ones and d >= d_min and systematic_lcd(b):
                yield rows, d


def _reference_dlcd(n, k):
    """d_lcd(n, k) by unconstrained enumeration and post-hoc filters."""
    return max(d for b, _, d, _ in _reference(n, k) if systematic_lcd(b))


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
        rows = systematic_rows(n, k, b)
        if min_weight(rows, 2) <= 2 or not systematic_lcd(b):
            continue
        code = LinearCode(rows, n)
        if code.contains_all_one():
            yield code

"""LinearCode core: duals, hulls, parity classes, distance engines, I/O."""

import itertools
import random
from functools import reduce
from operator import or_, xor

import pytest

import gf2_oracle as oracle
from lcdkit import codes, gf2
from lcdkit.codes import (BZ_MIN_K, EngineBudgetError, LinearCode,
                          ParseError, WeightTable, _gray_walk,
                          _information_sets, _low_weight_words,
                          _parity_columns,
                          format_gen1, min_weight, parse_gen1)
from lcdkit.gf2 import BitMatrix
from random_codes import random_code

HAMMING_7_4 = LinearCode.from_strings([
    "1101000",
    "0110100",
    "1110010",
    "1010001",
])


def C(*lines):
    return LinearCode.from_strings(lines)


def log_rref(monkeypatch):
    """Wraps gf2.rref; returns the list that gets each call's row count."""
    rref = gf2.rref
    log = []
    monkeypatch.setattr(gf2, "rref", lambda rows, width: (
        log.append(len(rows)), rref(rows, width))[1])
    return log


def table_lanes(table):
    """The lanes of a WeightTable's weights, message 0 first."""
    mask = (1 << table.width) - 1
    return [table.weights >> (x * table.width) & mask
            for x in range(1 << len(table.units))]


class TestConstruction:
    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            C("110", "110")

    @pytest.mark.parametrize("k, n", [(3, 2), (BZ_MIN_K + 1, 5)])
    def test_more_rows_than_columns(self, k, n):
        # the rank is at most n < k, so the full-row-rank check refuses
        # the matrix, on both sides of the rank check's BZ_MIN_K switch
        with pytest.raises(ValueError, match="full row rank"):
            LinearCode(range(1, k + 1), n)

    def test_generator_kept_verbatim(self):
        code = C("110", "011")
        assert code.gen == BitMatrix.from_strings(["110", "011"])



class TestDual:
    def test_repetition(self):
        assert C("111").dual() == C("110", "011")

    def test_full_space(self):
        assert C("100", "010", "001").dual().k == 0

    def test_worked_pair(self):
        assert C("1100", "0110").dual() == C("0001", "1110")

    def test_double_dual_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(2, 12)
            k = rng.randrange(1, n + 1)
            code = random_code(rng, n, k)
            assert code.dual().dual() == code

    def test_orthogonality(self):
        rng = random.Random(12)
        for _ in range(50):
            code = random_code(rng, 10, rng.randrange(1, 10))
            D = code.dual()
            for i in range(code.k):
                for j in range(D.k):
                    assert (code.gen.rows[i] & D.gen.rows[j]).bit_count() \
                        % 2 == 0


class TestHull:
    def test_identity_code(self):
        assert C("100", "010", "001").hull_dimension() == 0

    def test_self_orthogonal_word(self):
        assert C("11").hull_dimension() == 1

    def test_hamming(self):
        assert HAMMING_7_4.hull_dimension() == 3

    def test_oracle_equivalence_random(self):
        # rank-formula hull dimension == dimension of explicit intersection
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(1, 15)
            k = rng.randrange(1, n + 1)
            code = random_code(rng, n, k)
            inter = _intersection_dim(code, code.dual())
            assert code.hull_dimension() == inter
            hull = code.hull()
            assert hull.k == inter
            for i in range(hull.k):
                v = hull.gen.rows[i]
                assert code.contains(v) and code.dual().contains(v)


def _random_lcd_rows(rng, n):
    """Rows of a random [n, k] LCD code, k in 1..n; a third of them
    have a zeroed column and a third a repeated one."""
    while True:
        k = rng.randrange(1, n + 1)
        rows = [rng.getrandbits(n) for _ in range(k)]
        a, b = rng.sample(range(n), 2)
        shape = rng.randrange(3)
        if shape == 1:
            rows = [r & ~(1 << a) for r in rows]
        elif shape == 2:
            rows = [r & ~(1 << b) | (r >> a & 1) << b for r in rows]
        if oracle.rank(rows, n) == k == oracle.rank(oracle.gram(rows), k):
            return rows


class TestProjector:
    def test_worked_example(self):
        P = C("111000", "000111").projector()
        assert P == (0b111,) * 3 + (0b111000,) * 3

    def test_rejects_code_that_is_not_lcd(self):
        with pytest.raises(ValueError, match="not LCD"):
            C("11").projector()
        with pytest.raises(ValueError, match="not LCD"):
            HAMMING_7_4.projector()

    def test_oracle_random(self):
        """Pi against its defining properties and against the built
        punctured and shortened codes' own LCD tests."""
        rng = random.Random(21)
        punctures = shortenings = 0
        for _ in range(150):
            n = rng.randrange(3, 14)
            rows = _random_lcd_rows(rng, n)
            k = len(rows)
            code = LinearCode(rows, n)
            P = list(code.projector())
            assert P == oracle.transpose(P, n)
            assert oracle.mul(P, P) == P
            assert all(oracle.in_span(rows, r, n) for r in P)
            mixed = list(rows)
            for _ in range(2 * k if k > 1 else 0):
                i, j = rng.sample(range(k), 2)
                mixed[i] ^= mixed[j]
            assert LinearCode(mixed, n).projector() == tuple(P)
            cols = oracle.transpose(rows, n)
            for size in (1, 2, 3):
                for T in itertools.combinations(range(n), size):
                    if size == n:
                        continue
                    punctured = code.puncture([t + 1 for t in T])
                    if punctured.k != k:
                        continue
                    sub = [sum(((P[s] >> t & 1) ^ (s == t)) << i
                               for i, t in enumerate(T)) for s in T]
                    assert (oracle.rank(sub, size) == size) == \
                        punctured.is_lcd(), (rows, T)
                    punctures += 1
            for j in range(n):
                if cols[j]:
                    assert (P[j] >> j & 1) == \
                        code.shorten([j + 1]).is_lcd(), (rows, j)
                    shortenings += 1
                else:
                    assert P[j] == 0
        assert punctures > 5000 and shortenings > 500


def _intersection_dim(A: LinearCode, B: LinearCode) -> int:
    # dim(A) + dim(B) - dim(A + B)
    return A.k + B.k - gf2.rank(A.gen.rows + B.gen.rows)


class TestKeptBasis:
    """rref, dual, contains and hull dimension from the constructor's
    elimination agree with the gf2 functions run on the generator."""

    @staticmethod
    def _codes():
        rng = random.Random(17)
        yield LinearCode((), 5)
        yield LinearCode([1 << i for i in range(6)], 6)
        for _ in range(300):
            n = rng.randint(1, 16)
            k = rng.randint(0, min(n, 12))
            yield random_code(rng, n, k)

    def test_rref(self):
        for code in self._codes():
            assert code.rref() == gf2.rref(code.gen.rows, code.n)[0]

    def test_dual(self):
        for code in self._codes():
            assert code.dual().gen == \
                BitMatrix(gf2.nullspace(code.gen.rows, code.n), code.n)

    def test_contains(self):
        rng = random.Random(18)
        for code in self._codes():
            words = [rng.getrandbits(code.n) for _ in range(8)]
            words += [reduce(xor, (r for r in code.gen.rows
                                   if rng.random() < 0.5), 0)
                      for _ in range(4)]
            words.append((1 << code.n) - 1)
            for v in words:
                assert code.contains(v) == (
                    gf2.solve(code.gen.rows, v, code.n) is not None)

    def test_hull_dimension(self):
        for code in self._codes():
            want = code.k - gf2.rank(gf2.gram(code.gen.rows))
            assert code.hull_dimension() == want
            assert code.hull_dimension() == want  # cached answer

    def test_contains_rejects_wrong_length(self):
        # v must be a word of length n: below 2^n and not negative
        for code, v in ((HAMMING_7_4, 1 << 7), (HAMMING_7_4, -1),
                        (LinearCode((), 3), 0b1000)):
            with pytest.raises(ValueError):
                code.contains(v)
        assert HAMMING_7_4.contains(0) and LinearCode((), 3).contains(0)


class TestEchelonGate:
    """Below BZ_MIN_K rows the constructor's rank check is a forward
    elimination, and from there on it is gf2.rref, whose RREF the
    code keeps.  On both sides, two generators of one code give the
    reference's rref, dual, membership and parity-check columns."""

    @staticmethod
    def _pairs():
        rng = random.Random(30)
        for k in (BZ_MIN_K - 1, BZ_MIN_K):
            for case in range(24):
                n = k + (0, 1, 2, rng.randrange(3, 40))[case % 4]
                gen = random_code(rng, n, k).gen.rows
                if case % 3 == 0 and n > k + 1:
                    # a zero column and a repeated one
                    cols = oracle.transpose(gen, n)
                    cols[rng.randrange(n)] = 0
                    cols[rng.randrange(n)] = cols[rng.randrange(n)]
                    rows = tuple(oracle.transpose(cols, k))
                    if oracle.rank(rows, n) == k:
                        gen = rows
                while True:  # another basis of the same code
                    mix = [rng.getrandbits(k) for _ in range(k)]
                    if oracle.rank(mix, k) == k:
                        break
                other = tuple(reduce(xor, (r for j, r in enumerate(gen)
                                           if m >> j & 1), 0) for m in mix)
                yield gen, other, n

    def test_against_reference(self):
        rng = random.Random(31)
        for gen, other, n in self._pairs():
            k = len(gen)
            R, pivots = oracle.rref(gen, n)
            H = tuple(oracle.nullspace(gen, n))
            cols = oracle.parity_columns(gen, n)
            words = [rng.getrandbits(n) for _ in range(6)] + [
                reduce(xor, (r for r in gen if rng.random() < 0.5), 0)
                for _ in range(4)] + [(1 << n) - 1]
            a, b = LinearCode(gen, n), LinearCode(other, n)
            for code in (a, b):
                assert code.rref() == R, (n, k)
                assert code.dual().gen.rows == H, (n, k)
                assert _parity_columns(code) == cols, (n, k)
                for v in words:
                    assert code.contains(v) == \
                        oracle.in_span(gen, v, n), (n, k)
            assert a == b and hash(a) == hash(b)

    def test_rref_from_rank_check(self, monkeypatch):
        # from BZ_MIN_K rows on, the one rref call of the constructor
        # also answers rref; below, rref makes its own
        calls = log_rref(monkeypatch)
        for gen, _, n in self._pairs():
            calls.clear()
            code = LinearCode(gen, n)
            built = list(calls)
            code.rref()
            if len(gen) >= BZ_MIN_K:
                assert built == calls == [len(gen)]
            else:
                assert built == [] and calls == [len(gen)]


class TestHullPaths:
    """dim(C ∩ C⊥) read off G Gᵀ or, once the parity-check columns are
    cached and H has fewer rows, off H Hᵀ; both equal k - rank(G Gᵀ)."""

    @staticmethod
    def _gens():
        rng = random.Random(19)
        yield (), 5
        yield tuple(1 << i for i in range(7)), 7
        for case in range(300):
            n = rng.randint(1, 16)
            k = rng.randint(0, n)
            gen = random_code(rng, n, k).gen.rows
            if case % 3 == 0 and k < n:
                # a zero column and a repeated one
                cols = oracle.transpose(gen, n)
                cols[rng.randrange(n)] = 0
                cols[rng.randrange(n)] = cols[rng.randrange(n)]
                rows = tuple(oracle.transpose(cols, k))
                if oracle.rank(rows, n) == k:
                    gen = rows
            yield gen, n

    def test_both_paths(self):
        for gen, n in self._gens():
            want = len(gen) - oracle.rank(oracle.gram(gen), len(gen))
            primed = LinearCode(gen, n)
            _parity_columns(primed)
            dual = LinearCode(gen, n).dual()
            assert LinearCode(gen, n).hull_dimension() == want
            assert primed.hull_dimension() == want
            assert dual.hull_dimension() == want
            assert LinearCode(gen, n).is_lcd() == dual.is_lcd()

    def test_smaller_gram_when_columns_built(self, monkeypatch):
        rng = random.Random(20)
        fresh = [random_code(rng, n, rng.randint(0, n))
                 for n in (rng.randint(1, 16) for _ in range(100))]
        primed = [LinearCode(code.gen.rows, code.n) for code in fresh]
        for code in primed:
            _parity_columns(code)
        for code in fresh:
            code.dual()  # a built dual alone does not count
        sizes = []
        gram = gf2.gram
        monkeypatch.setattr(
            gf2, "gram", lambda rows: sizes.append(len(rows)) or gram(rows))
        for a, b in zip(fresh, primed):
            n, k = a.n, a.k
            sizes.clear()
            a.hull_dimension()
            assert sizes == [k]
            sizes.clear()
            b.hull_dimension()
            # the smaller one, H Hᵀ, is built from the cached columns
            assert sizes == ([n - k] if 2 * k > n else [k])


class TestParityClass:
    def test_oe(self):
        pc = C("111000", "000111").parity_class()
        assert pc.label == "LCD_oe"
        assert pc.hull_dim == 0

    def test_eo(self):
        assert C("1100", "0110").parity_class().label == "LCD_eo"

    def test_not_lcd(self):
        pc = C("11").parity_class()
        assert pc.hull_dim == 1 and pc.label == "NotLCD"

    def test_is_lcd_matches_gram(self):
        rng = random.Random(14)
        for _ in range(200):
            code = random_code(rng, rng.randrange(3, 13), 3) \
                if rng.random() < 0.5 else random_code(rng, 8,
                                                       rng.randrange(1, 9))
            assert code.is_lcd() == gf2.is_nonsingular(code.gram())

    def test_dual_parity_consistency(self):
        rng = random.Random(15)
        for _ in range(150):
            n = rng.randrange(2, 12)
            k = rng.randrange(1, n)
            code = random_code(rng, n, k)
            pc = code.parity_class()
            assert pc.dual_parity == code.dual().parity_class().self_parity

    def test_no_even_even_lcd(self):
        rng = random.Random(16)
        for _ in range(400):
            n = rng.randrange(2, 12)
            k = rng.randrange(1, n)
            pc = random_code(rng, n, k).parity_class()
            if pc.hull_dim == 0:
                assert (pc.self_parity, pc.dual_parity) != \
                    ("even-like", "even-like")


class TestMinDistance:
    def test_repetition(self):
        assert C("11111").min_distance() == 5

    def test_identity(self):
        assert C("10", "01").min_distance() == 1

    def test_hamming(self):
        assert HAMMING_7_4.min_distance() == 3

    def test_rejects_zero_code(self):
        with pytest.raises(ValueError):
            LinearCode((), 4).min_distance()

    def test_engines_agree(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randrange(2, 18)
            k = rng.randrange(1, min(n, 10) + 1)
            code = random_code(rng, n, k)
            d_full = code.min_distance(engine="full")
            if d_full <= 8:
                fresh = LinearCode(code.gen.rows, code.n)
                assert fresh.min_distance(engine="lowweight") == d_full

    def test_lowweight_budget_error(self):
        big = LinearCode([(1 << 30) - 1], 30)
        with pytest.raises(EngineBudgetError):
            big.min_distance(engine="lowweight")

    def test_explicit_engine_ignores_cache(self):
        rep = LinearCode.from_strings(["1" * 12])
        assert rep.min_distance("full") == 12
        with pytest.raises(EngineBudgetError):
            rep.min_distance("lowweight")
        assert rep.min_distance() == 12


class TestKernels:
    """The shared kernels against the plain Gray-walk enumeration."""

    def test_min_weight_stop(self):
        rng = random.Random(21)
        for _ in range(80):
            n = rng.randrange(1, 13)
            k = rng.randrange(1, n + 1)
            rows = random_code(rng, n, k).gen.rows
            true_min = min(c.bit_count() for c in _gray_walk(rows) if c)
            for stop in range(n + 1):
                got = min_weight(rows, stop)
                if true_min > stop:
                    assert got == true_min
                else:
                    assert got <= stop

    def test_min_weight_across_threshold(self):
        # both sides of the Gray / Brouwer-Zimmermann switch, against the
        # plain walk; the true minimum is 0 when the rows are dependent
        rng = random.Random(23)
        for k in range(BZ_MIN_K - 2, BZ_MIN_K + 4):
            for case in range(8):
                n = (k, k + 1)[case] if case < 2 else rng.randrange(
                    k + 2, 3 * k + 4)
                rows = [rng.getrandbits(n) for _ in range(k)]
                if case in (1, 3, 5):  # zero columns
                    mask = rng.getrandbits(n)
                    rows = [r & mask for r in rows]
                if case in (4, 5):  # dependent rows
                    rows[-1] = rows[0] ^ rows[1]
                true_min = min(c.bit_count()
                               for c in itertools.islice(
                                   _gray_walk(rows), 1, None))
                for stop in range(n + 1):
                    got = min_weight(rows, stop)
                    if true_min > stop:
                        assert got == true_min, (k, n, case, stop)
                    else:
                        assert true_min <= got <= stop, (k, n, case, stop)

    @staticmethod
    def _partial_set_rows():
        # k = 11-20 splits its information sets into halves of both
        # parities; n = m k + r leaves partial sets, such as one of rank r
        rng = random.Random(27)
        for k in range(11, 21):
            for case, (m, r) in enumerate(((1, 1), (1, k // 3), (1, k - 2),
                                           (2, k // 2 + 1), (2, k - 2))):
                zeros = 2 if case % 2 else 0  # zero columns
                n = m * k + r + zeros
                rows = [rng.getrandbits(n - zeros) << zeros
                        for _ in range(k)]
                if case in (2, 4):  # sparse rows
                    rows = [x & rng.getrandbits(n) for x in rows]
                if k <= 14 and case == 3:  # dependent rows
                    rows[-1] = rows[0] ^ rows[1]
                yield n, rows
        # a [22, 12, 3] code whose one weight-3 word is a single row of
        # its rank-10 second set: that set joins in round 2, and if it
        # walked only size 2 then, the bound 3 + 1 would end the search
        # at weight 4
        yield 22, [4130638, 1551377, 3829854, 682729, 2047655, 2915692,
                   574111, 1916867, 1479375, 2978735, 232220, 2498969]

    def test_brouwer_zimmermann_partial_sets(self, monkeypatch):
        # a partial set of rank r is first walked in round k - r, before,
        # at or after the round where the search ends, which the walked
        # table sizes record; each set is built (one rref call) only
        # once the rounds reach its due round
        grow = codes._subset_xors
        walked = []
        monkeypatch.setattr(codes, "_subset_xors", lambda sizes, s: (
            walked.append((tuple(sizes[1]), s)), grow(sizes, s)))
        built = log_rref(monkeypatch)
        joins = set()
        for n, rows in self._partial_set_rows():
            k = len(rows)
            true_min = min(map(int.bit_count, itertools.islice(
                _gray_walk(rows), 1, None)))
            # each partial set's first half, and its first round
            starts = {gamma[:k // 2]: k - rank
                      for gamma, rank in _information_sets(rows)
                      if rank < len(gamma)}
            due = self._due_rounds(rows)
            for stop in range(n + 1):
                walked.clear()
                built.clear()
                got = min_weight(rows, stop)
                if true_min > stop:
                    assert got == true_min, (k, n, stop)
                else:
                    assert true_min <= got <= stop, (k, n, stop)
                if not walked:  # dependent rows
                    assert len(built) == 1, (k, n, stop)
                    continue
                end = walked[-1][1]
                assert len(built) == sum(w <= end for w in due), \
                    (k, n, stop)
                for part, start in starts.items():
                    first = min((w for half, w in walked if half == part),
                                default=None)
                    assert first in (None, start), (k, n, stop)
                    joins.add("after" if first is None else
                              "at" if first == end else "before")
        assert joins == {"before", "at", "after"}

    @staticmethod
    def _due_rounds(rows):
        """The round in which each information set is built: k minus the
        columns the sets before it left, and at least 1."""
        k = len(rows)
        left = reduce(or_, rows).bit_count()
        due = []
        for _, rank in _information_sets(rows):
            due.append(max(1, k - left))
            left -= rank
        return due

    def test_information_sets_built_lazily(self, monkeypatch):
        # a [32, 16] code whose sets have ranks 16, 15 and 1: columns
        # 16-30 are independent and column 31 is the sum of two of them,
        # so the last set would join only in round 15, past every stop's
        # end, and is never built
        rng = random.Random(32)
        k, n = 16, 32
        while True:
            tail = [rng.getrandbits(k) for _ in range(15)]
            if oracle.rank(tail, k) == 15:
                break
        cols = [1 << i for i in range(k)] + tail + [tail[0] ^ tail[1]]
        rows = oracle.transpose(cols, k)
        assert [rank for _, rank in _information_sets(rows)] == [16, 15, 1]
        due = self._due_rounds(rows)
        true_min = min(map(int.bit_count, itertools.islice(
            _gray_walk(rows), 1, None)))
        built = log_rref(monkeypatch)
        grow = codes._subset_xors
        rounds = []
        monkeypatch.setattr(codes, "_subset_xors", lambda sizes, s: (
            rounds.append(s), grow(sizes, s)))
        for stop in range(n + 1):
            built.clear()
            rounds.clear()
            got = min_weight(rows, stop)
            if true_min > stop:
                assert got == true_min, stop
            else:
                assert true_min <= got <= stop, stop
            assert rounds[-1] < k - 2
            assert len(built) == 2 == sum(w <= rounds[-1] for w in due)

    def test_coset_walk_stop(self):
        # the coset t + span(others) of one row t is the set of messages
        # with bit i set; k = 1 leaves no other rows
        rng = random.Random(24)
        for k in range(1, BZ_MIN_K):
            for _ in range(6):
                n = rng.randrange(k, 3 * k + 3)
                gen = random_code(rng, n, k).gen.rows
                table = WeightTable(oracle.transpose(gen, n), k)
                rows = list(gen)
                i = rng.randrange(k)
                t = rows.pop(i)
                true_min = min((t ^ c).bit_count() for c in _gray_walk(rows))
                coset = [w for x, w in enumerate(table_lanes(table))
                         if x >> i & 1]
                assert min(coset) == true_min, (k, n)

    def test_min_weight_rejects_no_rows(self):
        with pytest.raises(ValueError):
            min_weight(())

    def test_parity_columns(self):
        # columns read off the RREF: each generator row's support sums
        # to zero, they span n - k dimensions, and the weight-w words they
        # give are the enumeration's, with zero and repeated columns
        rng = random.Random(28)
        for case in range(120):
            n = rng.randint(1, 16)
            k = (1, n - 1, n, rng.randint(1, n))[case % 4] or 1
            gen = random_code(rng, n, k).gen.rows
            if case % 3 and n > 1:
                cols = oracle.transpose(gen, n)
                cols[rng.randrange(n)] = 0
                cols[rng.randrange(n)] = cols[rng.randrange(n)]
                rows = oracle.transpose(cols, k)
                if oracle.rank(rows, n) == k:
                    gen = rows
            code = LinearCode(gen, n)
            cols = _parity_columns(code)
            assert len(cols) == n
            for r in gen:
                assert reduce(xor, (c for j, c in enumerate(cols)
                                    if r >> j & 1), 0) == 0
            assert gf2.rank(cols) == n - k
            for w in range(1, min(n, 4) + 1):
                expect = sorted(c for c in code.codewords()
                                if c.bit_count() == w)
                assert _low_weight_words(code, w) == expect, (n, k, w)

    def test_low_weight_words_match_enumeration(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randrange(2, 12)
            k = rng.randrange(1, n + 1)
            code = random_code(rng, n, k)
            for w in range(1, min(n, 6) + 1):
                expect = sorted(c for c in code.codewords()
                                if c.bit_count() == w)
                assert _low_weight_words(code, w) == expect



class TestWeightTable:
    """Every lane against the plain enumeration, across the lane widths."""

    def test_against_enumeration(self):
        # n = 2^m - 1 and 2^m are the last length of a lane width and
        # the first of the next one
        rng = random.Random(25)
        edges = [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64]
        for k in range(1, BZ_MIN_K):
            lengths = [n for n in edges if n >= k] + [
                rng.randrange(k, 71) for _ in range(3)]
            for n in lengths:
                gen = random_code(rng, n, k).gen.rows
                cols = oracle.transpose(gen, n)
                table = WeightTable(cols, k)
                weights = [0] * (1 << k)
                for x, c in enumerate(_gray_walk(gen)):
                    weights[x ^ x >> 1] = c.bit_count()
                assert table_lanes(table) == weights, (k, n)
                true_min = min(weights[1:])
                assert table.minimum(table.weights) == true_min
                for bound in range(n + 2):
                    assert table.at_least(table.weights, bound) == \
                        (true_min >= bound), (k, n, bound)
                    # at or above the true minimum, known comes back
                    assert table.minimum(table.weights, bound) == \
                        max(true_min, bound), (k, n, bound)
                # any new column, not only a flipped bit
                j = rng.randrange(n)
                cols[j] = rng.getrandbits(k)
                swapped = table.swap(j, table.pattern(cols[j]))
                assert swapped == WeightTable(cols, k).weights, (k, n)

    def test_keep_swap(self):
        # a walk of kept swaps stays equal to a rebuild
        rng = random.Random(26)
        for _ in range(20):
            n = rng.randrange(1, 40)
            k = rng.randrange(1, min(n, BZ_MIN_K - 1) + 1)
            cols = [rng.getrandbits(k) for _ in range(n)]
            table = WeightTable(cols, k)
            for _ in range(30):
                j = rng.randrange(n)
                i = rng.randrange(k)
                cols[j] ^= 1 << i
                f = table.patterns[j] ^ table.units[i]
                table.keep(j, f, table.swap(j, f))
            rebuilt = WeightTable(cols, k)
            assert table.weights == rebuilt.weights
            assert table.patterns == rebuilt.patterns

    def test_no_rows(self):
        table = WeightTable([0, 0, 0], 0)
        assert table.weights == 0
        assert table.minimum(table.weights) == 4  # no nonzero message


class TestPuncture:
    def test_repetition(self):
        assert C("111").puncture([1]) == C("11")

    def test_two_coords(self):
        assert C("111000", "000111").puncture([1, 4]) == C("1100", "0011")

    def test_full_space(self):
        p = C("10", "01").puncture([1])
        assert (p.n, p.k) == (1, 1)

    def test_rejects_bad_coords(self):
        with pytest.raises(ValueError):
            C("111").puncture([4])

    def test_accepts_one_shot_iterable(self):
        assert C("111").puncture(iter([1])) == C("11")
        assert C("110", "011").shorten(iter([1])) == C("11")

    def test_distance_monotonicity(self):
        rng = random.Random(18)
        for _ in range(100):
            n = rng.randrange(3, 12)
            k = rng.randrange(1, n - 1)
            code = random_code(rng, n, k)
            i = rng.randrange(1, n + 1)
            p = code.puncture([i])
            if p.k == code.k:
                assert p.min_distance() >= code.min_distance() - 1


class TestShorten:
    def test_even_code(self):
        assert C("110", "011").shorten([3]) == C("11")

    def test_repetition_collapses(self):
        assert C("11111").shorten([1]).k == 0

    def test_hamming_triple(self):
        found = False
        import itertools
        for T in itertools.combinations(range(1, 8), 3):
            s = HAMMING_7_4.shorten(T)
            if s.k == 1 and s.min_distance() >= 3:
                found = True
                break
        assert found

    def test_puncture_shorten_duality(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randrange(4, 12)
            k = rng.randrange(1, n)
            code = random_code(rng, n, k)
            size = rng.randrange(1, 4)
            T = sorted(rng.sample(range(1, n + 1), size))
            assert code.shorten(T) == code.dual().puncture(T).dual()


class TestWeightWords:
    def test_weight_words_match_enumeration(self):
        rng = random.Random(20)
        for _ in range(60):
            n = rng.randrange(2, 12)
            k = rng.randrange(1, n + 1)
            code = random_code(rng, n, k)
            w = rng.randrange(1, n + 1)
            expect = sorted(c for c in code.codewords()
                            if c.bit_count() == w)
            assert sorted(code.weight_words(w)) == expect


class TestGen1Format:
    def test_round_trip(self):
        code = C("111000", "000111")
        assert parse_gen1(format_gen1(code)).gen == code.gen

    def test_comments_and_blanks(self):
        text = "# generator\n\n3 1\n # row\n111\n"
        assert parse_gen1(text) == C("111")

    def test_width_error_has_line(self):
        with pytest.raises(ParseError) as e:
            parse_gen1("3 1\n11\n")
        assert e.value.line == 2

    @pytest.mark.parametrize("row", ["1_0", "+1", "0b1", " 10 "])
    def test_rejects_what_int_accepts(self, row):
        with pytest.raises(ParseError) as e:
            parse_gen1(f"{len(row)} 1\n{row}\n")
        assert e.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_gen1("3\n111\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_gen1("3 2\n111\n")

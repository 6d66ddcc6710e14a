"""Bit-packed GF(2) linear algebra: frozen examples and random invariants."""

import random

import pytest

import gf2_oracle as oracle
from lcdkit import gf2
from lcdkit.gf2 import BitMatrix, BitVector
from lcdkit.search import random_lcd_eo_code, random_lcd_oe_code


def M(*lines):
    return BitMatrix.from_strings(lines)


def V(s):
    return BitVector.from_string(s)


class TestBitVector:
    def test_weight_and_bounds(self):
        v = V("10110")
        assert v.weight() == 3
        assert 0 <= v.weight() <= v.length

    def test_rejects_overflow_bits(self):
        with pytest.raises(ValueError):
            BitVector(2, 0b100)

    @pytest.mark.parametrize("value", [5, None, [], ["1"], b"01"])
    def test_from_string_rejects_non_str(self, value):
        with pytest.raises(ValueError, match="not a 0/1 string"):
            BitVector.from_string(value)

    def test_inner_product_symmetric(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(1, 40)
            u = BitVector(n, rng.getrandbits(n))
            v = BitVector(n, rng.getrandbits(n))
            assert u.inner(v) == v.inner(u)

    def test_inner_product_bilinear(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randrange(1, 60)
            u, v, w = (BitVector(n, rng.getrandbits(n)) for _ in range(3))
            assert (u ^ v).inner(w) == u.inner(w) ^ v.inner(w)

    def test_string_round_trip(self):
        assert str(V("011010")) == "011010"

    @pytest.mark.parametrize("s", ["1_0", "+1", "0b1", " 10 "])
    def test_rejects_what_int_accepts(self, s):
        with pytest.raises(ValueError):
            V(s)


class TestRank:
    def test_identity(self):
        assert gf2.rank(BitMatrix.identity(3)) == 3

    def test_all_one_4x4(self):
        assert gf2.rank(M("1111", "1111", "1111", "1111")) == 1

    def test_j2(self):
        assert gf2.rank(M("01", "10")) == 2

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(3)
        for _ in range(200):
            r = rng.randrange(1, 10)
            c = rng.randrange(1, 10)
            A = BitMatrix.from_rows(
                (rng.getrandbits(c) for _ in range(r)), c)
            assert gf2.rank(A) == gf2.rank(A.transpose())

    def test_invertible_multiplication_preserves_rank(self):
        rng = random.Random(4)
        trials = 0
        while trials < 1000:
            n = rng.randrange(1, 16)
            c = rng.randrange(1, 64)
            P = BitMatrix.from_rows(
                (rng.getrandbits(n) for _ in range(n)), n)
            if gf2.rank(P) != n:
                continue
            A = BitMatrix.from_rows(
                (rng.getrandbits(c) for _ in range(n)), c)
            assert gf2.rank(P.mul(A)) == gf2.rank(A)
            trials += 1


class TestEliminate:
    def test_kept_rows_are_greedy_selection(self):
        rng = random.Random(23)
        for _ in range(300):
            r = rng.randrange(0, 10)
            c = rng.randrange(1, 8)
            rows = [rng.getrandbits(c) for _ in range(r)]
            greedy = []
            for i, row in enumerate(rows):
                chosen = [rows[j] for j in greedy]
                if gf2.rank(BitMatrix.from_rows(chosen + [row], c)) == \
                        len(chosen) + 1:
                    greedy.append(i)
            basis, kept = gf2.eliminate(rows)
            assert kept == greedy
            assert len(basis) == gf2.rank_of_rows(rows)

    def test_basis_pivots_are_lowest_bits(self):
        basis, kept = gf2.eliminate([0b110, 0b011, 0b101, 0b001])
        assert kept == [0, 1, 3]
        assert [col for col, _ in basis] == [1, 0, 2]
        for col, w in basis:
            assert (w & -w).bit_length() - 1 == col


class TestEchelon:
    """gf2.echelon against the textbook reduction in gf2_oracle."""

    @staticmethod
    def _cases():
        rng = random.Random(29)
        yield [], 0
        yield [], 5  # no rows
        yield [0], 1
        yield [1], 1
        yield [0, 0, 0], 4  # only zero rows
        for width in (1, 2, 63, 64, 65):
            # a lane int of m (width + 1) bits: 63 and 65 rows of width 63
            # put it on both sides of 512 bytes
            for m in (1, 2, 5, 17, 63, 65, 90):
                rows = [rng.getrandbits(width) for _ in range(m)]
                yield rows, width
                sparse = [r & rng.getrandbits(width) & rng.getrandbits(width)
                          for r in rows]
                yield sparse, width
                if m >= 3:
                    mixed = list(rows)
                    mixed[rng.randrange(m)] = 0  # a zero row
                    mixed[rng.randrange(m)] = mixed[rng.randrange(m)]
                    mixed[-1] = mixed[0] ^ mixed[1]  # a dependent row
                    yield mixed, width
                    # rank at most 3
                    yield [rows[i % 3] ^ (rows[(i + 1) % 3] if i % 2 else 0)
                           for i in range(m)], width
        for _ in range(200):  # tagged rows, as for information sets
            n = rng.randrange(1, 40)
            k = rng.randrange(1, 20)
            free = rng.getrandbits(n)
            rows = [rng.getrandbits(n) for _ in range(k)]
            yield [(r & free) | r << n for r in rows], 2 * n

    def test_against_reference(self):
        sides = set()
        for rows, width in self._cases():
            R, pivots = gf2.echelon(rows, width)
            assert (R, pivots) == oracle.rref(rows, width), (rows, width)
            assert isinstance(R, tuple) and isinstance(pivots, list)
            assert gf2.rref(BitMatrix(tuple(rows), width)) == \
                (BitMatrix(R, width), pivots)
            sides.add(len(rows) * (width + 1) > 512 * 8)
        assert sides == {False, True}


class TestGram:
    def test_identity(self):
        assert gf2.gram(BitMatrix.identity(2)) == BitMatrix.identity(2)

    def test_single_odd_row(self):
        assert gf2.gram(M("111")) == BitMatrix.from_rows([1], 1)

    def test_two_disjoint_odd_rows(self):
        assert gf2.gram(M("111000", "000111")) == BitMatrix.identity(2)

    def test_always_symmetric(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rng.randrange(1, 8)
            c = rng.randrange(1, 20)
            G = BitMatrix.from_rows(
                (rng.getrandbits(c) for _ in range(r)), c)
            S = gf2.gram(G)
            assert S == S.transpose()

    def test_matches_pairwise_definition(self):
        rng = random.Random(6)
        for r in [0, 1] + [rng.randrange(2, 51) for _ in range(60)]:
            c = rng.randrange(1, 70)
            G = BitMatrix.from_rows(
                (rng.getrandbits(c) for _ in range(r)), c)
            want = tuple(
                sum(((G.rows[i] & G.rows[j]).bit_count() & 1) << j
                    for j in range(r))
                for i in range(r))
            assert gf2.gram(G) == BitMatrix(want, r)


class TestInverse:
    def test_random_round_trip(self):
        rng = random.Random(41)
        for _ in range(100):
            k = rng.randrange(1, 12)
            A = BitMatrix.from_rows([rng.getrandbits(k) for _ in range(k)],
                                    k)
            if not gf2.is_nonsingular(A):
                with pytest.raises(ValueError):
                    gf2.inverse(A)
                continue
            inv = gf2.inverse(A)
            assert inv.mul(A) == BitMatrix.identity(k)
            assert A.mul(inv) == BitMatrix.identity(k)

    def test_singular(self):
        with pytest.raises(ValueError):
            gf2.inverse(M("11", "11"))
        with pytest.raises(ValueError):
            gf2.inverse(M("100", "010", "000"))

    def test_not_square(self):
        with pytest.raises(ValueError):
            gf2.inverse(M("110", "011"))

    def test_empty(self):
        assert gf2.inverse(BitMatrix((), 0)) == BitMatrix((), 0)


class TestSolve:
    def test_identity(self):
        x = gf2.solve(BitMatrix.identity(3), V("101"))
        assert x == V("101")

    def test_combination(self):
        x = gf2.solve(M("110", "011"), V("101"))
        assert x == V("11")

    def test_unsolvable(self):
        assert gf2.solve(M("110", "011"), V("100")) is None

    def test_random_round_trip(self):
        rng = random.Random(6)
        for _ in range(300):
            r = rng.randrange(1, 9)
            c = rng.randrange(1, 16)
            Mx = BitMatrix.from_rows(
                (rng.getrandbits(c) for _ in range(r)), c)
            coeff = BitVector(r, rng.getrandbits(r))
            b = BitVector(c, 0)
            for i in range(r):
                if coeff.get(i):
                    b ^= Mx.row(i)
            x = gf2.solve(Mx, b)
            assert x is not None
            back = BitVector(c, 0)
            for i in range(r):
                if x.get(i):
                    back ^= Mx.row(i)
            assert back == b
            assert back == b


class TestNullspace:
    def test_dimension(self):
        rng = random.Random(7)
        for _ in range(200):
            r = rng.randrange(1, 8)
            c = rng.randrange(1, 14)
            A = BitMatrix.from_rows(
                (rng.getrandbits(c) for _ in range(r)), c)
            N = gf2.nullspace(A)
            assert N.nrows == c - gf2.rank(A)
            for i in range(N.nrows):
                assert all((r & N.rows[i]).bit_count() % 2 == 0
                           for r in A.rows)


class TestCongruentNormalForm:
    def test_zero_form(self):
        G = M("11", "11")
        assert gf2.congruent_normal_form(G) == (G, 2, gf2.ABSENT)

    def test_rank_one_with_diagonal(self):
        B, s, kind = gf2.congruent_normal_form(M("1", "1"))
        assert (s, kind) == (1, gf2.ORTHONORMAL)
        assert B == M("0", "1")
        assert gf2.gram(B) == M("00", "01")

    def test_symplectic_block(self):
        G = M("110", "011")
        assert gf2.congruent_normal_form(G) == (G, 0, gf2.SYMPLECTIC)

    def test_no_rows(self):
        G = BitMatrix.zeros(0, 3)
        assert gf2.congruent_normal_form(G) == (G, 0, gf2.ABSENT)

    @staticmethod
    def _check_shape(N, s, kind):
        k = N.nrows
        for i in range(s):
            assert N.rows[i] == 0
        body = [(N.rows[i] >> s) for i in range(s, k)]
        assert (kind == gf2.ABSENT) == (s == k)
        if kind == gf2.SYMPLECTIC:
            assert (k - s) % 2 == 0
            for b in range(0, k - s, 2):
                assert body[b] == 2 << b
                assert body[b + 1] == 1 << b
        else:
            for i, row in enumerate(body):
                assert row == 1 << i

    def test_random_invariants(self):
        rng = random.Random(8)
        for _ in range(400):
            k = rng.randrange(1, 11)
            n = rng.randrange(1, 17)
            G = BitMatrix.from_rows((rng.getrandbits(n) for _ in range(k)), n)
            B, s, kind = gf2.congruent_normal_form(G)
            assert B.nrows == k and B.cols == n
            assert gf2.rank_of_rows(B.rows + G.rows) == gf2.rank(B) == \
                gf2.rank(G)
            assert s == k - gf2.rank(gf2.gram(G))
            odd = any(r.bit_count() & 1 for r in G.rows)
            assert (kind == gf2.ORTHONORMAL) == odd
            self._check_shape(gf2.gram(B), s, kind)

    @staticmethod
    def _inputs(rng):
        """Random generators, k <= 10 and n <= 16, drawn to reach every
        class the test checks for: k = 1, a zero column, self-orthogonal,
        LCD with either parity of code and dual, and a hull neither
        trivial nor whole."""
        for trial in range(900):
            n = rng.randrange(1, 17)
            k = rng.randrange(1, min(n, 10) + 1)
            way = trial % 4
            if way == 0:
                keep = rng.getrandbits(n)  # the zero columns
                rows = [rng.getrandbits(n) & keep for _ in range(k)]
            elif way == 1:
                # each row twice over, so every inner product is even
                half = max(n // 2, 1)
                rows = [x | x << half
                        for x in (rng.getrandbits(half) for _ in range(k))]
                n = 2 * half
            else:
                draw = random_lcd_oe_code if way == 2 else random_lcd_eo_code
                if way == 3:
                    k += k % 2
                if k > n:
                    continue
                try:
                    rows = list(draw(rng, n, k, max_tries=200).gen.rows)
                except RuntimeError:
                    continue
            yield BitMatrix.from_rows(rows, n)

    def test_reduces_rows_as_the_gram_matrix_form_does(self):
        rng = random.Random(18)
        seen = set()
        for G in self._inputs(rng):
            k, n = G.nrows, G.cols
            P, N, s = oracle.congruent_normal_form(oracle.gram(G.rows))
            kind = gf2.ABSENT if s == k else \
                gf2.ORTHONORMAL if N[s] >> s & 1 else gf2.SYMPLECTIC
            want = BitMatrix(tuple(oracle.mul(P, G.rows)), n)
            assert gf2.congruent_normal_form(G) == (want, s, kind)

            seen.add(kind)
            if k == 1:
                seen.add("k=1")
            if 0 in oracle.transpose(G.rows, n):
                seen.add("zero column")
            if oracle.rank(G.rows, n) < k:
                continue
            if s:
                seen.add("self-orthogonal" if s == k else "mixed hull")
                continue
            odd = any(r.bit_count() & 1 for r in G.rows)
            dual_even = oracle.in_span(G.rows, (1 << n) - 1, n)
            seen.add("LCD_" + "eo"[odd] + "oe"[dual_even])
        assert seen >= {gf2.ORTHONORMAL, gf2.SYMPLECTIC, gf2.ABSENT, "k=1",
                        "zero column", "self-orthogonal", "mixed hull",
                        "LCD_oo", "LCD_oe", "LCD_eo"}

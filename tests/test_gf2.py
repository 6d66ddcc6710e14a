"""Bit-packed GF(2) linear algebra on int rows: frozen examples, random
invariants and the textbook reference in gf2_oracle."""

import random

import pytest

import gf2_oracle as oracle
from lcdkit import gf2
from lcdkit.gf2 import BitMatrix, BitVector
from lcdkit.search import random_lcd_eo_code, random_lcd_oe_code


def M(*lines):
    """The int rows of a matrix written as 0/1 strings."""
    return BitMatrix.from_strings(lines).rows


def V(s):
    return gf2.parse_bits(s)


def identity(k):
    return tuple(1 << i for i in range(k))


def random_rows(rng, r, c):
    return tuple(rng.getrandbits(c) for _ in range(r))


class TestBitVector:
    def test_weight_and_bounds(self):
        v = BitVector.from_string("10110")
        assert (v.length, v.bits) == (5, 0b01101)
        assert v.bits.bit_count() == 3

    def test_rejects_overflow_bits(self):
        with pytest.raises(ValueError):
            BitVector(2, 0b100)

    @pytest.mark.parametrize("value", [5, None, [], ["1"], b"01"])
    def test_from_string_rejects_non_str(self, value):
        with pytest.raises(ValueError, match="not a 0/1 string"):
            BitVector.from_string(value)
        with pytest.raises(ValueError, match="not a 0/1 string"):
            gf2.parse_bits(value)

    def test_string_round_trip(self):
        assert gf2.format_bits(V("011010"), 6) == "011010"
        assert gf2.format_bits(V(""), 0) == ""
        assert gf2.format_bits(0, 3) == "000"
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(0, 70)
            bits = rng.getrandbits(n) if n else 0
            s = gf2.format_bits(bits, n)
            assert s == "".join(str(bits >> i & 1) for i in range(n))
            assert gf2.parse_bits(s) == bits
            assert BitVector.from_string(s) == BitVector(n, bits)

    @pytest.mark.parametrize("s", ["1_0", "+1", "0b1", " 10 "])
    def test_rejects_what_int_accepts(self, s):
        with pytest.raises(ValueError):
            V(s)


class TestBitMatrix:
    def test_parse_and_print(self):
        lines = ["0110", "1000", "0000"]
        B = BitMatrix.from_strings(lines)
        assert (B.rows, B.cols) == ((0b0110, 0b0001, 0), 4)
        assert str(B) == "\n".join(lines)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="ragged"):
            BitMatrix.from_strings(["01", "1"])
        with pytest.raises(ValueError, match="explicit column count"):
            BitMatrix.from_strings([])
        with pytest.raises(ValueError, match="beyond column count"):
            BitMatrix((0b100,), 2)


class TestRank:
    def test_identity(self):
        assert gf2.rank(identity(3)) == 3

    def test_all_one_4x4(self):
        assert gf2.rank(M("1111", "1111", "1111", "1111")) == 1

    def test_j2(self):
        assert gf2.rank(M("01", "10")) == 2

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(3)
        for _ in range(200):
            r = rng.randrange(1, 10)
            c = rng.randrange(1, 10)
            A = random_rows(rng, r, c)
            assert gf2.rank(A) == gf2.rank(gf2.transpose(A, c)) == \
                oracle.rank(A, c)

    def test_invertible_multiplication_preserves_rank(self):
        rng = random.Random(4)
        trials = 0
        while trials < 1000:
            n = rng.randrange(1, 16)
            c = rng.randrange(1, 64)
            P = random_rows(rng, n, n)
            if gf2.rank(P) != n:
                continue
            A = random_rows(rng, n, c)
            assert gf2.rank(gf2.mul(P, A)) == gf2.rank(A)
            trials += 1

    def test_old_name(self):
        # the benchmark's hooks name rank_of_rows; it is rank itself
        assert gf2.rank_of_rows is gf2.rank


class TestTranspose:
    def test_against_reference(self):
        rng = random.Random(9)
        cases = [((), 0), ((), 3), ((0, 0), 2)]
        cases += [(random_rows(rng, rng.randrange(0, 12), c), c)
                  for c in [rng.randrange(1, 70) for _ in range(300)]]
        for rows, width in cases:
            T = gf2.transpose(rows, width)
            assert isinstance(T, tuple) and len(T) == width
            assert list(T) == oracle.transpose(rows, width)
            assert gf2.transpose(T, len(rows)) == tuple(rows)


class TestMul:
    def test_against_reference(self):
        rng = random.Random(10)
        for _ in range(300):
            r, m, c = (rng.randrange(0, 12) for _ in range(3))
            A = random_rows(rng, r, m)
            B = random_rows(rng, m, c)
            P = gf2.mul(A, B)
            assert isinstance(P, tuple)
            assert list(P) == oracle.mul(A, B)
            assert gf2.mul(identity(r), P) == P
            # (A B)^T = B^T A^T
            assert gf2.transpose(P, c) == gf2.mul(gf2.transpose(B, c),
                                                  gf2.transpose(A, m))

    def test_identity(self):
        A = M("110", "011")
        assert gf2.mul(A, identity(3)) == A
        assert gf2.mul(identity(2), A) == A


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
                if oracle.rank(chosen + [row], c) == len(chosen) + 1:
                    greedy.append(i)
            basis, kept = gf2.eliminate(rows)
            assert kept == greedy
            assert len(basis) == gf2.rank(rows)

    def test_basis_pivots_are_lowest_bits(self):
        basis, kept = gf2.eliminate([0b110, 0b011, 0b101, 0b001])
        assert kept == [0, 1, 3]
        assert [col for col, _ in basis] == [1, 0, 2]
        for col, w in basis:
            assert (w & -w).bit_length() - 1 == col


class TestEchelon:
    """gf2.rref against the textbook reduction in gf2_oracle."""

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
            R, pivots = gf2.rref(rows, width)
            assert (R, pivots) == oracle.rref(rows, width), (rows, width)
            assert isinstance(R, tuple) and isinstance(pivots, list)
            sides.add(len(rows) * (width + 1) > 512 * 8)
        assert sides == {False, True}


class TestGram:
    def test_identity(self):
        assert gf2.gram(identity(2)) == identity(2)

    def test_single_odd_row(self):
        assert gf2.gram(M("111")) == (1,)

    def test_two_disjoint_odd_rows(self):
        assert gf2.gram(M("111000", "000111")) == identity(2)

    def test_always_symmetric(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rng.randrange(1, 8)
            c = rng.randrange(1, 20)
            S = gf2.gram(random_rows(rng, r, c))
            assert S == gf2.transpose(S, r)

    def test_matches_pairwise_definition(self):
        rng = random.Random(6)
        for r in [0, 1] + [rng.randrange(2, 51) for _ in range(60)]:
            c = rng.randrange(1, 70)
            G = random_rows(rng, r, c)
            assert gf2.gram(G) == tuple(oracle.gram(G))


class TestInverse:
    def test_random_round_trip(self):
        rng = random.Random(41)
        for _ in range(100):
            k = rng.randrange(1, 12)
            A = random_rows(rng, k, k)
            assert gf2.is_nonsingular(A) == (oracle.rank(A, k) == k)
            if not gf2.is_nonsingular(A):
                with pytest.raises(ValueError):
                    gf2.inverse(A)
                continue
            inv = gf2.inverse(A)
            assert gf2.mul(inv, A) == identity(k)
            assert gf2.mul(A, inv) == identity(k)

    def test_singular(self):
        with pytest.raises(ValueError):
            gf2.inverse(M("11", "11"))
        with pytest.raises(ValueError):
            gf2.inverse(M("100", "010", "000"))

    def test_not_square(self):
        # k rows are read as a k x k matrix: a wider row cannot be
        A = M("110", "011")
        with pytest.raises(ValueError, match="not square"):
            gf2.inverse(A)
        assert not gf2.is_nonsingular(A)
        assert not gf2.is_nonsingular(M("1", "1"))

    def test_empty(self):
        assert gf2.inverse(()) == ()
        assert gf2.is_nonsingular(())


class TestSolve:
    def test_identity(self):
        x = gf2.solve(identity(3), V("101"), 3)
        assert x == V("101")

    def test_combination(self):
        x = gf2.solve(M("110", "011"), V("101"), 3)
        assert x == V("11")

    def test_unsolvable(self):
        assert gf2.solve(M("110", "011"), V("100"), 3) is None

    def test_wider_than_width(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gf2.solve(M("110", "011"), V("0001"), 3)

    def test_random_round_trip(self):
        rng = random.Random(6)
        for _ in range(300):
            r = rng.randrange(1, 9)
            c = rng.randrange(1, 16)
            A = random_rows(rng, r, c)
            coeff = rng.getrandbits(r)
            (b,) = oracle.mul([coeff], A)
            x = gf2.solve(A, b, c)
            assert x is not None and x >> r == 0
            assert oracle.mul([x], A) == [b]
            # a word outside the row space has no solution
            w = rng.getrandbits(c)
            assert (gf2.solve(A, w, c) is None) == \
                (not oracle.in_span(A, w, c))


class TestNullspace:
    def test_dimension(self):
        rng = random.Random(7)
        for _ in range(200):
            r = rng.randrange(1, 8)
            c = rng.randrange(1, 14)
            A = random_rows(rng, r, c)
            N = gf2.nullspace(A, c)
            assert N == tuple(oracle.nullspace(A, c))
            assert len(N) == c - gf2.rank(A)
            for v in N:
                assert all((r & v).bit_count() % 2 == 0 for r in A)


class TestCongruentNormalForm:
    def test_zero_form(self):
        G = M("11", "11")
        assert gf2.congruent_normal_form(G) == (G, 2, gf2.ABSENT)
        assert gf2.congruent_normal_form(list(G)) == (G, 2, gf2.ABSENT)

    def test_rank_one_with_diagonal(self):
        B, s, kind = gf2.congruent_normal_form(M("1", "1"))
        assert (s, kind) == (1, gf2.ORTHONORMAL)
        assert B == M("0", "1")
        assert gf2.gram(B) == M("00", "01")

    def test_symplectic_block(self):
        G = M("110", "011")
        assert gf2.congruent_normal_form(G) == (G, 0, gf2.SYMPLECTIC)

    def test_no_rows(self):
        assert gf2.congruent_normal_form(()) == ((), 0, gf2.ABSENT)

    @staticmethod
    def _check_shape(N, s, kind):
        k = len(N)
        for i in range(s):
            assert N[i] == 0
        body = [(N[i] >> s) for i in range(s, k)]
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
            G = random_rows(rng, k, n)
            B, s, kind = gf2.congruent_normal_form(G)
            assert len(B) == k and max(B) >> n == 0
            assert gf2.rank(B + G) == gf2.rank(B) == gf2.rank(G)
            assert s == k - gf2.rank(gf2.gram(G))
            odd = any(r.bit_count() & 1 for r in G)
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
            yield tuple(rows), n

    def test_reduces_rows_as_the_gram_matrix_form_does(self):
        rng = random.Random(18)
        seen = set()
        for G, n in self._inputs(rng):
            k = len(G)
            P, N, s = oracle.congruent_normal_form(oracle.gram(G))
            kind = gf2.ABSENT if s == k else \
                gf2.ORTHONORMAL if N[s] >> s & 1 else gf2.SYMPLECTIC
            want = tuple(oracle.mul(P, G))
            assert gf2.congruent_normal_form(G) == (want, s, kind)

            seen.add(kind)
            if k == 1:
                seen.add("k=1")
            if 0 in oracle.transpose(G, n):
                seen.add("zero column")
            if oracle.rank(G, n) < k:
                continue
            if s:
                seen.add("self-orthogonal" if s == k else "mixed hull")
                continue
            odd = any(r.bit_count() & 1 for r in G)
            dual_even = oracle.in_span(G, (1 << n) - 1, n)
            seen.add("LCD_" + "eo"[odd] + "oe"[dual_even])
        assert seen >= {gf2.ORTHONORMAL, gf2.SYMPLECTIC, gf2.ABSENT, "k=1",
                        "zero column", "self-orthogonal", "mixed hull",
                        "LCD_oo", "LCD_oe", "LCD_eo"}

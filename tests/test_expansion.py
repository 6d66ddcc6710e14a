"""GF(2^m) arithmetic, self-dual bases, and binary expansion of codes."""

import random

import pytest

import field_oracle as fo
from lcdkit import expansion as xp
from lcdkit.codes import K_FULL, EngineBudgetError, LinearCode, ParseError

F4 = xp.ExtField.of_degree(2)
W, W2 = 2, 3  # the two primitive elements of GF(4)


def random_ext_code(rng, field, n, k):
    while True:
        rows = [[rng.randrange(field.order) for _ in range(n)]
                for _ in range(k)]
        try:
            return xp.ExtFieldCode(field, rows, n)
        except ValueError:
            continue


def random_rows(rng, field, n, k):
    """k random rows of length n, some with zero or repeated columns and
    some dependent."""
    rows = [[rng.randrange(field.order) for _ in range(n)]
            for _ in range(k)]
    if n > 1 and rng.random() < 0.3:  # a zero column
        j = rng.randrange(n)
        for r in rows:
            r[j] = 0
    if n > 1 and rng.random() < 0.3:  # a repeated column
        i, j = rng.sample(range(n), 2)
        for r in rows:
            r[j] = r[i]
    if k > 1 and rng.random() < 0.1:  # a dependent row
        c = rng.randrange(field.order)
        rows[-1] = [field.mul(c, v) for v in rows[0]]
    return rows


def random_oracle_codes(seed, count):
    """(field, basis, code) triples for m = 1..4 with m k <= 12, small
    enough for the field oracle's q^k walk."""
    rng = random.Random(seed)
    for m in (1, 2, 3, 4):
        F = xp.ExtField.of_degree(m)
        basis = xp.find_self_dual_basis(F)
        made = 0
        while made < count:
            n = rng.randrange(1, 10)
            k = rng.randrange(1, min(n, 12 // m) + 1)
            rows = random_rows(rng, F, n, k)
            if fo.rank(F, rows, n) == k:
                made += 1
                yield F, basis, xp.ExtFieldCode(F, rows, n)


class TestExtField:
    def test_field_axioms_exhaustive(self):
        for m in (1, 2, 3, 4):
            F = xp.ExtField.of_degree(m)
            q = F.order
            els = range(q)
            sample = els if q <= 8 else [0, 1, 2, 3, 5, 7, 11, 15]
            for a in sample:
                assert F.mul(a, 1) == a
                for b in sample:
                    assert F.mul(a, b) == F.mul(b, a)
                    for c in sample:
                        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))

    def test_inverse(self):
        # the oracle's elimination divides by the inverse it searches for
        for m in (1, 2, 3, 4):
            F = xp.ExtField.of_degree(m)
            for a in range(1, F.order):
                assert F.mul(a, fo.inv(F, a)) == 1
        with pytest.raises(ZeroDivisionError):
            fo.inv(F4, 0)

    def test_trace_values_f4(self):
        assert F4.trace(0) == 0
        assert F4.trace(1) == 0
        assert F4.trace(W) == 1
        assert F4.trace(W2) == 1

    def test_trace_linear(self):
        for m in (2, 3, 4):
            F = xp.ExtField.of_degree(m)
            for a in range(F.order):
                assert F.trace(a) in (0, 1)
                for b in range(F.order):
                    assert F.trace(a ^ b) == F.trace(a) ^ F.trace(b)

    def test_trace_outside_prime_field(self):
        # x^2 + 1 = (x + 1)^2 is reducible, so Tr(x) = x + x^2 = x + 1
        F = xp.ExtField(2, 0b101)
        with pytest.raises(xp.ExpansionError, match="prime field"):
            F.trace(0b10)
        assert issubclass(xp.ExpansionError, AssertionError)


class TestSelfDualBasis:
    def test_f4(self):
        basis = xp.find_self_dual_basis(F4)
        assert set(basis.alphas) == {W, W2}

    def test_f2(self):
        basis = xp.find_self_dual_basis(xp.ExtField.of_degree(1))
        assert basis.alphas == (1,)

    def test_f8_f16(self):
        for m in (3, 4):
            basis = xp.find_self_dual_basis(xp.ExtField.of_degree(m))
            basis.verify()

    def test_budget(self):
        with pytest.raises(EngineBudgetError):
            xp.find_self_dual_basis(xp.ExtField(5, 0b100101))

    def test_deterministic(self):
        assert xp.find_self_dual_basis(F4) == xp.find_self_dual_basis(F4)


class TestExpandVector:
    def setup_method(self):
        self.basis = xp.find_self_dual_basis(F4)

    def test_singletons(self):
        # entry i's coordinate j is bit 2 i + j
        assert xp.expand_vector(self.basis, [0]) == 0b00
        assert xp.expand_vector(self.basis, [1]) == 0b11
        assert xp.expand_vector(self.basis, [W]) == 0b01
        assert xp.expand_vector(self.basis, [W2]) == 0b10

    def test_linear(self):
        rng = random.Random(51)
        for _ in range(100):
            n = rng.randrange(1, 8)
            x = [rng.randrange(4) for _ in range(n)]
            y = [rng.randrange(4) for _ in range(n)]
            s = [a ^ b for a, b in zip(x, y)]
            assert xp.expand_vector(self.basis, s) == \
                xp.expand_vector(self.basis, x) ^ \
                xp.expand_vector(self.basis, y)

    def test_inner_product_is_trace(self):
        rng = random.Random(52)
        for _ in range(200):
            n = rng.randrange(1, 9)
            x = [rng.randrange(4) for _ in range(n)]
            y = [rng.randrange(4) for _ in range(n)]
            ip = 0
            for a, b in zip(x, y):
                ip ^= F4.mul(a, b)
            both = xp.expand_vector(self.basis, x) & \
                xp.expand_vector(self.basis, y)
            assert both.bit_count() & 1 == F4.trace(ip)


class TestExpandCode:
    def setup_method(self):
        self.basis = xp.find_self_dual_basis(F4)

    def test_unit_code(self):
        C = xp.ExtFieldCode(F4, [[1]], 1)
        out = xp.expand_code(C, self.basis)
        assert (out.n, out.k) == (2, 2)
        assert out == LinearCode.from_strings(["10", "01"])

    def test_length_two(self):
        C = xp.ExtFieldCode(F4, [[1, W]], 2)
        out = xp.expand_code(C, self.basis)
        assert (out.n, out.k) == (4, 2)
        words = {c for c in out.codewords()}
        expect = {xp.expand_vector(self.basis, w) for w in fo.codewords(C)}
        assert words == expect

    def test_zero_dimensional(self):
        C = xp.ExtFieldCode(F4, [], 3)
        out = xp.expand_code(C, self.basis)
        assert (out.n, out.k) == (6, 0)

    def test_hull_commutes(self):
        for F, basis, C in random_oracle_codes(53, 60):
            out = xp.expand_code(C, basis)
            h = fo.hull_dimension(C)
            assert out.hull() == xp.expand_code(fo.hull(C), basis)
            assert out.hull_dimension() == F.m * h
            assert C.hull_dimension() == h, C
            assert out.is_lcd() == C.is_lcd() == (h == 0)

    def test_distance_preserved(self):
        for F, basis, C in random_oracle_codes(54, 40):
            d = fo.min_distance(C)
            assert C.min_distance() == d, C
            assert xp.expand_code(C, basis).min_distance() >= d

    def test_self_orthogonal_transfer(self):
        # (1,1) over GF(4) spans a self-dual [2,1] code
        C = xp.ExtFieldCode(F4, [[1, 1]], 2)
        assert C.hull_dimension() == 1
        out = xp.expand_code(C, self.basis)
        assert out.hull_dimension() == out.k == 2
        assert out == out.dual()

    def test_rejects_field_mismatch(self):
        C = xp.ExtFieldCode(xp.ExtField.of_degree(3), [[1]], 1)
        with pytest.raises(ValueError):
            xp.expand_code(C, self.basis)


class TestExpansionBound:
    """The extension-field parameters an expansion bound is read from."""

    def test_bound_instance(self):
        assert xp.expansion_indices(42, 30, 2) == (21, 15)

    def test_identity_degree(self):
        assert xp.expansion_indices(10, 4, 1) == (10, 4)

    def test_floor_ceiling(self):
        assert xp.expansion_indices(43, 31, 2) == (21, 16)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            xp.expansion_indices(0, 1, 2)


class TestExtFieldCode:
    def test_rank_check(self):
        with pytest.raises(ValueError, match="full row rank"):
            xp.ExtFieldCode(F4, [[1, W], [W, W2]], 2)

    def test_min_distance(self):
        C = xp.ExtFieldCode(F4, [[1, W, 0]], 3)
        assert C.min_distance() == 2

    def test_min_distance_budget(self):
        # m k = 28 > K_FULL: refused before any codeword is walked
        rows = [[int(i == j) for j in range(14)] for i in range(14)]
        assert 2 * 14 > K_FULL
        with pytest.raises(EngineBudgetError):
            xp.ExtFieldCode(F4, rows, 14).min_distance()

    def test_zero_code(self):
        C = xp.ExtFieldCode(F4, [], 3)
        assert (C.k, C.hull_dimension(), C.is_lcd()) == (0, 0, True)
        with pytest.raises(ValueError, match="zero code"):
            C.min_distance()

    def test_image(self):
        C = xp.ExtFieldCode(F4, [[1, W]], 2)
        assert C.image == xp.expand_code(C, xp.find_self_dual_basis(F4))
        assert C == xp.ExtFieldCode(F4, [[1, W]], 2)

    def test_rank_check_matches_field_oracle(self):
        rng = random.Random(56)
        outcomes = set()
        for _ in range(200):
            F = xp.ExtField.of_degree(rng.randrange(1, 5))
            n = rng.randrange(1, 8)
            k = rng.randrange(1, n + 2)
            rows = random_rows(rng, F, n, k)
            full = fo.rank(F, rows, n) == k
            outcomes.add(full)
            if full:
                assert xp.ExtFieldCode(F, rows, n).k == k
            else:
                with pytest.raises(ValueError, match="full row rank"):
                    xp.ExtFieldCode(F, rows, n)
        assert outcomes == {True, False}

    def test_gram_symmetric(self):
        rng = random.Random(55)
        C = random_ext_code(rng, F4, 5, 3)
        g = fo.gram(C)
        assert g == [list(r) for r in zip(*g)]


class TestExtgen1Format:
    TEXT = "3 2 2\n1 2 0\n0 1 3\n"

    def test_roundtrip(self):
        C = xp.parse_extgen1(self.TEXT)
        assert (C.n, C.k, C.field.m) == (3, 2, 2)
        assert xp.format_extgen1(C) == self.TEXT

    def test_comments_and_blanks(self):
        C = xp.parse_extgen1("# header\n\n2 1 3  # inline\n5 0\n")
        assert C.gen == ((5, 0),)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as ei:
            xp.parse_extgen1("3 2 2\n1 2 9\n0 1 3\n")
        assert ei.value.line == 2
        with pytest.raises(ParseError):
            xp.parse_extgen1("3 2 7\n")
        with pytest.raises(ParseError):
            xp.parse_extgen1("")

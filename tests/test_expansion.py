"""GF(2^m) arithmetic, self-dual bases, and binary expansion of codes."""

import random

import pytest

from lcdkit import expansion as xp
from lcdkit.codes import EngineBudgetError, LinearCode, ParseError

F4 = xp.ExtField.of_degree(2)
W, W2 = 2, 3  # the two primitive elements of GF(4)


def random_ext_code(rng, field, n, k):
    while True:
        rows = [[rng.randrange(field.order) for _ in range(n)]
                for _ in range(k)]
        try:
            return xp.ExtFieldCode.from_rows(field, rows, n)
        except ValueError:
            continue


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
        for m in (2, 3, 4):
            F = xp.ExtField.of_degree(m)
            for a in range(1, F.order):
                assert F.mul(a, F.inv(a)) == 1

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
        assert str(xp.expand_vector(self.basis, [0])) == "00"
        assert str(xp.expand_vector(self.basis, [1])) == "11"
        assert str(xp.expand_vector(self.basis, [W])) == "10"
        assert str(xp.expand_vector(self.basis, [W2])) == "01"

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
            assert xp.expand_vector(self.basis, x).inner(
                xp.expand_vector(self.basis, y)) == F4.trace(ip)


class TestExpandCode:
    def setup_method(self):
        self.basis = xp.find_self_dual_basis(F4)

    def test_unit_code(self):
        C = xp.ExtFieldCode.from_rows(F4, [[1]], 1)
        out = xp.expand_code(C, self.basis)
        assert (out.n, out.k) == (2, 2)
        assert out == LinearCode.from_strings(["10", "01"])

    def test_length_two(self):
        C = xp.ExtFieldCode.from_rows(F4, [[1, W]], 2)
        out = xp.expand_code(C, self.basis)
        assert (out.n, out.k) == (4, 2)
        words = {c for c in out.codewords()}
        expect = {xp.expand_vector(self.basis, w).bits
                  for w in C.codewords()}
        assert words == expect

    def test_zero_dimensional(self):
        C = xp.ExtFieldCode.from_rows(F4, [], 3)
        out = xp.expand_code(C, self.basis)
        assert (out.n, out.k) == (6, 0)

    def test_hull_commutes(self):
        rng = random.Random(53)
        for _ in range(150):
            n = rng.randrange(1, 9)
            k = rng.randrange(1, n + 1)
            C = random_ext_code(rng, F4, n, k)
            out = xp.expand_code(C, self.basis)
            assert out.hull() == xp.expand_code(C.hull(), self.basis)
            assert out.is_lcd() == C.is_lcd()
            assert out.hull_dimension() == 2 * C.hull_dimension()

    def test_distance_preserved(self):
        rng = random.Random(54)
        for _ in range(60):
            n = rng.randrange(1, 7)
            k = rng.randrange(1, n + 1)
            C = random_ext_code(rng, F4, n, k)
            out = xp.expand_code(C, self.basis)
            assert out.min_distance() >= C.min_distance()

    def test_self_orthogonal_transfer(self):
        # (1,1) over GF(4) spans a self-dual [2,1] code
        C = xp.ExtFieldCode.from_rows(F4, [[1, 1]], 2)
        assert C.hull_dimension() == 1
        out = xp.expand_code(C, self.basis)
        assert out.hull_dimension() == out.k == 2
        assert out == out.dual()

    def test_rejects_field_mismatch(self):
        C = xp.ExtFieldCode.from_rows(xp.ExtField.of_degree(3), [[1]], 1)
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
        with pytest.raises(ValueError):
            xp.ExtFieldCode.from_rows(F4, [[1, W], [W, W2]], 2)

    def test_min_distance(self):
        C = xp.ExtFieldCode.from_rows(F4, [[1, W, 0]], 3)
        assert C.min_distance() == 2

    def test_min_distance_budget(self):
        # m k = 22 > MK_MAX: refused before any codeword is walked
        rows = [[int(i == j) for j in range(11)] for i in range(11)]
        with pytest.raises(EngineBudgetError):
            xp.ExtFieldCode.from_rows(F4, rows, 11).min_distance()

    def test_gram_symmetric(self):
        rng = random.Random(55)
        C = random_ext_code(rng, F4, 5, 3)
        g = C.gram()
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

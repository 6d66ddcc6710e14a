"""Gram normal forms: hull, orthonormal, symplectic and subcode bases."""

import random
from types import SimpleNamespace

import pytest

from lcdkit import gf2, normal_form as nf
from lcdkit.codes import LinearCode
from lcdkit.gf2 import BitMatrix
from random_codes import (random_code, random_lcd_code, random_lcd_eo_code,
                          random_lcd_oe_code)

HAMMING_7_4 = LinearCode.from_strings([
    "1101000",
    "0110100",
    "1110010",
    "1010001",
])


def C(*lines):
    return LinearCode.from_strings(lines)


class TestHullNormalBasis:
    def test_lcd_oo(self):
        cert = nf.hull_normal_basis(C("100", "010"))
        assert cert.shape.s == 0
        assert gf2.gram(cert.basis) == (0b01, 0b10)

    def test_self_orthogonal(self):
        cert = nf.hull_normal_basis(C("11"))
        assert cert.shape.s == 1
        assert gf2.gram(cert.basis) == (0,)

    def test_hamming(self):
        cert = nf.hull_normal_basis(HAMMING_7_4)
        assert cert.shape.s == 3
        assert cert.shape.a1_kind == nf.ORTHONORMAL
        assert gf2.gram(cert.basis) == (0, 0, 0, 0b1000)

    def test_random_certificates(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randrange(1, 14)
            k = rng.randrange(1, n + 1)
            code = random_code(rng, n, k)
            cert = nf.hull_normal_basis(code)
            cert.verify()
            assert cert.shape.s == code.hull_dimension()
            assert LinearCode(cert.basis, n) == code
            # leading rows span the hull
            lead = cert.basis[:cert.shape.s]
            assert gf2.rref(lead, n)[0] == code.hull().rref()


class TestOrthonormalBasis:
    def test_identity(self):
        assert nf.orthonormal_basis(C("100", "010", "001")) == \
            (0b001, 0b010, 0b100)

    def test_already_orthonormal(self):
        B = nf.orthonormal_basis(C("111000", "000111"))
        assert gf2.gram(B) == (0b01, 0b10)

    def test_full_space(self):
        B = nf.orthonormal_basis(C("110", "011", "111"))
        assert gf2.gram(B) == (0b001, 0b010, 0b100)

    def test_rejects_even_like(self):
        with pytest.raises(ValueError):
            nf.orthonormal_basis(C("1100", "0110"))

    def test_rejects_non_lcd(self):
        with pytest.raises(ValueError):
            nf.orthonormal_basis(C("11"))

    def test_all_one_sum_iff_oe(self):
        rng = random.Random(32)
        for _ in range(120):
            n = rng.randrange(2, 16)
            k = rng.randrange(1, n + 1)
            code = random_code(rng, n, k)
            if not code.is_lcd() or code.is_even_like():
                continue
            B = nf.orthonormal_basis(code)
            total = 0
            for r in B:
                total ^= r
            is_all_one = total == (1 << n) - 1
            assert is_all_one == code.contains_all_one()


class TestSymplecticBasis:
    """An even-like LCD code's hull-normal basis is symplectic."""

    @staticmethod
    def basis(code):
        cert = nf.hull_normal_basis(code)
        assert (cert.shape.s, cert.shape.a1_kind) == (0, gf2.SYMPLECTIC)
        return cert.basis

    def test_two_dim(self):
        B = self.basis(C("1100", "0110"))
        assert gf2.gram(B) == BitMatrix.from_strings(["01", "10"]).rows

    def test_direct_sum(self):
        code = C("11000000", "01100000", "00001100", "00000110")
        B = self.basis(code)
        assert gf2.gram(B) == BitMatrix.from_strings(
            ["0100", "1000", "0001", "0010"]).rows

    def test_non_lcd_has_hull_rows(self):
        # the hull row comes first, so no basis of [11] is symplectic
        cert = nf.hull_normal_basis(C("11"))
        assert (cert.shape.s, cert.shape.a1_kind) == (1, gf2.ABSENT)

    def test_random(self):
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randrange(4, 14)
            k = rng.choice([2, 4])
            try:
                code = random_lcd_eo_code(rng, n, k, max_tries=4000)
            except RuntimeError:
                continue
            B = self.basis(code)
            G = gf2.gram(B)
            for b in range(0, k, 2):
                assert G[b] == 2 << b
                assert G[b + 1] == 1 << b


def _random_subcode(rng, code, k1):
    while True:
        rows = []
        for _ in range(k1):
            coeff = rng.randrange(1, 1 << code.k)
            acc = 0
            for j in range(code.k):
                if (coeff >> j) & 1:
                    acc ^= code.gen.rows[j]
            rows.append(acc)
        if gf2.rank(rows) == k1:
            return LinearCode(rows, code.n)


class TestSubcodeNormalForm:
    def test_identity_split(self):
        cert = nf.subcode_normal_form(C("10", "01"), C("10"))
        assert cert.shape.s == 0
        assert cert.shape.a1_kind == nf.ORTHONORMAL
        assert cert.shape.a3_kind == nf.ORTHONORMAL

    def test_odd_subcode(self):
        cert = nf.subcode_normal_form(C("1000", "0111"), C("0111"))
        assert (cert.shape.s, cert.shape.a1_kind, cert.shape.a3_kind) == \
            (0, nf.ORTHONORMAL, nf.ORTHONORMAL)

    def test_self_orthogonal_subcode(self):
        cert = nf.subcode_normal_form(C("110", "011", "111"), C("110"))
        assert cert.shape.s == 1
        assert cert.shape.a1_kind == nf.ABSENT
        assert cert.shape.t == 1

    def test_zero_subcode(self):
        cert = nf.subcode_normal_form(C("1000", "0111"), LinearCode((), 4))
        assert cert.shape.k1 == 0 and cert.shape.t == 2

    def test_rejects_non_subcode(self):
        with pytest.raises(ValueError):
            nf.subcode_normal_form(C("1000", "0111"), C("1100"))

    def test_rejects_full_dimension(self):
        with pytest.raises(ValueError):
            nf.subcode_normal_form(C("10", "01"), C("11", "01"))

    def test_random_certificates(self):
        rng = random.Random(34)
        done = 0
        while done < 150:
            n = rng.randrange(3, 14)
            k = rng.randrange(2, n + 1)
            # every other code contains 1_n, the step-down's input class
            draw = random_lcd_oe_code if done % 2 else random_lcd_code
            try:
                code = draw(rng, n, k, max_tries=300)
            except RuntimeError:
                continue
            if code.is_even_like():
                continue
            k1 = rng.randrange(0, k)
            D = _random_subcode(rng, code, k1) if k1 else LinearCode((), n)
            cert = nf.subcode_normal_form(code, D)
            cert.verify()
            assert cert.shape.s == D.hull_dimension() if k1 else \
                cert.shape.s == 0
            assert cert.shape.t == k - k1 - cert.shape.s
            # Remark: two symplectic blocks force at least one coupled one
            if cert.shape.a1_kind == nf.SYMPLECTIC and \
                    cert.shape.a3_kind == nf.SYMPLECTIC:
                assert cert.shape.s1 >= 1
            done += 1


def _break_gf2(monkeypatch, **fakes):
    """Give normal_form a gf2 with the named functions replaced."""
    monkeypatch.setattr(nf, "gf2", SimpleNamespace(**{**vars(gf2), **fakes}))


def _drop_last_kept(rows):
    basis, kept = gf2.eliminate(rows)
    return basis, kept[:-1]


class TestNormalFormError:
    """Each invariant raises NormalFormError, an AssertionError, also
    under python -O."""

    def test_is_an_assertion_error(self):
        assert issubclass(nf.NormalFormError, AssertionError)

    def test_extension_loses_a_row(self, monkeypatch):
        _break_gf2(monkeypatch, eliminate=_drop_last_kept)
        with pytest.raises(nf.NormalFormError, match="does not extend"):
            nf.subcode_normal_form(C("1000", "0111"), C("0111"))

    def test_singular_trailing_block(self, monkeypatch):
        def singular(rows):
            B, _, kind = gf2.congruent_normal_form(rows)
            return B, 1, kind
        D = C("0111")
        dcert = nf.hull_normal_basis(D)  # its own reduction stays intact
        monkeypatch.setattr(nf, "hull_normal_basis", lambda code: dcert)
        _break_gf2(monkeypatch, congruent_normal_form=singular)
        with pytest.raises(nf.NormalFormError, match="trailing block"):
            nf.subcode_normal_form(C("1000", "0111"), D)

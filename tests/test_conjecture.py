"""Distance step-down engine: puncture pairs, column appends, certificates."""

import json
import random

import pytest

from lcdkit import conjecture as cj
from lcdkit import gf2, tables
from lcdkit import normal_form as nf
from lcdkit.codes import BZ_MIN_K, LinearCode
from lcdkit.gf2 import BitMatrix, BitVector
from lcdkit.search import random_lcd_oe_code


def C(*lines):
    return LinearCode.from_strings(lines)


WORKED = C("111000", "000111")  # [6,2,3], odd-like LCD containing 1_6


def oe_corpus(seed, count, n_range=(4, 12)):
    """Random odd-like LCD codes with even-like dual, d >= 3, k >= 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(*n_range)
        k = rng.randrange(2, max(3, n - 1))
        try:
            code = random_lcd_oe_code(rng, n, k, max_tries=500)
        except RuntimeError:
            continue
        if code.min_distance() >= 3:
            out.append(code)
    return out


class TestGoodPuncturePairs:
    def test_worked_instance(self):
        wits = cj.good_puncture_pairs(WORKED, 1)
        assert [w.v for w in wits] == [2, 3]
        assert all(w.punctured.is_lcd() for w in wits)
        assert wits[0].punctured == C("1000", "0111")

    def test_coordinate_symmetry(self):
        wits = cj.good_puncture_pairs(WORKED, 4)
        assert [w.v for w in wits] == [5, 6]

    def test_rejects_small_distance(self):
        with pytest.raises(ValueError):
            cj.good_puncture_pairs(C("10", "01"), 1)

    def test_rejects_wrong_class(self):
        # even-like LCD code
        with pytest.raises(ValueError):
            cj.good_puncture_pairs(C("1100", "0110"), 1)

    def test_witness_count_bound(self):
        for code in oe_corpus(41, 30):
            d = code.min_distance()
            for u in range(1, code.n + 1):
                wits = cj.good_puncture_pairs(code, u)
                assert len(wits) >= d - 1
                for w in wits:
                    built = code.puncture([w.u, w.v])
                    assert built.is_lcd()
                    assert w.dmin == built.min_distance(engine="full")
                    assert w.dmin >= d - 2
                    assert w.punctured == built

    def test_distance_without_table(self):
        # from BZ_MIN_K rows on the pair distances come from min_weight
        rng = random.Random(47)
        code = None
        while code is None or code.min_distance() < 3:
            code = random_lcd_oe_code(rng, BZ_MIN_K + 8, BZ_MIN_K)
        for u in (1, code.n):
            for w in cj.good_puncture_pairs(code, u):
                built = code.puncture([w.u, w.v])
                assert built.is_lcd()
                assert w.dmin == built.min_distance(engine="full")

    def test_built_code_must_match_verdict(self):
        # a witness whose built code is not LCD contradicts the pair lemma
        W = cj.PunctureWitness(source=C("0011"), u=1, v=2, dmin=2)
        with pytest.raises(cj.ConjectureError, match="is not LCD"):
            W.punctured

    def test_pair_lemma(self):
        # C^{u,v} is LCD for exactly the v returned, and C^u has hull
        # dimension 1, for every u
        codes = oe_corpus(49, 30) + [
            code for n in range(4, 10) for code in tables.all_one_lcd_codes(n)]
        for code in codes:
            for u in range(1, code.n + 1):
                lcd = {v for v in range(1, code.n + 1)
                       if v != u and code.puncture([u, v]).is_lcd()}
                assert lcd == {w.v for w in cj.good_puncture_pairs(code, u)}
                assert code.puncture([u]).hull_dimension() == 1


class TestMinWeightSpanPunctured:
    """The span of C^{u,v}'s weight-(d-2) words, which the extension
    route lifts."""

    def test_worked_instance(self):
        W = cj.good_puncture_pairs(WORKED, 1)[0]
        span = W.punctured.codeword_span(1)
        assert span == C("1000")

    def test_second_pair_by_enumeration(self):
        W = cj.good_puncture_pairs(WORKED, 1)[1]
        span = W.punctured.codeword_span(1)
        words = [c for c in W.punctured.codewords()
                 if c and c.bit_count() == 1]
        expect = gf2.rref(BitMatrix.from_rows(words, W.punctured.n))[0]
        assert span.rref() == expect


class TestColumnAppendOdd:
    def test_worked_instance(self):
        out = cj.column_append_odd(C("1000", "0111"),
                                   BitVector.from_string("1"))
        assert out == C("10001", "01111")
        assert out.is_lcd()

    def test_zero_prefix(self):
        out = cj.column_append_odd(C("1000", "0111"),
                                   BitVector.from_string("0"))
        assert out == C("10000", "01110")
        assert out.is_lcd()

    def test_identity_code(self):
        out = cj.column_append_odd(C("100", "010", "001"),
                                   BitVector.from_string("11"))
        assert out == C("1001", "0101", "0010")
        assert out.is_lcd()

    def test_rejects_bad_orthogonality(self):
        # last row not orthogonal to the first
        with pytest.raises(ValueError):
            cj.column_append_odd(C("110", "011"), BitVector(1, 0))

    def test_always_lcd_on_corpus(self):
        rng = random.Random(43)
        for code in oe_corpus(44, 15):
            basis = nf.orthonormal_basis(code)
            base = code.with_generator(basis)
            for _ in range(8):
                y = BitVector(code.k - 1, rng.randrange(1 << (code.k - 1)))
                assert cj.column_append_odd(base, y).is_lcd()


class TestExtendAfterPuncture:
    def test_worked_instance(self):
        W = cj.good_puncture_pairs(WORKED, 1)[0]
        span = W.punctured.codeword_span(1)
        out, info = cj.extend_after_puncture(W, span)
        assert out == C("10001", "01111")
        assert out.is_lcd() and out.min_distance() == 2
        assert info == {"c": "0111", "y": "11"}

    def test_rejects_all_one_in_span(self):
        W = cj.PunctureWitness(source=C("001000", "000111"), u=1, v=2,
                               dmin=1)
        span = LinearCode(gf2.rref(BitMatrix.from_strings(
            ["1000", "0111"]))[0])
        with pytest.raises(ValueError):
            cj.extend_after_puncture(W, span)


class TestCertifyStepDown:
    def test_worked_instance(self):
        cert = cj.certify_step_down(WORKED)
        cert.verify()
        assert cert.input_params == (6, 2, 3)
        assert cert.output.n == 5 and cert.output.k == 2
        assert cert.output.is_lcd()
        assert cert.output.min_distance() >= 2

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            cj.certify_step_down(C("111"))

    def test_rejects_low_distance(self):
        with pytest.raises(ValueError):
            cj.certify_step_down(C("1111", "1000"))

    def test_trace_serializes(self):
        cert = cj.certify_step_down(WORKED)
        lines = cert.trace_jsonl().splitlines()
        assert lines
        entries = [json.loads(line) for line in lines]
        assert entries[0]["op"] == "puncture_pair"
        assert entries[0]["u"] >= 1

    def test_corpus_totality(self):
        for code in oe_corpus(45, 40):
            d = code.min_distance()
            cert = cj.certify_step_down(code)
            cert.verify()
            out = cert.output
            assert out.n == code.n - 1 and out.k == code.k
            assert out.is_lcd()
            assert out.min_distance(engine="full") >= d - 1
            assert cert.route in (cj.ROUTE_PADDED, cj.ROUTE_EXTENSION)

    def test_padded_route_builds_one_pair(self, monkeypatch):
        built = []
        puncture = LinearCode.puncture

        def counting(self, T):
            built.append(tuple(T))
            return puncture(self, T)

        monkeypatch.setattr(LinearCode, "puncture", counting)
        padded = 0
        for code in tables.all_one_lcd_codes(8):
            built.clear()
            cert = cj.certify_step_down(code)
            if cert.route != cj.ROUTE_PADDED:
                continue
            padded += 1
            pair = cert.trace[0]
            u = pair["u"]
            # the pair it uses, and no single-coordinate puncture
            assert built == [(u, pair["v"])]
        assert padded

    def test_one_orthonormal_basis_per_code(self, monkeypatch):
        calls = []
        basis = nf.orthonormal_basis

        def counting(code):
            calls.append(code)
            return basis(code)

        monkeypatch.setattr(nf, "orthonormal_basis", counting)
        routes = set()
        for code in tables.all_one_lcd_codes(9):
            calls.clear()
            fresh = LinearCode.from_rows(code.gen.rows, code.n)
            routes.add(cj.certify_step_down(fresh).route)
            assert calls == [fresh]
        assert routes == {cj.ROUTE_PADDED, cj.ROUTE_EXTENSION}


class TestPunctureLiftProperties:
    def test_all_one_lifts_and_unequal_pairs(self):
        for code in oe_corpus(46, 15):
            d = code.min_distance()
            wits = cj.good_puncture_pairs(code, 1)
            W = wits[0]
            n = code.n
            # the all-one vector of the punctured code lifts to 1_n
            assert W.punctured.contains(BitVector.ones(W.punctured.n))
            if W.dmin > d - 2:
                continue
            span = W.punctured.codeword_span(d - 2)
            bits_u, bits_v = W.u - 1, W.v - 1
            for c in code.codewords():
                if ((c >> bits_u) & 1) != ((c >> bits_v) & 1):
                    from lcdkit.codes import _drop_bits
                    proj = _drop_bits(c, (W.u, W.v))
                    assert not span.contains(BitVector(span.n, proj))


class TestConjectureError:
    """Broken invariants raise ConjectureError, an AssertionError, also
    under python -O."""

    def test_is_an_assertion_error(self):
        assert issubclass(cj.ConjectureError, AssertionError)


    def test_no_completing_entry(self, monkeypatch):
        # the length-4 input stays LCD, every length-5 completion is not
        monkeypatch.setattr(LinearCode, "is_lcd", lambda self: self.n == 4)
        with pytest.raises(cj.ConjectureError, match="no completing entry"):
            cj.column_append_odd(C("1000", "0111"),
                                 BitVector.from_string("1"))


def _plain_rank(rows):
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def _plain_min_weight(rows):
    best = None
    for mask in range(1, 1 << len(rows)):
        word = 0
        for i, r in enumerate(rows):
            if (mask >> i) & 1:
                word ^= r
        w = bin(word).count("1")
        best = w if best is None else min(best, w)
    return best


def _check_step_down(rows, n1, cert):
    """The certificate against its input rows, with plain ints only."""
    k = len(rows)
    d = _plain_min_weight(rows)
    pair = cert.trace[0]
    assert pair["op"] == "puncture_pair"
    keep = [j for j in range(n1) if j not in (pair["u"] - 1, pair["v"] - 1)]
    punctured = [sum(((r >> j) & 1) << i for i, j in enumerate(keep))
                 for r in rows]
    n = n1 - 1
    out = list(cert.output.gen.rows)
    assert cert.output.n == n and len(out) == k
    assert all(r >> n == 0 for r in out)
    trimmed = [r & ((1 << (n - 1)) - 1) for r in out]
    assert _plain_rank(punctured) == _plain_rank(trimmed) == k
    assert _plain_rank(punctured + trimmed) == k
    gram = [sum((bin(a & b).count("1") & 1) << j for j, b in enumerate(out))
            for a in out]
    assert _plain_rank(gram) == k
    assert _plain_min_weight(out) >= d - 1


class TestCertificateAgainstInput:
    """Each certificate re-checked against its input by plain-int code
    that shares nothing with conjecture or normal_form."""

    def test_corpus_and_equivalent_copies(self):
        rng = random.Random(48)
        routes = set()
        count = 0
        for length in range(4, 11):
            for code in tables.all_one_lcd_codes(length):
                n, k = code.n, code.k
                rows = list(code.gen.rows)
                perm = rng.sample(range(n), n)
                permuted = [sum(((r >> perm[j]) & 1) << j for j in range(n))
                            for r in rows]
                mixed = list(rows)
                for _ in range(3 * k):
                    i, j = rng.sample(range(k), 2)
                    mixed[i] ^= mixed[j]
                for variant in (rows, permuted, mixed):
                    cert = cj.certify_step_down(
                        LinearCode.from_rows(variant, n))
                    _check_step_down(variant, n, cert)
                    routes.add(cert.route)
                count += 1
        assert count == 87
        assert routes == {cj.ROUTE_PADDED, cj.ROUTE_EXTENSION}

"""Distance step-down engine: puncture pairs, lifting column, certificates."""

import json
import random

import pytest

from lcdkit import conjecture as cj
from lcdkit import gf2, tables
from lcdkit.codes import BZ_MIN_K, LinearCode, _drop_bits, min_weight
from random_codes import random_lcd_oe_code


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
                    assert w.dmin == min_weight(built.gen.rows)
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
                assert w.dmin == min_weight(built.gen.rows)

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


class TestCertifyStepDown:
    def test_worked_instance(self):
        cert = cj.certify_step_down(WORKED)
        cert.verify()
        assert cert.input_params == (6, 2, 3)
        assert cert.output.n == 5 and cert.output.k == 2
        assert cert.output.is_lcd()
        assert cert.output.min_distance() >= 2
        assert cert.route == cj.ROUTE_EXTENSION
        assert cert.output == C("10001", "01111")
        assert cert.trace[1] == {"op": "lift_column", "weight": 1,
                                 "words": 1, "y": "11"}

    def test_padded_instance(self):
        # C^{1,3} of this [8,2,3] code already has distance 3: no
        # weight-1 word to lift, so the column is zero
        cert = cj.certify_step_down(C("10111100", "01000011"))
        assert cert.input_params == (8, 2, 3)
        assert cert.route == cj.ROUTE_PADDED
        assert cert.output.gen.rows == C("0111000", "1000110").gen.rows
        assert cert.trace == (
            {"op": "puncture_pair", "u": 1, "v": 3, "lcd": True,
             "dmin": 3},
            {"op": "lift_column", "weight": 1, "words": 0, "y": "00"})

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
            assert min_weight(out.gen.rows) >= d - 1
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

    def test_one_projector_per_code(self, monkeypatch):
        # the projector's one inverse is the certification's only one
        inverses = []
        inverse = gf2.inverse

        def counting(M):
            inverses.append(M)
            return inverse(M)

        monkeypatch.setattr(gf2, "inverse", counting)
        routes = set()
        for code in tables.all_one_lcd_codes(9):
            inverses.clear()
            fresh = LinearCode(code.gen.rows, code.n)
            routes.add(cj.certify_step_down(fresh).route)
            assert inverses == [fresh.gram()]
        assert routes == {cj.ROUTE_PADDED, cj.ROUTE_EXTENSION}


class TestPunctureLiftProperties:
    def test_all_one_lifts_and_unequal_pairs(self):
        for code in oe_corpus(46, 15):
            d = code.min_distance()
            wits = cj.good_puncture_pairs(code, 1)
            W = wits[0]
            P = W.punctured
            # the all-one vector of the punctured code lifts to 1_n
            assert P.contains((1 << P.n) - 1)
            if W.dmin > d - 2:
                continue
            span = LinearCode(gf2.rref(P.weight_words(d - 2), P.n)[0], P.n)
            bits_u, bits_v = W.u - 1, W.v - 1
            for c in code.codewords():
                if ((c >> bits_u) & 1) != ((c >> bits_v) & 1):
                    proj = _drop_bits(c, (W.u, W.v))
                    assert not span.contains(proj)


class TestConjectureError:
    """Broken invariants raise ConjectureError, an AssertionError, also
    under python -O."""

    def test_is_an_assertion_error(self):
        assert issubclass(cj.ConjectureError, AssertionError)

    def test_no_route_found(self, monkeypatch):
        # a corpus code whose certificate takes the extension route: no
        # pair pads, so with no lifting column no route is left
        rows = (13, 50)
        assert rows in [C.gen.rows for C in tables.all_one_lcd_codes(6)
                        if C.k == 2]
        route = cj.certify_step_down(LinearCode(rows, 6)).route
        assert route == cj.ROUTE_EXTENSION
        monkeypatch.setattr(cj, "lift_column", lambda P, words: None)
        with pytest.raises(cj.ConjectureError, match="no certified step-down"):
            cj.certify_step_down(LinearCode(rows, 6))


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


def _plain_gram(rows):
    return [sum((bin(a & b).count("1") & 1) << j for j, b in enumerate(rows))
            for a in rows]


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
    assert _plain_rank(_plain_gram(out)) == k
    assert _plain_min_weight(out) >= d - 1
    column = "".join(str(r >> (n - 1)) for r in out)
    # one trace shape on both routes: the padded one lifts no word with
    # the zero column
    (lift,) = cert.trace[1:]
    assert lift["op"] == "lift_column" and lift["y"] == column
    assert lift["weight"] == d - 2
    assert (cert.route == cj.ROUTE_EXTENSION) == ("1" in column)
    if cert.route == cj.ROUTE_PADDED:
        assert lift["words"] == 0 and column == "0" * k


class TestCertificateAgainstInput:
    """Each certificate re-checked against its input by plain-int code
    that shares nothing with conjecture."""

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
                    cert = cj.certify_step_down(LinearCode(variant, n))
                    _check_step_down(variant, n, cert)
                    routes.add(cert.route)
                count += 1
        assert count == 87
        assert routes == {cj.ROUTE_PADDED, cj.ROUTE_EXTENSION}


def _random_lcd_with_all_one(rng, n, k):
    """Plain-int rows of a random [n, k] LCD code containing 1_n, or None
    after 100 draws (there is no [3, 2] one, for instance)."""
    ones = (1 << n) - 1
    for _ in range(100):
        rows = [ones] + [rng.getrandbits(n) for _ in range(k - 1)]
        if _plain_rank(rows) == k and _plain_rank(_plain_gram(rows)) == k:
            for _ in range(2 * k):
                i, j = rng.sample(range(k), 2)
                rows[i] ^= rows[j]
            return rows


def _lifting_columns(rows, n, w):
    """Every column y, brute force over all 2^k, that gives each
    weight-w word a trailing 1 and keeps the code LCD."""
    k = len(rows)
    lifted = []  # the messages of the weight-w words
    for msg in range(1, 1 << k):
        word = 0
        for i, r in enumerate(rows):
            if (msg >> i) & 1:
                word ^= r
        if bin(word).count("1") == w:
            lifted.append(msg)
    out = []
    for y in range(1 << k):
        ext = [r | ((y >> i) & 1) << n for i, r in enumerate(rows)]
        if (all(bin(msg & y).count("1") & 1 for msg in lifted)
                and _plain_rank(_plain_gram(ext)) == k):
            out.append(y)
    return out


class TestLiftColumn:
    def test_worked_instance(self):
        P = cj.good_puncture_pairs(WORKED, 1)[0].punctured
        assert P == C("1000", "0111")
        assert cj.lift_column(P, P.weight_words(1)) == 0b11

    def test_against_brute_force(self):
        rng = random.Random(50)
        lifted = missed = 0
        for _ in range(80):
            n = rng.randrange(3, 10)
            k = rng.randrange(2, min(n, 6) + 1)
            rows = _random_lcd_with_all_one(rng, n, k)
            if rows is None:
                continue
            P = LinearCode(rows, n)
            for w in range(1, n + 1):
                words = P.weight_words(w)
                good = _lifting_columns(rows, n, w)
                y = cj.lift_column(P, words)
                if y is None:
                    assert good == []
                    missed += 1
                else:
                    assert y in good
                    lifted += 1
        assert lifted and missed

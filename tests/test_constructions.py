"""Construction operators: extensions, hull-guided puncture/shorten."""

import itertools
import random

import pytest

from lcdkit import constructions as cx
from lcdkit import gf2
from lcdkit.codes import LinearCode
from lcdkit.gf2 import BitVector
from random_codes import random_code, random_lcd_code

HAMMING_7_4 = LinearCode.from_strings([
    "1101000",
    "0110100",
    "1110010",
    "1010001",
])


def C(*lines):
    return LinearCode.from_strings(lines)


def V(s):
    return BitVector.from_string(s)


def _hull_code(rng, m, h, extra, r):
    """An h-dimensional (v|v) part on 2m coordinates, self-orthogonal, plus
    r random rows orthogonal to it, on 2m + extra shuffled coordinates;
    the hull contains the (v|v) part.  None when the rows are dependent."""
    n = 2 * m + extra
    hull = [v | v << m for v in (rng.getrandbits(m) for _ in range(h))]
    rows = list(hull)
    while len(rows) < h + r:
        w = rng.getrandbits(n)
        if all((w & u).bit_count() % 2 == 0 for u in hull):
            rows.append(w)
    perm = rng.sample(range(n), n)
    rows = [sum((x >> i & 1) << perm[i] for i in range(n)) for x in rows]
    try:
        return LinearCode(rows, n)
    except ValueError:
        return None


def _hull_corpus(rng, per_dim, dims=range(1, 7)):
    """Seeded random and (v|v)-built codes, per_dim of each hull dimension."""
    counts = dict.fromkeys(dims, 0)
    while min(counts.values()) < per_dim:
        if rng.randrange(2):
            n = rng.randrange(4, 15)
            code = random_code(rng, n, rng.randrange(1, n))
        else:
            m = rng.randrange(2, 9)
            code = _hull_code(rng, m, rng.randrange(1, min(m, 6) + 1),
                              rng.randrange(0, 5), rng.randrange(1, 5))
        if code is None:
            continue
        l = code.hull_dimension()
        if counts.get(l, per_dim) < per_dim:
            counts[l] += 1
            yield code


def _first_lcd_subset(code, build, k):
    """The search the hull ops replaced: over coordinates sorted by hull
    support, most first, the first l-subset whose build is an LCD code
    of dimension k."""
    hull = code.hull().gen.rows
    order = sorted(range(1, code.n + 1),
                   key=lambda c: (-sum(r >> (c - 1) & 1 for r in hull), c))
    for combo in itertools.combinations(order, len(hull)):
        out = build(sorted(combo))
        if out.k == k and out.is_lcd():
            return tuple(sorted(combo)), out
    raise AssertionError("no LCD subset")


class TestHullInformationSet:
    def test_first_lcd_subset(self):
        # the greedy information set of the hull is the first subset the
        # brute-force search accepts, for shortening and for puncturing,
        # and the hull ops build exactly the search's codes
        rng = random.Random(53)
        punctured = 0
        for code in _hull_corpus(rng, 20):
            T = cx._hull_information_set(code)
            k, l = code.k, code.hull_dimension()
            rows = (code.n, code.gen.rows)
            first, out = _first_lcd_subset(code, code.puncture, k)
            assert first == T, rows
            if l < code.min_distance():
                assert cx.hull_puncture(code).gen == out.gen, rows
                punctured += 1
            if l < k:
                first, out = _first_lcd_subset(code, code.shorten, k - l)
                assert first == T, rows
                assert cx.hull_shorten(code).gen == out.gen, rows
        assert punctured >= 20


def _rebased(rng, code):
    """The same code under a seeded random change of basis."""
    while True:
        P = [rng.getrandbits(code.k) for _ in range(code.k)]
        if gf2.is_nonsingular(P):
            return LinearCode(gf2.mul(P, code.gen.rows), code.n)


def _split(rows, low):
    """Each row as (its top coordinates, its first `low` coordinates)."""
    return [(r >> low, r & ((1 << low) - 1)) for r in rows]


def _lcd_corpus(rng, count, n_range=(2, 12), k_cap=8):
    out = []
    while len(out) < count:
        n = rng.randrange(*n_range)
        k = rng.randrange(1, min(n, k_cap) + 1)
        try:
            out.append(random_lcd_code(rng, n, k, max_tries=300))
        except RuntimeError:
            continue
    return out


class TestExtendEven:
    def test_identity_pair(self):
        out = cx.extend_even(C("10", "01"))
        assert out == C("110", "101")
        assert (out.n, out.k) == (3, 2)
        assert out.min_distance() == 2

    def test_two_blocks(self):
        out = cx.extend_even(C("111000", "000111"))
        assert (out.n, out.k) == (7, 2)
        assert out.is_lcd() and out.is_even_like()
        assert out.min_distance() == 4

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            cx.extend_even(C("111"))

    def test_rejects_even_d(self):
        with pytest.raises(ValueError):
            cx.extend_even(C("1100", "0110"))

    def test_random_exact_distance(self):
        rng = random.Random(41)
        basis_rng = random.Random(141)
        done = 0
        while done < 40:
            n = rng.randrange(4, 12)
            k = rng.choice([2, 4, 6])
            if k > n:
                continue
            try:
                code = random_lcd_code(rng, n, k, max_tries=300)
            except RuntimeError:
                continue
            if code.min_distance() % 2 == 0 or code.is_even_like():
                continue
            out = cx.extend_even(code)
            assert out.is_lcd() and out.is_even_like()
            assert out.min_distance() == code.min_distance() + 1
            # the stored rows, each with its weight parity prepended, and
            # the same code from any basis
            assert _split(out.gen.rows, 1) == [
                (r, r.bit_count() & 1) for r in code.gen.rows]
            assert cx.extend_even(_rebased(basis_rng, code)) == out
            done += 1


class TestExtendOddTwo:
    def test_single_bit(self):
        out = cx.extend_odd_two(C("1"))
        assert out == C("111")

    def test_repetition(self):
        out = cx.extend_odd_two(C("111"))
        assert out == C("11111")
        assert (out.n, out.k) == (5, 1)
        assert out.min_distance() >= 4

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            cx.extend_odd_two(C("10", "01"))

    def test_random_distance_bound(self):
        rng = random.Random(42)
        basis_rng = random.Random(142)
        done = 0
        while done < 40:
            n = rng.randrange(3, 12)
            k = rng.choice([1, 3, 5])
            if k > n:
                continue
            try:
                code = random_lcd_code(rng, n, k, max_tries=300)
            except RuntimeError:
                continue
            if code.min_distance() % 2 == 0 or code.is_even_like():
                continue
            out = cx.extend_odd_two(code)
            assert out.is_lcd() and not out.is_even_like()
            assert out.min_distance() >= code.min_distance() + 1
            # the stored rows, each with its weight parity prepended
            # twice, and the same code from any basis
            assert _split(out.gen.rows, 2) == [
                (r, 0b11 * (r.bit_count() & 1)) for r in code.gen.rows]
            assert cx.extend_odd_two(_rebased(basis_rng, code)) == out
            done += 1


class TestPunctureEvenLcd:
    def test_first_coordinate(self):
        out = cx.puncture_even_lcd(C("1100", "0110"), 1)
        assert out == C("100", "110")
        assert out.is_lcd()

    def test_last_coordinate(self):
        out = cx.puncture_even_lcd(C("1100", "0110"), 4)
        assert out == C("110", "011")

    def test_rejects_odd_like(self):
        with pytest.raises(ValueError):
            cx.puncture_even_lcd(C("111"), 1)

    def test_coordinate_set(self):
        code = C("1111000", "1000111")
        projector = code.projector()
        singular = set()
        for u, v in itertools.combinations(range(1, 8), 2):
            # diag Π = 0, so I + Π[T,T] is singular exactly when Π_uv = 1
            if projector[u - 1] >> (v - 1) & 1:
                singular.add((u, v))
                with pytest.raises(ValueError, match=r"I \+ Π\[T,T\]"):
                    cx.puncture_even_lcd(code, u, v)
            else:
                out = cx.puncture_even_lcd(code, u, v)
                assert out == code.puncture([u, v]) and out.is_lcd()
                assert out.k == 2
        assert (2, 5) in singular and (2, 3) not in singular

    def test_every_coordinate_random(self):
        rng = random.Random(43)
        done = 0
        while done < 25:
            n = rng.randrange(4, 12)
            try:
                from random_codes import random_lcd_eo_code
                code = random_lcd_eo_code(rng, n, rng.choice([2, 4]),
                                          max_tries=3000)
            except (RuntimeError, ValueError):
                continue
            for i in range(1, n + 1):
                assert cx.puncture_even_lcd(code, i).is_lcd()
            done += 1


class TestShortenOddLcd:
    def test_all_one_in_code(self):
        code = C("111000", "000111")
        assert code.contains_all_one()
        out = cx.shorten_odd_lcd(code, 1)
        assert out == C("00111")

    def test_identity_code(self):
        out = cx.shorten_odd_lcd(C("10", "01"), 2)
        assert out == C("1")

    def test_without_all_one(self):
        code = C("100", "010")  # LCD_oo, no all-one vector
        assert not code.contains_all_one()
        out = cx.shorten_odd_lcd(code)
        assert out.is_lcd()
        # the theorem also promises a coordinate whose puncture is LCD
        assert any(code.puncture([j]).is_lcd()
                   for j in range(1, code.n + 1))

    def test_first_lcd_shortening_without_all_one(self):
        # the oracle is the search by built codes: the first coordinate
        # whose shortening is LCD
        rng = random.Random(46)
        done = zero_columns = 0
        while done < 500:
            n = rng.randrange(3, 13)
            k = rng.randrange(1, n + 1)
            rows = [rng.getrandbits(n) for _ in range(k)]
            if rng.randrange(3) == 0:
                j = rng.randrange(n)
                rows = [r & ~(1 << j) for r in rows]
            try:
                code = LinearCode(rows, n)
            except ValueError:
                continue
            if (not code.is_lcd() or code.is_even_like()
                    or code.contains_all_one()):
                continue
            coord = next(c for c in range(1, n + 1)
                         if code.shorten([c]).is_lcd())
            out = cx.shorten_odd_lcd(code)
            assert out.gen == code.shorten([coord]).gen, rows
            zero_columns += not any(r >> (coord - 1) & 1 for r in rows)
            done += 1
        assert zero_columns

    def test_all_coordinates_when_all_one_present(self):
        rng = random.Random(44)
        from random_codes import random_lcd_oe_code
        done = 0
        while done < 20:
            n = rng.randrange(3, 12)
            k = rng.randrange(2, n)
            try:
                code = random_lcd_oe_code(rng, n, k, max_tries=400)
            except RuntimeError:
                continue
            for i in range(1, n + 1):
                assert cx.shorten_odd_lcd(code, i).is_lcd()
            done += 1


class TestHullShorten:
    def test_hamming(self):
        out = cx.hull_shorten(HAMMING_7_4)
        assert out.is_lcd()
        assert (out.n, out.k) == (4, 1)
        assert out.min_distance() >= 3

    def test_rejects_hull_equals_code(self):
        with pytest.raises(ValueError):
            cx.hull_shorten(C("11"))

    def test_random(self):
        rng = random.Random(45)
        done = 0
        while done < 40:
            n = rng.randrange(4, 14)
            k = rng.randrange(2, n)
            code = random_code(rng, n, k)
            l = code.hull_dimension()
            if l < 1 or l == k:
                continue
            out = cx.hull_shorten(code)
            assert out.is_lcd()
            assert (out.n, out.k) == (n - l, k - l)
            assert out.min_distance() >= code.min_distance()
            done += 1


class TestHullPuncture:
    def test_rejects_hull_geq_distance(self):
        with pytest.raises(ValueError):
            cx.hull_puncture(HAMMING_7_4)  # l = 3 = d

    def test_random(self):
        rng = random.Random(46)
        done = 0
        while done < 40:
            n = rng.randrange(4, 14)
            k = rng.randrange(1, n)
            code = random_code(rng, n, k)
            l = code.hull_dimension()
            if l < 1 or l >= code.min_distance():
                continue
            out = cx.hull_puncture(code)
            assert out.is_lcd()
            assert (out.n, out.k) == (n - l, k)
            assert out.min_distance() >= code.min_distance() - l
            done += 1


class TestExtendRowDual:
    def test_zero_x(self):
        out = cx.extend_row_dual(C("111"), V("000"))
        assert out == C("1000", "0111")

    def test_even_dual_word(self):
        out = cx.extend_row_dual(C("111"), V("110"))
        assert out == C("1110", "0111")
        assert out.is_lcd()

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            cx.extend_row_dual(C("111"), V("100"))

    def test_rejects_non_dual(self):
        with pytest.raises(ValueError):
            cx.extend_row_dual(C("10", "01"), V("11"))

    def test_random(self):
        rng = random.Random(48)
        for code in _lcd_corpus(rng, 50, (2, 12)):
            D = code.dual()
            if D.k == 0:
                words = [0]
            else:
                words = list(D.codewords())
            evens = [w for w in words if w.bit_count() % 2 == 0]
            w = rng.choice(evens)
            out = cx.extend_row_dual(code, BitVector(code.n, w))
            assert out.is_lcd()
            assert (out.n, out.k) == (code.n + 1, code.k + 1)


class TestExtendSystematic:
    def test_odd_like_even_x(self):
        code = C("100", "010")
        out = cx.extend_systematic(code, V("0"))
        assert out is not None
        assert out == C("1000", "0100", "0010")

    def test_odd_like_odd_x(self):
        out = cx.extend_systematic(C("100", "010"), V("1"))
        assert out is None

    def test_even_like_odd_x(self):
        out = cx.extend_systematic(C("1100", "0110"), V("01"))
        assert out is None

    def test_unnormalized_generator(self):
        # Gram [[1,1],[1,0]] is neither I nor J_2; diag Π = 011
        code = C("100", "110")
        assert cx.extend_systematic(code, V("0")) == \
            C("1000", "0100", "0110")
        assert cx.extend_systematic(code, V("1")) is None

    def test_dependent_leading_columns(self):
        # the first k columns need not be independent
        code = C("11010", "00100")
        assert code.is_lcd()
        assert cx.extend_systematic(code, V("110")) == \
            C("100110", "011010", "000100")
        assert cx.extend_systematic(code, V("001")) is None

    def test_rejects_non_lcd(self):
        with pytest.raises(ValueError, match="not LCD"):
            cx.extend_systematic(C("1100", "0011"), V("10"))

    def test_iff_exhaustive(self):
        # both directions of the verdict against the Gram test, all x,
        # on the random generator as drawn
        rng = random.Random(49)
        done = 0
        while done < 60:
            n = rng.randrange(2, 12)
            k = rng.randrange(1, n + 1)
            if n - k > 8:
                continue
            try:
                code = random_lcd_code(rng, n, k, max_tries=300)
            except RuntimeError:
                continue
            for xv in range(1 << (n - k)):
                out = cx.extend_systematic(code, BitVector(n - k, xv))
                rows = [(xv << k << 1) | 1] + [r << 1 for r in code.gen.rows]
                candidate = LinearCode(rows, n + 1)
                assert (out is not None) == candidate.is_lcd()
                if out is not None:
                    assert out.gen == candidate.gen
            done += 1

    def test_random_basis_matches_hull_normal_basis(self):
        # the verdict and the code are those of the normalised basis
        # the operator once required, on the same coordinates
        from lcdkit import normal_form as nf
        rng = random.Random(55)
        for code in _lcd_corpus(rng, 60, (2, 12)):
            n, k = code.n, code.k
            if n - k > 6:
                continue
            normal = LinearCode(nf.hull_normal_basis(code).basis, n)
            for xv in range(1 << (n - k)):
                x = BitVector(n - k, xv)
                out = cx.extend_systematic(code, x)
                ref = cx.extend_systematic(normal, x)
                assert (out is None) == (ref is None)
                if out is not None:
                    assert out == ref


class TestExtendHullDrop:
    def test_single_self_orthogonal(self):
        out = cx.extend_hull_drop(C("11"), V("10"))
        assert out == C("110", "011")
        assert out.is_lcd()

    def test_rejects_orthogonal_x(self):
        with pytest.raises(ValueError):
            cx.extend_hull_drop(C("11"), V("11"))

    def test_hamming_drop(self):
        hull = HAMMING_7_4.hull()
        target = hull.gen.rows[0]
        x = None
        for v in range(1 << 7):
            if (v & target).bit_count() % 2 == 1:
                x = BitVector(7, v)
                break
        out = cx.extend_hull_drop(HAMMING_7_4, x)
        assert out.hull_dimension() == 2

    def test_random_drop_by_one(self):
        rng = random.Random(50)
        done = 0
        while done < 60:
            n = rng.randrange(3, 13)
            k = rng.randrange(1, n)
            code = random_code(rng, n, k)
            s = code.hull_dimension()
            if s not in (1, 2, 3):
                continue
            hv = code.hull().gen.rows[0]
            x = BitVector(n, 1 << ((hv & -hv).bit_length() - 1))
            out = cx.extend_hull_drop(code, x)
            assert out.hull_dimension() == s - 1
            if s == 1:
                assert out.is_lcd()
            done += 1


class TestExtendColumnHullDrop:
    def test_rejects_lcd_input(self):
        with pytest.raises(ValueError):
            cx.extend_column_hull_drop(C("110", "010"), V("110"))

    def test_rejects_fully_orthogonal(self):
        code = C("11000", "00111")
        with pytest.raises(ValueError):
            cx.extend_column_hull_drop(code, V("11111"))

    def test_random(self):
        rng = random.Random(51)
        done = 0
        while done < 40:
            n = rng.randrange(3, 13)
            k = rng.randrange(1, n)
            code = random_code(rng, n, k)
            s = code.hull_dimension()
            if s < 1:
                continue
            hv = code.hull().gen.rows[0]
            x = BitVector(n, 1 << ((hv & -hv).bit_length() - 1))
            out = cx.extend_column_hull_drop(code, x)
            assert out.hull_dimension() == s - 1
            assert (out.n, out.k) == (n + 1, k)
            if s == 1:
                assert out.is_lcd()
            done += 1


class TestExtendTwoMulti:
    def test_repetition_single(self):
        outs = cx.extend_two_multi(C("111"))
        assert len(outs) == 1
        assert outs[0] == C("11111")

    def test_single_bit(self):
        outs = cx.extend_two_multi(C("1"))
        assert len(outs) == 1
        assert outs[0] == C("111")

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            cx.extend_two_multi(C("10", "01"))

    def test_count_and_distinctness(self):
        rng = random.Random(52)
        basis_rng = random.Random(152)
        done = 0
        while done < 15:
            n = rng.randrange(4, 11)
            k = rng.choice([3, 5])
            if k > n:
                continue
            try:
                code = random_lcd_code(rng, n, k, max_tries=300)
            except RuntimeError:
                continue
            d = code.min_distance()
            if d % 2 == 0:
                continue
            outs = cx.extend_two_multi(code)
            assert len(outs) == 2 ** (k - 1)
            rrefs = {o.rref() for o in outs}
            assert len(rrefs) == len(outs)
            for o in outs:
                assert (o.n, o.k) == (n + 2, k)
                assert o.is_lcd()
                assert o.min_distance() >= d + 1
            # the same set of codes from any basis
            again = cx.extend_two_multi(_rebased(basis_rng, code))
            assert len(again) == len(outs) and set(again) == set(outs)
            done += 1


class TestConstructionError:
    """Broken guarantees raise ConstructionError, an AssertionError, also
    under python -O."""

    def test_is_an_assertion_error(self):
        assert issubclass(cx.ConstructionError, AssertionError)

    def test_punctured_code_not_lcd(self, monkeypatch):
        # [110] is self-orthogonal, so its hull is the whole code
        monkeypatch.setattr(LinearCode, "puncture", lambda self, T: C("110"))
        with pytest.raises(cx.ConstructionError, match="not LCD"):
            cx.puncture_even_lcd(C("1100", "0110"), 1)

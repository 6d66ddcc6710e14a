"""Acceptance gate: end-to-end criteria with explicit time budgets.

Each test re-verifies a core guarantee with an independent oracle
written inside this file wherever possible, and asserts the stated
wall-clock budget.
"""

import random
import time

import field_oracle as fo
from lcdkit import conjecture, constructions as cons, expansion as xp
from lcdkit import gf2, ledger, tables
from lcdkit.codes import EngineBudgetError
from lcdkit.codes import _min_distance_low_weight, min_weight
from lcdkit.gf2 import BitVector
from random_codes import random_code, random_lcd_code, random_lcd_oe_code


def _int_rank(rows):
    """Rank of a list of packed rows, fully independent of gf2."""
    rank = 0
    work = list(rows)
    for i in range(len(work)):
        r = work[i]
        for p in work[:rank]:
            r = min(r, r ^ p)
        if r:
            work[rank] = r
            rank += 1
    return rank


def test_criterion_1_hull_oracle_equivalence():
    """hull_dimension == dim of the explicit intersection, 1000 codes,
    n <= 14, under 5 seconds."""
    rng = random.Random(1001)
    start = time.monotonic()
    for _ in range(1000):
        n = rng.randrange(1, 15)
        k = rng.randrange(1, n + 1)
        C = random_code(rng, n, k)
        # dim(C ∩ C⊥) = dim C + dim C⊥ − dim(C + C⊥)
        D = C.dual()
        joint = _int_rank(list(C.gen.rows) + list(D.gen.rows))
        assert C.hull_dimension() == C.k + D.k - joint
    assert time.monotonic() - start < 5.0


def test_criterion_2_step_down_totality():
    """certify_step_down succeeds on every odd-like LCD code containing
    the all-one vector with k >= 2, d >= 3 and length <= 12 (one
    representative per column-permutation class), every certificate
    re-verifying independently; under 10 minutes."""
    start = time.monotonic()
    total = 0
    for length in range(4, 13):
        for code in tables.all_one_lcd_codes(length):
            d = code.min_distance()
            cert = conjecture.certify_step_down(code)
            cert.verify()
            out = cert.output
            assert out.n == length - 1
            assert out.k == code.k
            assert out.is_lcd()
            assert min_weight(out.gen.rows) >= d - 1
            total += 1
    assert total == 7902  # corpus size, frozen from the enumeration
    assert time.monotonic() - start < 600.0


def test_criterion_2_supplement_random_larger_codes():
    """500 random qualifying codes with length <= 19 also certify."""
    rng = random.Random(1002)
    done = 0
    while done < 500:
        n1 = rng.randrange(6, 21)
        k = rng.randrange(2, max(3, min(n1 - 2, 7)))
        try:
            C = random_lcd_oe_code(rng, n1, k, max_tries=200)
        except RuntimeError:
            continue
        if C.min_distance() < 3:
            continue
        cert = conjecture.certify_step_down(C)
        cert.verify()
        assert cert.output.n == n1 - 1 and cert.output.is_lcd()
        done += 1


def test_criterion_3_step_property_on_exhaustive_table():
    """d_lcd(n+1,k) − d_lcd(n,k) ∈ {0,1} for k >= 2, n <= 11; the k = 1
    column matches the closed form (n for odd n, n−1 for even n)."""
    table = tables.dlcd_table(12)
    for n in range(1, 13):
        assert table[(n, 1)] == (n if n % 2 else n - 1)
    for n in range(1, 12):
        for k in range(2, n + 1):
            diff = table[(n + 1, k)] - table[(n, k)]
            assert diff in (0, 1), (n, k, diff)
    # frozen rows of the exhaustive table
    assert [table[(12, k)] for k in range(1, 13)] == \
        [11, 7, 6, 5, 4, 4, 3, 2, 2, 2, 1, 1]
    assert [table[(11, k)] for k in range(1, 12)] == \
        [11, 6, 5, 4, 4, 4, 3, 2, 2, 2, 1]


def _random_ext_code(rng, field, n, k):
    while True:
        rows = [[rng.randrange(field.order) for _ in range(n)]
                for _ in range(k)]
        try:
            return xp.ExtFieldCode(field, rows, n)
        except ValueError:
            continue


def test_criterion_4_expansion_clauses():
    """500 random GF(4) codes with n <= 10: the binary expansion is a
    [2n, 2k] code of distance >= d; hulls commute as codeword sets; the
    LCD, self-orthogonal, and self-dual biconditionals hold.  Under one
    minute."""
    F4 = xp.ExtField.of_degree(2)
    basis = xp.find_self_dual_basis(F4)
    rng = random.Random(1004)
    start = time.monotonic()
    for _ in range(500):
        n = rng.randrange(1, 11)
        k = rng.randrange(1, min(n, 6) + 1)
        C = _random_ext_code(rng, F4, n, k)
        out = xp.expand_code(C, basis)
        # clause: parameters and distance
        assert (out.n, out.k) == (2 * C.n, 2 * C.k)
        assert out.min_distance() >= fo.min_distance(C)
        # clause: hull commutation as codeword sets
        assert out.hull() == xp.expand_code(fo.hull(C), basis)
        # clause: LCD in both directions
        assert out.is_lcd() == (fo.hull_dimension(C) == 0)
        # clause: self-orthogonality in both directions
        so_ext = all(v == 0 for row in fo.gram(C) for v in row)
        so_bin = all(r == 0 for r in gf2.gram(out.gen.rows))
        assert so_ext == so_bin
        # clause: self-duality in both directions
        sd_ext = so_ext and 2 * C.k == C.n
        assert sd_ext == (out == out.dual())
    assert time.monotonic() - start < 60.0


def test_criterion_5_systematic_extension_iff():
    """For LCD codes with n−k <= 10, given by any generator, the
    extension verdict returned for every x agrees with nonsingularity of
    the extended Gram matrix, in both directions."""
    rng = random.Random(1005)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 13)
        k = rng.randrange(1, n + 1)
        if n - k > 10:
            continue
        C = random_lcd_code(rng, n, k)
        for bits in range(1 << (n - k)):
            x = BitVector(n - k, bits)
            out = cons.extend_systematic(C, x)
            verdict = out is not None
            # independent Gram rank of [[1, 0, x], [0, G]]
            rows = [((bits << k) << 1) | 1] + [r << 1
                                               for r in C.gen.rows]
            gmat = []
            for i, a in enumerate(rows):
                acc = 0
                for j, b in enumerate(rows):
                    if (a & b).bit_count() & 1:
                        acc |= 1 << j
                gmat.append(acc)
            nonsingular = _int_rank(gmat) == k + 1
            assert verdict == nonsingular
            if verdict:
                assert out.is_lcd()
            checked += 1
    assert checked >= 1000


def test_criterion_6_two_column_extension_count():
    """For LCD codes with k and d odd, k <= 7: exactly 2^(k−1) pairwise
    distinct LCD outputs, each with distance >= d + 1."""
    rng = random.Random(1006)
    done = 0
    while done < 40:
        k = rng.choice((1, 3, 5, 7))
        n = rng.randrange(k, k + 6)
        C = random_lcd_code(rng, n, k)
        d = C.min_distance()
        if d % 2 == 0:
            continue
        outputs = cons.extend_two_multi(C)
        assert len(outputs) == 1 << (k - 1)
        codes = set(outputs)
        assert len(codes) == len(outputs)
        for out in codes:
            assert (out.n, out.k) == (n + 2, k)
            assert out.is_lcd()
            assert out.min_distance() >= d + 1
        done += 1


def test_criterion_7_distance_engine_agreement():
    """Full enumeration and low-weight search agree on 1000 random
    codes where both engines are within budget."""
    rng = random.Random(1007)
    compared = 0
    while compared < 1000:
        n = rng.randrange(1, 15)
        k = rng.randrange(1, n + 1)
        C = random_code(rng, n, k)
        try:
            d_low = _min_distance_low_weight(C)
        except EngineBudgetError:
            continue
        d_full = min_weight(C.gen.rows)
        assert d_full == d_low, (n, k, d_full, d_low)
        compared += 1


def test_criterion_7_full_engine_past_the_gray_walk():
    """The full engine (Brouwer-Zimmermann from k = BZ_MIN_K) agrees
    with low-weight search on seeded codes with k 13-24, n <= 40, where
    the low-weight engine is within budget."""
    rng = random.Random(1307)
    compared = 0
    for _ in range(40):
        k = rng.randrange(13, 25)
        n = rng.randrange(k + 4, 41)
        C = random_code(rng, n, k)
        try:
            d_low = _min_distance_low_weight(C)
        except EngineBudgetError:
            continue
        d_full = min_weight(C.gen.rows)
        assert d_full == d_low, (n, k, d_full, d_low)
        compared += 1
    assert compared >= 20


def test_criterion_7_exact_distance_of_random_50_25():
    """An exact d for a random [50,25] code, where a Gray walk would take
    2^25 steps, well inside a second."""
    C = random_code(random.Random(5025), 50, 25)
    start = time.monotonic()
    d = min_weight(C.gen.rows)
    assert time.monotonic() - start < 1.0
    assert d == _min_distance_low_weight(C)


def test_criterion_8_ledger_and_bounds():
    """Every replayable ledger row passes, every row whose chain of row
    refs ends at an external seed is skipped (never failed), and the
    shipped bounds tables are internally consistent."""
    records = ledger.load_builtin_records()
    results = ledger.replay_ledger(records)
    for rec, res in zip(records, results):
        assert res.status != ledger.FAIL, (rec.op, rec.expect,
                                           res.message)
        root = rec
        while root.inputs.get("source") == "row":
            root = records[root.inputs["ref"]]
        if root.inputs.get("source") == "external":
            assert res.status == ledger.SKIPPED
        else:
            assert res.status == ledger.PASS, (rec.op, res.message)
    assert sum(1 for r in results if r.status == ledger.PASS) == 14
    assert tables.law_violations(ledger.load_builtin_bounds()) == []

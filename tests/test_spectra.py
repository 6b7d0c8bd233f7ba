import math
import random
from collections import Counter

import pytest

from cyclotile import phitree
from cyclotile.cyclo import (
    MILLER_RABIN_LIMIT,
    cyc_divides,
    cyclotomic,
    divide_exact,
    divisors,
    euler_phi,
    primes_up_to,
)
from cyclotile.digitset import DigitSet
from cyclotile.errors import CyclotileError, WrongCardinality
from cyclotile.intpoly import IntPoly, mask_polynomial
from cyclotile.productform import load_recipe
from cyclotile.spectra import (
    MAX_MASK_DEGREE,
    ExactTest,
    MaskContext,
    check_t1,
    check_t2,
    completeness_threshold,
    context_report,
    general_spectrum,
    prime_power_spectrum,
    spectrum_structure,
)
from test_acceptance import RECIPES, _criterion_08_suites


def brute_is_prime_power(q):
    """q > 1 is a power of its smallest divisor above 1, by trial division."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def brute_prime_power_spectrum(p):
    """Oracle: trial-divide by every cyclotomic of prime-power index."""
    return tuple(
        q
        for q in range(2, 2 * p.degree + 2)
        if brute_is_prime_power(q) and divide_exact(p, cyclotomic(q)) is not None
    )


def brute_spectrum(p, top):
    """Oracle: every index 2..top whose cyclotomic divides p, one by one."""
    return tuple(s for s in range(2, top + 1) if cyc_divides(s, p))


def test_prime_power_spectrum_frozen_cases():
    assert prime_power_spectrum(mask_polynomial([0, 1, 8, 9])) == (2, 16)
    assert prime_power_spectrum(mask_polynomial([0, 1, 4, 5])) == (2, 8)
    assert prime_power_spectrum(mask_polynomial(range(6))) == (2, 3)
    assert prime_power_spectrum(mask_polynomial([0])) == ()


def test_prime_power_spectrum_matches_brute_force():
    rng = random.Random(3)
    for _ in range(150):
        digits = sorted(rng.sample(range(0, 48), rng.randint(1, 10)))
        p = mask_polynomial(digits)
        assert prime_power_spectrum(p) == brute_prime_power_spectrum(p), digits


def test_general_spectrum_frozen_cases():
    got = general_spectrum(mask_polynomial([0, 1, 8, 9]), 100)
    assert got.indices == (2, 16)
    assert got.complete  # nothing above 30 can divide a degree-9 mask
    assert got.threshold == 30

    low = general_spectrum(mask_polynomial(range(6)), 10)
    assert low.indices == (2, 3, 6)
    assert not low.complete


def test_general_spectrum_completeness_boundary():
    p = mask_polynomial([0, 1, 8, 9])
    assert not general_spectrum(p, 29).complete
    assert general_spectrum(p, 30).complete
    assert general_spectrum(p, 30).indices == (2, 16)


def test_general_spectrum_refuses_a_cap_below_one():
    p = mask_polynomial([0, 1, 8, 9])
    assert general_spectrum(p, 1).indices == ()
    for cap in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            general_spectrum(p, cap)
        with pytest.raises(ValueError, match="at least 1"):
            context_report(MaskContext(p), 4, cap)


@pytest.mark.parametrize("cap", [True, 10.0, 2.5])
def test_spectrum_cap_must_be_an_int(cap):
    """A bool or a float cap is refused where the report is built, as the
    loader refuses it, so no certificate is written that cannot reload."""
    p = mask_polynomial([0, 1, 8, 9])
    with pytest.raises(ValueError, match="must be an integer"):
        general_spectrum(p, cap)
    with pytest.raises(ValueError, match="must be an integer"):
        context_report(MaskContext(p), 4, cap)
    with pytest.raises(ValueError, match="must be an integer"):
        phitree.decide_tile_digit_set(4, (0, 1, 8, 9), spectrum_cap=cap)


def test_completeness_threshold_exact_region():
    assert completeness_threshold(9) == 30
    assert completeness_threshold(5) == 12
    # oracle: euler_phi(s) >= sqrt(s/2), so a scan to 2*limit**2 is exhaustive
    for limit in range(1, 41):
        brute = max(s for s in range(1, 2 * limit * limit + 1) if euler_phi(s) <= limit)
        assert completeness_threshold(limit) == brute, limit
    big = completeness_threshold(10_000)
    assert euler_phi(big) <= 10_000
    assert big >= 30030  # 2*3*5*7*11*13 has totient 5760, so the max sits above it


def test_general_spectrum_sees_all_divisors():
    rng = random.Random(9)
    for _ in range(60):
        digits = sorted(rng.sample(range(0, 32), rng.randint(2, 8)))
        p = mask_polynomial(digits)
        found = general_spectrum(p, completeness_threshold(p.degree))
        assert found.complete
        for s in range(2, 2 * p.degree * p.degree + 1):
            if euler_phi(s) <= p.degree and cyc_divides(s, p):
                assert s in found.indices, (digits, s)


def test_check_t1():
    assert check_t1([0, 1])
    assert check_t1([0, 1, 8, 9])
    assert check_t1([0, 1, 4, 5])
    assert not check_t1([0, 1, 3])


def test_check_t2_vacuous_single_prime():
    # spectrum {2, 4, 16}: one prime only, nothing to check
    assert check_t2([0, 1, 2, 3, 8, 9, 10, 11])


def test_check_t2_positive():
    assert check_t2(range(6))      # spectrum {2, 3}, product 6 divides
    assert check_t2(range(12))
    assert check_t2([0, 1, 8, 9])


def test_check_t2_negative():
    # spectrum is exactly {2, 3} but the product index 6 fails to divide
    bad = [0, 1, 2, 3, 7, 8]
    q = mask_polynomial(bad)
    assert prime_power_spectrum(q) == (2, 3)
    assert not cyc_divides(6, q)
    assert not check_t2(bad)


def test_spectrum_structure_pass():
    report = spectrum_structure(6, range(6))
    assert report.passed
    assert report.exponents == {2: (1,), 3: (1,)}
    assert report.violation is None

    report = spectrum_structure(4, [0, 1, 8, 9])
    assert report.passed
    assert report.exponents == {2: (1, 4)}


def test_spectrum_structure_residue_failure():
    report = spectrum_structure(4, [0, 1, 4, 5])
    assert not report.passed
    assert report.exponents == {2: (1, 3)}
    assert "residues" in report.violation


def test_spectrum_structure_cardinality_enforced():
    try:
        spectrum_structure(4, [0, 1, 2])
    except WrongCardinality:
        return
    raise AssertionError("cardinality violation accepted")


def test_spectrum_report_assembles():
    report = context_report(MaskContext(mask_polynomial([0, 1, 8, 9])), 4)
    assert report.prime_powers == (2, 16)
    assert report.t1 and report.t2
    assert report.structure.passed
    assert report.general.complete


def test_structure_for_complete_residue_sets():
    # digit set {0..b-1} passes for every base
    for b in range(2, 16):
        assert spectrum_structure(b, range(b)).passed, b


def _random_sparse(rng, terms, top):
    return IntPoly.from_terms(
        (e, rng.choice((-3, -2, -1, 1, 2, 3))) for e in rng.sample(range(top), terms)
    )


def test_mann_prefilter_agrees_with_exact_test():
    """The prefilter only rejects: divides(s) equals the exact cyc_divides."""
    rng = random.Random(41)
    divisible = rejected = 0
    for trial in range(400):
        top = 24 if trial % 2 else 10**6  # dense or lacunary exponents
        p = _random_sparse(rng, rng.randint(1, 12), top)
        if trial % 4 < 2:
            # plant cyclotomic factors: a sparse cofactor times Phi_m(x**c)
            m, c = rng.randint(2, 30), rng.choice((1, 2, 3, 7, 1000))
            p = _random_sparse(rng, rng.randint(1, 3), top) * cyclotomic(m).compose_power(c)
        if p.is_zero:
            continue
        ctx = MaskContext(p)
        for s in range(1, 91):
            exact = cyc_divides(s, p)
            assert ctx.divides(s) == exact, (p, s)
            divisible += exact
            rejected += not ctx.may_vanish(s)
    assert divisible > 300 and rejected > 10_000


def test_mann_prefilter_tight_cases():
    # A minimal vanishing sum of six roots of unity whose ratios have order
    # 15: the primes up to 6 include 5, and no exponent gap from x**3 is a
    # multiple of 5, so a bound over fewer primes would reject s = 15.
    p = IntPoly.from_terms([(3, 1), (6, 1), (9, 1), (12, 1), (5, -1), (10, -1)])
    assert cyc_divides(15, p)
    assert MaskContext(p).may_vanish(15) and MaskContext(p).divides(15)
    assert all((e - 3) % 5 for e, _ in p.terms()[1:])
    # Phi_q has n = q terms, just enough for the primes <= n to reach q: no
    # gap between its exponents 0..q-1 is a multiple of q.
    for q in (5, 7):
        ctx = MaskContext(cyclotomic(q))
        assert len(ctx.poly.terms()) == q
        assert ctx.may_vanish(q) and ctx.divides(q)
        assert not ctx.may_vanish(q * q) and not ctx.divides(q * q)
    # A monomial has no cyclotomic factor.
    ctx = MaskContext(IntPoly.x_power(7, -3))
    assert not any(ctx.may_vanish(s) or ctx.divides(s) for s in range(1, 200))


def test_mask_degree_budget():
    assert MaskContext(mask_polynomial([0, 1, MAX_MASK_DEGREE])).degree == MAX_MASK_DEGREE
    with pytest.raises(CyclotileError, match="budget"):
        MaskContext(mask_polynomial([0, 1, MAX_MASK_DEGREE + 1]))


@pytest.mark.parametrize("make", [ExactTest, MaskContext])
@pytest.mark.parametrize("s", [0, -4])
def test_an_index_below_one_raises(make, s):
    """No index below 1 has a cyclotomic; both classes refuse it alike."""
    with pytest.raises(ValueError):
        make(mask_polynomial([0, 1, 8, 9])).divides(s)


def _planted_polynomials(seed, count):
    """Dense, lacunary and many-term polynomials, half of them times a
    planted Phi_m(x**c); each lacunary one has a random degree below 10**6."""
    rng = random.Random(seed)
    for trial in range(count):
        kind = trial % 3
        planted = IntPoly.one()
        if trial % 2:
            m, c = rng.randint(2, 30), rng.choice((1, 2, 3, 7) if kind != 1 else (1, 7, 1000))
            planted = cyclotomic(m).compose_power(c)
        if kind == 0:  # dense
            p = _random_sparse(rng, rng.randint(1, 12), 24)
        elif kind == 1:  # lacunary
            top = rng.randrange(3, 10**6 - planted.degree)
            p = _random_sparse(rng, rng.randint(0, 3), top) + IntPoly.x_power(top)
        else:  # many terms
            p = _random_sparse(rng, rng.randint(20, 60), 90)
        yield p * planted


def test_spectra_match_brute_scan():
    """Both spectra equal a scan of every index up to the threshold.

    Dense, lacunary and many-term polynomials, half of them with a planted
    factor Phi_m(x**c).  A lacunary polynomial's threshold runs into the
    millions, so its scan stops at 1000; the others are scanned to their
    threshold.
    """
    complete = 0
    for p in _planted_polynomials(57, 90):
        threshold = completeness_threshold(p.degree) if p.degree else 1
        top = min(threshold, 1000)
        scan = brute_spectrum(p, top)
        got = general_spectrum(p, top)
        assert got.indices == scan, (p, top)
        assert got.complete == (top == threshold)
        prime_powers = prime_power_spectrum(p)
        assert tuple(q for q in prime_powers if q <= top) == tuple(
            q for q in scan if brute_is_prime_power(q)
        ), p
        if top == threshold:
            complete += 1
            assert all(q <= top for q in prime_powers)
    assert complete == 60


def split_rule(exponents, p, a):
    """Reference copy of the prime-split rule: (i) a >= 2 and some class of
    the exponents modulo p**(a - 1) holds a single term, or (ii) inside some
    class modulo p**(a - 1) one of the p sub-classes modulo p**a is empty
    and another holds a single term."""
    classes = {}
    for e in exponents:
        classes.setdefault(e % p ** (a - 1), []).append(e)
    for members in classes.values():
        if a >= 2 and len(members) == 1:
            return True
        sub = Counter(e % p**a for e in members)
        if len(sub) < p and 1 in sub.values():
            return True
    return False


def gap_product_candidates(p):
    """Reference copy of the earlier candidate set, filtered by the partner
    test and the prime-split rule: every s in 2..threshold of the form
    d * m, with d a divisor of a gap from the first exponent and m a
    product of distinct primes <= the term count."""
    ctx = MaskContext(p)
    exponents = [e for e, _ in p.terms()]
    found = {1}
    for e in exponents[1:]:
        found.update(d for d in divisors(e - exponents[0]) if d <= ctx.threshold)
    primes = [q for q in range(2, len(exponents) + 1) if all(q % r for r in range(2, q))]
    for q in primes:
        found.update([s * q for s in found if s * q <= ctx.threshold])

    blocked = {}

    def split_passes(s):
        for q in primes:
            a = 0
            while s % q ** (a + 1) == 0:
                a += 1
            if a:
                if (q, a) not in blocked:
                    blocked[q, a] = split_rule(exponents, q, a)
                if blocked[q, a]:
                    return False
        return True

    return tuple(s for s in sorted(found) if s > 1 and ctx.may_vanish(s) and split_passes(s))


def test_candidates_are_the_partnered_gap_products():
    """The closed form yields exactly the earlier candidates that pass the
    partner test and the prime-split rule, on dense, lacunary and many-term polynomials, half with
    a planted Phi_m(x**c), and on a monomial and a constant."""
    polys = [IntPoly.x_power(9, 2), IntPoly.x_power(0, -5)]
    polys += _planted_polynomials(73, 150)
    nonempty = 0
    for p in polys:
        if p.is_zero:
            continue
        got = MaskContext(p).candidates
        assert got == gap_product_candidates(p), p
        nonempty += bool(got)
    assert nonempty > 100
    assert MaskContext(polys[0]).candidates == MaskContext(polys[1]).candidates == ()


def first_last_partner_test(p, s):
    """Reference copy of the earlier partner test, which asked Mann's
    condition of the first and the last term only."""
    exponents = [e for e, _ in p.terms()]
    u = s // math.gcd(s, math.prod(primes_up_to(len(exponents))))
    return any((e - exponents[0]) % u == 0 for e in exponents[1:]) and any(
        (exponents[-1] - e) % u == 0 for e in exponents[:-1]
    )


def _mixed_polynomials(seed, count):
    """Dense, lacunary and many-term polynomials with coefficients in
    -3..3, half of them times a planted Phi_m(x**c)."""
    rng = random.Random(seed)
    for trial in range(count):
        kind = trial % 3
        if kind == 0:
            p = _random_sparse(rng, rng.randint(1, 12), 24)
        elif kind == 1:
            p = _random_sparse(rng, rng.randint(1, 5), 500_000)
        else:
            p = _random_sparse(rng, rng.randint(20, 60), 90)
        if trial % 2:
            m, c = rng.randint(2, 30), rng.choice((1, 2, 3, 7, 1000) if kind == 1 else (1, 2, 3, 7))
            p = p * cyclotomic(m).compose_power(c)
            yield p, sorted(set(range(1, 121)) | set(divisors(m * c)))
        else:
            yield p, range(1, 121)


def test_partner_test_rejects_what_first_last_test_rejects():
    stronger = 0
    for p, indices in _mixed_polynomials(61, 150):
        ctx = MaskContext(p)
        for s in indices:
            old = first_last_partner_test(p, s)
            assert ctx.may_vanish(s) <= old, (p, s)
            stronger += old and not ctx.may_vanish(s)
    assert stronger > 1000


def test_partner_test_middle_singleton():
    # Four terms, so M = 6 and u = 5 for s = 5.  Exponents 0, 5 and 10
    # share a residue mod 5 and 7 is alone: the first and the last term
    # both have partners, and only the middle term shows that the fifth
    # cyclotomic cannot divide (1 + x**5 + x**7 + x**10 is 3 + z**2 at z).
    # So 5 is off the candidate table, and `divides` rejects it untested.
    p = mask_polynomial([0, 5, 7, 10])
    ctx = MaskContext(p)
    assert first_last_partner_test(p, 5)
    assert not ctx.may_vanish(5)
    assert 5 <= ctx.threshold and 5 not in ctx.candidates
    assert not cyc_divides(5, p) and not ctx.divides(5)
    assert (ctx.tests, *_stage_counters(ctx)) == (1, 1, 0, 0)


def test_modular_stage_never_rejects_a_divisor():
    """The evaluation modulo a prime only rejects, and a context counts each
    distinct index once: off the table, under `modular_rejections` or under
    `exact_tests`."""
    divisible = rejected = 0
    for p, indices in _mixed_polynomials(67, 150):
        ctx = MaskContext(p)
        counts = Counter()
        for s in indices:
            exact = cyc_divides(s, p)
            modular = ctx.may_vanish_mod_prime(s)
            if exact:
                assert modular, (p, s)
            divisible += exact
            rejected += not modular
            if s > 1 and s not in ctx.candidates:
                counts["table"] += 1
            elif euler_phi(s) <= p.degree and not modular:
                counts["modular"] += 1
            else:
                counts["exact"] += 1
            assert ctx.divides(s) == exact, (p, s)
        assert ctx.tests == len(indices)
        assert _stage_counters(ctx) == (counts["table"], counts["modular"], counts["exact"])
    assert divisible > 150 and rejected > 10_000
    # Past the Miller-Rabin bound there is no prime to work modulo, and the
    # stage lets the index through.
    assert MaskContext(mask_polynomial([0, 1])).may_vanish_mod_prime(MILLER_RABIN_LIMIT)


def test_split_stage_never_rejects_a_divisor():
    """No index that the prime-split stage rejects is divided by its
    cyclotomic.  Every s up to min(threshold, 2500) on a seeded sample of
    the criterion-08 masks, on the recipes and on mixed polynomials with a
    planted Phi_m(x**c)."""
    rng = random.Random(83)
    suites = _criterion_08_suites()
    masks = [mask_polynomial(digits) for _, digits in rng.sample(suites, 120)]
    masks += [mask_polynomial(load_recipe(path).digits) for path in sorted(RECIPES.glob("*.json"))]
    masks += [p for p, _ in _mixed_polynomials(89, 90)]
    pairs = rejected = 0
    for p in masks:
        ctx = MaskContext(p)
        # The threshold is at least degree + 1, whose totient is at most
        # the degree; a large one is not computed.
        top = 2500 if p.degree >= 2499 else min(ctx.threshold, 2500)
        for s in range(2, top + 1):
            pairs += 1
            if not ctx.may_vanish_split(s):
                rejected += 1
                assert not cyc_divides(s, p), (p, s)
    assert len(masks) == 120 + 3 + 90
    assert pairs > 100_000 and rejected > 10_000


@pytest.mark.parametrize(
    "digits, s",
    [
        # 1 + 2w at a primitive sixth root w: modulo 7, w = 3 makes it 0.
        # Modulo 3 the exponents fall in classes {0} and {1, 7}, and the
        # class of 2 is empty, so 3 || 6 is blocked.
        ((0, 1, 7), 6),
        # Modulo 9, the exponents 0, 3 and 2, 5 fill two of the three
        # sub-classes of their classes modulo 3, one term each: 9 || 18 is
        # blocked.
        ((0, 2, 3, 14), 18),
    ],
)
def test_only_the_split_stage_rejects(digits, s):
    """The partner stage passes s and the modular stage would let it
    through; the prime-split stage rejects it, once with v_p(s) = 1 and
    once with v_p(s) = 2.  So s is off the candidate table, and `divides`
    rejects it with neither the modular stage nor the exact test."""
    p = mask_polynomial(digits)
    ctx = MaskContext(p)
    assert euler_phi(s) <= p.degree
    assert ctx.may_vanish(s) and ctx.may_vanish_mod_prime(s)
    assert not ctx.may_vanish_split(s) and not cyc_divides(s, p)
    assert s not in ctx.candidates
    assert not ctx.divides(s)
    assert (ctx.tests, *_stage_counters(ctx)) == (1, 1, 0, 0)


def _stage_counters(ctx):
    """The indices a context answered off its table, then its two stage
    counters."""
    off_table = ctx.tests - ctx.modular_rejections - ctx.exact_tests
    return (off_table, ctx.modular_rejections, ctx.exact_tests)


def test_stage_counters_are_pinned(monkeypatch):
    """Over the certification of every criterion-08 set and the three
    recipes: the search's divisions, the distinct indices each decision's
    exact test answers, and the stage counters of the context that builds
    each report.  The search asks the exact test alone, so the stages see
    only the report's indices, and the report asks none off the candidate
    table.  An index that the search or the order already answered is read
    from the exact test's memo and counted as exact, never as modular.  A
    change that moves work from one stage to another, or that makes the
    search or the report test more or fewer indices, moves them."""
    contexts = []

    def recording_report(ctx, base, cap):
        contexts.append(ctx)
        return context_report(ctx, base, cap)

    monkeypatch.setattr(phitree, "context_report", recording_report)
    suites = _criterion_08_suites()
    suites += [(made.base, made.digits) for made in map(load_recipe, sorted(RECIPES.glob("*.json")))]
    assert len(suites) == 1800
    exact_tests, divisions = 0, 0
    for base, digits in suites:
        ds = DigitSet.for_tiling(base, digits)
        exact = ExactTest(ds.mask())
        divisions += phitree._certify(exact, base, ds.digits, None).stats.divisions
        exact_tests += exact.tests
    assert divisions == 7_539
    assert exact_tests == 8_425
    assert len(contexts) == len(suites)
    stages = Counter()
    for ctx in contexts:
        stages.update(dict(zip(("table", "modular", "exact"), _stage_counters(ctx))))
    assert sum(ctx.tests for ctx in contexts) == sum(stages.values()) == 13_483
    assert stages == {"table": 0, "modular": 9_386, "exact": 4_097}


class _RecordingExact(ExactTest):
    """An exact test that records every index asked of it."""

    __slots__ = ("asked",)

    def __init__(self, p):
        super().__init__(p)
        self.asked = []

    def divides(self, s):
        self.asked.append(s)
        return super().divides(s)


def test_candidate_table_changes_no_answer_or_counter():
    """A context answers every index above 1 that is off its candidate
    table False at once.  In 2..threshold the table holds exactly the
    indices that pass the partner and prime-split stages, and no index
    past the threshold divides.  So every answer must equal `cyc_divides`,
    index 1 and indices past the threshold included.  A table rejection
    moves neither `modular_rejections` nor `exact_tests`, and no index past
    the threshold reaches the context's exact test.  A polynomial with
    P(1) = 0 checks index 1.  A lacunary polynomial's threshold runs into
    the millions, so its indices are 1..2000 and the 50 on either side of
    the threshold; the others run from 1 to 50 past the threshold."""
    polys = [cyclotomic(1) * mask_polynomial([0, 1, 8, 9])]
    polys += _planted_polynomials(97, 60)
    stage_names = ("table", "modular", "exact")
    for p in polys:
        exact = _RecordingExact(p)
        ctx = MaskContext(exact)
        top = ctx.threshold
        if top <= 5000:
            indices = range(1, top + 51)
        else:
            indices = [*range(1, 2001), *range(top - 49, top + 51)]
        for s in indices:
            if 1 < s <= top:
                on_table = ctx.may_vanish(s) and ctx.may_vanish_split(s)
                assert (s in ctx.candidates) == on_table, (p, s)
            if s > 1 and s not in ctx.candidates:
                stage = "table"
            elif euler_phi(s) <= p.degree and not ctx.may_vanish_mod_prime(s):
                stage = "modular"
            else:
                stage = "exact"
            before = _stage_counters(ctx)
            got = ctx.divides(s)
            moved = [n for n, a, b in zip(stage_names, before, _stage_counters(ctx)) if a != b]
            assert moved == [stage], (p, s)
            assert got == (stage == "exact" and cyc_divides(s, p)) == cyc_divides(s, p), (p, s)
        assert ctx.tests == len(indices), p
        assert all(s <= top for s in exact.asked), p
    assert MaskContext(polys[0]).divides(1)

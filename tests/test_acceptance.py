"""End-to-end acceptance gate.

Every criterion is exact arithmetic, so each check is an equality, not a
tolerance; the only budgets are wall-clock ones, printed per criterion.
Run with -s to see the pass lines for green runs too.
"""

import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from cyclotile import (
    Decomposition,
    DirectSumCollision,
    IntPoly,
    Vertex,
    absolute_continuity_check,
    build_modulo_product_form,
    build_product_form,
    certificate_from_json,
    certificate_to_json,
    check_p1,
    check_t1,
    children,
    cyclotomic,
    cyclotomic_product,
    decide_tile_digit_set,
    divisors,
    enumerate_dividing_blockings,
    euler_phi,
    expand_indices,
    integer_tile_check,
    kenyon_check,
    load_recipe,
    mask_polynomial,
    pk_order,
    protasov_decide,
    root_indices,
    spectrum_structure,
    stage_kernels,
    tau_index,
    tile_intervals,
)

RECIPES = Path(__file__).resolve().parents[1] / "recipes"


def criterion(number: int, limit: float, label: str):
    """Time the body against its budget and print one pass/fail line."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                dt = time.perf_counter() - t0
                print(
                    f"criterion {number:02d} FAIL ({dt:.2f}s, limit {limit:g}s):"
                    f" {label}",
                    flush=True,
                )
                raise
            dt = time.perf_counter() - t0
            word = "PASS" if dt < limit else "FAIL (over budget)"
            print(
                f"criterion {number:02d} {word} ({dt:.2f}s, limit {limit:g}s):"
                f" {label}",
                flush=True,
            )
            assert dt < limit, f"criterion {number} took {dt:.2f}s of {limit:g}s"

        return run

    return wrap


@criterion(1, 1.0, "base 4 tile {0,1,8,9}: spectrum, structure, exact geometry")
def test_criterion_01_base4_tile_full_record():
    cert = decide_tile_digit_set(4, (0, 1, 8, 9))
    assert cert.is_tile and cert.verdict == "tile"
    assert cert.report.prime_powers == (2, 16)
    st = cert.report.structure
    assert st is not None and st.passed
    assert st.exponents == {2: (1, 4)}
    assert {a % 2 for a in st.exponents[2]} == {0, 1}
    geo = tile_intervals(4, (0, 1, 8, 9), 1)
    assert geo.intervals == (
        (Fraction(0), Fraction(1)),
        (Fraction(2), Fraction(3)),
    )
    assert geo.measure == 2


@criterion(2, 1.0, "base 4 non-tile {0,1,4,5}: spectrum, failed structure, Z-tiling")
def test_criterion_02_base4_non_tile_still_integer_tile():
    cert = decide_tile_digit_set(4, (0, 1, 4, 5))
    assert not cert.is_tile and cert.verdict == "not-tile"
    assert cert.report.prime_powers == (2, 8)
    st = cert.report.structure
    assert st is not None and not st.passed and st.violation
    tiling = integer_tile_check((0, 1, 4, 5))
    assert tiling is not None and tiling.period == 8


@criterion(3, 2.0, "three-stage base 12 modulo construction: kernels, digits, P1")
def test_criterion_03_modulo_construction_reproduction():
    dec = Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))
    trace = stage_kernels(dec)
    assert trace.kernels[1] == (2, 3, 6, 12)
    assert trace.moduli[1] == 12
    assert trace.kernels[2] == (2, 3, 6, 12, 16, 48)
    assert trace.moduli[2] == 48
    built = build_modulo_product_form(
        dec, ({}, {5: 17}, {24: 72, 28: 76, 32: 80})
    )
    assert built.digits == (0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80)
    cert = decide_tile_digit_set(12, built.digits)
    assert cert.is_tile
    assert check_p1(12, built.digits).holds


@criterion(4, 10.0, "second-order recipe: exact mask factorization and order 2")
def test_criterion_04_second_order_recipe():
    made = load_recipe(RECIPES / "b12_second_order.json")
    expected = (
        cyclotomic(2)
        * cyclotomic(2).compose_power(96)
        * cyclotomic(3).compose_power(2304)
    )
    assert made.digit_set.mask() == expected
    cert = decide_tile_digit_set(12, made.digits)
    assert cert.is_tile
    assert not check_p1(12, made.digits).holds
    assert pk_order(12, made.digits) == 2


@criterion(5, 30.0, "first-order variant recipe: two distinct dividing blockings")
def test_criterion_05_first_order_variant_recipe():
    made = load_recipe(RECIPES / "b12_first_order_variant.json")
    assert made.kind == "product-form" and made.order == 1
    assert made.digits == (
        0, 1, 288, 289, 2304, 2305, 2592, 2593, 4608, 4609, 4896, 4897,
    )
    cert = decide_tile_digit_set(12, made.digits)
    assert cert.is_tile
    found = enumerate_dividing_blockings(12, made.digits, limit=4)
    assert len({blk.indices for blk in found}) >= 2
    mask = mask_polynomial(made.digits)
    for blk in found:
        assert blk.divides(mask)


@criterion(6, 1.0, "base 6 tree shape: roots, children, level-1 indices")
def test_criterion_06_base6_tree_structure():
    assert root_indices(6) == (2, 3, 6)
    assert children(3, 6) == (9, 18)
    assert [tau_index(m, 1, 6) for m in range(1, 6)] == [6, 3, 2, 3, 6]


@criterion(7, 120.0, "identity suites: divisor products, substitutions, fibers")
def test_criterion_07_identity_suites():
    # product over all divisors reassembles x**n - 1
    for n in range(1, 301):
        lhs = cyclotomic_product(divisors(n))
        assert lhs == IntPoly.x_power(n) - IntPoly.one(), n

    # prime-power index: substitute x**(p**(a-1)) into the prime one
    for p in (2, 3, 5, 7, 11, 13):
        a = 2
        while p**a <= 2000:
            assert cyclotomic(p**a) == cyclotomic(p).compose_power(p ** (a - 1))
            a += 1

    # substituting x**p splits by whether p already divides the index
    for n in range(1, 61):
        for p in (2, 3, 5, 7, 11, 13):
            subbed = cyclotomic(n).compose_power(p)
            if n % p == 0:
                assert subbed == cyclotomic(n * p), (n, p)
            else:
                assert subbed == cyclotomic(n * p) * cyclotomic(n), (n, p)

    # index expansion matches brute-force polynomial expansion
    for d in range(1, 51):
        for b in range(2, 31):
            expanded = expand_indices(d, b)
            assert cyclotomic_product(expanded) == cyclotomic(d).compose_power(
                b
            ), (d, b)

    # residue-tree fibers: every realized index owns totient-many vertices
    for b in range(2, 13):
        for level in range(1, 4):
            groups: dict[int, list] = {}
            # the level's vertices: residues ending in a nonzero digit
            for m in range(1, b**level):
                if m % b:
                    groups.setdefault(tau_index(m, level, b), []).append(Vertex(level, m))
            for t, members in groups.items():
                assert len(members) == euler_phi(t), (b, level, t)


def _random_digit_sets(rng, base, count, top):
    """count digit sets for the base: uniform draws plus residue-complete
    perturbations, the latter guaranteeing a supply of genuine tiles."""
    out = []
    while len(out) < count:
        if len(out) % 3 == 2:
            digits = [0] + [
                i + base * rng.randint(0, (top - i) // base)
                for i in range(1, base)
            ]
        else:
            digits = [0] + sorted(rng.sample(range(1, top + 1), base - 1))
        if math.gcd(*digits) == 1:
            out.append(tuple(sorted(digits)))
    return out


def _criterion_08_suites():
    suites = []
    for combo in itertools.combinations(range(1, 21), 3):
        digits = (0,) + combo
        if math.gcd(*digits) == 1:
            suites.append((4, digits))
    rng = random.Random(408)
    for base in (6, 8, 9, 12):
        for digits in _random_digit_sets(rng, base, 200, 500):
            suites.append((base, digits))
    return suites


@criterion(8, 300.0, "dual-route agreement plus tile-side cross checks")
def test_criterion_08_route_agreement():
    suites = _criterion_08_suites()

    tiles = 0
    for base, digits in suites:
        cert = decide_tile_digit_set(base, digits)
        pro = protasov_decide(base, digits)
        assert pro.status in ("blocking", "absent"), (base, digits)
        assert (pro.blocking is not None) == pro.is_tile, (base, digits)
        assert cert.is_tile == pro.is_tile, (base, digits)
        if cert.is_tile:
            tiles += 1
            assert kenyon_check(base, digits, m_limit=200).holds, (base, digits)
            assert check_t1(digits), (base, digits)
            assert spectrum_structure(base, digits).passed, (base, digits)
            assert integer_tile_check(digits) is not None, (base, digits)
    assert len(suites) >= 800 + 100
    assert tiles >= 100, f"only {tiles} tiles reached the cross checks"


def test_certificates_round_trip_exactly():
    """A loaded certificate serializes back to the very text it came from."""
    recipes = [load_recipe(path) for path in sorted(RECIPES.glob("*.json"))]
    assert len(recipes) == 3
    suites = _criterion_08_suites() + [(made.base, made.digits) for made in recipes]
    assert len(suites) == 1797 + 3
    for base, digits in suites:
        cert = decide_tile_digit_set(base, digits)
        for indent in (None, 2):
            text = certificate_to_json(cert, indent=indent)
            assert certificate_to_json(certificate_from_json(text), indent=indent) == text


def test_any_dividing_blocking_loads():
    """A tile certificate may carry a dividing blocking other than the one
    the search finds first; the loader checks it and keeps it."""
    made = load_recipe(RECIPES / "b12_first_order_variant.json")
    second = enumerate_dividing_blockings(12, made.digits, limit=2)[1].indices
    payload = json.loads(certificate_to_json(decide_tile_digit_set(12, made.digits)))
    assert tuple(payload["blocking"]) != second
    payload["blocking"] = payload["kernel"] = list(second)
    assert certificate_from_json(json.dumps(payload)).blocking == second


def _ordered_factorizations(n):
    if n == 1:
        return [()]
    out = []
    for f in range(2, n + 1):
        if n % f == 0:
            for rest in _ordered_factorizations(n // f):
                out.append((f,) + rest)
    return out


def _random_decomposition(rng, base):
    """Canonical mixed-radix parts, each element nudged by base multiples."""
    factors = rng.choice(_ordered_factorizations(base))
    parts = []
    scale = 1
    for i, m in enumerate(factors):
        while True:
            part = set()
            for e in range(m):
                fixed = e == 0 or (i == 0 and e == 1)
                nudge = 0 if fixed else base * rng.randint(0, 3)
                part.add(scale * e + nudge)
            if len(part) == m:
                break
        parts.append(tuple(sorted(part)))
        scale *= m
    exps = []
    level = rng.randint(0, 1)
    for _ in range(len(factors) - 1):
        exps.append(level)
        level += rng.randint(0, 1)
    return Decomposition(base, tuple(parts), tuple(exps))


@criterion(9, 180.0, "random constructions all verify as order-1 tiles")
def test_criterion_09_constructor_soundness():
    rng = random.Random(409)
    built = 0
    while built < 100:
        base = rng.choice((4, 6, 8, 9, 12))
        try:
            dec = _random_decomposition(rng, base)
            plain = build_product_form(dec)
            if built % 2 and len(dec.parts) > 1:
                stage = rng.randrange(1, len(dec.parts))
                victims = [
                    d for d in plain.stage_digits[stage] if d not in (0, 1)
                ]
                v = rng.choice(victims)
                reps = [{} for _ in dec.parts]
                trace = stage_kernels(dec)
                reps[stage] = {v: v + trace.moduli[stage] * rng.randint(1, 3)}
                made = build_modulo_product_form(dec, reps)
            else:
                made = plain
        except DirectSumCollision:
            continue
        cert = decide_tile_digit_set(base, made.digits)
        assert cert.is_tile, (base, made.digits)
        assert pk_order(base, made.digits) == 1, (base, made.digits)
        built += 1
    second = load_recipe(RECIPES / "b12_second_order.json")
    assert pk_order(12, second.digits) == 2


@criterion(10, 120.0, "acceptance by the continuity check forces base | count")
def test_criterion_10_continuity_acceptance_divisibility():
    rng = random.Random(410)
    accepted = 0
    for trial in range(500):
        base = rng.randint(2, 6)
        if trial % 2:
            m = rng.randint(1, 30)
            digits = sorted(rng.sample(range(0, 121), m))
        else:
            copies = rng.randint(1, 30 // base)
            digits = sorted(
                i + base * s
                for i in range(base)
                for s in rng.sample(range(0, 21), copies)
            )
        report = absolute_continuity_check(base, digits)
        if report.accepted:
            accepted += 1
            assert len(digits) % base == 0, (base, digits)
            assert report.blocking, (base, digits)
    assert accepted >= 25, f"only {accepted} acceptances exercised the property"

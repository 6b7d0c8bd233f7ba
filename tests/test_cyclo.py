import cmath
import importlib
import itertools
import math
import pkgutil
import random
import time
from collections import Counter

import pytest

import cyclotile
from cyclotile.cyclo import (
    MILLER_RABIN_LIMIT,
    cyc_divides,
    cyclotomic,
    cyclotomic_product,
    cyclotomics_divide,
    divisors,
    euler_phi,
    expand_indices,
    expand_times,
    factorize,
    is_prime,
    modular_root_of_unity,
    phi_at_one,
    phi_monotone_bound,
    primes_up_to,
    radical,
)
from cyclotile.intpoly import IntPoly, divide_exact, mask_polynomial


def prime_sieve(n):
    """Oracle: a table with sieve[k] true exactly for the primes k < n."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return sieve


def oracle_cyclotomic(n):
    """Independent oracle: multiply (x - z) over primitive n-th roots z.

    Numerically, then round; coefficients for the n used here are small
    integers, so rounding is safe.
    """
    poly = [complex(1)]
    for k in range(n):
        if math.gcd(k, n) == 1:
            z = cmath.exp(2j * cmath.pi * k / n)
            shifted = [complex(0)] + poly            # x * poly
            scaled = [-z * c for c in poly] + [complex(0)]
            poly = [a + b for a, b in zip(shifted, scaled)]
    out = []
    for c in poly:
        r = round(c.real)
        assert abs(c.real - r) < 0.01 and abs(c.imag) < 0.01, (n, c)
        out.append(r)
    return IntPoly(tuple(out))


def test_factorize_and_euler_phi():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    with pytest.raises(ValueError, match="factorize needs a positive integer"):
        factorize(0)
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(6912) == 2304
    assert radical(6912) == 6
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert [math.prod(primes_up_to(n)) for n in range(8)] == [1, 1, 2, 6, 6, 30, 30, 210]
    assert primes_up_to(12) == (2, 3, 5, 7, 11) and primes_up_to(13)[-1] == 13
    assert primes_up_to(1) == ()


def test_phi_divides_phi_of_multiples():
    # monotone and divisible along index divisibility
    for n in range(1, 400):
        for d in divisors(n):
            assert euler_phi(d) <= euler_phi(n)
            assert euler_phi(n) % euler_phi(d) == 0


def test_cyclotomic_small_values_frozen():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(3) == IntPoly((1, 1, 1))
    assert cyclotomic(4) == IntPoly((1, 0, 1))
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
    assert cyclotomic(16) == IntPoly((1, 0, 0, 0, 0, 0, 0, 0, 1))
    for index_zero in (cyclotomic, phi_at_one):
        with pytest.raises(ValueError, match="cyclotomic index must be positive"):
            index_zero(0)


def test_cyclotomic_against_root_product_oracle():
    for n in list(range(1, 64)) + [105]:
        assert cyclotomic(n) == oracle_cyclotomic(n), n


def test_cyclotomic_degree_and_lead():
    for n in range(1, 2001):
        p = cyclotomic(n)
        assert p.degree == euler_phi(n), n
        assert p.leading == 1


def test_divisor_product_identity():
    # product over divisors of n reconstructs x**n - 1; the products of four
    # and five primes reach the generator through several squarefree steps
    for n in list(range(1, 121)) + [210, 330, 390, 462, 1155, 2310]:
        prod = cyclotomic_product(divisors(n))
        assert prod == IntPoly.x_power(n) - IntPoly.one(), n


def test_prime_power_shapes():
    # prime index: all-ones; prime power: prime cyclotomic composed upward
    for p in (2, 3, 5, 7, 11, 13):
        assert cyclotomic(p) == IntPoly((1,) * p)
        for a in range(1, 4):
            assert cyclotomic(p ** (a + 1)) == cyclotomic(p).compose_power(p**a)


def test_substitution_rule_both_cases():
    # x -> x**p sends index s to s*p when p | s, else splits into s and s*p
    cases = [(6, 2), (6, 3), (10, 5), (9, 3), (8, 2), (15, 2)]
    for s, p in cases:
        subst = cyclotomic(s).compose_power(p)
        if s % p == 0:
            assert subst == cyclotomic(s * p)
        else:
            assert subst == cyclotomic(s) * cyclotomic(s * p)


def test_phi_at_one_matches_polynomials():
    for n in range(1, 400):
        assert phi_at_one(n) == cyclotomic(n).at_one(), n


def test_expand_indices_frozen_values():
    assert expand_indices(2, 6) == frozenset({4, 12})
    assert expand_indices(3, 6) == frozenset({9, 18})
    assert expand_indices(6, 6) == frozenset({36})
    assert expand_indices(4, 12) == frozenset({16, 48})
    with pytest.raises(ValueError, match="need index >= 1 and base >= 2"):
        expand_indices(0, 2)
    assert expand_indices(2, 12) == frozenset({8, 24})
    assert expand_indices(4, 4) == frozenset({16})


def brute_expand(d, b):
    """Independent oracle: factor cyclotomic(d)(x**b) by trial division.

    Every root x of cyclotomic(d)(x**b) has x**(d*b) = 1, so only indices
    dividing d*b can divide it; the quotient must still reach 1, which
    proves the factorization complete.
    """
    target = cyclotomic(d).compose_power(b)
    found = []
    for e in divisors(d * b):
        q = divide_exact(target, cyclotomic(e))
        while q is not None:
            found.append(e)
            target = q
            q = divide_exact(target, cyclotomic(e))
    assert target == IntPoly.one(), "oracle missed a factor"
    return frozenset(found)


def test_expand_indices_against_brute_force():
    rng = random.Random(5)
    pairs = {(2, 6), (3, 6), (6, 6), (4, 12), (12, 12), (5, 10), (9, 12)}
    # Bases with three primes, with indices sharing none, some or all of them.
    pairs |= {(1, 30), (7, 30), (2, 30), (6, 30), (10, 30), (30, 30), (49, 30)}
    pairs |= {(1, 60), (7, 60), (11, 60), (2, 60), (4, 60), (9, 60), (15, 60), (30, 60)}
    while len(pairs) < 60:
        pairs.add((rng.randint(2, 50), rng.randint(2, 30)))
    for d, b in sorted(pairs):
        assert expand_indices(d, b) == brute_expand(d, b), (d, b)


def test_expand_indices_properties():
    rng = random.Random(17)
    for _ in range(200):
        d = rng.randint(1, 60)
        b = rng.randint(2, 30)
        e_set = expand_indices(d, b)
        for e in e_set:
            assert e % d == 0
            if math.gcd(d, b) > 1:
                assert e >= 2 * d
        # degree bookkeeping: sum of factor degrees is phi(d) * b
        assert sum(euler_phi(e) for e in e_set) == euler_phi(d) * b


def test_expand_indices_order_independent():
    # applying the prime steps in any order gives the same set; spot check
    # by comparing against expansion through intermediate bases
    assert expand_times([2], 6, 2) == expand_indices(2, 36)
    assert expand_times([3], 12, 2) == expand_indices(3, 144)
    for d in (2, 3, 4, 6, 12):
        via_4_then_3 = set()
        for s in expand_indices(d, 4):
            via_4_then_3.update(expand_indices(s, 3))
        assert frozenset(via_4_then_3) == expand_indices(d, 12)


def test_cyc_divides():
    p = mask_polynomial([0, 1, 8, 9])
    assert cyc_divides(2, p)
    assert cyc_divides(16, p)
    assert not cyc_divides(4, p)
    assert not cyc_divides(8, p)
    assert not cyc_divides(3, p)
    # degree short-circuit
    assert not cyc_divides(64, p)
    with pytest.raises(ValueError, match="divisibility test against the zero polynomial"):
        cyc_divides(3, IntPoly.zero())


def test_cyc_divides_matches_plain_division():
    rng = random.Random(23)
    for _ in range(200):
        digits = sorted(rng.sample(range(0, 40), rng.randint(1, 8)))
        p = mask_polynomial(digits)
        s = rng.randint(1, 50)
        assert cyc_divides(s, p) == (divide_exact(p, cyclotomic(s)) is not None)


def dense_quotient(p, q):
    """Reference: exact quotient p / q by dense long division, or None."""
    rem, top = list(p.coeffs), q.degree
    quot = [0] * max(len(rem) - top, 0)
    for i in range(len(rem) - 1, top - 1, -1):
        c = rem[i] * q.leading  # the leading coefficient is 1 or -1
        quot[i - top] = c
        for e, d in q.terms():
            rem[i - top + e] -= c * d
    return None if any(rem) else IntPoly(quot)


def test_cyclotomics_divide():
    p = mask_polynomial([0, 1, 8, 9])
    assert cyclotomics_divide([2, 16], p)
    q = dense_quotient(p, cyclotomic_product([2, 16]))
    assert q is not None and q * cyclotomic(2) * cyclotomic(16) == p
    assert not cyclotomics_divide([2, 8], p)
    # against one dense division by the materialized product
    rng = random.Random(17)
    for trial in range(60):
        digits = rng.sample(range(0, 40), rng.randint(1, 8))
        indices = rng.sample(range(1, 30), rng.randint(1, 3))
        p = mask_polynomial(digits)
        if trial % 2:
            p = p * cyclotomic_product(indices)
        want = dense_quotient(p, cyclotomic_product(indices)) is not None
        assert cyclotomics_divide(indices, p) == want, (digits, indices)
    assert cyclotomics_divide([3, 5], IntPoly.zero())
    with pytest.raises(ValueError, match="distinct"):
        cyclotomics_divide([3, 3], p)
    # A lacunary tile's kernel: the cost follows the members, not the degree.
    lacunary = mask_polynomial([0, 1, 2, 999_999])
    assert cyclotomics_divide([2, 4], lacunary)
    assert not cyclotomics_divide([2, 3], lacunary)


def test_cyclotomics_divide_matches_cyc_divides():
    """Member by member, the substitution-rule check answers as the
    division-free test does, on seeded masks with a planted cyclotomic and
    without one.  Every third index is a base-30 tree node, whose radical
    has three primes, and its mask is spread over many residues modulo
    e / radical(e)."""
    rng = random.Random(31)
    answers = Counter()
    for trial in range(300):
        if trial % 3 == 0:
            e = 30 * 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 2)
            digits = rng.sample(range(0, 4 * e), rng.randint(1, 10))
        else:
            e = rng.randint(1, 80)
            digits = rng.sample(range(0, 200), rng.randint(1, 10))
        p = mask_polynomial(digits)
        if trial % 2:
            p = p * cyclotomic(e)
            if trial % 4 == 1:
                p = p + IntPoly.x_power(rng.randrange(p.degree + 1))
        if p.is_zero:
            continue
        want = cyc_divides(e, p)
        assert cyclotomics_divide((e,), p) == want, (e, digits, trial)
        answers[want, radical(e) % 30 == 0] += 1
    assert all(answers[key] >= 10 for key in itertools.product((True, False), repeat=2))


def test_cyclotomics_divide_deep_member():
    """A member near 2**62 is checked through its radical's cyclotomic, so
    no list longer than the radical is built: (1 + x)(1 + x**(2 * 4**30))
    is divided by the 2nd and the 2**62-th cyclotomics, and not by the
    2**61-th."""
    k = 2 * 4**30
    p = mask_polynomial([0, 1, k, k + 1])
    start = time.perf_counter()
    assert cyclotomics_divide((2, 2**62), p)
    assert not cyclotomics_divide((2**61,), p)
    assert time.perf_counter() - start < 0.5


def test_kernel_check_divides_below_the_radical(monkeypatch):
    """Every divisor that reaches the division loop on the kernel check's
    path, cyclotomic generation included, has degree below radical(e).
    The check divides one list of length radical(e) per residue of the
    exponents modulo e / radical(e), and no cyclotomic of an index that is
    not squarefree is built: never the e-th, of degree euler_phi(e)."""
    from cyclotile import cyclo, intpoly

    seen = []
    built = []
    reduce_dense = intpoly._reduce_dense
    make = cyclo.cyclotomic

    def recording(caller):
        def record(rem, q):
            seen.append((caller, len(rem), q.degree))
            return reduce_dense(rem, q)

        return record

    def recording_cyclotomic(n):
        built.append(n)
        return make(n)

    monkeypatch.setattr(intpoly, "_reduce_dense", recording("generation"))
    monkeypatch.setattr(cyclo, "_reduce_dense", recording("check"))
    monkeypatch.setattr(cyclo, "cyclotomic", recording_cyclotomic)
    make.cache_clear()
    masks = [
        mask_polynomial([0, 1, 2**19, 2**19 + 1]),
        mask_polynomial(range(30)),
        mask_polynomial([0, 7, 45, 101, 2_000, 7_777]),
    ]
    for e in (2**20, 4, 30, 2**3 * 3**2 * 5 * 7, 2 * 3**5 * 5**2, 210):
        r = radical(e)
        for p in masks:
            seen.clear()
            built.clear()
            cyclotomics_divide((e,), p)
            checks = [length for caller, length, _ in seen if caller == "check"]
            assert all(degree < r for _, _, degree in seen), (e, seen)
            assert set(checks) == {r}, (e, seen)
            assert len(checks) <= len({k % (e // r) for k, _ in p.terms()})
            assert all(n == radical(n) for n in built), (e, built)


def sieve_phi_bounds(limit):
    """Oracle: the prime-sieve search phi_monotone_bound used before its
    branch and bound.  It walks every s with euler_phi(s) <= limit, as
    products of prime powers over a sieve of the primes up to limit + 1,
    and returns a table whose entry N is the largest s with
    euler_phi(s) <= N, for N in 0..limit (1 for N = 0)."""
    sieve = prime_sieve(limit + 2)
    primes = [p for p in range(limit + 2) if sieve[p]]
    largest = [1] * (limit + 1)

    def grow(i, value, phi):
        largest[phi] = max(largest[phi], value)
        for j in range(i, len(primes)):
            p = primes[j]
            if phi * (p - 1) > limit:
                break
            v, f = value * p, phi * (p - 1)
            while True:
                grow(j + 1, v, f)
                if f * p > limit:
                    break
                v, f = v * p, f * p

    grow(0, 1, 1)
    return list(itertools.accumulate(largest, max))


def test_phi_monotone_bound():
    assert phi_monotone_bound(9) == 30
    assert phi_monotone_bound(1) == 2
    assert phi_monotone_bound(5) == 12
    assert phi_monotone_bound(0) == phi_monotone_bound(-4) == 1


def test_phi_monotone_bound_matches_sieve_search():
    """Equal to the sieve search for every N <= 3000, for seeded random N up
    to 4 * 10**5 and at 10**6."""
    top = 10**6
    table = sieve_phi_bounds(top)
    rng = random.Random(12)
    sample = list(range(3001)) + [rng.randrange(3001, 4 * 10**5) for _ in range(20)] + [top]
    for n in sample:
        assert phi_monotone_bound(n) == table[n], n
    assert table[top] == 5_290_740


def test_phi_monotone_bound_at_64_bit_scale():
    for n in (10**9, 2**62):
        s = phi_monotone_bound(n)
        assert s > n and euler_phi(s) <= n, n


def test_is_prime_matches_sieve():
    sieve = prime_sieve(10**6)
    assert all(is_prime(n) == bool(sieve[n]) for n in range(10**6))


def strong_probable_prime(n, a):
    """Reference: one round of Miller-Rabin, n odd and > a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to the first k prime bases, with its factors:
# is_prime must use at least k + 1 bases from each of these upward.
STRONG_PSEUDOPRIMES = (
    (2047, 1, (23, 89)),
    (1373653, 2, (829, 1657)),
    (25326001, 3, (2251, 11251)),
    (3215031751, 4, (151, 751, 28351)),
    (2152302898747, 5, (6763, 10627, 29947)),
    (3474749660383, 6, (1303, 16927, 157543)),
    (341550071728321, 8, (10670053, 32010157)),
    (3825123056546413051, 11, (149491, 747451, 34233211)),
    (318665857834031151167461, 12, (399165290221, 798330580441)),
)


def test_is_prime_strong_pseudoprimes():
    for n, k, factors in STRONG_PSEUDOPRIMES:
        assert math.prod(factors) == n
        assert all(strong_probable_prime(n, a) for a in BASES[:k]), n
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**61 - 1) * 1000003)
    with pytest.raises(ValueError):
        is_prime(MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError):
        is_prime(-7)


def test_is_prime_matches_all_bases():
    """Fewer bases below each bound give the answer of all thirteen, which
    is exact on the whole range: random odd numbers between two bounds and
    the last 500 odd numbers below each."""
    rng = random.Random(71)
    tops = [n for n, _, _ in STRONG_PSEUDOPRIMES] + [MILLER_RABIN_LIMIT]
    primes = 0
    for low, high in zip(tops, tops[1:]):
        odd = [rng.randrange(low, high) | 1 for _ in range(300)]
        for n in odd + list(range(high - 1000, high, 2)):
            full = all(strong_probable_prime(n, a) for a in BASES)
            assert is_prime(n) == full, n
            primes += full
    assert primes > 100


def test_modular_root_of_unity():
    """l is the least odd prime = 1 (mod s) and w has order exactly s mod l."""
    top = 2000
    sieve = prime_sieve(200 * top)
    for s in range(1, top + 1):
        ell, w = modular_root_of_unity(s)
        step = s if s % 2 == 0 else 2 * s
        assert sieve[ell] and ell % 2 and (ell - 1) % step == 0, s
        assert not any(sieve[k] for k in range(step + 1, ell, step)), s
        x, order = w, 1
        while x != 1:
            x, order = x * w % ell, order + 1
            assert order <= s, s
        assert order == s, s
    with pytest.raises(ValueError):
        modular_root_of_unity(0)
    assert modular_root_of_unity(MILLER_RABIN_LIMIT) is None


def test_caches_are_bounded():
    """Every `lru_cache` in the package's modules, found by its
    `cache_info`, has a finite size."""
    found = set()
    for info in pkgutil.iter_modules(cyclotile.__path__):
        module = importlib.import_module(f"{cyclotile.__name__}.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    assert obj.cache_info().maxsize is not None, obj
                    found.add(f"{info.name}.{obj.__name__}")
    assert found >= {
        "cyclo.factorize",
        "cyclo.divisors",
        "cyclo.euler_phi",
        "cyclo.primes_up_to",
        "cyclo.cyclotomic",
        "cyclo.modular_root_of_unity",
        "cyclo.phi_monotone_bound",
        "phitree.children",
        "phitree.root_indices",
    }

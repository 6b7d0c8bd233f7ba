"""Cyclotomic polynomials, their indices, and divisibility tests.

Everything here is exact integer arithmetic.  The central identity is that
x**n - 1 is the product of the cyclotomics of all divisors of n, which
powers the divisibility shortcuts below.

Generation strategy: the substitution rule of `expand_indices`, by which
the n-th cyclotomic at x**p is the (n*p)-th when the prime p divides n and
the n-th times the (n*p)-th when it does not.  A squarefree n = m*p, p its
largest prime, is the m-th at x**p over the m-th (exact); any other n is
its radical's cyclotomic at x**(n / radical(n)).  The recursion is as deep
as n has distinct primes; the tests re-derive the results independently.

`modular_root_of_unity` serves a reject-only divisibility test: an element
of multiplicative order exactly s modulo a prime l = 1 (mod s) is a root of
the s-th cyclotomic modulo l, so a polynomial that the s-th cyclotomic
divides vanishes there too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd, prod

from .intpoly import IntPoly, divide_exact


# Bounded caches of index arithmetic that depends on no mask.  A 55 s run
# of the benchmark's corpus workload (seed 1) creates 519 factorize keys,
# 500 divisors keys (the gaps up to 500), 125 euler_phi keys, 5 primes_up_to
# keys (the term counts), 9 cyclotomic keys, 106 root-of-unity keys and
# 206 phi_monotone_bound keys; `phitree` adds 55 children and 5 root keys.
# Three round trips of every criterion-08 set and recipe create 557, 512,
# 155, 5, 21, 143 and 212 keys, and 70 and 5 in `phitree`.  The test
# suite's brute-force factoring of cyclotomic substitutions creates 143
# cyclotomic keys.  A mask with many terms and a large degree cycles
# through more keys and recomputes the oldest.
FACTORIZE_CACHE_SIZE = 8192
DIVISORS_CACHE_SIZE = 4096
EULER_PHI_CACHE_SIZE = 4096
PRIMES_UP_TO_CACHE_SIZE = 256
CYCLOTOMIC_CACHE_SIZE = 2048
ROOT_OF_UNITY_CACHE_SIZE = 4096


@lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, exponent), ...) with primes ascending."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


@lru_cache(maxsize=EULER_PHI_CACHE_SIZE)
def euler_phi(n: int) -> int:
    phi = 1
    for p, a in factorize(n):
        phi *= (p - 1) * p ** (a - 1)
    return phi


def radical(n: int) -> int:
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


@lru_cache(maxsize=DIVISORS_CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors, ascending."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p**k for d in out for k in range(a + 1)]
    return tuple(sorted(out))


@lru_cache(maxsize=PRIMES_UP_TO_CACHE_SIZE)
def primes_up_to(n: int) -> tuple[int, ...]:
    """The primes p <= n, ascending; empty when n < 2."""
    out = []
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for m in range(p * p, n + 1, p):
                sieve[m] = 0
    return tuple(out)


def is_prime_power(n: int):
    """(p, a) when n = p**a with a >= 1, else None."""
    f = factorize(n)
    if len(f) == 1:
        return f[0]
    return None


@lru_cache(maxsize=CYCLOTOMIC_CACHE_SIZE)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exact and monic of degree euler_phi(n),
    by the substitution rule (see the module docstring)."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return IntPoly((-1, 1))
    rad = radical(n)
    if rad != n:
        return cyclotomic(rad).compose_power(n // rad)
    p = factorize(n)[-1][0]
    below = cyclotomic(n // p)
    quot = divide_exact(below.compose_power(p), below)
    assert quot is not None, "the substitution rule must divide exactly"
    return quot


# Miller-Rabin to the first k prime bases is exact below the least strong
# pseudoprime to all of them (Jaeschke, Math. Comp. 61, 1993; Sorenson and
# Webster, Math. Comp. 86, 2017).  Each pair is that bound and the fewest
# bases that reach it; the last bound is the limit of the test.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUNDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
MILLER_RABIN_LIMIT = _MILLER_RABIN_BOUNDS[-1][0]
_MILLER_RABIN_BASE_PRODUCT = prod(_MILLER_RABIN_BASES)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < MILLER_RABIN_LIMIT."""
    if not 0 <= n < MILLER_RABIN_LIMIT:
        raise ValueError(f"is_prime is exact only on 0..{MILLER_RABIN_LIMIT - 1}")
    if gcd(n, _MILLER_RABIN_BASE_PRODUCT) != 1:
        return n in _MILLER_RABIN_BASES
    if n < 2:
        return False
    bases = next(k for bound, k in _MILLER_RABIN_BOUNDS if n < bound)
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for a in _MILLER_RABIN_BASES[:bases]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=ROOT_OF_UNITY_CACHE_SIZE)
def modular_root_of_unity(s: int) -> tuple[int, int] | None:
    """(l, w): the least odd prime l = 1 (mod s) and the first power
    a**((l - 1) / s), a = 2, 3, ..., whose multiplicative order modulo l is
    exactly s.  None when l would reach MILLER_RABIN_LIMIT.

    l does not divide s, so x**s - 1 has s distinct roots modulo l, and the
    roots of order exactly s are the roots of the s-th cyclotomic.
    """
    if s < 1:
        raise ValueError("root of unity order must be positive")
    step = s if s % 2 == 0 else 2 * s  # an odd prime l has l - 1 even
    for ell in range(step + 1, MILLER_RABIN_LIMIT, step):
        if is_prime(ell):
            break
    else:
        return None
    primes = prime_factors(s)
    # The group modulo l is cyclic, so some a gives a w of order exactly s.
    for a in count(2):
        w = pow(a, (ell - 1) // s, ell)
        if all(pow(w, s // q, ell) != 1 for q in primes):
            return ell, w


def phi_at_one(n: int) -> int:
    """Value of the n-th cyclotomic at 1, by index arithmetic alone.

    0 for n = 1, p when n is a power of the prime p, and 1 otherwise.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return 0
    pp = is_prime_power(n)
    if pp is not None:
        return pp[0]
    return 1


def expand_indices(d: int, b: int) -> frozenset[int]:
    """Indices E with: cyclotomic(d)(x**b) = product of cyclotomic(e), e in E.

    Closed form: write b = b1 * b2, where b1 holds the prime powers of b
    whose primes divide d; then E = {d * b1 * k : k | b2}.  Proof:
    cyclotomic(n)(x**m) is cyclotomic(n * m) when every prime of m divides
    n, and the product of cyclotomic(n * k) over k | m when gcd(n, m) = 1;
    apply the first with (n, m) = (d, b1), then the second with
    (n, m) = (d * b1, b2).  Every member is a multiple of d, and when
    gcd(d, b) > 1 every member is at least 2*d (the growth fact that
    terminates all tree searches here).
    """
    if d < 1 or b < 2:
        raise ValueError("need index >= 1 and base >= 2")
    b1 = prod(p**a for p, a in factorize(b) if d % p == 0)
    return frozenset(d * b1 * k for k in divisors(b // b1))


def expand_times(indices, b: int, times: int) -> frozenset[int]:
    """The indices after substituting x -> x**b, times rounds: the union of
    expand_indices(s, b**times) over the given s."""
    if times < 1:
        return frozenset(indices)
    bt = b**times
    return frozenset().union(*(expand_indices(s, bt) for s in indices))


def cyc_divides(s: int, p: IntPoly) -> bool:
    """Does the s-th cyclotomic divide p?  p must be nonzero.

    Division-free: the s-th cyclotomic divides p exactly when x**s - 1
    divides p * prod over primes q | s of (x**(s/q) - 1).  The binomial
    product carries every proper divisor's cyclotomic at least once and
    the s-th not at all, so folding the product modulo x**s - 1 to zero
    constrains precisely p's own s-th factor.  Cost scales with the term
    count of p times 2**(number of primes of s), not with s or the degree.

    This is the exact oracle.  `spectra.MaskContext.divides` calls it only
    for indices that pass three cheaper reject-only stages: a partner test
    that proves non-divisibility from p's exponents modulo a reduced index
    alone (Mann, Mathematika 12, 1965; Conway and Jones, Acta Arith. 30,
    1976), a prime-split test on p's exponents modulo powers of the small
    primes (de Bruijn, Indag. Math. 15, 1953), and an evaluation of p at a
    root of unity modulo a prime (see `modular_root_of_unity`).  The arguments are in the `spectra` module
    docstring.
    """
    if p.is_zero:
        raise ValueError("divisibility test against the zero polynomial")
    if euler_phi(s) > p.degree:
        return False
    offsets = [(0, 1)]
    for q, _ in factorize(s):
        step = s // q
        offsets = [(off + step, sign) for off, sign in offsets] + [
            (off, -sign) for off, sign in offsets
        ]
    acc: dict[int, int] = {}
    for e, c in p.terms():
        for off, sign in offsets:
            k = (e + off) % s
            acc[k] = acc.get(k, 0) + sign * c
    return not any(acc.values())


def cyclotomic_product(indices) -> IntPoly:
    """Product of the cyclotomics with the given indices."""
    poly = IntPoly.one()
    for n in sorted(indices):
        poly = poly * cyclotomic(n)
    return poly


def cyclotomics_divide(indices, p: IntPoly) -> bool:
    """Does the product of the distinct cyclotomics with these indices divide p?

    Member by member.  The e-th cyclotomic divides x**e - 1, so it divides p
    exactly when it divides p's remainder modulo x**e - 1; folding the
    exponents mod e gives that remainder in O(terms), and its degree is
    below e, so the one exact division by the materialized cyclotomic costs
    O(e), not O(degree(p)).  Distinct cyclotomics are coprime and monic, so
    their product divides p exactly when each of them does.  The check is
    independent of `cyc_divides`.
    """
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("cyclotomic indices must be distinct")
    return all(divide_exact(p.fold_mod(e), cyclotomic(e)) is not None for e in indices)


@lru_cache(maxsize=256)
def phi_monotone_bound(limit: int) -> int:
    """Largest s with euler_phi(s) <= limit; limit + 1 must be below
    MILLER_RABIN_LIMIT.

    Branch and bound over factorizations s = prod p**a, depth first over
    primes in ascending order.  A node is (v, budget, p_min): v's primes all
    lie below p_min, and budget = limit // euler_phi(v), flooring at each
    factor, which keeps feasibility exact (floor(d / a) >= b iff a * b <= d).
    Every node's v is a candidate answer, and so is v * q, with q the
    largest prime in [p_min, budget + 1].

    Bound: an extension v * m whose primes r_1 < ... < r_k are all >= p has
    euler_phi(m) <= budget, so prod (r_i - 1) <= budget, and
    m = euler_phi(m) * prod r_i / (r_i - 1).  The consecutive primes
    q_1 = p < q_2 < ... satisfy q_i <= r_i, so k is at most the largest K
    with prod_{i <= K} (q_i - 1) <= budget, and
    m <= budget * prod_{i <= K} q_i / (q_i - 1).  That bound falls as p
    grows, so the walk over p stops at the first p whose bound cannot beat
    the best s found so far.  It compares in integers.

    Cost: the consecutive primes come from `is_prime` and stay few (at most
    561, up to 4073, over 300 random limits below 2**63), and finding q
    walks down one prime gap.  About 60 nodes settle a limit near 500, 400
    settle 10**6 and a few thousand settle limits near 2**62 (about 30 ms):
    the node count grows far slower than the limit, and nothing is sized
    by it.
    """
    if limit < 1:
        return 1
    primes = [2, 3]
    best = 1

    def search(i: int, v: int, budget: int) -> None:
        # The node (v, budget, primes[i]).
        nonlocal best
        if v > best:
            best = v
        j = i
        while True:
            # The bound reads primes[j : j + K + 1], and K is at most
            # budget.bit_length(): every prime but 2 at least doubles the
            # product of the (q_i - 1).
            while len(primes) <= j + budget.bit_length():
                n = primes[-1] + 2
                while not is_prime(n):
                    n += 2
                primes.append(n)
            p = primes[j]
            if p - 1 > budget:
                return
            num = den = 1
            k = j
            while den * (primes[k] - 1) <= budget:
                num *= primes[k]
                den *= primes[k] - 1
                k += 1
            if v * budget * num <= best * den:
                return
            if j == i and v * (budget + 1) > best:
                # The candidate v * q; p itself is a prime in range.
                q = budget + 1
                while not is_prime(q):
                    q -= 1
                if v * q > best:
                    best = v * q
                if v * budget * num <= best * den:
                    return
            power, phi = p, p - 1
            while phi <= budget:
                search(j + 1, v * power, budget // phi)
                power, phi = power * p, phi * p
            j += 1

    search(0, 1, limit)
    return best

"""Cyclotomic spectra of digit masks and the classical sanity conditions.

The prime-power spectrum of a mask P collects the prime powers q > 1 whose
cyclotomic divides P; the general spectrum collects all indices up to a cap.
Both read one finite candidate set, `MaskContext.candidates`: every s <= T
that passes the partner and prime-split stages below.  T, the completeness
threshold, is the largest s with euler_phi(s) <= degree(P); the s-th
cyclotomic has degree euler_phi(s), so nothing above T divides.  Every s
that divides passes both stages, so every s that divides is a candidate.

The verdict needs none of this.  The divisor tree and the residue tree ask
`ExactTest`, a validated memo of the exact `cyc_divides`, and nothing
else: the reject-only stages and the candidate table below decide no
verdict and serve the spectra only.

The candidates have a closed form.  Let n be the term count of P, M the
product of the primes <= n, and u = s / gcd(s, M).  The partner stage
passes s exactly when every exponent has a partner modulo u.  So u
divides a gap from the first exponent and a gap to the last one: those
two terms need partners too.  Only the divisors of the gaps from the first
exponent that also divide a gap to the last are asked the partner test,
which factors 2(n - 1) gaps, not all n(n - 1)/2.  M is squarefree,
so dividing s by gcd(s, M) removes one factor of each prime of M that
divides s: s reduces to u exactly when s = u * gcd(u, M) * m', with m' a
product of distinct primes of M that do not divide u.  So the candidates
are, for each partnered u, the indices u * gcd(u, M) * m' up to T.  A
lacunary mask tests divisors of a few gaps, not a range of indices, and
no index that the partner stage rejects is ever formed.  In u's family
each prime p of gcd(u, M) divides s exactly v_p(u) + 1 times and each
prime of m' once, so the prime-split stage drops the whole family when
some such p is blocked at v_p(u) + 1, and a prime blocked at exponent 1
never enters m'.

Every context builds its threshold, candidate table and Horner scheme when
it is made, and `MaskContext.divides` asks in that order: the table, the
modular stage, then the context's `ExactTest`.  An index s > 1 off the
table does not divide, since either s > T or s fails the partner or the
prime-split stage; the table is complete.  A candidate and index 1 go on
to the modular stage, and whatever it passes goes to the exact test.  An
index that the exact test has already answered skips the modular stage:
a decision's search and order ask it first, and their answers are free.  The
partner, prime-split and modular stages are exact and reject-only: an
index any of them rejects cannot divide, and one that passes them still
goes to the exact test.

The partner stage, `MaskContext.may_vanish`, is built on Mann's theorem
(Mathematika 12, 1965; refined by Conway and Jones, Acta Arith. 30, 1976):
when a sum of k roots of unity with nonzero rational coefficients vanishes
and no proper subsum does, every ratio of two of its roots has order
dividing the product of the primes <= k.

Proof sketch.  Let P have n >= 1 terms with exponents e_i, let M be the
product of the primes <= n, and let the s-th cyclotomic divide P, so P
vanishes at a primitive s-th root of unity.  Group P's terms by exponent
modulo s.  A term whose group sums to zero has a partner j != i in its
group, so s divides e_j - e_i.  Any other term's group lies in a minimal
vanishing subsum of at most n groups, which holds a partner j in another
group with s dividing (e_j - e_i) * M.  M is squarefree, so either way
u = s / gcd(s, M) divides e_j - e_i.  So every term has a partner modulo u:
no residue class of the exponents modulo u holds exactly one term.  The
stage asks this of every term.  It depends on s only through u, so a
context answers it once per u, and the candidate set asks it before it
forms any index that reduces to u.  A monomial has no partner and no
cyclotomic factor.  The stage costs O(terms) per u and factors nothing, so
a lacunary mask pays for its term count, not its degree.

The prime-split stage, `MaskContext.may_vanish_split`, is de Bruijn's
basis argument (Indag. Math. 15, 1953; Lam and Leung, J. Algebra 224,
2000).  Call (p, a), for a prime p and a >= 1, blocked
(`MaskContext.split_blocked`) when inside some residue class of the
exponents modulo p**(a - 1), one of the p sub-classes modulo p**a is empty
and another holds a single term.  Then no s with p**a exactly dividing s
has its cyclotomic dividing P.

Proof.  Let z be a primitive s-th root of unity and t = s / p.  When p
divides t, 1, z, ..., z**(p - 1) are a basis of Q(z) over Q(z**p), whose
degree is euler_phi(s) / euler_phi(t) = p; P(z) collects its terms by
exponent modulo p into those basis vectors, so P(z) = 0 makes each class
modulo p vanish at z on its own.  Repeating this a - 1 times, each class C
modulo p**(a - 1) vanishes at z.  Now write z = y * x with y of order p**a
and x of order s / p**a, prime to p, and w = y**(p**(a - 1)), a primitive
p-th root of unity.  With e = r + j * p**(a - 1) (mod p**a) for e in C, the
sum over C is y**r times sum_j w**j * Q_j(x), where Q_j(x) in Q(x) sums
the terms of the j-th sub-class at x.  p does not divide the order of x,
so 1 + X + ... + X**(p - 1) stays the minimal polynomial of w over Q(x),
and the sum vanishes exactly when all the Q_j(x) are equal.  An empty
sub-class makes them all 0, and a single term is never 0.  A class
modulo p**(a - 1) that holds one term has p - 1 empty sub-classes, so the
rule covers that case too.

Mann's partner stage cannot see these residues: its u divides the primes
of M out of s.  For a prime p outside M, p**a divides u, and a partner
for every exponent modulo u leaves no single term in any class modulo
p**a; so the stage asks only the primes of M.  It is memoized per prime
power and costs O(terms) per power.

The modular stage, `MaskContext.may_vanish_mod_prime`, evaluates P at a
root of unity modulo a prime (in the spirit of Lam and Leung, J. Algebra
224, 2000).  Take the least odd prime l = 1 (mod s) and w of multiplicative
order exactly s modulo l (`cyclo.modular_root_of_unity`).  l does not
divide s, so w is a root of the s-th cyclotomic modulo l; when that
cyclotomic divides P over the integers, P(w) = 0 (mod l).  A nonzero P(w)
proves that it does not divide.  w is invertible, so the stage evaluates
P / x**e_0 instead, by Horner's scheme: one modular power per distinct gap
between consecutive exponents, then one multiplication per term.  It runs
only on indices whose cyclotomic's degree fits P's (the exact test rejects
the others at once) and lets through every s whose l would pass the
deterministic Miller-Rabin bound.

On top of the spectra sit three checks used throughout the package:

* coefficient-sum balance: the digit count equals the product of the
  cyclotomic values at 1 over the prime-power spectrum;
* product closure: for prime powers in the spectrum with pairwise distinct
  primes, the product index is in the spectrum too (read with the
  distinct-prime convention; powers of a single prime never qualify);
* base structure: for base-many digits, the spectrum's prime powers follow
  the base's factorization with exponents forming complete residue systems.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, prod

from .cyclo import (
    cyc_divides,
    divisors,
    euler_phi,
    factorize,
    is_prime_power,
    modular_root_of_unity,
    phi_at_one,
    phi_monotone_bound,
    primes_up_to,
)
from .digitset import DigitSet
from .errors import CyclotileError
from .intpoly import IntPoly, mask_polynomial
from .record import FrozenRecord

# Largest mask degree that an `ExactTest` takes.  The completeness
# threshold no longer scales with the degree (`phi_monotone_bound` is a
# branch and bound, about 1 ms at 10**6), but two costs still do.
# `cyclo.factorize` factors every gap between exponents by trial division,
# which grows with the square root of a gap's largest prime factor: a
# three-digit mask whose gap is a prime near 10**14 takes 0.8 s, and one
# near 2**62 would take minutes.  And a mask with many terms has many
# candidates for the modular stage: base 60 with the digits 0..58 and 10**7
# takes 5.7 s.  The budget stays until it is replaced by one on those costs.
MAX_MASK_DEGREE = 10**6


class ExactTest:
    """The validated exact test on one polynomial: a memo of `cyc_divides`.

    It refuses the zero polynomial with ValueError and a degree above
    `MAX_MASK_DEGREE` with CyclotileError.  Each route to the verdict asks
    an instance of its own: the divisor tree's search and order, and the
    residue tree's walk and level check.  A `MaskContext` made on an
    instance asks it last, so one decision runs `cyc_divides` at most once
    per index.  `tests` counts the distinct indices tested.
    """

    __slots__ = ("poly", "degree", "_memo")

    def __init__(self, p: IntPoly):
        if p.is_zero:
            raise ValueError("cannot analyse the zero polynomial")
        if p.degree > MAX_MASK_DEGREE:
            raise CyclotileError(
                f"polynomial degree {p.degree} exceeds the budget of {MAX_MASK_DEGREE}"
            )
        self.poly = p
        self.degree: int = p.degree
        self._memo: dict[int, bool] = {}

    @property
    def tests(self) -> int:
        """The distinct indices tested."""
        return len(self._memo)

    def divides(self, s: int) -> bool:
        """Does the s-th cyclotomic divide the polynomial?"""
        hit = self._memo.get(s)
        if hit is None:
            hit = self._memo[s] = cyc_divides(s, self.poly)
        return hit


def _candidate_indices(ctx: MaskContext, primes, threshold: int) -> tuple[int, ...]:
    """Every s in 2..threshold that passes `ctx.may_vanish` and
    `ctx.may_vanish_split`, ascending, in closed form (module docstring).
    `primes` are the primes of M.  Each u divides a gap from the first
    exponent and a gap to the last one, as every partnered u does;
    u * gcd(u, M) is the least index that reduces to u, and it
    asks the partner test of u and the prime-split test of each prime of u,
    whose exponent is the same in every index of the family.  The products
    of distinct primes of M that do not divide u are built prime by prime,
    only from primes the prime-split test lets in at exponent 1, so no
    product above the threshold is ever formed."""
    exps = ctx._exponents
    to_last = {d for e in exps[:-1] for d in divisors(exps[-1] - e)}
    found = []
    for u in {d for e in exps[1:] for d in divisors(e - exps[0])} & to_last:
        low = u * gcd(u, ctx._primorial)
        if low > threshold or not ctx.may_vanish(low) or not ctx.may_vanish_split(low):
            continue
        family = [low]
        for p in primes:
            if u % p and not ctx.split_blocked(p, 1):
                family += [s * p for s in family if s * p <= threshold]
        found += family
    return tuple(sorted(s for s in found if s > 1))


class MaskContext:
    """One polynomial's spectra: the stages and candidate table behind them.

    The spectra report asks the same question many times: does the s-th
    cyclotomic divide the polynomial?  It asks through one context, so each
    index is answered once; `tests` counts the distinct indices asked.  The
    context is made on a polynomial or on an `ExactTest`, which validates
    the polynomial and answers the last stage; a decision hands the context
    the exact test its search used.  The stages and the table decide no
    verdict: the divisor tree and the residue tree ask an `ExactTest`.
    Every context builds its threshold, candidate table and Horner scheme
    when it is made.  `divides` answers an index s > 1 off the table
    without a test.  Any other index that the exact test has already
    answered, as the decision's search and order leave it, is read from its
    memo; the rest are counted under `modular_rejections` when the
    evaluation modulo a prime rejects them.  The memo's answers and the
    exact test's new ones are counted under `exact_tests` (module
    docstring).  The prime-power spectrum is built once, on first use,
    because it asks `divides`.
    """

    def __init__(self, source: IntPoly | ExactTest):
        self.exact = source if isinstance(source, ExactTest) else ExactTest(source)
        p = self.poly = self.exact.poly
        self.degree: int = p.degree
        self.modular_rejections = 0
        self.exact_tests = 0
        self._divides: dict[int, bool] = {}
        self._split: dict[tuple[int, int], bool] = {}
        self._prime_powers: tuple[int, ...] | None = None
        exps = self._exponents = [e for e, _ in p.terms()]
        self._primes = primes_up_to(len(exps))
        self._primorial = prod(self._primes)
        # No index above the threshold can divide the polynomial; 1 for a
        # constant.
        self.threshold: int = completeness_threshold(self.degree) if self.degree > 0 else 1
        # Every index in 2..threshold that passes `may_vanish` and
        # `may_vanish_split`, ascending (`_candidate_indices`).
        self.candidates = _candidate_indices(self, self._primes, self.threshold)
        self._candidate_set = frozenset(self.candidates)
        # Horner's scheme for P / x**e_0 from the top term down: each
        # coefficient with the gap to the next exponent (0 for the top
        # one), and the set of those gaps.
        steps = [b - a for a, b in zip(exps, exps[1:])] + [0]
        self._horner = tuple(zip((c for _, c in p.terms()), steps))[::-1]
        self._steps = frozenset(steps)

    @property
    def tests(self) -> int:
        """The distinct indices asked."""
        return len(self._divides)

    def may_vanish(self, s: int) -> bool:
        """Mann's necessary condition for the s-th cyclotomic to divide the
        polynomial: every exponent has a partner modulo s / gcd(s, M).

        False proves that it does not divide; True decides nothing.
        """
        return not self._residues(s // gcd(s, self._primorial))[1]

    def _residues(self, m: int) -> tuple[set[int], set[int]]:
        """The residues of the exponents modulo m, and those of them that
        hold a single exponent."""
        seen, repeated = set(), set()
        for e in self._exponents:
            k = e % m
            (repeated if k in seen else seen).add(k)
        return seen, seen - repeated

    def split_blocked(self, p: int, a: int) -> bool:
        """True when, inside some residue class of the exponents modulo
        p**(a - 1), one of the p sub-classes modulo p**a is empty and
        another holds a single term: then no s-th cyclotomic with p**a
        exactly dividing s divides the polynomial (module docstring)."""
        hit = self._split.get((p, a))
        if hit is None:
            seen, single = self._residues(p**a)
            r = p ** (a - 1)
            occupied: dict[int, int] = {}
            for k in seen:
                occupied[k % r] = occupied.get(k % r, 0) + 1
            hit = self._split[p, a] = any(occupied[k % r] < p for k in single)
        return hit

    def may_vanish_split(self, s: int) -> bool:
        """`split_blocked` at every prime p of M that divides s, with a the
        exponent of p in s.

        False proves that the s-th cyclotomic does not divide; True decides
        nothing.
        """
        for p in self._primes:
            if s % p == 0:
                a, s = 1, s // p
                while s % p == 0:
                    a, s = a + 1, s // p
                if self.split_blocked(p, a):
                    return False
        return True

    def may_vanish_mod_prime(self, s: int) -> bool:
        """The polynomial vanishes at a root of the s-th cyclotomic modulo a
        prime (module docstring).

        False proves that the s-th cyclotomic does not divide; True decides
        nothing.
        """
        root = modular_root_of_unity(s)
        if root is None:
            return True
        ell, w = root
        power = {g: pow(w, g % s, ell) for g in self._steps}
        acc = 0
        for c, g in self._horner:
            acc = (acc * power[g] + c) % ell
        return acc == 0

    def divides(self, s: int) -> bool:
        """Does the s-th cyclotomic divide the polynomial?  An index below 1
        raises ValueError, as it does on `ExactTest`."""
        hit = self._divides.get(s)
        if hit is None:
            if s > 1 and s not in self._candidate_set:
                hit = False
            elif (
                s not in self.exact._memo
                and euler_phi(s) <= self.degree
                and not self.may_vanish_mod_prime(s)
            ):
                self.modular_rejections += 1
                hit = False
            else:
                self.exact_tests += 1
                hit = self.exact.divides(s)
            self._divides[s] = hit
        return hit

    @property
    def prime_powers(self) -> tuple[int, ...]:
        """Prime powers q > 1 whose cyclotomic divides the polynomial, ascending:
        the candidates that are prime powers and divide."""
        if self._prime_powers is None:
            self._prime_powers = tuple(
                q for q in self.candidates if is_prime_power(q) and self.divides(q)
            )
        return self._prime_powers


def prime_power_spectrum(p: IntPoly) -> tuple[int, ...]:
    """Prime powers q > 1 whose cyclotomic divides p, ascending."""
    return MaskContext(p).prime_powers


class GeneralSpectrum(FrozenRecord):
    """Dividing indices up to `cap`; `complete` when the cap reaches the threshold."""

    __slots__ = ("indices", "cap", "threshold", "complete")


def completeness_threshold(degree: int) -> int:
    """Smallest T such that no index above T can divide a degree-`degree` mask."""
    return phi_monotone_bound(degree)


def general_spectrum(p: IntPoly, cap: int) -> GeneralSpectrum:
    """All indices 2..cap whose cyclotomic divides p, with completeness flag.

    The result is certified complete when cap reaches the threshold beyond
    which every index has totient above degree(p).  A cap that is not an
    int, or is a bool or below 1, raises ValueError.
    """
    return _general_spectrum(MaskContext(p), cap)


def _general_spectrum(ctx: MaskContext, cap: int) -> GeneralSpectrum:
    # A bool or a float cap would be written, and refused on reload.
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise ValueError(f"spectrum cap must be an integer, got {cap!r}")
    if cap < 1:
        raise ValueError(f"spectrum cap must be at least 1, got {cap}")
    return GeneralSpectrum(
        indices=tuple(s for s in ctx.candidates if s <= cap and ctx.divides(s)),
        cap=cap,
        threshold=ctx.threshold,
        complete=cap >= ctx.threshold,
    )


def check_t1(digits) -> bool:
    """Digit count equals the product over the prime-power spectrum of the
    cyclotomic values at 1."""
    return _t1(MaskContext(mask_polynomial(digits)))


def _t1(ctx: MaskContext) -> bool:
    prod = 1
    for q in ctx.prime_powers:
        prod *= phi_at_one(q)
    return prod == ctx.poly.at_one()


def check_t2(digits) -> bool:
    """Product closure over prime powers with pairwise distinct primes.

    Vacuously true when the spectrum touches fewer than two primes.
    """
    return _t2(MaskContext(mask_polynomial(digits)))


def _t2(ctx: MaskContext) -> bool:
    """`check_t2` on a context.  For each set of two or more primes, the
    choices of one prime power per prime run as a Cartesian product over
    each prime's powers from the largest down, the first prime slowest:
    the order in which `ctx.divides` is asked, which the stage counters
    are pinned to."""
    by_prime: dict[int, list[int]] = {}
    for q in ctx.prime_powers:
        base = is_prime_power(q)[0]
        by_prime.setdefault(base, []).append(q)
    primes = sorted(by_prime)
    for r in range(2, len(primes) + 1):
        for chosen in combinations(primes, r):
            for powers in product(*(by_prime[p][::-1] for p in chosen)):
                if not ctx.divides(prod(powers)):
                    return False
    return True


class StructureReport(FrozenRecord):
    """Prime-power spectrum shape against the base's factorization;
    `exponents` maps each prime of the base to its exponents in the spectrum."""

    __slots__ = ("passed", "exponents", "violation")


def spectrum_structure(base: int, digits) -> StructureReport:
    """For base-many digits: does the prime-power spectrum mirror the base?

    Requires exactly alpha entries for a prime with multiplicity alpha in
    the base, and entry exponents covering all residues modulo alpha.  Every
    spectrum prime p divides the base: Phi_{p**a}(1) = p divides P(1) = base.
    Returns the first violated clause.
    """
    ds = DigitSet.of(base, digits)
    ds.require_cardinality()
    return _structure(base, MaskContext(ds.mask()).prime_powers)


def _structure(base: int, spectrum: tuple[int, ...]) -> StructureReport:
    base_factors = dict(factorize(base))
    exps: dict[int, list[int]] = {p: [] for p in base_factors}
    for q in spectrum:
        p, a = is_prime_power(q)
        exps[p].append(a)
    violation = None
    for p, alpha in base_factors.items():
        if len(exps[p]) != alpha:
            violation = f"prime {p}: expected {alpha} spectrum entries, got {len(exps[p])}"
            break
        if sorted(a % alpha for a in exps[p]) != list(range(alpha)):
            violation = (
                f"prime {p}: exponents {sorted(exps[p])} do not cover all "
                f"residues modulo {alpha}"
            )
            break
    return StructureReport(
        passed=violation is None,
        exponents={p: tuple(sorted(v)) for p, v in exps.items()},
        violation=violation,
    )


class SpectrumReport(FrozenRecord):
    """Everything the certificate records about a mask's spectra; the
    structure check is always set."""

    __slots__ = ("prime_powers", "general", "t1", "t2", "structure")


def context_report(ctx: MaskContext, base: int, cap: int | None = None) -> SpectrumReport:
    """Assemble the full spectra section of a certificate for a mask of
    base-many digits, so P(1) = base and the structure check is always set.

    The default cap covers the whole certified range for small masks but is
    clamped for large ones, where exhausting the range would cost minutes;
    the report's complete flag records which situation applies.  A cap
    that is not an int, or is a bool or below 1, raises ValueError.
    """
    if cap is None:
        cap = min(ctx.threshold, max(100, 4 * ctx.degree))
    return SpectrumReport(
        prime_powers=ctx.prime_powers,
        general=_general_spectrum(ctx, cap),
        t1=_t1(ctx),
        t2=_t2(ctx),
        structure=_structure(base, ctx.prime_powers),
    )

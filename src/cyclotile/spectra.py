"""Cyclotomic spectra of digit masks and the classical sanity conditions.

The prime-power spectrum of a mask P collects the prime powers q > 1 whose
cyclotomic divides P; the general spectrum collects all indices up to a cap.
Both read one finite candidate set, `MaskContext.candidates`: every s <= T
of the form d * m, with d a divisor of a gap from P's first exponent and m a
product of distinct primes <= n, the term count of P.  T, the completeness
threshold, is the largest s with euler_phi(s) <= degree(P); the s-th
cyclotomic has degree euler_phi(s), so nothing above T divides.  By the
argument below, every s that divides is a candidate (d = u, m = gcd(s, M)),
so a lacunary mask tests divisors of a few gaps, not a range of indices.

Every index first meets an exact, reject-only prefilter,
`MaskContext.may_vanish`, built on Mann's theorem (Mathematika 12, 1965;
refined by Conway and Jones, Acta Arith. 30, 1976): when a sum of k roots
of unity with nonzero rational coefficients vanishes and no proper subsum
does, every ratio of two of its roots has order dividing the product of the
primes <= k.

Proof sketch.  Let P have n >= 2 terms with exponents e_i, let M be the
product of the primes <= n, and let the s-th cyclotomic divide P, so P
vanishes at a primitive s-th root of unity.  Group P's terms by exponent
modulo s.  A term whose group sums to zero has a partner j in its group, so
s divides e_j - e_i.  Any other term's group lies in a minimal vanishing
subsum of at most n groups, which holds a partner j with s dividing
(e_j - e_i) * M.  M is squarefree, so either way u = s / gcd(s, M) divides
e_j - e_i.  The prefilter asks this of the first and the last term: u must
divide some gap from the first exponent and some gap to the last.  A
monomial has no partner and no cyclotomic factor.  An index that passes
still goes to the exact `cyc_divides`.  The check costs O(terms) and
factors nothing, so a lacunary mask pays for its term count, not its degree.

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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd

from .cyclo import (
    cyc_divides,
    divisors,
    factorize,
    is_prime_power,
    phi_at_one,
    phi_monotone_bound,
    prime_factors,
    primorial,
)
from .digitset import DigitSet
from .errors import CyclotileError
from .intpoly import IntPoly, mask_polynomial

# Largest polynomial degree a MaskContext accepts.  What still scales with
# the degree is the completeness threshold's search (`phi_monotone_bound`
# sieves the primes up to the degree) and the dense exact division in
# `phitree.Blocking.divides`.  At this degree a three-digit `analyze` takes
# seconds; a larger mask is refused with CyclotileError before either runs.
MAX_MASK_DEGREE = 10**6


def _candidate_indices(gaps, primes, threshold: int) -> tuple[int, ...]:
    """Every s in 2..threshold that is a divisor of a gap times a product of
    distinct `primes`, ascending.  Built prime by prime, so no product above
    the threshold is ever formed."""
    found = {1}
    for gap in gaps:
        found.update(d for d in divisors(gap) if d <= threshold)
    for p in primes:
        found.update([s * p for s in found if s * p <= threshold])
    found.discard(1)
    return tuple(sorted(found))


class MaskContext:
    """One nonzero polynomial and everything a decision asks about it.

    Every layer of a decision asks the same question many times: does the
    s-th cyclotomic divide the mask?  They all ask through one context, so
    each index is tested once; `tests` counts the distinct indices tested.
    An index goes to the exact `cyc_divides` only when it passes the Mann
    prefilter `may_vanish` (see the module docstring).  The threshold, the
    candidates and the prime-power spectrum are computed on first use, so a
    context that only searches never computes them.
    """

    def __init__(self, p: IntPoly):
        if p.is_zero:
            raise ValueError("cannot analyse the zero polynomial")
        if p.degree > MAX_MASK_DEGREE:
            raise CyclotileError(
                f"polynomial degree {p.degree} exceeds the budget of {MAX_MASK_DEGREE}"
            )
        self.poly = p
        self.degree: int = p.degree
        self.tests = 0
        self._divides: dict[int, bool] = {}
        exponents = [e for e, _ in p.terms()]
        self._primorial = primorial(len(exponents))
        self._gaps_from_first = tuple(e - exponents[0] for e in exponents[1:])
        self._gaps_to_last = tuple(exponents[-1] - e for e in exponents[:-1])

    def may_vanish(self, s: int) -> bool:
        """Mann's necessary condition for the s-th cyclotomic to divide the polynomial.

        False proves that it does not divide; True decides nothing.
        """
        u = s // gcd(s, self._primorial)
        return any(d % u == 0 for d in self._gaps_from_first) and any(
            d % u == 0 for d in self._gaps_to_last
        )

    def divides(self, s: int) -> bool:
        hit = self._divides.get(s)
        if hit is None:
            self.tests += 1
            hit = self._divides[s] = self.may_vanish(s) and cyc_divides(s, self.poly)
        return hit

    @cached_property
    def threshold(self) -> int:
        """No index above this can divide the polynomial; 1 for a constant."""
        return completeness_threshold(self.degree) if self.degree > 0 else 1

    @cached_property
    def candidates(self) -> tuple[int, ...]:
        """Every index in 2..threshold that may divide, ascending (module docstring)."""
        primes = prime_factors(self._primorial)
        return _candidate_indices(self._gaps_from_first, primes, self.threshold)

    @cached_property
    def prime_powers(self) -> tuple[int, ...]:
        """Prime powers q > 1 whose cyclotomic divides the polynomial, ascending:
        the candidates that are prime powers and divide."""
        return tuple(q for q in self.candidates if is_prime_power(q) and self.divides(q))


def prime_power_spectrum(p: IntPoly) -> tuple[int, ...]:
    """Prime powers q > 1 whose cyclotomic divides p, ascending."""
    return MaskContext(p).prime_powers


@dataclass(frozen=True)
class GeneralSpectrum:
    indices: tuple[int, ...]
    cap: int
    threshold: int
    complete: bool


def completeness_threshold(degree: int) -> int:
    """Smallest T such that no index above T can divide a degree-`degree` mask."""
    return phi_monotone_bound(degree)


def general_spectrum(p: IntPoly, cap: int) -> GeneralSpectrum:
    """All indices 2..cap whose cyclotomic divides p, with completeness flag.

    The result is certified complete when cap reaches the threshold beyond
    which every index has totient above degree(p).
    """
    return _general_spectrum(MaskContext(p), cap)


def _general_spectrum(ctx: MaskContext, cap: int) -> GeneralSpectrum:
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
    by_prime: dict[int, list[int]] = {}
    for q in ctx.prime_powers:
        base = is_prime_power(q)[0]
        by_prime.setdefault(base, []).append(q)
    primes = sorted(by_prime)
    for r in range(2, len(primes) + 1):
        for chosen in combinations(primes, r):
            stack = [(0, 1)]
            while stack:
                i, prod = stack.pop()
                if i == len(chosen):
                    if not ctx.divides(prod):
                        return False
                    continue
                for q in by_prime[chosen[i]]:
                    stack.append((i + 1, prod * q))
    return True


@dataclass(frozen=True)
class StructureReport:
    """Prime-power spectrum shape against the base's factorization."""

    passed: bool
    exponents: dict[int, tuple[int, ...]]  # prime -> exponents in the spectrum
    violation: str | None


def spectrum_structure(base: int, digits) -> StructureReport:
    """For base-many digits: does the prime-power spectrum mirror the base?

    Requires every spectrum prime to divide the base, exactly alpha entries
    for a prime with multiplicity alpha in the base, and entry exponents
    covering all residues modulo alpha.  Returns the first violated clause.
    """
    ds = DigitSet.of(base, digits)
    ds.require_cardinality()
    return _structure(base, MaskContext(ds.mask()).prime_powers)


def _structure(base: int, spectrum: tuple[int, ...]) -> StructureReport:
    base_factors = dict(factorize(base))
    exps: dict[int, list[int]] = {p: [] for p in base_factors}
    violation = None
    for q in spectrum:
        p, a = is_prime_power(q)
        if p not in base_factors:
            violation = violation or f"spectrum prime {p} does not divide base {base}"
            continue
        exps[p].append(a)
    if violation is None:
        for p, alpha in base_factors.items():
            if len(exps[p]) != alpha:
                violation = (
                    f"prime {p}: expected {alpha} spectrum entries, got {len(exps[p])}"
                )
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


@dataclass(frozen=True)
class SpectrumReport:
    """Everything the certificate records about a mask's spectra."""

    prime_powers: tuple[int, ...]
    general: GeneralSpectrum
    t1: bool
    t2: bool
    structure: StructureReport | None  # None when digit count differs from base


def spectrum_report(base: int, digits, cap: int | None = None) -> SpectrumReport:
    """Assemble the full spectra section of a certificate.

    The default cap covers the whole certified range for small masks but is
    clamped for large ones, where exhausting the range would cost minutes;
    the report's complete flag records which situation applies.
    """
    ds = DigitSet.of(base, digits)
    return context_report(MaskContext(ds.mask()), base, cap)


def context_report(ctx: MaskContext, base: int, cap: int | None = None) -> SpectrumReport:
    """spectrum_report on an existing context; the digit count is P(1)."""
    if cap is None:
        deg = ctx.degree or 1
        cap = min(completeness_threshold(deg), max(100, 4 * deg))
    return SpectrumReport(
        prime_powers=ctx.prime_powers,
        general=_general_spectrum(ctx, cap),
        t1=_t1(ctx),
        t2=_t2(ctx),
        structure=_structure(base, ctx.prime_powers) if ctx.poly.at_one() == base else None,
    )

"""Independent cross-checks: integer tilings, exact geometry, continuity.

Nothing here feeds the divisor-tree decision; these routines sit beside it
so the test suite can play the two against each other.  The integer-tiling
search is a backtracking exact cover over residues, the geometry is an
interval union with Fraction endpoints (no floating point anywhere, so
results are bit-reproducible), and the continuity check reruns the
blocking search with the digit-count-equals-base restriction dropped.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .digitset import DigitSet
from .errors import CyclotileError, InvalidDigitSet
from .intpoly import mask_polynomial
from .phitree import blocking_search
from .record import FrozenRecord
from .spectra import prime_power_spectrum

# Hard ceiling on the period scan, for the default cap and an explicit one
# alike; beyond this the exact cover is no longer a quick cross-check.
_PERIOD_SCAN_LIMIT = 100_000

# The spectrum-derived candidate is tried even past the scan limit (it is a
# single attempt and is the period that actually occurs for well-behaved
# sets), but an lcm blowing past this is hopeless to fill explicitly.
_NATURAL_ATTEMPT_LIMIT = 1_000_000

# Most radix values, #digits ** depth, that `tile_intervals` and
# `direct_sum_diagnostic` may build.  Each level multiplies them by the digit
# count: four digits to depth 8 (65536 values) take about 1.6 s and 39 MB.
MAX_RADIX_VALUES = 100_000
# Deepest level they may reach: one digit makes one value at any depth, but
# the loops still run once per level.
MAX_RADIX_DEPTH = 64


def _check_radix_budget(count: int, depth: int) -> None:
    # The capped exponent keeps a huge depth from building a huge integer.
    if count ** min(depth, MAX_RADIX_DEPTH) > MAX_RADIX_VALUES:
        raise CyclotileError(
            f"{count} digits to depth {depth} exceed the budget of {MAX_RADIX_VALUES} radix values"
        )
    if depth > MAX_RADIX_DEPTH:
        raise CyclotileError(f"depth {depth} exceeds the budget of {MAX_RADIX_DEPTH} levels")


class IntervalUnion(FrozenRecord):
    """Disjoint nonempty closed intervals with rational endpoints, sorted."""

    __slots__ = ("intervals",)

    @classmethod
    def of(cls, pairs) -> "IntervalUnion":
        """Normalize: drop degenerate intervals, sort, merge overlaps."""
        spans = []
        for lo, hi in pairs:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo < hi:
                spans.append((lo, hi))
        spans.sort()
        merged: list[list[Fraction]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged))

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))


def tile_intervals(base: int, digits, depth: int) -> IntervalUnion:
    """Depth-t outer cover of the attractor of the maps x -> (x + d) / base.

    The cover is the union over t-digit radix values v of the intervals
    [v, v + max(digits) / (base - 1)] / base**t.  Every level's union
    contains the next (the tail bound is exactly the image of itself under
    the maps), so measures decrease monotonically toward the attractor's.
    """
    ds = DigitSet.of(base, digits)
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    _check_radix_budget(len(ds), depth)
    tail = Fraction(ds.digits[-1], base - 1)
    values = {0}
    for _ in range(depth):
        values = {base * v + d for v in values for d in ds.digits}
    scale = base**depth
    return IntervalUnion.of(
        (Fraction(v, scale), Fraction(v, scale) + tail / scale) for v in values
    )


def direct_sum_diagnostic(base: int, digits, depth: int) -> int | None:
    """Smallest k <= depth where the k-fold sums digits + base*digits + ...
    collide, or None if all sums stay distinct.

    Heuristic early warning only: a collision rules out tiling, but absence
    of collisions up to any finite depth proves nothing.
    """
    ds = DigitSet.of(base, digits)
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    _check_radix_budget(len(ds), depth)
    values = {0}
    for k in range(1, depth + 1):
        values = {base * v + d for v in values for d in ds.digits}
        if len(values) < len(ds) ** k:
            return k
    return None


class ResidueTiling(FrozenRecord):
    """A tiling of the integers: digits + complement hits every residue
    modulo period exactly once."""

    __slots__ = ("period", "digits", "complement")

    def covers_exactly(self) -> bool:
        counts = [0] * self.period
        for a in self.digits:
            for shift in self.complement:
                counts[(a + shift) % self.period] += 1
        return all(c == 1 for c in counts)


def _cover_search(digits: tuple[int, ...], period: int) -> tuple[int, ...] | None:
    """Backtracking exact cover of Z/period by translates of digits.

    Always branches on the smallest uncovered residue; iterative so deep
    covers (period / len(digits) placements) cannot hit the recursion
    limit.
    """
    residues = sorted({d % period for d in digits})
    if len(residues) != len(digits):
        return None  # folding collisions can never cover each residue once
    covered = bytearray(period)

    def fits(shift: int) -> bool:
        return all(not covered[(r + shift) % period] for r in residues)

    def paint(shift: int, value: int) -> None:
        for r in residues:
            covered[(r + shift) % period] = value

    def options(first: int) -> list[int]:
        out = []
        for r in residues:
            shift = (first - r) % period
            if fits(shift):
                out.append(shift)
        # consumed by pop(), so descending order explores small shifts first
        out.sort(reverse=True)
        return out

    placed: list[int] = []
    # each level remembers its uncovered residue: nothing below it changes
    # while its subtree is explored, so the next search can start there
    levels = [(0, options(0))]
    while levels:
        first, opts = levels[-1]
        if not opts:
            levels.pop()
            if placed:
                paint(placed.pop(), 0)
            continue
        shift = opts.pop()
        paint(shift, 1)
        placed.append(shift)
        nxt = covered.find(0, first)
        if nxt == -1:
            return tuple(sorted(placed))
        levels.append((nxt, options(nxt)))
    return None


def integer_tile_check(digits, period_cap: int | None = None) -> ResidueTiling | None:
    """Search for a periodic complement making digits a tile of the integers.

    The first candidate period is the lcm of the prime-power spectrum (the
    period that the coefficient-sum and product-closure conditions predict);
    after that every multiple of the digit count up to the cap is scanned.
    Returns a verified tiling or None if no period up to the cap works.  A
    cap above the scan limit raises CyclotileError.
    """
    a = tuple(sorted(digits))
    mask = mask_polynomial(a)  # validates distinct non-negative integers
    if 0 not in a:
        raise InvalidDigitSet("integer tiles are normalized to contain 0")
    m = len(a)
    spectrum = prime_power_spectrum(mask)
    natural = math.lcm(*spectrum) if spectrum else 0
    if period_cap is None:
        period_cap = min(_PERIOD_SCAN_LIMIT, max(4 * natural, m))
    if period_cap < m:
        raise ValueError(f"period cap {period_cap} is below the digit count {m}")
    if period_cap > _PERIOD_SCAN_LIMIT:
        raise CyclotileError(
            f"period cap {period_cap} exceeds the budget of {_PERIOD_SCAN_LIMIT}"
        )

    candidates = []
    if natural and natural % m == 0 and natural <= _NATURAL_ATTEMPT_LIMIT:
        candidates.append(natural)
    candidates.extend(
        n for n in range(m, period_cap + 1, m) if n != natural
    )
    for n in candidates:
        complement = _cover_search(a, n)
        if complement is not None:
            tiling = ResidueTiling(n, a, complement)
            assert tiling.covers_exactly()
            return tiling
    return None


class ContinuityReport(FrozenRecord):
    """Outcome of the relaxed blocking search on an arbitrary-size mask."""

    __slots__ = ("base", "digits", "accepted", "blocking")


def absolute_continuity_check(base: int, digits) -> ContinuityReport:
    """Does the uniform self-similar measure of the radix system have a
    density?  Same blocking search as the tile decision, but the digit
    count may be anything.

    Acceptance forces base | len(digits): the blocking's kernel divides the
    mask and contributes a factor of exactly base at x = 1.
    """
    ds = DigitSet.of(base, digits)
    found, _, _ = blocking_search(ds.mask(), base)
    if found is None:
        return ContinuityReport(base, ds.digits, False, None)
    assert len(ds) % base == 0, "dividing blocking on a count the base cannot split"
    return ContinuityReport(base, ds.digits, True, tuple(sorted(found)))

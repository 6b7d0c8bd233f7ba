import random
from fractions import Fraction

import pytest

from cyclotile import oracles
from cyclotile.errors import CyclotileError, InvalidDigitSet, NormalizationRequired
from cyclotile.oracles import (
    ContinuityReport,
    IntervalUnion,
    ResidueTiling,
    absolute_continuity_check,
    direct_sum_diagnostic,
    integer_tile_check,
    tile_intervals,
)
from cyclotile.phitree import decide_tile_digit_set


def F(x):
    return Fraction(x)


def test_interval_union_normalization():
    u = IntervalUnion.of([(1, 2), (0, 1), (3, 3), (F("5/2"), 3)])
    assert u.intervals == ((F(0), F(2)), (F("5/2"), F(3)))
    assert u.measure == F("5/2")
    assert len(u) == 2
    assert IntervalUnion.of([]).intervals == ()
    assert IntervalUnion.of([]).measure == 0
    # containment beats adjacency: [0,4] swallows everything inside
    v = IntervalUnion.of([(0, 4), (1, 2), (3, 5)])
    assert v.intervals == ((F(0), F(5)),)


def test_geometry_for_b4_tile():
    u = tile_intervals(4, [0, 1, 8, 9], 1)
    assert u.intervals == ((F(0), F(1)), (F(2), F(3)))
    assert u.measure == 2
    for depth in (2, 3, 4):
        assert tile_intervals(4, [0, 1, 8, 9], depth).measure == 2


def test_geometry_unit_interval():
    for depth in range(4):
        u = tile_intervals(2, [0, 1], depth)
        assert u.intervals == ((F(0), F(1)),)
    assert tile_intervals(5, range(5), 3).intervals == ((F(0), F(1)),)


def test_geometry_non_tile_loses_measure():
    measures = [tile_intervals(4, [0, 1, 4, 5], d).measure for d in range(1, 5)]
    assert measures[2] < 2
    assert all(a >= b for a, b in zip(measures, measures[1:]))
    # depth 0 is the trivial hull [0, max/(base-1)]
    assert tile_intervals(4, [0, 1, 4, 5], 0).intervals == ((F(0), F("5/3")),)


def test_geometry_measures_never_increase():
    rng = random.Random(11)
    for _ in range(25):
        base = rng.randrange(2, 7)
        digits = sorted(rng.sample(range(16), rng.randrange(2, 6)))
        last = None
        for depth in range(4):
            m = tile_intervals(base, digits, depth).measure
            if last is not None:
                assert m <= last, (base, digits, depth)
            last = m


def test_geometry_rejects_bad_input():
    with pytest.raises(ValueError):
        tile_intervals(4, [0, 1], -1)
    with pytest.raises(InvalidDigitSet):
        tile_intervals(4, [0, 0, 1], 1)
    with pytest.raises(InvalidDigitSet):
        tile_intervals(1, [0], 1)


def test_radix_value_budget(monkeypatch):
    # Lowered, so that no over-budget structure is built if the check fails.
    monkeypatch.setattr(oracles, "MAX_RADIX_VALUES", 255)
    assert tile_intervals(4, [0, 1, 8, 9], 3).measure == 2  # 64 values
    assert direct_sum_diagnostic(4, [0, 1, 8, 9], 3) is None
    for depth in (4, 10**12):  # 256 values, and a depth whose count is not built
        with pytest.raises(CyclotileError, match="budget of 255"):
            tile_intervals(4, [0, 1, 8, 9], depth)
        with pytest.raises(CyclotileError, match="budget of 255"):
            direct_sum_diagnostic(4, [0, 1, 8, 9], depth)
    # One digit makes one value at any depth, so the depth has its own budget.
    assert tile_intervals(4, [0], 64).measure == 0
    with pytest.raises(CyclotileError, match="depth 100000000 exceeds the budget of 64 levels"):
        tile_intervals(4, [0], 10**8)
    with pytest.raises(CyclotileError, match="depth 100000000 exceeds the budget of 64 levels"):
        direct_sum_diagnostic(4, [0], 10**8)


def test_direct_sum_diagnostic():
    assert direct_sum_diagnostic(4, [0, 1, 8, 9], 4) is None
    assert direct_sum_diagnostic(4, [0, 1, 4, 5], 2) == 2
    assert direct_sum_diagnostic(4, [0, 1, 4, 5], 1) is None  # too shallow to see it
    assert direct_sum_diagnostic(6, range(6), 3) is None
    assert direct_sum_diagnostic(2, [0, 3], 4) is None  # scaled binary, injective
    assert direct_sum_diagnostic(2, [0, 1, 2], 3) == 2  # 2 = 0 + 2*1 = 2 + 2*0
    with pytest.raises(ValueError):
        direct_sum_diagnostic(4, [0, 1], 0)


def test_integer_tile_frozen_cases():
    t = integer_tile_check([0, 1, 4, 5])
    assert t is not None and (t.period, t.complement) == (8, (0, 2))
    t = integer_tile_check([0, 1, 8, 9])
    assert t is not None and (t.period, t.complement) == (16, (0, 2, 4, 6))
    assert integer_tile_check([0, 1, 3]) is None
    t = integer_tile_check([0])
    assert t is not None and (t.period, t.complement) == (1, (0,))
    for b in (2, 3, 4, 6):
        t = integer_tile_check(range(b))
        assert t is not None and (t.period, t.complement) == (b, (0,))


def test_integer_tile_validation():
    with pytest.raises(InvalidDigitSet):
        integer_tile_check([1, 2])
    with pytest.raises(InvalidDigitSet):
        integer_tile_check([0, 1, 1])
    with pytest.raises(ValueError):
        integer_tile_check([0, 1, 4, 5], period_cap=3)


def test_period_cap_budget(monkeypatch):
    # An explicit cap obeys the same ceiling as the default one.
    with pytest.raises(CyclotileError, match="budget of 100000"):
        integer_tile_check([0, 1, 3], period_cap=oracles._PERIOD_SCAN_LIMIT + 1)
    # Lowered, so that no long scan runs if the check fails.
    monkeypatch.setattr(oracles, "_PERIOD_SCAN_LIMIT", 16)
    t = integer_tile_check([0, 1, 8, 9], period_cap=16)
    assert t is not None and (t.period, t.complement) == (16, (0, 2, 4, 6))
    for cap in (17, 10**12):
        with pytest.raises(CyclotileError, match="period cap .* budget of 16"):
            integer_tile_check([0, 1, 8, 9], period_cap=cap)


def test_residue_tiling_self_check():
    good = ResidueTiling(8, (0, 1, 4, 5), (0, 2))
    assert good.covers_exactly()
    assert not ResidueTiling(8, (0, 1, 4, 5), (0, 3)).covers_exactly()
    assert not ResidueTiling(8, (0, 1, 4, 5), (0,)).covers_exactly()


def test_tile_digit_sets_are_integer_tiles():
    rng = random.Random(23)
    tiles = 0
    for _ in range(150):
        base = rng.choice((2, 3, 4))
        digits = [0] + sorted(rng.sample(range(1, 25), base - 1))
        try:
            cert = decide_tile_digit_set(base, digits)
        except NormalizationRequired:
            continue
        if cert.is_tile:
            tiles += 1
            assert integer_tile_check(digits) is not None, (base, digits)
    assert tiles >= 10


def test_integer_tile_does_not_imply_tile_digit_set():
    cert = decide_tile_digit_set(4, [0, 1, 4, 5])
    assert not cert.is_tile
    assert integer_tile_check([0, 1, 4, 5]) is not None


def test_continuity_frozen_cases():
    r = absolute_continuity_check(2, [0, 1, 2, 3])
    assert r.accepted and r.blocking == (2,)
    assert isinstance(r, ContinuityReport)
    r = absolute_continuity_check(2, [0, 1, 2])
    assert not r.accepted and r.blocking is None
    for b in (2, 3, 4, 6):
        assert absolute_continuity_check(b, range(b)).accepted
    # twice the full residue system, interleaved across two periods
    r = absolute_continuity_check(2, [0, 1, 4, 5])
    assert r.accepted and len(r.digits) % 2 == 0


def test_continuity_acceptance_forces_divisible_count():
    rng = random.Random(37)
    accepted = 0
    for _ in range(200):
        base = rng.randrange(2, 7)
        size = rng.randrange(1, 13)
        digits = [0] + sorted(rng.sample(range(1, 30), size - 1))
        r = absolute_continuity_check(base, digits)
        if r.accepted:
            accepted += 1
            assert len(digits) % base == 0, (base, digits)
    assert accepted >= 5


def test_continuity_matches_decision_on_exact_cardinality():
    rng = random.Random(41)
    for _ in range(80):
        base = rng.choice((2, 3, 4))
        digits = [0] + sorted(rng.sample(range(1, 20), base - 1))
        try:
            cert = decide_tile_digit_set(base, digits)
        except NormalizationRequired:
            continue
        assert absolute_continuity_check(base, digits).accepted == cert.is_tile

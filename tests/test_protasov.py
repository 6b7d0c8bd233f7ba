"""Residue tree search and the per-integer vanishing check."""

import hashlib
import itertools
import json
import math
import random

import pytest

from cyclotile import phitree
from cyclotile.cli import main
from cyclotile.cyclo import cyc_divides, euler_phi, expand_indices
from cyclotile.errors import CertificateError, CyclotileError, NotInTree, WrongCardinality
from cyclotile.intpoly import mask_polynomial
from cyclotile.phitree import certificate_from_json, certificate_to_json, decide_tile_digit_set
from cyclotile.productform import load_recipe
from cyclotile.protasov import (
    MAX_RESIDUE_VERTICES,
    KenyonReport,
    Vertex,
    kenyon_check,
    protasov_decide,
    tau_index,
    vertex_label,
)
from cyclotile.spectra import ExactTest, MaskContext
from test_acceptance import RECIPES, _criterion_08_suites


def level_vertices(base, level):
    """All vertices at a level, ascending by value: residues ending in a
    nonzero digit."""
    return tuple(Vertex(level, m) for m in range(1, base**level) if m % base != 0)


def vertex_children(v, base):
    """The vertices one level down that extend v by a leading digit."""
    step = base**v.level
    return tuple(Vertex(v.level + 1, l * step + v.value) for l in range(base))


def carry_walk_tiles(base, digits):
    """A third route to the tile decision that imports nothing from the
    package: True when no two strings of digits share a value in base b.

    A collision is a nonzero string of differences d_0, d_1, ... in D - D
    with sum(b**i * d_i) = 0.  From carry 0, each step adds a difference,
    must leave a multiple of b and divides by it; a collision is a walk
    that comes back to carry 0.  Every carry stays within
    max|D - D| / (b - 1), so the walk is finite.  With #D = b, no collision
    is exactly a tile (Lagarias and Wang, Adv. Math. 121, 1996).
    """
    diffs = {a - c for a in digits for c in digits}
    todo = [d // base for d in diffs if d and d % base == 0]
    seen = set(todo)
    while todo:
        carry = todo.pop()
        if carry == 0:
            return False
        for d in diffs:
            step, rest = divmod(carry + d, base)
            if not rest and step not in seen:
                seen.add(step)
                todo.append(step)
    return True


def test_tau_index_frozen():
    assert tau_index(3, 1, 6) == 2
    assert tau_index(1, 1, 6) == 6
    assert tau_index(2, 1, 6) == 3
    assert tau_index(4, 1, 6) == 3
    assert tau_index(5, 1, 6) == 6
    assert tau_index(8, 2, 6) == 9  # label "12"
    assert tau_index(1, 2, 4) == 16
    assert tau_index(6, 1, 12) == 2
    with pytest.raises(ValueError, match="need a positive residue at level >= 1"):
        tau_index(0, 1, 4)


def test_vertex_labels():
    assert vertex_label(Vertex(2, 8), 6) == "12"
    assert vertex_label(Vertex(1, 3), 6) == "3"
    assert vertex_label(Vertex(2, 1), 4) == "01"
    assert vertex_label(Vertex(2, 13), 12) == "1.1"
    assert vertex_label(Vertex(1, 11), 12) == "11"
    # A label spells the value in base b, one digit per level.
    rng = random.Random(11)
    for b in (4, 6, 12):
        for _ in range(50):
            level = rng.randrange(1, 4)
            value = rng.randrange(1, b**level)
            if value % b == 0:
                continue
            label = vertex_label(Vertex(level, value), b)
            digits = [int(d) for d in (label.split(".") if b > 10 else label)]
            assert len(digits) == level
            assert sum(d * b**k for k, d in enumerate(reversed(digits))) == value


def test_labels_reject_bad_vertices():
    with pytest.raises(NotInTree):
        vertex_label(Vertex(1, 6), 6)  # would be the zero residue digit
    with pytest.raises(NotInTree):
        vertex_label(Vertex(2, 40), 6)  # out of range
    with pytest.raises(NotInTree, match="5 is out of range for level 1"):
        vertex_label(Vertex(1, 5), 4)
    with pytest.raises(NotInTree, match="4 ends in a zero digit for base 4"):
        vertex_label(Vertex(2, 4), 4)


def test_level_vertices():
    assert [v.value for v in level_vertices(6, 1)] == [1, 2, 3, 4, 5]
    level2 = level_vertices(6, 2)
    assert len(level2) == 30  # 36 residues minus the 6 ending in zero
    assert all(v.value % 6 != 0 for v in level2)
    by_level = sorted(reversed(level2 + level_vertices(6, 1)), key=lambda v: (v.level, v.value))
    assert by_level == [*level_vertices(6, 1), *level2]


def test_vertex_children():
    v = Vertex(1, 3)
    kids = vertex_children(v, 6)
    assert [c.value for c in kids] == [3, 9, 15, 21, 27, 33]
    assert all(c.level == 2 for c in kids)
    # Every vertex one level down has exactly one parent: its value modulo
    # the parent level's base power.
    for b in (4, 6, 12):
        below = [c for u in level_vertices(b, 1) for c in vertex_children(u, b)]
        assert sorted(below, key=lambda v: (v.level, v.value)) == list(level_vertices(b, 2))


def test_children_indices_match_expansion():
    # The index set downstairs is exactly the expansion of the index upstairs.
    for b in (4, 6, 10, 12):
        for level in (1, 2):
            for v in level_vertices(b, level):
                t = tau_index(v.value, v.level, b)
                got = {
                    tau_index(c.value, c.level, b) for c in vertex_children(v, b)
                }
                assert got == expand_indices(t, b)


def test_fiber_sizes_are_totients():
    for b in (4, 6, 9, 12):
        for level in (1, 2, 3):
            groups: dict[int, int] = {}
            for v in level_vertices(b, level):
                t = tau_index(v.value, v.level, b)
                groups[t] = groups.get(t, 0) + 1
            for t, count in groups.items():
                assert count == euler_phi(t)


def test_blocking_for_b4_tile():
    result = protasov_decide(4, [0, 1, 8, 9])
    assert result.status == "blocking"
    assert result.is_tile
    labels = result.labels()
    assert labels == ("2", "01", "03", "11", "13", "21", "23", "31", "33")
    taus = {tau_index(v.value, v.level, 4) for v in result.blocking}
    assert taus == {2, 16}
    mask = mask_polynomial([0, 1, 8, 9])
    assert all(cyc_divides(t, mask) for t in taus)


def test_absent_for_b4_non_tile():
    result = protasov_decide(4, [0, 1, 4, 5])
    assert result.status == "absent"
    assert result.blocking is None
    assert not result.is_tile


def test_full_residue_digits_block_at_level_one():
    for b in (2, 3, 4, 6, 12):
        result = protasov_decide(b, range(b))
        assert result.status == "blocking"
        assert all(v.level == 1 for v in result.blocking)
        assert len(result.blocking) == b - 1


def test_cardinality_enforced():
    with pytest.raises(WrongCardinality):
        protasov_decide(4, [0, 1, 2])
    with pytest.raises(WrongCardinality):
        kenyon_check(4, [0, 1, 2])


def test_blocking_closed_under_fibers():
    result = protasov_decide(6, [0, 1, 2, 3, 4, 5])
    members = set(result.blocking)
    for v in result.blocking:
        t = tau_index(v.value, v.level, 6)
        fiber = {u for u in level_vertices(6, v.level) if tau_index(u.value, u.level, 6) == t}
        assert fiber <= members


MODULO_DIGITS = load_recipe(RECIPES / "b12_modulo.json").digits


@pytest.mark.parametrize(
    "base, digits", [(4, (0, 1, 8, 9)), (6, tuple(range(6))), (12, MODULO_DIGITS)]
)
def test_blocking_is_the_union_of_its_fibers(base, digits):
    # A vertex's ancestors' indices depend on its (level, index) alone, so
    # the walk reaches every vertex sharing that pair with a hit.
    result = protasov_decide(base, digits)
    keys = {(v.level, tau_index(v.value, v.level, base)) for v in result.blocking}
    union = [
        v
        for level in sorted({level for level, _ in keys})
        for v in level_vertices(base, level)
        if (level, tau_index(v.value, level, base)) in keys
    ]
    assert result.blocking == tuple(union)


def test_agreement_with_divisor_tree_search():
    rng = random.Random(20240818)
    agreements = 0
    for _ in range(150):
        rest = rng.sample(range(1, 30), 3)
        digits = [0] + rest
        try:
            cert = decide_tile_digit_set(4, digits)
        except Exception:
            continue
        result = protasov_decide(4, digits)
        assert result.status in ("blocking", "absent")
        assert result.is_tile == cert.is_tile
        # The totient check alone ends the walk: no level bound is needed.
        assert result.stats.max_level <= max(digits).bit_length() + 1
        agreements += 1
    assert agreements >= 100


# SHA-256 of (status, labels, vertices, divisions, max level) of the residue
# search on every criterion-08 set and the three recipes, one repr a line.
# Any change to a verdict, a blocking or the order of the walk changes it.
RESIDUE_ROUTE_DIGEST = "f2f4118001c8d5f335e924f53074a0ea0bfbceec63103ffceabcb8aa028399d7"


def test_residue_route_is_pinned():
    suites = _criterion_08_suites()
    suites += [(made.base, made.digits) for made in map(load_recipe, sorted(RECIPES.glob("*.json")))]
    assert len(suites) == 1797 + 3
    digest = hashlib.sha256()
    for base, digits in suites:
        r = protasov_decide(base, digits)
        row = (r.status, r.labels(), r.stats.vertices, r.stats.divisions, r.stats.max_level)
        digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == RESIDUE_ROUTE_DIGEST


def test_kenyon_frozen():
    report = kenyon_check(4, [0, 1, 8, 9], m_limit=10)
    assert report.holds
    assert report.failing is None
    assert report.witnesses[1] == 2
    assert report.witnesses[2] == 1
    assert report.witnesses[3] == 2
    assert report.witnesses[8] == 2  # index stalls at one, then reaches 2

    report = kenyon_check(4, [0, 1, 4, 5], m_limit=10)
    assert not report.holds
    assert report.failing == 1
    assert isinstance(report, KenyonReport)


def test_kenyon_agrees_with_decision():
    rng = random.Random(99)
    for _ in range(60):
        rest = rng.sample(range(1, 25), 3)
        digits = [0] + rest
        try:
            cert = decide_tile_digit_set(4, digits)
        except Exception:
            continue
        report = kenyon_check(4, digits, m_limit=60)
        if cert.is_tile:
            assert report.holds
        else:
            assert not report.holds


def test_kenyon_handles_base_power_multiples():
    # Integers loaded with base powers stall at index one before growing.
    report = kenyon_check(4, [0, 1, 8, 9], m_limit=64)
    assert report.holds
    assert report.witnesses[64] >= 3


def _census(base, top):
    """Every digit set {0} and b - 1 of 1..top with gcd 1."""
    for rest in itertools.combinations(range(1, top + 1), base - 1):
        if math.gcd(*rest) == 1:
            yield (0, *rest)


# SHA-256 of the repr of each census's tile list, in the order `_census`
# yields the sets.
@pytest.mark.parametrize(
    "base, top, sets, tiles, non_residue, digest",
    [
        (4, 40, 8410, 1025, 73, "4038ab3484df33a3b383e16704dec097f551907531837d7114f076deac3d0a47"),
        (6, 18, 8436, 243, 0, "389de17021ec31702e041b4e632a178f88c9f81cfd4bd54099a048cef3adfa94"),
    ],
    ids=["b4-top40", "b6-top18"],
)
def test_census_routes_agree(base, top, sets, tiles, non_residue, digest):
    # The criterion-08 tiles are nearly all complete residue systems; an
    # exhaustive census reaches the others.  The carry walk shares no code
    # with the two cyclotomic deciders.
    found = []
    count = 0
    for digits in _census(base, top):
        count += 1
        tile = decide_tile_digit_set(base, digits).is_tile
        assert protasov_decide(base, digits).is_tile == tile, digits
        assert carry_walk_tiles(base, digits) == tile, digits
        if tile:
            found.append(digits)
    assert (count, len(found)) == (sets, tiles)
    assert sum(len({d % base for d in ds}) < base for ds in found) == non_residue
    assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


def test_a_lying_divides_flips_only_the_divisor_tree(monkeypatch, capsys):
    # One wrong answer from the divisor tree's exact test: Phi_16 divides the
    # mask of {0, 1, 8, 9} but the test says it does not.  The residue route
    # makes an exact test of its own and the carry walk asks none, so the
    # cross-check disagrees.
    class LyingTest(ExactTest):
        def divides(self, s):
            return s != 16 and super().divides(s)

    monkeypatch.setattr(phitree, "ExactTest", LyingTest)
    assert main(["analyze", "--base", "4", "--digits", "0,1,8,9", "--cross-check"]) == 3
    assert "disagreement" in capsys.readouterr().err
    assert protasov_decide(4, (0, 1, 8, 9)).is_tile
    assert carry_walk_tiles(4, (0, 1, 8, 9))


def test_residue_route_builds_no_context_and_keeps_the_budget(monkeypatch):
    recipes = [(made.base, made.digits) for made in map(load_recipe, sorted(RECIPES.glob("*.json")))]
    over = (0, 1, 10**6 + 1)
    with pytest.raises(CyclotileError) as refused:
        MaskContext(mask_polynomial(over))

    def no_context(self, p):
        raise AssertionError("the residue route built a MaskContext")

    monkeypatch.setattr(MaskContext, "__init__", no_context)
    got = []
    for base, digits in recipes:
        r = protasov_decide(base, digits)
        k = kenyon_check(base, digits)
        stats = (r.stats.vertices, r.stats.divisions, r.stats.max_level)
        got.append((r.status, len(r.blocking), stats, k.holds, sum(k.witnesses.values())))
    assert got == [  # first-order variant, modulo, second order
        ("blocking", 1441, (1571, 22, 3), True, 581),
        ("blocking", 33, (35, 7, 2), True, 253),
        ("blocking", 3553, (3875, 23, 4), True, 605),
    ]
    for route in (protasov_decide, kenyon_check):
        with pytest.raises(CyclotileError) as caught:
            route(3, over)
        assert str(caught.value) == str(refused.value)


def test_residue_walk_has_a_vertex_budget(capsys):
    # Inside the degree budget, yet the walk would visit 174,763 vertices.
    wide = (0, 1, 2 * 4**8, 2 * 4**8 + 1)
    with pytest.raises(CyclotileError, match=f"budget of {MAX_RESIDUE_VERTICES} vertices"):
        protasov_decide(4, wide)
    argv = ["analyze", "--base", "4", "--digits", ",".join(map(str, wide)), "--cross-check"]
    assert main(argv) == 2
    assert "budget of" in capsys.readouterr().err
    payload = json.loads(certificate_to_json(decide_tile_digit_set(4, wide)))
    payload["protasov_blocking"] = []
    with pytest.raises(CertificateError, match="^protasov_blocking: .*budget of"):
        certificate_from_json(json.dumps(payload))

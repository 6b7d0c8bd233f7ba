"""Tree structure, blocking search, kernels, and certificates."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from cyclotile import phitree, spectra
from cyclotile.cyclo import (
    cyc_divides,
    cyclotomic,
    cyclotomic_product,
    euler_phi,
    is_prime_power,
)
from cyclotile.digitset import DigitSet
from cyclotile.errors import (
    CertificateError,
    CyclotileError,
    InvalidBlocking,
    InvalidDigitSet,
    NormalizationRequired,
    NotInTree,
    WrongCardinality,
)
from cyclotile.intpoly import IntPoly, mask_polynomial
from cyclotile.phitree import (
    Blocking,
    Certificate,
    blocking_search,
    certificate_from_json,
    certificate_to_json,
    check_p1,
    children,
    decide_tile_digit_set,
    enumerate_blockings,
    enumerate_dividing_blockings,
    pk_order,
    root_indices,
    search_dot,
)
from cyclotile.productform import load_recipe
from test_acceptance import RECIPES, _criterion_08_suites

refine_blocking = phitree._refine_blocking


def is_blocking(base, indices) -> bool:
    try:
        Blocking.checked(base, indices)
    except InvalidBlocking:
        return False
    return True


MODULO_DIGITS = load_recipe(
    Path(__file__).resolve().parents[1] / "recipes" / "b12_modulo.json"
).digits


def test_root_indices():
    assert root_indices(4) == (2, 4)
    assert root_indices(6) == (2, 3, 6)
    assert root_indices(12) == (2, 3, 4, 6, 12)
    with pytest.raises(ValueError):
        root_indices(1)


def test_children_frozen():
    assert children(2, 4) == (8,)
    assert children(4, 4) == (16,)
    assert children(8, 4) == (32,)
    assert children(2, 6) == (4, 12)
    assert children(3, 6) == (9, 18)
    assert children(6, 6) == (36,)
    assert children(4, 12) == (16, 48)
    assert children(3, 12) == (9, 18, 36)
    assert children(6, 12) == (72,)


def test_every_node_has_one_parent():
    # The parent of a node c is c // gcd(c, b), and a root's is 1: the
    # closed form of the children, the upward blocking check and the DOT
    # edges rest on it.
    checked = 0
    for b in range(2, 61):
        level = root_indices(b)
        assert all(r // math.gcd(r, b) == 1 for r in level), b
        for _ in range(4):
            below = []
            for e in level:
                for c in children(e, b):
                    assert c // math.gcd(c, b) == e, (e, c, b)
                    below.append(c)
            level = below
            checked += len(below)
    assert checked == 2564


def test_children_rejects_foreign_indices():
    with pytest.raises(NotInTree):
        children(5, 6)
    with pytest.raises(NotInTree):
        children(3, 4)


def test_decide_tile_b4():
    cert = decide_tile_digit_set(4, [0, 1, 8, 9])
    assert cert.is_tile
    assert cert.verdict == "tile"
    assert cert.blocking == (2, 16)
    assert cert.order == 1
    assert cert.report.prime_powers == (2, 16)
    assert cert.report.t1
    assert cert.report.structure.passed
    assert cert.report.structure.exponents == {2: (1, 4)}
    assert cert.kernel() == mask_polynomial([0, 1, 8, 9])


def test_decide_not_tile_b4():
    cert = decide_tile_digit_set(4, [0, 1, 4, 5])
    assert not cert.is_tile
    assert cert.blocking is None
    assert cert.order is None
    assert cert.kernel() is None
    assert cert.report.prime_powers == (2, 8)
    assert not cert.report.structure.passed


def test_decide_full_residue_digits():
    for b in (2, 3, 4, 6, 10, 12):
        cert = decide_tile_digit_set(b, range(b))
        assert cert.is_tile
        assert cert.blocking == root_indices(b)
        assert cert.order == 1


def test_decide_rejects_bad_digit_sets():
    with pytest.raises(WrongCardinality):
        decide_tile_digit_set(4, [0, 1, 2])
    with pytest.raises(NormalizationRequired):
        decide_tile_digit_set(4, [1, 2, 3, 4])
    with pytest.raises(NormalizationRequired):
        decide_tile_digit_set(4, [0, 2, 4, 6])
    with pytest.raises(InvalidDigitSet):
        decide_tile_digit_set(4, [0, 1, 1, 2])
    with pytest.raises(InvalidDigitSet):
        decide_tile_digit_set(4, [0, -1, 2, 3])
    with pytest.raises(InvalidDigitSet, match="digit set is empty"):
        DigitSet(4, ())


def test_first_hit_blocking_is_a_valid_blocking():
    rng = random.Random(20240817)
    tiles = 0
    for _ in range(200):
        rest = rng.sample(range(1, 25), 3)
        digits = [0] + rest
        try:
            cert = decide_tile_digit_set(4, digits)
        except NormalizationRequired:
            continue
        if not cert.is_tile:
            assert cert.order is None or pk_order(4, digits) is None
            continue
        tiles += 1
        blk = Blocking.checked(4, cert.blocking)
        assert blk.divides(mask_polynomial(digits))
        assert cert.order is not None and cert.order >= 1
    assert tiles >= 10


def test_kernel_polynomial_identity():
    # (1 + x)(1 + x**8) is itself a mask: the kernel certificate is literal.
    assert Blocking.checked(4, [16, 2]).kernel() == mask_polynomial([0, 1, 8, 9])
    assert Blocking.checked(4, [2, 4]).kernel() == mask_polynomial([0, 1, 2, 3])


def test_is_blocking_frozen_cases():
    assert is_blocking(4, [2, 4])
    assert is_blocking(4, [2, 16])
    assert is_blocking(4, [4, 8])
    assert is_blocking(6, [2, 3, 6])
    assert not is_blocking(4, [2, 4, 16])  # 16 sits below 4
    assert not is_blocking(4, [2, 8])  # 8 sits below 2
    assert not is_blocking(4, [4])  # root-2 path escapes
    assert not is_blocking(4, [2])  # root-4 path escapes
    assert not is_blocking(6, [2, 3])
    assert not is_blocking(4, [])
    assert not is_blocking(4, [3])  # not a tree node
    assert not is_blocking(4, [2, 4, 6])  # 6 shares a factor with 4 but is off the tree


def test_blocking_checked_reports_reasons():
    with pytest.raises(InvalidBlocking) as info:
        Blocking.checked(4, [2, 4, 16])
    assert "below" in str(info.value)
    with pytest.raises(InvalidBlocking) as info:
        Blocking.checked(4, [2])
    assert "escapes" in str(info.value)
    with pytest.raises(InvalidBlocking):
        Blocking.checked(4, [3, 4])
    with pytest.raises(InvalidBlocking, match="base must be at least 2"):
        Blocking.checked(1, [2])


def test_refine_blocking():
    blk = Blocking.checked(6, [2, 3, 6])
    refined = refine_blocking(blk, 3)
    assert refined.indices == (2, 6, 9, 18)
    assert is_blocking(6, refined.indices)
    with pytest.raises(InvalidBlocking):
        refine_blocking(blk, 4)


def test_refinement_keeps_blockings_valid():
    rng = random.Random(71)
    for b in (4, 6, 12):
        blk = Blocking(b, root_indices(b))
        for _ in range(5):
            d = rng.choice(blk.indices)
            blk = refine_blocking(blk, d)
            assert is_blocking(b, blk.indices)
    # A descendant of a member, child or grandchild, meets that member's
    # paths a second time.
    for b in (4, 6, 12):
        for blk in enumerate_blockings(b, 40):
            for d in blk.indices:
                child = children(d, b)[0]
                for below in (child, children(child, b)[-1]):
                    assert not is_blocking(b, blk.indices + (below,))


def test_refinement_kernel_identity():
    # Replacing d by its children multiplies the kernel by the factors of
    # the d-th cyclotomic in x**b and divides out the d-th cyclotomic.
    rng = random.Random(72)
    for b in (4, 6, 12):
        blk = Blocking(b, root_indices(b))
        for _ in range(4):
            d = rng.choice(blk.indices)
            refined = refine_blocking(blk, d)
            lhs = refined.kernel() * cyclotomic(d)
            rhs = blk.kernel() * cyclotomic_product(children(d, b))
            assert lhs == rhs
            blk = refined


def test_kernel_value_at_one_is_base():
    rng = random.Random(73)
    for b in (4, 6, 12):
        blk = Blocking(b, root_indices(b))
        for _ in range(5):
            assert blk.kernel().at_one() == b
            blk = refine_blocking(blk, rng.choice(blk.indices))


def test_enumerate_blockings_frozen():
    assert [blk.indices for blk in enumerate_blockings(4, 9)] == [
        (2, 4),
        (4, 8),
        (2, 16),
    ]
    assert enumerate_blockings(4, 0) == []
    assert [blk.indices for blk in enumerate_blockings(4, 3)] == [(2, 4)]
    assert [blk.indices for blk in enumerate_blockings(6, 5)] == [(2, 3, 6)]
    assert [blk.indices for blk in enumerate_blockings(2, 8)] == [
        (2,),
        (4,),
        (8,),
        (16,),
    ]


def test_enumerate_blockings_properties():
    for b in (4, 6, 12):
        found = enumerate_blockings(b, 40)
        assert len({blk.indices for blk in found}) == len(found)
        for blk in found:
            assert is_blocking(b, blk.indices)
            assert blk.kernel_degree <= 40
            assert blk.kernel().degree == blk.kernel_degree


def test_enumerate_dividing_blockings():
    found = enumerate_dividing_blockings(4, [0, 1, 8, 9])
    assert [blk.indices for blk in found] == [(2, 16)]
    mask = mask_polynomial([0, 1, 8, 9])
    assert all(blk.divides(mask) for blk in found)
    assert [blk.indices for blk in enumerate_dividing_blockings(4, range(4))] == [(2, 4)]
    assert enumerate_dividing_blockings(4, [0, 1, 4, 5]) == []
    variant = (0, 1, 288, 289, 2304, 2305, 2592, 2593, 4608, 4609, 4896, 4897)
    assert len(enumerate_dividing_blockings(12, variant, limit=2)) == 2
    assert len(enumerate_dividing_blockings(12, variant, limit=1)) == 1
    # The kernels command prints them in the order they come.
    for base, digits in ((12, variant), (12, MODULO_DIGITS), (4, (0, 1, 8, 9))):
        found = enumerate_dividing_blockings(base, digits)
        keys = [(blk.kernel_degree, blk.indices) for blk in found]
        assert keys == sorted(keys)


def _listing_digest(blockings) -> str:
    text = json.dumps([[list(blk.indices), blk.kernel_degree] for blk in blockings])
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the JSON listings [[indices, kernel degree], ...], in the order
# the enumerators return them.  They pin both the content and the order.
BLOCKING_LISTING_DIGESTS = {
    (4, 400): "971b90d074591bed4b24d9db8194110b4a580e1360271cacfd4c683dc1d048ff",
    (6, 800): "353ba3f9767cbbb6362705e3d0ca4e2bd35a62a85e7bccdc586b8bc1d7f6b628",
    (12, 800): "5df05092d201cf7558330135da475fa0fbec6fb021aacdec89463d17bb4fe643",
    (60, 400): "ccbff2c84d125102ce37bca256ecdbe85620cbfff637b36bb5451954916c3a68",
}
DIVIDING_LISTING_DIGESTS = {
    ("b12_first_order_variant", 1): "c600e8a70b493672a206dd77edb8ec5150405faafd75af283d90a28e0fdaf749",
    ("b12_first_order_variant", 8): "671f0a642ec9292067ada0f253fa6c84dc4a5d928cbbc246318a00ae82f7bbb4",
    ("b12_first_order_variant", 64): "671f0a642ec9292067ada0f253fa6c84dc4a5d928cbbc246318a00ae82f7bbb4",
    ("b12_modulo", 8): "082a377d3006dce66fabf3afc99fc9fc92d3d5323f973b917d12b73671fc94c6",
    ("b12_modulo", 64): "082a377d3006dce66fabf3afc99fc9fc92d3d5323f973b917d12b73671fc94c6",
    ("b12_second_order", 8): "5a1feb6b2e9219d16ccf586306b7e09b5c2f510ea10f4c13096db36924c689cd",
    ("b12_second_order", 64): "5a1feb6b2e9219d16ccf586306b7e09b5c2f510ea10f4c13096db36924c689cd",
}


def test_blocking_listings_are_pinned():
    for (base, max_degree), want in BLOCKING_LISTING_DIGESTS.items():
        got = _listing_digest(enumerate_blockings(base, max_degree))
        assert got == want, (base, max_degree)
    recipes = Path(__file__).resolve().parents[1] / "recipes"
    for (recipe, limit), want in DIVIDING_LISTING_DIGESTS.items():
        digits = load_recipe(recipes / f"{recipe}.json").digits
        got = _listing_digest(enumerate_dividing_blockings(12, digits, limit=limit))
        assert got == want, (recipe, limit)


@pytest.mark.parametrize("limit", [0, -3])
def test_enumerate_dividing_blockings_refuses_limit_below_one(limit):
    with pytest.raises(ValueError, match="limit must be at least 1"):
        enumerate_dividing_blockings(4, [0, 1, 8, 9], limit=limit)


def test_check_p1():
    report = check_p1(4, [0, 1, 8, 9])
    assert report.holds
    assert report.witnesses == {2: 0, 4: 1}
    assert report.failing is None

    report = check_p1(4, [0, 1, 4, 5])
    assert not report.holds
    assert report.failing == 4
    assert report.witnesses == {2: 0}


def test_pk_order_frozen():
    assert pk_order(4, [0, 1, 8, 9]) == 1
    assert pk_order(4, [0, 1, 4, 5]) is None
    for b in (2, 3, 4, 6, 12):
        assert pk_order(b, range(b)) == 1


# SHA-256 of (pk_order, check_p1's holds, witnesses and failing, check_t2)
# over every criterion-08 set and the three recipes, one line per set.
ORDER_DIGEST = "c57786e086c44684029d395f922bbf4226f552da2e47a31c9d59dee3091cf44e"


def test_order_p1_and_t2_are_pinned():
    suites = _criterion_08_suites()
    suites += [(made.base, made.digits) for made in map(load_recipe, sorted(RECIPES.glob("*.json")))]
    assert len(suites) == 1800
    digest = hashlib.sha256()
    for base, digits in suites:
        p1 = check_p1(base, digits)
        row = (pk_order(base, digits), p1.holds, sorted(p1.witnesses.items()), p1.failing)
        digest.update(repr(row + (spectra.check_t2(digits),)).encode() + b"\n")
    assert digest.hexdigest() == ORDER_DIGEST


def test_blocking_search_on_plain_polynomials():
    got, _, _ = blocking_search(mask_polynomial([0, 1, 2, 3]), 2)
    assert got == frozenset((2,))
    got, _, _ = blocking_search(IntPoly.one(), 2)
    assert got is None
    with pytest.raises(ValueError):
        blocking_search(IntPoly.zero(), 2)


def test_certificate_json_roundtrip():
    cert = decide_tile_digit_set(4, [0, 1, 8, 9])
    text = certificate_to_json(cert, indent=2)
    payload = json.loads(text)
    assert list(payload)[:14] == [
        "schema",
        "base",
        "digits",
        "verdict",
        "blocking",
        "kernel",
        "pk_order",
        "prime_power_spectrum",
        "t1",
        "t2",
        "thm42",
        "thm42_pass",
        "thm42_violation",
        "general_spectrum",
    ]
    assert payload["schema"] == "cyclotile.certificate/1"
    assert payload["blocking"] == [2, 16]
    assert payload["kernel"] == [2, 16]
    assert payload["pk_order"] == 1
    assert payload["thm42"] == {"2": [1, 4]}
    assert payload["thm42_pass"] is True

    back = certificate_from_json(text)
    assert back.base == cert.base
    assert back.digits == cert.digits
    assert back.verdict == cert.verdict
    assert back.blocking == cert.blocking
    assert back.order == cert.order


def test_certificate_json_not_tile():
    cert = decide_tile_digit_set(4, [0, 1, 4, 5])
    payload = json.loads(certificate_to_json(cert))
    assert payload["verdict"] == "not-tile"
    assert payload["blocking"] is None
    assert payload["pk_order"] is None
    back = certificate_from_json(certificate_to_json(cert))
    assert not back.is_tile


def test_certificate_tampering_detected():
    cert = decide_tile_digit_set(4, [0, 1, 8, 9])
    payload = json.loads(certificate_to_json(cert))

    broken = dict(payload)
    broken["blocking"] = [2, 4]  # valid blocking, wrong kernel
    with pytest.raises(CertificateError, match="kernel does not divide"):
        certificate_from_json(json.dumps(broken))

    broken = dict(payload)
    broken["blocking"] = [2, 4, 16]  # not a blocking at all
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(broken))

    broken = dict(payload)
    broken["blocking"] = None
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(broken))

    broken = dict(payload)
    broken["schema"] = "cyclotile.certificate/0"
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(broken))

    # A repeat, a negative digit, too few digits, no 0, digit gcd 2, past the degree budget.
    refused = [[0, 1, 8, 8], [0, 1, 8, -9], [0, 1, 8], [1, 2, 8, 9], [0, 2, 4, 6]]
    for digits in refused + [[0, 1, 1000001, 1000002]]:
        broken = dict(payload)
        broken["digits"] = digits
        with pytest.raises(CertificateError, match="^invalid digit set:"):
            certificate_from_json(json.dumps(broken))

    broken = dict(payload)
    del broken["t1"]
    with pytest.raises(CertificateError, match="^missing field 't1'$"):
        certificate_from_json(json.dumps(broken))

    with pytest.raises(CertificateError):
        certificate_from_json("not json at all")
    with pytest.raises(CertificateError):
        certificate_from_json("[" * 100_000 + "]" * 100_000)


# json.dumps cannot write an integer past the interpreter's string-conversion
# limit of 4,300 digits, so this string stands in for a 5,000-digit literal.
HUGE = "5000-digit integer"


def _tile_payload(**fields) -> str:
    payload = json.loads(certificate_to_json(decide_tile_digit_set(4, [0, 1, 8, 9])))
    payload.update(fields)
    return json.dumps(payload).replace(json.dumps(HUGE), "1" * 5000)


@pytest.mark.parametrize(
    "fields",
    [
        {"verdict": "not-tile", "blocking": None, "kernel": None, "pk_order": None},
        {"pk_order": 7},
        {"pk_order": True},
        {"digits": [0, 1, "8", 9]},
        {"blocking": [2, "16"]},
        {"digits": None},
        {"base": "4"},
        {"base": True},
        {"prime_power_spectrum": [3]},
        {"t1": False},
        {"kernel": [2, 4]},
        {"t2": 1},
        {"thm42_pass": False},
        {"general_spectrum": {"indices": [2], "cap": 30, "threshold": 30, "complete": True}},
        {"general_spectrum": {"indices": [2, 16], "cap": "30", "threshold": 30, "complete": True}},
        {"general_spectrum": None},
        {"general_spectrum": {"indices": [], "cap": -5, "threshold": 30, "complete": False}},
        {"search": {"nodes": -5, "divisions": "x"}},
        {"protasov_blocking": ["zz"]},
        {"bogus": 1},
        {"blocking": [2, 2, 16], "kernel": [2, 2, 16]},
        {"blocking": [16, 2], "kernel": [16, 2]},
        # Genuine blockings with one member hundreds of levels deep.
        {"blocking": [2, 4**800], "kernel": [2, 4**800]},
        {"base": 2, "digits": [0, 1], "blocking": [2**1500], "kernel": [2**1500]},
        {"base": HUGE},
        {"digits": [0, 1, 8, HUGE]},
    ],
    ids=[
        "flipped-verdict",
        "wrong-pk-order",
        "bool-pk-order",
        "string-digit",
        "string-blocking-index",
        "null-digits",
        "string-base",
        "bool-base",
        "wrong-prime-power-spectrum",
        "wrong-t1",
        "wrong-kernel",
        "int-t2",
        "wrong-thm42-pass",
        "wrong-general-indices",
        "string-cap",
        "null-general-spectrum",
        "negative-cap",
        "tampered-search",
        "garbage-protasov-labels",
        "unknown-field",
        "repeated-blocking-member",
        "unsorted-blocking",
        "deep-member",
        "deep-member-base-2",
        "huge-base",
        "huge-digit",
    ],
)
def test_tampered_certificate_raises_certificate_error(fields):
    with pytest.raises(CertificateError):
        certificate_from_json(_tile_payload(**fields))


def test_not_tile_certificate_with_residue_labels_is_refused():
    payload = json.loads(certificate_to_json(decide_tile_digit_set(4, [0, 1, 4, 5])))
    payload["protasov_blocking"] = ["1", "3"]
    with pytest.raises(CertificateError, match="protasov_blocking"):
        certificate_from_json(json.dumps(payload))


def test_certificate_without_search_still_loads():
    payload = json.loads(certificate_to_json(decide_tile_digit_set(4, [0, 1, 8, 9])))
    del payload["search"]
    back = certificate_from_json(json.dumps(payload))
    assert back.is_tile and back.blocking == (2, 16)


def test_loaded_certificate_renders_its_search():
    cert = decide_tile_digit_set(4, [0, 1, 4, 5])
    assert search_dot(certificate_from_json(certificate_to_json(cert))) == search_dot(cert)


def test_certificate_keeps_its_spectrum_cap():
    cert = decide_tile_digit_set(4, (0, 1, 8, 9), spectrum_cap=10)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.report.general.cap == 10
    assert back.report.general.indices == (2,)
    again = json.loads(certificate_to_json(back))
    assert again["general_spectrum"] == json.loads(text)["general_spectrum"]
    assert again["general_spectrum"]["indices"] == [2]
    with pytest.raises(ValueError, match="at least 1"):
        decide_tile_digit_set(4, (0, 1, 8, 9), spectrum_cap=-5)


@pytest.mark.parametrize(
    "base, digits",
    [(4, (0, 1, 8, 9)), (4, (0, 1, 4, 5)), (12, MODULO_DIGITS), (4, (0, 1, 2**19, 2**19 + 1))],
)
def test_certificate_reloads_from_any_layout(monkeypatch, base, digits):
    """The compact text that `certificate_to_json` writes reloads without the
    sorted-key comparison.  Text with indent 2 (also with the newline that
    `analyze --format json` prints after it), or with its keys in reverse
    order, takes that comparison and still loads, and every load prints
    back byte for byte."""
    cert = decide_tile_digit_set(base, digits)
    compact = certificate_to_json(cert)
    pretty = certificate_to_json(cert, indent=2)
    reversed_keys = json.dumps(dict(reversed(list(json.loads(compact).items()))))
    sorted_comparisons = []
    text = phitree._text

    def counting_text(value):
        sorted_comparisons.append(value)
        return text(value)

    monkeypatch.setattr(phitree, "_text", counting_text)
    layouts = ((compact, True), (pretty, False), (pretty + "\n", False), (reversed_keys, False))
    for layout, fast in layouts:
        sorted_comparisons.clear()
        back = certificate_from_json(layout)
        assert certificate_to_json(back) == compact
        assert certificate_to_json(back, indent=2) == pretty
        assert (not sorted_comparisons) == fast


def _recipe_sets():
    return [(made.base, made.digits) for made in map(load_recipe, sorted(RECIPES.glob("*.json")))]


def test_divisor_route_builds_no_context_and_keeps_the_budget(monkeypatch):
    """The search, the order and the enumeration ask the exact test alone:
    they give the same results with no MaskContext, and still refuse a mask
    above the degree budget with the budget's text."""
    over = (0, 1, 10**6 + 1)
    budget = "polynomial degree 1000001 exceeds the budget of 1000000"

    def no_context(self, p):
        raise AssertionError("the divisor route built a MaskContext")

    monkeypatch.setattr(spectra.MaskContext, "__init__", no_context)
    got = []
    for base, digits in _recipe_sets():
        blocking, stats, _ = blocking_search(mask_polynomial(digits), base)
        p1 = check_p1(base, digits)
        found = enumerate_dividing_blockings(base, digits)
        got.append(
            (
                len(blocking),
                (stats.nodes, stats.divisions, stats.max_depth, stats.pruned),
                pk_order(base, digits),
                (p1.holds, p1.witnesses, p1.failing),
                [blk.kernel_degree for blk in found],
            )
        )
    assert got == [  # first-order variant, modulo, second order
        (11, (22, 22, 2, 0), 1, (True, {2: 0, 3: 2, 4: 2, 6: 2, 12: 2}, None), [1441, 3553]),
        (6, (7, 7, 1, 0), 1, (True, {2: 0, 3: 0, 4: 1, 6: 0, 12: 0}, None), [33]),
        (11, (23, 23, 3, 0), 2, (False, {2: 0, 3: 2}, 4), [3553]),
    ]
    routes = [
        lambda: blocking_search(mask_polynomial(over), 3),
        lambda: check_p1(3, over),
        lambda: pk_order(3, over),
        lambda: enumerate_dividing_blockings(3, over),
        lambda: decide_tile_digit_set(3, over),
    ]
    for route in routes:
        with pytest.raises(CyclotileError) as caught:
            route()
        assert str(caught.value) == budget


def test_modular_stage_decides_no_verdict(monkeypatch):
    """A modular stage that rejects every index leaves the verdict,
    blocking, order and search counters as they were.  The spectra then
    hold exactly the dividing indices that the decision's exact test had
    already answered when the report began: the context reads those from
    its memo before the modular stage."""
    sets = _recipe_sets()
    honest = [decide_tile_digit_set(base, digits) for base, digits in sets]
    answered = []

    def recording_report(ctx, base, cap):
        answered.append({s for s, hit in ctx.exact._memo.items() if hit})
        return spectra.context_report(ctx, base, cap)

    monkeypatch.setattr(phitree, "context_report", recording_report)
    monkeypatch.setattr(spectra.MaskContext, "may_vanish_mod_prime", lambda self, s: False)
    lost = 0
    for (base, digits), cert in zip(sets, honest):
        got = decide_tile_digit_set(base, digits)
        known = answered[-1]
        general = got.report.general
        assert general.indices == tuple(sorted(s for s in known if s <= general.cap))
        assert got.report.prime_powers == tuple(
            sorted(q for q in known if is_prime_power(q))
        )
        assert set(general.indices) <= set(cert.report.general.indices)
        lost += len(cert.report.general.indices) - len(general.indices)
        assert (got.verdict, got.blocking, got.order) == (cert.verdict, cert.blocking, cert.order)
        assert got.stats == cert.stats
    assert lost > 0


@pytest.mark.parametrize("base, digits", [(4, (0, 1, 8, 9)), (12, MODULO_DIGITS)])
def test_decision_tests_each_index_once(monkeypatch, base, digits):
    """One decision runs cyc_divides at most once per index and builds the
    spectra's candidate indices once, whichever layers ask."""
    calls = Counter()
    spectrum_runs = []
    candidates = spectra._candidate_indices

    def counting_divides(s, p):
        calls[s] += 1
        return cyc_divides(s, p)

    def counting_candidates(gaps, primes, threshold):
        spectrum_runs.append(threshold)
        return candidates(gaps, primes, threshold)

    # Patch every decision module that could call cyc_divides on its own.
    for module in (phitree, spectra):
        monkeypatch.setattr(module, "cyc_divides", counting_divides, raising=False)
    monkeypatch.setattr(spectra, "_candidate_indices", counting_candidates)
    decide_tile_digit_set(base, digits)
    assert calls and max(calls.values()) == 1
    assert len(spectrum_runs) == 1


# SHA-256 of the certificates below, each serialized without indent and
# followed by a newline.  Any change to a verdict, spectrum, order, search
# counter or the JSON layout changes it; update it only for a deliberate
# format change.
CERTIFICATE_DIGEST = "5446b2d5aa1aa1f3af6ffccad6fd8c738115d304cfcc27c362a211ca6ae1b20b"


def test_certificate_bytes_are_pinned():
    sets = [
        (4, (0,) + combo)
        for combo in itertools.combinations(range(1, 21), 3)
        if math.gcd(*combo) == 1
    ]
    assert len(sets) == 997
    sets.append((12, MODULO_DIGITS))
    digest = hashlib.sha256()
    for base, digits in sets:
        digest.update(certificate_to_json(decide_tile_digit_set(base, digits)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == CERTIFICATE_DIGEST


# SHA-256 of the indent-2 certificates of two digit sets with a digit near
# 10**6, where the completeness threshold is about 5.3 million.
LARGE_DIGIT_DIGESTS = {
    (3, (0, 1, 1_000_000)): "108064ea85473f27eec8afbc7f73488d26d3ad8665eb0413edeab1aad7590445",
    (4, (0, 1, 2, 999_999)): "5ccb1682ef0255184472593883c8af45a1780a9f7d7192284ef664764ca2a11a",
}


def test_large_digit_certificate_bytes_are_pinned():
    for (base, digits), want in LARGE_DIGIT_DIGESTS.items():
        text = certificate_to_json(decide_tile_digit_set(base, digits), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == want, (base, digits)


def test_search_dot_rendering():
    cert = decide_tile_digit_set(4, [0, 1, 8, 9])
    dot = search_dot(cert)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert '"4" -> "16"' in dot
    cert = decide_tile_digit_set(4, [0, 1, 4, 5])
    dot = search_dot(cert)
    assert "octagon" in dot and "dashed" in dot
    bare = Certificate(4, cert.digits, cert.verdict, cert.blocking, cert.order, cert.report)
    with pytest.raises(ValueError, match="certificate carries no search trace"):
        search_dot(bare)


# SHA-256 of the DOT renderings of every criterion-08 set and the three
# recipes, concatenated.  Any change to the explored nodes, their outcomes,
# the edges or their order changes it.
SEARCH_DOT_DIGEST = "cd4db8033bdbdbfefe14a60e961ac10746ff6952d23d0fb8745e8980ea017d8c"


def test_search_dot_bytes_are_pinned():
    suites = _criterion_08_suites()
    suites += [(made.base, made.digits) for made in map(load_recipe, sorted(RECIPES.glob("*.json")))]
    assert len(suites) == 1797 + 3
    digest = hashlib.sha256()
    for base, digits in suites:
        digest.update(search_dot(decide_tile_digit_set(base, digits)).encode())
    assert digest.hexdigest() == SEARCH_DOT_DIGEST


def test_search_stats_populated():
    cert = decide_tile_digit_set(4, [0, 1, 8, 9])
    assert cert.stats.nodes >= 3
    assert cert.stats.divisions >= 3
    assert cert.stats.max_depth >= 1


def test_totients_grow_along_edges():
    # Justifies the pruning rule: totients at least double on every edge.
    for b in (4, 6, 10, 12):
        frontier = set(root_indices(b))
        for _ in range(3):
            nxt = set()
            for e in frontier:
                for c in children(e, b):
                    assert c % e == 0 and c >= 2 * e
                    assert euler_phi(c) >= 2 * euler_phi(e)
                    nxt.add(c)
            frontier = nxt

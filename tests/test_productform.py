"""Stagewise constructions, kernel traces, and recipes."""

import hashlib
import random
from pathlib import Path

import pytest

from cyclotile.errors import (
    CyclotileError,
    DirectSumCollision,
    InvalidDecomposition,
    InvalidRegrouping,
    InvalidRepresentative,
    RecipeError,
)
from cyclotile.intpoly import IntPoly, mask_polynomial
from cyclotile.phitree import Blocking, check_p1, decide_tile_digit_set
from cyclotile.productform import (
    Construction,
    Decomposition,
    build_higher_order,
    build_modulo_product_form,
    build_product_form,
    build_recipe,
    build_weak_product_form,
    load_recipe,
    stage_kernels,
    validate_decomposition,
)
from test_acceptance import _random_decomposition

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def test_decomposition_validation_errors():
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, (), ())
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (0, 2)), ())  # missing exponent
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (0, 2)), (1, 2))  # too many
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (0, 2)), (-1,))
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (0, 2), (0, 4)), (2, 1))  # decreasing
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (2, 4)), (1,))  # no zero
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (0,)), (1,))  # degenerate part
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (0, 2, 2)), (1,))  # repeated digit
    with pytest.raises(InvalidDecomposition):
        Decomposition(12, ((0, 1), (0, "2")), (1,))  # digits that do not compare
    with pytest.raises(InvalidDecomposition, match=r"part \(-1, 0\) has a bad digit"):
        Decomposition(4, ((0, -1),), ())
    with pytest.raises(InvalidDecomposition, match=r"part \(0, True\) has a bad digit"):
        Decomposition(4, ((0, True),), ())
    with pytest.raises(InvalidDecomposition, match="base must be at least 2"):
        Decomposition(1, ((0, 1),), ())


def test_validate_decomposition():
    assert validate_decomposition(Decomposition(4, ((0, 1), (0, 2)), (1,)))
    assert validate_decomposition(Decomposition(4, ((0, 1), (0, 6)), (1,)))
    assert validate_decomposition(
        Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))
    )
    assert not validate_decomposition(Decomposition(4, ((0, 1), (0, 3)), (1,)))
    assert not validate_decomposition(Decomposition(6, ((0, 1), (0, 1, 2)), (0,)))
    assert not validate_decomposition(Decomposition(4, ((0, 2), (0, 2)), (1,)))


def test_build_product_form_b4():
    dec = Decomposition(4, ((0, 1), (0, 2)), (1,))
    built = build_product_form(dec)
    assert built.kind == "product-form"
    assert built.order == 1
    assert built.digits == (0, 1, 8, 9)
    assert built.trace.stage_spectra == ((2,), (4,))
    assert built.trace.kernels == ((2,), (2, 16))
    assert built.trace.moduli == (2, 16)
    assert built.stage_digits == ((0, 1), (0, 1, 8, 9))


def test_build_product_form_rejects_invalid():
    with pytest.raises(InvalidDecomposition):
        build_product_form(Decomposition(4, ((0, 1), (0, 3)), (1,)))


def test_stage_kernels_three_stage():
    dec = Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))
    trace = stage_kernels(dec)
    assert trace.stage_spectra == ((2,), (3, 6, 12), (4,))
    assert trace.kernels == (
        (2,),
        (2, 3, 6, 12),
        (2, 3, 6, 12, 16, 48),
    )
    assert trace.moduli == (2, 12, 48)
    assert trace.kernel_indices == (2, 3, 6, 12, 16, 48)


def test_plain_three_stage_digits():
    dec = Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))
    built = build_product_form(dec)
    assert built.digits == (0, 1, 4, 5, 8, 9, 24, 25, 28, 29, 32, 33)
    cert = decide_tile_digit_set(12, built.digits)
    assert cert.is_tile


def test_modulo_product_form_frozen():
    dec = Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))
    reps = ({}, {5: 17}, {24: 72, 28: 76, 32: 80})
    built = build_modulo_product_form(dec, reps)
    assert built.kind == "modulo-product-form"
    assert built.digits == (0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80)
    assert built.stage_digits[0] == (0, 1)
    assert built.stage_digits[1] == (0, 1, 4, 8, 9, 17)
    assert built.trace.moduli == (2, 12, 48)
    cert = decide_tile_digit_set(12, built.digits)
    assert cert.is_tile
    assert check_p1(12, built.digits).holds


def test_modulo_representative_errors():
    dec = Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))
    with pytest.raises(InvalidRepresentative):
        build_modulo_product_form(dec, ({}, {5: 18}, {}))  # 18 != 5 mod 12
    with pytest.raises(InvalidRepresentative):
        build_modulo_product_form(dec, ({}, {7: 19}, {}))  # no digit 7
    with pytest.raises(InvalidRepresentative):
        build_modulo_product_form(dec, ({}, {5: -7}, {}))
    with pytest.raises(InvalidRepresentative):
        build_modulo_product_form(dec, ({}, {}, {}, {}))  # too many stages


def test_weak_product_form():
    dec = Decomposition(4, ((0, 1), (0, 2)), (1,))
    built = build_weak_product_form(dec, {8: 24})
    assert built.kind == "weak-product-form"
    assert built.digits == (0, 1, 9, 24)
    assert decide_tile_digit_set(4, built.digits).is_tile
    with pytest.raises(InvalidRepresentative):
        build_weak_product_form(dec, {8: 25})  # 25 != 8 mod 16
    recipe = {
        "kind": "weak-product-form",
        "base": 4,
        "parts": [[0, 1], [0, 2]],
        "exponents": [1],
        "representatives": {"8": 24},
    }
    assert build_recipe(recipe).digits == (0, 1, 9, 24)


def test_higher_order_regrouping():
    inner = build_product_form(
        Decomposition(12, ((0, 1, 8, 9, 16, 17), (0, 2)), (1,))
    )
    assert inner.digits == (0, 1, 8, 9, 16, 17, 24, 25, 32, 33, 40, 41)
    outer = build_higher_order(inner, ((0, 1), (0, 8), (0, 16, 32)), (1, 2))
    assert outer.kind == "higher-order-product-form"
    assert outer.order == 2
    assert outer.inner is inner
    assert outer.digits == (
        0, 1, 96, 97, 2304, 2305, 2400, 2401, 4608, 4609, 4704, 4705,
    )


def test_higher_order_rejects_bad_regrouping():
    inner = build_product_form(
        Decomposition(12, ((0, 1, 8, 9, 16, 17), (0, 2)), (1,))
    )
    with pytest.raises(InvalidRegrouping):
        build_higher_order(inner, ((0, 1), (0, 8), (0, 16, 40)), (1, 2))
    with pytest.raises(InvalidRegrouping):
        build_higher_order(inner, ((0, 1), (0, 8), (0, 16, 32)), (2, 1))
    with pytest.raises(InvalidRegrouping):
        build_higher_order(inner, ((0, 1), (0, 8)), (1, 2))
    for exps in ((1, -2), (True, 2), (1.0, 2)):
        with pytest.raises(InvalidRegrouping, match="non-negative integers"):
            build_higher_order(inner, ((0, 1), (0, 8), (0, 16, 32)), exps)


def test_lifted_masks_factor_exactly():
    # A kernel times a cofactor of value 1 at 1 with a negative coefficient
    # can still be a mask, and the digit set it spells out tiles.
    kernel = Blocking.checked(4, [2, 4]).kernel()
    assert mask_polynomial([0, 2, 3, 5]) == kernel * IntPoly((1, -1, 1))
    assert kernel == mask_polynomial([0, 1, 2, 3])
    assert decide_tile_digit_set(4, (0, 2, 3, 5)).is_tile


def test_recipe_modulo_fixture():
    built = load_recipe(RECIPES / "b12_modulo.json")
    assert isinstance(built, Construction)
    assert built.kind == "modulo-product-form"
    assert built.digits == (0, 1, 4, 8, 9, 17, 25, 33, 41, 72, 76, 80)


def test_recipe_second_order_fixture():
    built = load_recipe(RECIPES / "b12_second_order.json")
    assert built.kind == "higher-order-product-form"
    assert built.order == 2
    assert built.inner.kind == "product-form"
    assert built.digits == (
        0, 1, 96, 97, 2304, 2305, 2400, 2401, 4608, 4609, 4704, 4705,
    )


def test_recipe_first_order_variant_fixture():
    built = load_recipe(RECIPES / "b12_first_order_variant.json")
    assert built.kind == "product-form"
    assert built.order == 1
    assert built.digits == (
        0, 1, 288, 289, 2304, 2305, 2592, 2593, 4608, 4609, 4896, 4897,
    )


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_recipe_errors(tmp_path):
    with pytest.raises(RecipeError):
        load_recipe("not json")
    with pytest.raises(RecipeError):  # past the interpreter's integer-conversion limit
        load_recipe('{"schema": "cyclotile.recipe/1", "base": ' + "1" * 5000 + "}")
    with pytest.raises(RecipeError):
        load_recipe(DEEP_JSON)
    (tmp_path / "latin1.json").write_bytes(b'{"schema": "\xe9"}')
    with pytest.raises(RecipeError):
        load_recipe(tmp_path / "latin1.json")
    bad = [[{}, {"5": value}, {}] for value in (17.9, True, "17")]
    # Keys that int() reads as 5 but that are not a plain ASCII decimal; the
    # last is the Arabic-Indic digit five.
    bad += [[{}, {key: 17}, {}] for key in (" 5 ", "+5", "0_5", "05", "\u0665")]
    # Maps of the wrong shape, or with a key int() cannot read, are refused in
    # the recipe's own terms, not with an error from inside the conversion.
    bad += [[[1, 2]], [{"x": 3}], "ab", [{"5": 17}, 7]]
    for raw in bad:
        with pytest.raises(RecipeError, match="bad representatives") as refused:
            build_recipe(
                {
                    "kind": "modulo-product-form",
                    "base": 12,
                    "parts": [[0, 1], [0, 4, 8], [0, 2]],
                    "exponents": [0, 1],
                    "representatives": raw,
                }
            )
        assert "attribute" not in str(refused.value)
        assert "invalid literal" not in str(refused.value)
    with pytest.raises(RecipeError):
        load_recipe('{"schema": "other/1"}')
    with pytest.raises(RecipeError, match="recipe must be an object"):
        build_recipe([])
    with pytest.raises(RecipeError):
        build_recipe({"kind": "mystery", "base": 4})
    with pytest.raises(RecipeError):
        build_recipe({"kind": "product-form", "base": 1, "parts": [[0, 1]], "exponents": []})
    with pytest.raises(RecipeError):
        build_recipe({"kind": "product-form", "base": 4})  # no parts
    with pytest.raises(RecipeError):
        build_recipe(
            {
                "kind": "weak-product-form",
                "base": 4,
                "parts": [[0, 1], [0, 2]],
                "exponents": [1],
                "representatives": [{}, {}],
            }
        )
    with pytest.raises(RecipeError):
        build_recipe({"kind": "higher-order-product-form", "base": 12, "parts": [[0, 1]], "exponents": []})


def test_recipe_nesting_past_the_stack_is_refused():
    # Each level regroups the inner digits as one part, so every level
    # builds; the chain is parsed as a dict and only the build recurses.
    recipe = {"kind": "product-form", "base": 4, "parts": [[0, 1], [0, 2]], "exponents": [1]}
    for _ in range(5000):
        recipe = {
            "kind": "higher-order-product-form",
            "base": 4,
            "parts": [[0, 1, 8, 9]],
            "exponents": [],
            "inner": recipe,
        }
    with pytest.raises(RecipeError, match="nest too deeply"):
        build_recipe(recipe)


def test_recipe_inner_base_must_match():
    with pytest.raises(RecipeError, match="inner recipe uses a different base"):
        build_recipe(
            {
                "kind": "higher-order-product-form",
                "base": 4,
                "parts": [[0, 1], [0, 2]],
                "exponents": [1],
                "inner": {"kind": "product-form", "base": 2, "parts": [[0, 1]], "exponents": []},
            }
        )
    with pytest.raises(RecipeError):
        build_recipe(
            {
                "kind": "higher-order-product-form",
                "base": 12,
                "parts": [[0, 1], [0, 2]],
                "exponents": [1],
                "inner": {
                    "kind": "product-form",
                    "base": 4,
                    "parts": [[0, 1], [0, 2]],
                    "exponents": [1],
                },
            }
        )


def test_constructed_digit_sets_always_tile():
    # Spot constructions across bases; every one must pass the decision.
    cases = [
        Decomposition(6, ((0, 1), (0, 2, 4)), (0,)),
        Decomposition(6, ((0, 1, 2), (0, 3)), (1,)),
        Decomposition(8, ((0, 1), (0, 2), (0, 4)), (0, 1)),
        Decomposition(9, ((0, 1, 2), (0, 3, 6)), (2,)),
        Decomposition(12, ((0, 1), (0, 2), (0, 4, 8)), (1, 1)),
    ]
    for dec in cases:
        built = build_product_form(dec)
        cert = decide_tile_digit_set(built.base, built.digits)
        assert cert.is_tile, dec
        assert cert.order == 1


# SHA-256 of 500 seeded random decompositions, each built as a product
# form, a modulo product form with one random move and a weak product form
# with one random move: kind, digits, stage digits and trace of each build,
# or its error's type and message, one line per decomposition.
CONSTRUCTION_DIGEST = "0c25f6005ff053bb4712835ae94f34e342cd50c8c97ea669ba708f95d838f17c"


def _build_record(build) -> tuple:
    try:
        made = build()
    except CyclotileError as exc:
        return (type(exc).__name__, str(exc))
    return (made.kind, made.digits, made.stage_digits, made.trace)


def _random_move(rng, values, modulus: int) -> dict[int, int]:
    """Moves one digit by a random multiple of the modulus, sometimes below
    zero or off by one, so that refused moves are recorded too."""
    v = rng.choice(values)
    return {v: v + modulus * rng.randint(-1, 3) + (rng.random() < 0.2)}


def test_constructions_are_pinned():
    rng = random.Random(2020)
    digest = hashlib.sha256()
    for _ in range(500):
        dec = _random_decomposition(rng, rng.choice((4, 6, 8, 9, 10, 12)))
        plain = build_product_form(dec)
        stage = rng.randrange(len(dec.parts))
        reps = [{}] * stage + [_random_move(rng, plain.stage_digits[stage], plain.trace.moduli[stage])]
        weak = _random_move(rng, plain.digits, dec.base ** (dec.stage_exponents[-1] + 1))
        rows = (
            _build_record(lambda: build_product_form(dec)),
            _build_record(lambda: build_modulo_product_form(dec, reps)),
            _build_record(lambda: build_weak_product_form(dec, weak)),
        )
        digest.update(repr(rows).encode() + b"\n")
    assert digest.hexdigest() == CONSTRUCTION_DIGEST

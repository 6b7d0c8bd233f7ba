"""Stage-by-stage constructions of tile digit sets.

A decomposition splits the base residues into a direct sum of parts; scaling
every part past the first by a base power gives a digit set whose mask
factors stage by stage.  Each stage contributes the base divisors whose
cyclotomics divide the part mask; accumulating their expansions yields a
kernel and a modulus per stage, and digits may then be moved by multiples of
the stage modulus without losing the kernel.  Regrouping a finished digit
set into new parts and scaling again raises the construction order by one.

Product and modulo product forms share one stage loop: scale the stage's
part into the direct sum, then apply the stage's moves.  A product form is
the modulo product form with no moves.  Its scaled sums never collide:
`stage_kernels` first checks that the parts sum directly onto the residues
mod b, so the parts at any one exponent do too, and two equal scaled sums,
reduced mod b one exponent level at a time, take the same digit from
every part.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from .cyclo import cyc_divides, cyclotomics_divide, divisors, expand_times
from .digitset import DigitSet
from .errors import (
    DirectSumCollision,
    InvalidDecomposition,
    InvalidRegrouping,
    InvalidRepresentative,
    RecipeError,
)
from .intpoly import IntPoly, mask_polynomial
from .record import FrozenRecord, setfield

RECIPE_SCHEMA = "cyclotile.recipe/1"

RECIPE_KINDS = (
    "product-form",
    "modulo-product-form",
    "weak-product-form",
    "higher-order-product-form",
)


def _checked_part(part) -> tuple[int, ...]:
    try:
        values = tuple(sorted(part))
    except TypeError:  # digits of mixed types do not compare
        raise InvalidDecomposition(f"part {part!r} has a bad digit") from None
    if len(values) < 2:
        raise InvalidDecomposition("parts need at least two digits")
    if len(set(values)) != len(values):
        raise InvalidDecomposition(f"part {values} repeats a digit")
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in values):
        raise InvalidDecomposition(f"part {values} has a bad digit")
    if values[0] != 0:
        raise InvalidDecomposition(f"part {values} does not contain 0")
    return values


def _checked_exponents(exponents, parts: int, error: type[Exception]) -> tuple[int, ...]:
    """The scale exponents for `parts` parts: one per part after the first,
    non-negative integers that never decrease.  Failures raise `error`."""
    exponents = tuple(exponents)
    if len(exponents) != parts - 1:
        raise error(f"{parts} parts need {parts - 1} exponents, got {len(exponents)}")
    if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exponents):
        raise error("exponents must be non-negative integers")
    if any(a > b for a, b in zip(exponents, exponents[1:])):
        raise error("exponents must not decrease")
    return exponents


class Decomposition(FrozenRecord):
    """Parts plus the scale exponents applied to every part after the first."""

    __slots__ = ("base", "parts", "exponents")

    def __init__(
        self, base: int, parts: tuple[tuple[int, ...], ...], exponents: tuple[int, ...]
    ) -> None:
        if base < 2:
            raise InvalidDecomposition("base must be at least 2")
        parts = tuple(_checked_part(part) for part in parts)
        if not parts:
            raise InvalidDecomposition("no parts")
        setfield(self, "base", base)
        setfield(self, "parts", parts)
        setfield(self, "exponents", _checked_exponents(exponents, len(parts), InvalidDecomposition))

    @property
    def stage_exponents(self) -> tuple[int, ...]:
        """Exponents aligned with parts; the first stage is unscaled."""
        return (0,) + self.exponents

    def scales(self) -> tuple[int, ...]:
        return tuple(self.base**e for e in self.stage_exponents)


def validate_decomposition(dec: Decomposition) -> bool:
    """Do the unscaled parts sum directly onto the base residues?"""
    folded = IntPoly.one()
    for part in dec.parts:
        folded = (folded * mask_polynomial(part)).fold_mod(dec.base)
    return folded == IntPoly((1,) * dec.base)


class StageTrace(FrozenRecord):
    """Per-stage divisor spectra, cumulative kernels, and moduli."""

    __slots__ = ("base", "stage_spectra", "kernels", "moduli")

    @property
    def kernel_indices(self) -> tuple[int, ...]:
        return self.kernels[-1]


def stage_kernels(dec: Decomposition) -> StageTrace:
    """Trace the kernel growth across stages.

    Stage i contributes the base divisors dividing its part mask, expanded
    through the stage scale; the modulus is the least common multiple of
    everything seen so far.  Moduli are pinched between consecutive powers
    of the base times the stage scale.
    """
    if not validate_decomposition(dec):
        raise InvalidDecomposition("parts do not sum onto the base residues")
    b = dec.base
    spectra: list[tuple[int, ...]] = []
    kernels: list[tuple[int, ...]] = []
    moduli: list[int] = []
    running: set[int] = set()
    for part, l in zip(dec.parts, dec.stage_exponents):
        mask = mask_polynomial(part)
        spectrum = tuple(d for d in divisors(b) if d > 1 and cyc_divides(d, mask))
        assert spectrum, f"part {part} divides no base divisor despite validation"
        spectra.append(spectrum)
        running |= expand_times(spectrum, b, l)
        n = math.lcm(*running)
        assert n % b**l == 0 and b ** (l + 1) % n == 0
        kernels.append(tuple(sorted(running)))
        moduli.append(n)
    return StageTrace(
        base=b,
        stage_spectra=tuple(spectra),
        kernels=tuple(kernels),
        moduli=tuple(moduli),
    )


class Construction(FrozenRecord):
    """A built digit set plus how it was put together."""

    __slots__ = ("kind", "digit_set", "order", "trace", "stage_digits", "inner")

    @property
    def base(self) -> int:
        return self.digit_set.base

    @property
    def digits(self) -> tuple[int, ...]:
        return self.digit_set.digits


def _direct_sum(digits, scaled_part, context: str) -> list[int]:
    out = [d + e for d in digits for e in scaled_part]
    if len(set(out)) != len(out):
        raise DirectSumCollision(f"{context}: sums collide")
    return sorted(out)


def _apply_representatives(values, reps, modulus: int, stage: int) -> list[int]:
    if not reps:
        return list(values)
    known = set(values)
    for old in reps:
        if old not in known:
            raise InvalidRepresentative(f"stage {stage} has no digit {old}")
    out = []
    for v in values:
        w = reps.get(v, v)
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise InvalidRepresentative(f"{w!r} is not a usable digit")
        if (w - v) % modulus != 0:
            raise InvalidRepresentative(
                f"{w} is not congruent to {v} modulo {modulus}"
            )
        out.append(w)
    if len(set(out)) != len(out):
        raise DirectSumCollision(f"stage {stage}: representatives collide")
    return sorted(out)


def _build_stages(dec: Decomposition, kind: str, representatives) -> Construction:
    """The stage loop: scale each part into the direct sum, then apply that
    stage's representative map (one per stage)."""
    trace = stage_kernels(dec)
    digits = [0]
    stage_digits = []
    stages = zip(dec.parts, dec.scales(), representatives, trace.moduli)
    for stage, (part, scale, stage_reps, modulus) in enumerate(stages):
        digits = _direct_sum(digits, [scale * e for e in part], f"stage {stage}")
        digits = _apply_representatives(digits, stage_reps, modulus, stage)
        stage_digits.append(tuple(digits))
    ds = DigitSet.of(dec.base, digits)
    ds.require_cardinality()
    return Construction(
        kind=kind, digit_set=ds, order=1, trace=trace, stage_digits=tuple(stage_digits), inner=None
    )


def build_product_form(dec: Decomposition) -> Construction:
    """Scaled direct sum of the parts, with its kernel trace."""
    return _build_stages(dec, "product-form", [{}] * len(dec.parts))


def build_modulo_product_form(dec: Decomposition, representatives) -> Construction:
    """Product form whose stage digits may move by stage-modulus multiples.

    representatives is one mapping per stage (old digit to replacement);
    missing or empty mappings leave the stage alone.  The final mask keeps
    the full kernel, which is asserted rather than trusted.
    """
    reps = list(representatives)
    if len(reps) > len(dec.parts):
        raise InvalidRepresentative(
            f"{len(reps)} representative maps for {len(dec.parts)} stages"
        )
    built = _build_stages(dec, "modulo-product-form", reps + [{}] * (len(dec.parts) - len(reps)))
    assert cyclotomics_divide(built.trace.kernel_indices, built.digit_set.mask()), (
        "stage kernel lost by the modulo moves"
    )
    return built


def build_weak_product_form(dec: Decomposition, representatives) -> Construction:
    """Product form with one modulo pass at the end.

    The single modulus is the base to the last exponent plus one, which the
    last stage modulus divides, so the kernel survives here too.
    """
    plain = build_product_form(dec)
    modulus = dec.base ** (dec.stage_exponents[-1] + 1)
    digits = _apply_representatives(
        plain.digit_set.digits, dict(representatives), modulus, len(dec.parts) - 1
    )
    ds = DigitSet.of(dec.base, digits)
    ds.require_cardinality()
    assert cyclotomics_divide(plain.trace.kernel_indices, ds.mask()), (
        "stage kernel lost by the final modulo"
    )
    return Construction(
        kind="weak-product-form",
        digit_set=ds,
        order=1,
        trace=plain.trace,
        stage_digits=plain.stage_digits + (ds.digits,),
        inner=None,
    )


def build_higher_order(inner: Construction, parts, exponents) -> Construction:
    """Regroup a built digit set and scale the groups.

    The unscaled groups must sum directly onto the inner digits; the scaled
    sum is the new digit set, one order above the inner construction.
    """
    groups = tuple(_checked_part(part) for part in parts)
    exps = _checked_exponents(exponents, len(groups), InvalidRegrouping)
    plain = list(groups[0])
    for part in groups[1:]:
        try:
            plain = _direct_sum(plain, part, "regrouping")
        except DirectSumCollision as exc:
            raise InvalidRegrouping(str(exc)) from exc
    if tuple(plain) != inner.digit_set.digits:
        raise InvalidRegrouping("groups do not sum onto the inner digit set")
    base = inner.base
    digits = list(groups[0])
    for part, e in zip(groups[1:], exps):
        digits = _direct_sum(digits, [base**e * v for v in part], "higher order")
    ds = DigitSet.of(base, digits)
    ds.require_cardinality()
    return Construction(
        kind="higher-order-product-form",
        digit_set=ds,
        order=inner.order + 1,
        trace=inner.trace,
        stage_digits=None,
        inner=inner,
    )


# -- recipes -----------------------------------------------------------------


def _recipe_parts(payload: dict) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    try:
        parts = tuple(tuple(part) for part in payload["parts"])
        exponents = tuple(payload["exponents"])
    except (KeyError, TypeError) as exc:
        raise RecipeError(f"bad parts or exponents: {exc}") from exc
    return parts, exponents


def _recipe_representatives(raw) -> list[dict[int, int]]:
    if raw is None:
        return []
    stages = [raw] if isinstance(raw, dict) else raw
    if not (isinstance(stages, list) and all(isinstance(stage, dict) for stage in stages)):
        raise RecipeError("bad representatives: need an object or a list of objects")
    for k, v in ((k, v) for stage in stages for k, v in stage.items()):
        if not isinstance(k, str) or not re.fullmatch("0|[1-9][0-9]*", k):
            raise RecipeError(f"bad representatives: key {k!r} is not a decimal digit")
        if not isinstance(v, int) or isinstance(v, bool):
            raise RecipeError(f"bad representatives: {v!r} is not an integer")
    return [{int(k): v for k, v in stage.items()} for stage in stages]


def build_recipe(payload: dict) -> Construction:
    """Build the construction a parsed recipe describes."""
    if not isinstance(payload, dict):
        raise RecipeError("recipe must be an object")
    kind = payload.get("kind")
    if kind not in RECIPE_KINDS:
        raise RecipeError(f"unknown recipe kind {kind!r}")
    base = payload.get("base")
    if not isinstance(base, int) or isinstance(base, bool) or base < 2:
        raise RecipeError(f"bad base {base!r}")
    if kind == "higher-order-product-form":
        inner_payload = payload.get("inner")
        if not isinstance(inner_payload, dict):
            raise RecipeError("higher-order recipe needs an inner recipe")
        try:
            inner = build_recipe({**inner_payload, "base": inner_payload.get("base", base)})
        except RecursionError as exc:
            raise RecipeError("inner recipes nest too deeply") from exc
        if inner.base != base:
            raise RecipeError("inner recipe uses a different base")
        parts, exponents = _recipe_parts(payload)
        return build_higher_order(inner, parts, exponents)
    parts, exponents = _recipe_parts(payload)
    dec = Decomposition(base, parts, exponents)
    if kind == "product-form":
        return build_product_form(dec)
    reps = _recipe_representatives(payload.get("representatives"))
    if kind == "modulo-product-form":
        return build_modulo_product_form(dec, reps)
    if len(reps) > 1:
        raise RecipeError("weak form takes a single representative map")
    return build_weak_product_form(dec, reps[0] if reps else {})


def load_recipe(source: str | Path) -> Construction:
    """Parse a recipe from a JSON string or file path and build it."""
    # ValueError covers bad JSON, bad UTF-8 and an integer past the digit
    # limit; an OSError from reading the file propagates.
    try:
        payload = json.loads(source.read_text() if isinstance(source, Path) else source)
    except (ValueError, RecursionError) as exc:
        raise RecipeError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != RECIPE_SCHEMA:
        raise RecipeError("missing or unsupported recipe schema")
    return build_recipe(payload)

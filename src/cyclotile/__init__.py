"""Exact analysis and construction of tile digit sets on the line.

A digit set D for a base b is a tile digit set when the attractor of the
maps x -> (x + d) / b tiles the reals by translations.  The package
decides that question in exact integer arithmetic and hands back a
verifiable certificate: a blocking of the cyclotomic divisor tree whose
kernel polynomial divides the digit mask.  Around the decision sit
spectra, the product-form construction families, an independent
integer-labelled tree search, and brute-force oracles for tests.

The public names are loaded on first use: `import cyclotile` imports only
the exception types, and reading a name such as `cyclotile.DigitSet`
imports the submodule that defines it (PEP 562).
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "cyclo": (
        "cyc_divides",
        "cyclotomic",
        "cyclotomic_product",
        "divisors",
        "euler_phi",
        "expand_indices",
        "expand_times",
    ),
    "digitset": ("DigitSet",),
    "errors": (
        "CertificateError",
        "CyclotileError",
        "DirectSumCollision",
        "InvalidBlocking",
        "InvalidDecomposition",
        "InvalidDigitSet",
        "InvalidRegrouping",
        "InvalidRepresentative",
        "NormalizationRequired",
        "NotInTree",
        "RecipeError",
        "WrongCardinality",
    ),
    "intpoly": ("IntPoly", "mask_polynomial"),
    "oracles": (
        "ContinuityReport",
        "IntervalUnion",
        "ResidueTiling",
        "absolute_continuity_check",
        "direct_sum_diagnostic",
        "integer_tile_check",
        "tile_intervals",
    ),
    "phitree": (
        "Blocking",
        "Certificate",
        "blocking_search",
        "certificate_from_json",
        "certificate_to_json",
        "check_p1",
        "children",
        "decide_tile_digit_set",
        "enumerate_blockings",
        "enumerate_dividing_blockings",
        "pk_order",
        "root_indices",
        "search_dot",
    ),
    "productform": (
        "Construction",
        "Decomposition",
        "StageTrace",
        "build_higher_order",
        "build_modulo_product_form",
        "build_product_form",
        "build_recipe",
        "build_weak_product_form",
        "load_recipe",
        "stage_kernels",
        "validate_decomposition",
    ),
    "protasov": (
        "KenyonReport",
        "ProtasovResult",
        "Vertex",
        "kenyon_check",
        "protasov_decide",
        "tau_index",
        "vertex_label",
    ),
    "spectra": (
        "GeneralSpectrum",
        "SpectrumReport",
        "StructureReport",
        "check_t1",
        "check_t2",
        "general_spectrum",
        "prime_power_spectrum",
        "spectrum_structure",
    ),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)

# The exception types stay eager: catching one never imports a submodule.
globals().update((name, getattr(errors, name)) for name in _EXPORTS["errors"])


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as `cyclotile.spectra`
        return importlib.import_module(f".{name}", __name__)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

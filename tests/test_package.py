"""The package surface: lazy public names and what uses them, the CLI's
import footprint, and the record classes' equality, hashing, immutability,
repr and copying."""

import ast
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cyclotile
from cyclotile import (
    Certificate,
    Decomposition,
    SpectrumReport,
    absolute_continuity_check,
    build_modulo_product_form,
    check_p1,
    decide_tile_digit_set,
    integer_tile_check,
    kenyon_check,
    mask_polynomial,
    protasov_decide,
    spectrum_structure,
    stage_kernels,
    tile_intervals,
)
from cyclotile.phitree import P1Report, SearchStats
from cyclotile.protasov import ProtasovStats
from cyclotile.spectra import MaskContext, context_report

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FOOTPRINT = """
import json, sys
before = set(sys.modules)
import cyclotile.cli
after_import = set(sys.modules) - before
code = cyclotile.cli.main(sys.argv[1:])
after_main = set(sys.modules) - before
print(json.dumps([code, sorted(after_import), sorted(after_main)]))
"""


def fresh_python(code: str, *argv: str):
    """Run code in a new interpreter with src first on the path; the JSON
    value of its last line of output."""
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_loads_only_what_the_subcommand_runs():
    argv = ["analyze", "--base", "4", "--digits", "0,1,8,9", "--format", "json"]
    code, after_import, after_main = fresh_python(FOOTPRINT, *argv)
    assert code == 0
    unused = {"cyclotile.productform", "cyclotile.oracles", "cyclotile.protasov"}
    assert not set(after_import) & (unused | {"dataclasses", "inspect", "fractions"})
    assert not set(after_main) & unused
    assert "cyclotile.phitree" in after_main


def test_public_names_resolve_on_first_use():
    for name in cyclotile.__all__:
        assert getattr(cyclotile, name) is not None, name
    namespace: dict = {}
    exec("from cyclotile import *", namespace)
    assert set(cyclotile.__all__) <= set(namespace)
    assert set(cyclotile.__all__) <= set(dir(cyclotile))
    with pytest.raises(AttributeError):
        cyclotile.no_such_name
    with pytest.raises(ImportError):
        exec("from cyclotile import no_such_name", {})
    # `import cyclotile` loads no submodule but errors, and a submodule
    # still reads as an attribute of the package.
    loaded, degree = fresh_python(
        "import json, sys, cyclotile\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('cyclotile.'))\n"
        "print(json.dumps([loaded, cyclotile.spectra.MAX_MASK_DEGREE]))"
    )
    assert loaded == ["cyclotile.errors"] and degree == 10**6


def _names_used(tree: ast.Module) -> set[str]:
    """Names a module reads, imports or reaches as attributes, leaving out
    each top-level definition's uses of its own name."""
    used: set[str] = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found = node.id
            elif isinstance(node, ast.Attribute):
                found = node.attr
            elif isinstance(node, ast.alias):
                found = node.name
            else:
                continue
            if found != own:
                used.add(found)
    return used


def _package_names_read(tree: ast.Module) -> set[str]:
    """Names a module imports from the package or reads as attributes."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cyclotile":
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_user():
    # A public name earns its place by a caller in the package outside its
    # own definition and the export table, in the benchmark, or in the
    # README; one that only tests call is surface for nothing.  The
    # benchmark counts only where it takes the name from the package: a
    # function of its own with the same name is no use of the package's.
    used: set[str] = set()
    for path in (SRC / "cyclotile").glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(ast.parse(path.read_text()))
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _package_names_read(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    unused = []
    for name in cyclotile.__all__:
        value = getattr(cyclotile, name)
        if isinstance(value, type) and issubclass(value, Exception):
            continue  # raised to callers, so they need the name to catch it
        if name not in used and not re.search(rf"\b{name}\b", readme):
            unused.append(name)
    assert unused == []


_DEC = Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))
_TILE = (4, (0, 1, 8, 9))

# Class name, kind, and a factory whose calls build equal records.  Kinds:
# "hashable" is frozen with hashable fields; "frozen" is frozen, but a dict
# field makes it unhashable; "mutable" is assignable and unhashable.
RECORDS = [
    ("IntPoly", "hashable", lambda: mask_polynomial([0, 1, 8, 9])),
    ("DigitSet", "hashable", lambda: cyclotile.DigitSet(4, (9, 8, 1, 0))),
    ("Blocking", "hashable", lambda: cyclotile.Blocking(4, (2, 16))),
    ("P1Report", "frozen", lambda: check_p1(*_TILE)),
    ("SearchStats", "mutable", lambda: SearchStats(5, 4, 3, 2)),
    ("Certificate", "mutable", lambda: decide_tile_digit_set(*_TILE)),
    ("GeneralSpectrum", "hashable", lambda: cyclotile.GeneralSpectrum((2, 16), 100, 96, False)),
    ("StructureReport", "frozen", lambda: spectrum_structure(*_TILE)),
    ("SpectrumReport", "frozen", lambda: context_report(MaskContext(mask_polynomial(_TILE[1])), 4)),
    ("Vertex", "hashable", lambda: cyclotile.Vertex(2, 5)),
    ("ProtasovStats", "mutable", lambda: ProtasovStats(7, 3, 2)),
    ("ProtasovResult", "mutable", lambda: protasov_decide(*_TILE)),
    ("KenyonReport", "frozen", lambda: kenyon_check(*_TILE, m_limit=5)),
    ("IntervalUnion", "hashable", lambda: tile_intervals(*_TILE, 1)),
    ("ResidueTiling", "hashable", lambda: integer_tile_check((0, 1, 4, 5))),
    ("ContinuityReport", "hashable", lambda: absolute_continuity_check(*_TILE)),
    ("Decomposition", "hashable", lambda: Decomposition(12, ((0, 1), (0, 4, 8), (0, 2)), (0, 1))),
    ("StageTrace", "hashable", lambda: stage_kernels(_DEC)),
    ("Construction", "hashable", lambda: build_modulo_product_form(_DEC, ({}, {5: 17}, {24: 72}))),
]

NAMESPACE = {
    **{name: getattr(cyclotile, name) for name in cyclotile.__all__},
    "Fraction": Fraction,
    "P1Report": P1Report,
    "ProtasovStats": ProtasovStats,
    "SearchStats": SearchStats,
}


@pytest.mark.parametrize("name, kind, make", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_contract(name, kind, make):
    a, b = make(), make()
    cls, slots = type(a), type(a).__slots__
    assert cls.__name__ == name
    assert a == b and not a != b
    assert a != object() and a != tuple(getattr(a, f) for f in slots)
    assert eval(repr(a), NAMESPACE) == a
    assert pickle.loads(pickle.dumps(a)) == a
    if name != "IntPoly":  # its one slot, `_terms`, is not its constructor's parameter
        # Generated or written, the constructor takes the slots, in order.
        assert tuple(inspect.signature(cls).parameters) == slots
        fields = {f: getattr(a, f) for f in slots}
        assert cls(**fields) == a
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)
        with pytest.raises(TypeError):
            cls(**{f: v for f, v in fields.items() if f != slots[0]})
    field = slots[0]
    if kind == "mutable":
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, field, getattr(b, field))
        assert a == b
        return
    if kind == "hashable":
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 1


def test_record_repr_and_keyword_construction():
    assert repr(cyclotile.Vertex(2, 5)) == "Vertex(level=2, value=5)"
    assert repr(cyclotile.Blocking(4, (2, 16))) == "Blocking(base=4, indices=(2, 16))"
    # The keyword calls an outside tracer makes to rebuild a certificate.
    cert = decide_tile_digit_set(*_TILE)
    report = SpectrumReport(
        prime_powers=cert.report.prime_powers,
        general=cert.report.general,
        t1=cert.report.t1,
        t2=cert.report.t2,
        structure=cert.report.structure,
    )
    rebuilt = Certificate(
        base=cert.base,
        digits=cert.digits,
        verdict=cert.verdict,
        blocking=cert.blocking,
        order=cert.order,
        report=report,
        stats=cert.stats,
        trace=cert.trace,
    )
    assert rebuilt == cert and report == cert.report
    bare = Certificate(4, cert.digits, "tile", (2, 16), 1, report)
    assert (bare.stats, bare.trace, bare.protasov_blocking) == (None, None, None)

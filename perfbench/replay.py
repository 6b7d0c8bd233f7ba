"""Traced replays of cyclotile operations, with spans recorded from outside.

A replay calls the package's public functions one at a time, in the order
the package itself calls them, and wraps each call in a span.  Nothing in
the package is patched or wrapped: the spans sit in this file, at the
boundary between one layer and the next.  Counters come from the stats
objects the package already returns (SearchStats, ProtasovStats).

Run as a script, this file replays one `cyclotile` command line in a fresh
interpreter, so that the package's caches start cold as they do in a real
process, and prints the spans and the text the command would print:

    PYTHONPATH=src python3 perfbench/replay.py construct --recipe R --format json
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans and counters kept in memory until the run ends.

    A span is [name, start, end, parent]; parent is the index of the span
    that was open when it began, so the spans of one operation form a tree
    under its root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def absorb(self, spans, counters) -> None:
        """Append spans and counters recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, None if parent is None else parent + offset])
        for name, value in counters.items():
            self.count(name, value)

    def add_span(self, name: str, seconds: float) -> None:
        """Record a root span measured by other means (a child process)."""
        self.spans.append([name, 0.0, seconds, None])

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        inner = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                inner[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, inner):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def total_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)


# -- in-process replays ----------------------------------------------------------


def spectrum_report(tr: Tracer, base: int, digits, cap: int):
    """spectra.spectrum_report, one spectra function per span."""
    from cyclotile import (
        DigitSet,
        SpectrumReport,
        check_t1,
        check_t2,
        general_spectrum,
        prime_power_spectrum,
        spectrum_structure,
    )

    with tr.span("digitset.validate"):
        ds = DigitSet.of(base, digits)
    with tr.span("intpoly.mask"):
        p = ds.mask()
    structure = None
    if len(ds) == base:
        with tr.span("spectra.structure"):
            structure = spectrum_structure(base, digits)
    with tr.span("spectra.prime_power"):
        prime_powers = prime_power_spectrum(p)
    with tr.span("spectra.general"):
        general = general_spectrum(p, cap)
    with tr.span("spectra.t1"):
        t1 = check_t1(digits)
    with tr.span("spectra.t2"):
        t2 = check_t2(digits)
    return SpectrumReport(
        prime_powers=prime_powers, general=general, t1=t1, t2=t2, structure=structure
    )


def default_cap(degree: int) -> int:
    """The general-spectrum cap spectrum_report picks when none is given."""
    from cyclotile.spectra import completeness_threshold

    degree = degree or 1
    return min(completeness_threshold(degree), max(100, 4 * degree))


def decide(tr: Tracer, base: int, digits):
    """phitree.decide_tile_digit_set, layer by layer; returns the Certificate."""
    from cyclotile import Certificate, DigitSet, blocking_search, pk_order

    with tr.span("phitree.decide"):
        with tr.span("digitset.validate"):
            ds = DigitSet.of(base, digits)
            ds.require_cardinality()
            ds.require_normalized()
        with tr.span("intpoly.mask"):
            p = ds.mask()
        with tr.span("phitree.search"):
            blocking, stats, trace = blocking_search(p, base)
        tr.count("phitree.search_nodes", stats.nodes)
        tr.count("phitree.search_divisions", stats.divisions)
        tr.count("phitree.search_pruned", stats.pruned)
        with tr.span("spectra.general"):
            cap = default_cap(p.degree)
        report = spectrum_report(tr, base, ds.digits, cap)
        order = None
        if blocking is not None:
            with tr.span("phitree.order"):
                order = pk_order(base, ds.digits)
        return Certificate(
            base=base,
            digits=ds.digits,
            verdict="tile" if blocking is not None else "not-tile",
            blocking=tuple(sorted(blocking)) if blocking is not None else None,
            order=order,
            report=report,
            stats=stats,
            trace=trace,
        )


def to_json(tr: Tracer, cert, indent: int | None = None) -> str:
    from cyclotile import certificate_to_json

    with tr.span("phitree.to_json"):
        return certificate_to_json(cert, indent=indent)


def verify(tr: Tracer, text: str) -> bool:
    """phitree.certificate_from_json on a genuine certificate, layer by layer.

    Returns whether the kernel check passed (True for not-tile verdicts,
    which carry no kernel).
    """
    from cyclotile import Blocking, DigitSet

    with tr.span("phitree.from_json"):
        payload = json.loads(text)
        base, digits = payload["base"], tuple(payload["digits"])
        with tr.span("digitset.validate"):
            ds = DigitSet.of(base, digits)
        ok = True
        if payload["verdict"] == "tile":
            with tr.span("phitree.kernel_check"):
                blk = Blocking.checked(base, payload["blocking"])
            with tr.span("intpoly.mask"):
                p = ds.mask()
            with tr.span("phitree.kernel_check"):
                ok = blk.divides(p)
        spectrum_report(tr, base, digits, payload["general_spectrum"]["cap"])
    return ok


# -- command line replays -------------------------------------------------------


def _digits(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(",", " ").split())


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _cross_check(tr: Tracer, cert) -> bool:
    """The CLI's cross-check: residue-tree route, then the level check."""
    from cyclotile import kenyon_check, protasov_decide

    with tr.span("protasov.decide"):
        pro = protasov_decide(cert.base, cert.digits)
        labels = pro.labels() if pro.blocking is not None else None
    tr.count("protasov.vertices", pro.stats.vertices)
    tr.count("protasov.divisions", pro.stats.divisions)
    tr.count("protasov.blocking_vertices", len(pro.blocking or ()))
    if pro.status != "inconclusive" and pro.is_tile != cert.is_tile:
        return False
    if labels is not None:
        cert.protasov_blocking = labels
    with tr.span("protasov.kenyon"):
        ken = kenyon_check(cert.base, cert.digits)
    return not (cert.is_tile and not ken.holds)


def command(tr: Tracer, argv: list[str]) -> tuple[int, str]:
    """Replay one `cyclotile ... --format json` command; returns (exit code, stdout)."""
    from cyclotile import (
        absolute_continuity_check,
        direct_sum_diagnostic,
        enumerate_blockings,
        enumerate_dividing_blockings,
        integer_tile_check,
        load_recipe,
    )

    name = argv[0]
    with tr.span("cli.command"):
        if name in ("construct", "analyze"):
            if name == "construct":
                with tr.span("productform.recipe"):
                    built = load_recipe(Path(_option(argv, "--recipe")))
                cert = decide(tr, built.base, built.digits)
            else:
                cert = decide(tr, int(_option(argv, "--base")), _digits(_option(argv, "--digits")))
            if "--cross-check" in argv and not _cross_check(tr, cert):
                return 3, ""
            code = 0 if cert.is_tile else 1
            if name == "analyze":
                return code, to_json(tr, cert, indent=2) + "\n"
            payload = {
                "kind": built.kind,
                "base": built.base,
                "digits": list(built.digits),
                "order": built.order,
                "certificate": json.loads(to_json(tr, cert)),
            }
            return code, json.dumps(payload, indent=2) + "\n"
        if name == "oracle":
            base, digits = int(_option(argv, "--base")), _digits(_option(argv, "--digits"))
            with tr.span("oracles.integer_tile"):
                tiling = integer_tile_check(digits, period_cap=None)
            with tr.span("oracles.direct_sum"):
                collision = direct_sum_diagnostic(base, digits, int(_option(argv, "--depth", 4)))
            with tr.span("oracles.continuity"):
                continuity = absolute_continuity_check(base, digits)
            payload = {
                "integer_tile": (
                    {"period": tiling.period, "complement": list(tiling.complement)}
                    if tiling is not None
                    else None
                ),
                "collision_level": collision,
                "continuity": {
                    "accepted": continuity.accepted,
                    "blocking": (
                        list(continuity.blocking) if continuity.blocking is not None else None
                    ),
                },
            }
            return (0 if tiling is not None else 1), json.dumps(payload, indent=2) + "\n"
        if name == "kernels":
            base = int(_option(argv, "--base"))
            with tr.span("phitree.enumerate"):
                if "--digits" in argv:
                    found = enumerate_dividing_blockings(
                        base, _digits(_option(argv, "--digits")), limit=int(_option(argv, "--limit", 8))
                    )
                else:
                    found = enumerate_blockings(base, int(_option(argv, "--max-degree")))
            found = sorted(found, key=lambda blk: (blk.kernel_degree, blk.indices))
            payload = [{"indices": list(blk.indices), "degree": blk.kernel_degree} for blk in found]
            return 0, json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"no replay for command {name!r}")


def main(argv: list[str]) -> int:
    tr = Tracer()
    code, text = command(tr, argv)
    print(json.dumps({"code": code, "stdout": text, "spans": tr.spans, "counters": tr.counters}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

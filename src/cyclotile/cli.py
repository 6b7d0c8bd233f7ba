"""Command line front end.

Subcommands: analyze (decide one digit set), construct (build from a
recipe file, then decide), kernels (enumerate blockings for a base),
geometry (exact interval cover of the attractor), oracle (integer-tiling
and continuity cross-checks).

Exit codes: 0 for a tile verdict or plain success, 1 for a not-tile
verdict or a failed oracle search, 2 for usage and data errors, 3 when
independent deciders disagree (a bug sentinel, never a user error).

Each handler imports the subsystems it runs, so a process pays to load
only what its subcommand uses: `analyze` without `--cross-check` never
loads the residue tree, the constructions or the oracles.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CyclotileError

EXIT_TILE = 0
EXIT_OK = 0
EXIT_NOT_TILE = 1
EXIT_ERROR = 2
EXIT_DISAGREEMENT = 3


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise CyclotileError(f"digits must be integers, got {text!r}") from exc


def _fmt_ints(values) -> str:
    return ",".join(str(v) for v in values)


def _certificate_text(cert) -> str:
    rep = cert.report
    lines = [
        f"base     {cert.base}",
        f"digits   {_fmt_ints(cert.digits)}",
        f"verdict  {cert.verdict}",
    ]
    if cert.blocking is not None:
        lines.append(f"blocking {_fmt_ints(cert.blocking)}")
        lines.append(f"order    {cert.order}")
    lines.append(f"prime power spectrum  {_fmt_ints(rep.prime_powers) or '-'}")
    lines.append(
        f"t1 {'pass' if rep.t1 else 'fail'}   t2 {'pass' if rep.t2 else 'fail'}"
    )
    s = rep.structure
    shape = "; ".join(f"{p}: {_fmt_ints(v)}" for p, v in sorted(s.exponents.items()))
    lines.append(f"base structure {'pass' if s.passed else 'fail'} ({shape})")
    if s.violation:
        lines.append(f"  {s.violation}")
    g = rep.general
    tag = "complete" if g.complete else "truncated"
    lines.append(f"spectrum to {g.cap} ({tag})  {_fmt_ints(g.indices) or '-'}")
    if cert.protasov_blocking is not None:
        lines.append(f"integer-tree blocking  {','.join(cert.protasov_blocking)}")
    return "\n".join(lines)


def _cross_check(cert) -> str | None:
    """Run the independent deciders; a returned string is a disagreement.

    A bounded level check that holds on a not-tile set proves nothing and
    is not flagged; the converse (tile verdict, level check fails) is.
    """
    from .protasov import kenyon_check, protasov_decide

    pro = protasov_decide(cert.base, cert.digits)
    if pro.is_tile != cert.is_tile:
        return (
            f"divisor-tree verdict {cert.verdict!r} but the integer-tree "
            f"search says {pro.status!r}"
        )
    if pro.blocking is not None:
        cert.protasov_blocking = pro.labels()
    ken = kenyon_check(cert.base, cert.digits)
    if cert.is_tile and not ken.holds:
        return f"tile verdict but the level check fails at m = {ken.failing}"
    return None


def _emit_certificate(cert, args, envelope: dict | None = None) -> int:
    """Cross-check when asked, then print the certificate; JSON output goes
    under "certificate" after the envelope's fields when one is given."""
    from .phitree import certificate_to_json, search_dot

    if args.cross_check:
        complaint = _cross_check(cert)
        if complaint is not None:
            print(f"disagreement: {complaint}", file=sys.stderr)
            return EXIT_DISAGREEMENT
    if args.format == "json" and envelope is not None:
        certificate = json.loads(certificate_to_json(cert))
        print(json.dumps({**envelope, "certificate": certificate}, indent=2))
    elif args.format == "json":
        print(certificate_to_json(cert, indent=2))
    elif args.format == "dot":
        print(search_dot(cert))
    else:
        print(_certificate_text(cert))
    return EXIT_TILE if cert.is_tile else EXIT_NOT_TILE


def _run_analyze(args) -> int:
    from .phitree import decide_tile_digit_set

    digits = _parse_digits(args.digits)
    cert = decide_tile_digit_set(args.base, digits, spectrum_cap=args.spectrum_cap)
    return _emit_certificate(cert, args)


def _run_construct(args) -> int:
    from .phitree import decide_tile_digit_set
    from .productform import load_recipe

    built = load_recipe(args.recipe)
    cert = decide_tile_digit_set(built.base, built.digits)
    if args.format == "text":
        head = [f"kind     {built.kind}", f"order    {built.order}"]
        if built.trace is not None:
            head.append(f"moduli   {_fmt_ints(built.trace.moduli)}")
        print("\n".join(head))
    envelope = {
        "kind": built.kind,
        "base": built.base,
        "digits": list(built.digits),
        "order": built.order,
    }
    return _emit_certificate(cert, args, envelope)


def _run_kernels(args) -> int:
    from .phitree import enumerate_blockings, enumerate_dividing_blockings

    if (args.digits is None) == (args.max_degree is None):
        raise CyclotileError("kernels needs exactly one of --max-degree and --digits")
    if args.digits is not None:
        digits = _parse_digits(args.digits)
        found = enumerate_dividing_blockings(args.base, digits, limit=args.limit)
    else:
        found = enumerate_blockings(args.base, args.max_degree)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"indices": list(blk.indices), "degree": blk.kernel_degree}
                    for blk in found
                ],
                indent=2,
            )
        )
    else:
        for blk in found:
            print(f"degree {blk.kernel_degree:>4}  indices {_fmt_ints(blk.indices)}")
        if not found:
            print("none")
    return EXIT_OK


def _run_geometry(args) -> int:
    from .oracles import tile_intervals

    digits = _parse_digits(args.digits)
    union = tile_intervals(args.base, digits, args.depth)
    if union.intervals:
        print(" ∪ ".join(f"[{lo}, {hi}]" for lo, hi in union.intervals))
    else:
        print("empty")
    print(f"measure {union.measure}")
    return EXIT_OK


def _run_oracle(args) -> int:
    from .oracles import absolute_continuity_check, direct_sum_diagnostic, integer_tile_check
    from .oracles import MAX_RADIX_VALUES

    digits = _parse_digits(args.digits)
    tiling = integer_tile_check(digits, period_cap=args.period_cap)
    collision = continuity = None
    depth = args.depth
    if depth is None:  # 4, or the deepest depth >= 1 within the radix budget
        depth = next((d for d in (4, 3, 2) if len(digits) ** d <= MAX_RADIX_VALUES), 1)
    if args.base is not None:
        collision = direct_sum_diagnostic(args.base, digits, depth)
        continuity = absolute_continuity_check(args.base, digits)
    if args.format == "json":
        payload: dict = {
            "integer_tile": (
                {"period": tiling.period, "complement": list(tiling.complement)}
                if tiling is not None
                else None
            )
        }
        if args.base is not None:
            payload["collision_level"] = collision
            payload["continuity"] = {
                "accepted": continuity.accepted,
                "blocking": (
                    list(continuity.blocking)
                    if continuity.blocking is not None
                    else None
                ),
            }
        print(json.dumps(payload, indent=2))
    else:
        if tiling is not None:
            print(
                f"integer tile: period {tiling.period}, "
                f"complement {_fmt_ints(tiling.complement)}"
            )
        else:
            print("integer tile: no period found")
        if args.base is not None:
            if collision is None:
                print(f"direct sums: no collision up to depth {depth} (heuristic)")
            else:
                print(f"direct sums: first collision at level {collision} (heuristic)")
            if continuity.accepted:
                print(f"continuity: accepted, blocking {_fmt_ints(continuity.blocking)}")
            else:
                print("continuity: rejected")
    return EXIT_TILE if tiling is not None else EXIT_NOT_TILE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotile",
        description="Exact analysis and construction of tile digit sets on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide one digit set")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--digits", required=True, help="comma separated, e.g. 0,1,8,9")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also run the independent integer-tree and level checks",
    )
    p.add_argument("--spectrum-cap", type=int, default=None)
    p.set_defaults(handler=_run_analyze)

    p = sub.add_parser("construct", help="build a digit set from a recipe file")
    p.add_argument("--recipe", type=Path, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(handler=_run_construct)

    p = sub.add_parser("kernels", help="enumerate blockings and kernel degrees")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--digits", default=None, help="restrict to blockings dividing this mask")
    p.add_argument("--limit", type=int, default=8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_run_kernels)

    p = sub.add_parser("geometry", help="exact interval cover of the attractor")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(handler=_run_geometry)

    p = sub.add_parser("oracle", help="integer-tiling and continuity cross-checks")
    p.add_argument("--digits", required=True)
    p.add_argument("--base", type=int, default=None)
    p.add_argument("--period-cap", type=int, default=None)
    p.add_argument("--depth", type=int, default=None, help="default 4, or less to fit the budget")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_run_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CyclotileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

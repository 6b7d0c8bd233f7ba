"""The cyclotomic divisibility tree and the tile decision procedure.

For a base b, the tree's roots are the divisors of b above 1; the children
of a node e are the indices of the cyclotomic factors of the e-th cyclotomic
with x replaced by x**b.  In closed form (see `cyclo.expand_indices`): with
b = b1 * b2, where b1 holds the prime powers of b whose primes divide e, the
children are e * b1 * k for the divisors k of b2.  So gcd(c, b) = b1 * k for
each child c, and every node has exactly one parent, e = c // gcd(c, b); a
root r has r // gcd(r, b) = 1.  A *blocking* is a finite set of nodes that
every infinite root-to-leaf path meets exactly once.  A digit set with base-many
digits tiles exactly when some blocking consists entirely of indices whose
cyclotomics divide the digit mask; the product of those cyclotomics is the
*kernel*, the certificate everything here revolves around.

The search is a depth-first first-hit walk: take a node as soon as its
cyclotomic divides the mask, otherwise expand it, and give up on a branch
once the totient of its index exceeds the mask degree (totients only grow
along descendants, so nothing deeper can divide).  Index growth makes the
walk finite, and the first-hit rule makes the result canonical.  It runs
on an explicit stack and records node outcomes alone, since the parent
rule gives back every edge; a blocking is checked upward by the same rule.
"""

from __future__ import annotations

import json
import math
from collections import deque
from functools import lru_cache

from .cyclo import (
    cyclotomic_product,
    cyclotomics_divide,
    divisors,
    euler_phi,
    expand_indices,
    expand_times,
)
from .digitset import DigitSet
from .errors import CertificateError, CyclotileError, InvalidBlocking, NotInTree
from .intpoly import IntPoly
from .record import FrozenRecord, Record
from .spectra import ExactTest, MaskContext, SpectrumReport, context_report

CERTIFICATE_SCHEMA = "cyclotile.certificate/1"

# Bounded caches of the tree's shape, which depends on the base alone
# (key counts are in the cache comment of `cyclo`).
ROOTS_CACHE_SIZE = 256
CHILDREN_CACHE_SIZE = 4096


@lru_cache(maxsize=ROOTS_CACHE_SIZE)
def root_indices(b: int) -> tuple[int, ...]:
    """Divisors of the base above 1, ascending: the tree's roots."""
    if b < 2:
        raise ValueError("base must be at least 2")
    return tuple(d for d in divisors(b) if d > 1)


@lru_cache(maxsize=CHILDREN_CACHE_SIZE)
def children(e: int, b: int) -> tuple[int, ...]:
    """Child indices of a tree node, ascending."""
    if math.gcd(e, b) == 1:
        raise NotInTree(f"{e} shares no factor with base {b}")
    return tuple(sorted(expand_indices(e, b)))


class SearchStats(Record):
    """Counters of one search; `divisions` counts the distinct indices the
    search added to the exact test's memo."""

    __slots__ = ("nodes", "divisions", "max_depth", "pruned")


def blocking_search(p: IntPoly, b: int):
    """First-hit blocking of the tree whose members all divide p.

    Returns (blocking indices or None, stats, outcomes).  None means some
    branch provably escapes: every node on it fails to divide and the
    totient bound rules out all deeper nodes.  The outcomes map each visited
    node to "hit", "expanded" or "pruned", in visit order.  Works for any
    nonzero p, not only base-cardinality masks (the continuity oracle's use).
    """
    return _search(ExactTest(p), b)


def _search(exact: ExactTest, b: int):
    start = exact.tests
    status: dict[int, str] = {}
    blocking: frozenset | None = None
    max_depth = 0
    # Reversed on the stack, so that nodes are visited in pre-order.
    stack = [(d, 0) for d in reversed(root_indices(b))]
    while stack:
        e, depth = stack.pop()
        max_depth = max(max_depth, depth)
        if exact.divides(e):
            status[e] = "hit"
        elif euler_phi(e) > exact.degree:
            status[e] = "pruned"
            break
        else:
            status[e] = "expanded"
            stack.extend((c, depth + 1) for c in reversed(children(e, b)))
    else:  # no branch escaped
        blocking = frozenset(e for e, outcome in status.items() if outcome == "hit")
    # No node is popped twice (one parent each), and a walk prunes once, then stops.
    stats = SearchStats(len(status), exact.tests - start, max_depth, int(blocking is None))
    return blocking, stats, status


class Blocking(FrozenRecord):
    """A finite antichain of tree nodes meeting every root path once."""

    __slots__ = ("base", "indices")

    @classmethod
    def checked(cls, base: int, indices) -> "Blocking":
        ordered = tuple(sorted(set(indices)))
        _check_blocking(base, ordered)
        return cls(base, ordered)

    @property
    def kernel_degree(self) -> int:
        return sum(euler_phi(e) for e in self.indices)

    def kernel(self) -> IntPoly:
        """The kernel polynomial: product of the member cyclotomics."""
        return cyclotomic_product(self.indices)

    def divides(self, p: IntPoly) -> bool:
        return cyclotomics_divide(self.indices, p)


def _check_blocking(base: int, indices: tuple[int, ...]) -> None:
    """Raise InvalidBlocking, with the reason, unless the ascending indices
    are a blocking.

    Walks each member up by the parent rule, e -> e // gcd(e, base), with
    gcds alone; every step of a walk that ends at 1 is a tree edge.  A
    member whose walk meets another member, or stops at a fixed point above
    1, is spare.  The rest meet every path from a root r exactly when
    euler_phi(e) * base**(top - depth(e)) summed over those under r is
    euler_phi(r) * base**top, because a node's children have totients
    summing to base * euler_phi(e).  Roots are checked before spares.
    """
    if base < 2:
        raise InvalidBlocking("base must be at least 2")
    if not indices:
        raise InvalidBlocking("blocking is empty")
    for e in indices:
        if e < 2 or math.gcd(e, base) == 1:
            raise InvalidBlocking(f"{e} is not a tree node for base {base}")
    members = set(indices)
    spare = []
    under: dict[int, list[tuple[int, int]]] = {}  # root -> [(member, depth)]
    for e in indices:
        node, depth = e, 0
        while (parent := node // math.gcd(node, base)) not in (1, node) and parent not in members:
            node, depth = parent, depth + 1
        if parent == 1:
            under.setdefault(node, []).append((e, depth))
        else:
            spare.append(e)
    top = max((depth for found in under.values() for _, depth in found), default=0)
    for r in root_indices(base):
        weight = sum(euler_phi(e) * base ** (top - depth) for e, depth in under.get(r, ()))
        if weight != euler_phi(r) * base**top:
            raise InvalidBlocking(f"a path from root {r} escapes the set")
    if spare:
        raise InvalidBlocking(f"members {spare} lie below another member or off the tree")


def _refine_blocking(blocking: Blocking, d: int) -> Blocking:
    """Replace member d by its children; the result is again a blocking.

    Kernel bookkeeping: the new kernel is the old one times the expansion
    quotient, i.e. kernel * cyclotomic(d)(x**b) / cyclotomic(d), so the
    kernel degree grows by (b - 1) * euler_phi(d).
    """
    if d not in blocking.indices:
        raise InvalidBlocking(f"{d} is not a member of the blocking")
    kept = [e for e in blocking.indices if e != d]
    return Blocking(blocking.base, tuple(sorted(kept + list(children(d, blocking.base)))))


def _refinements(start: Blocking, refinable, limit: int) -> list[Blocking]:
    """Blockings reached from start by refinement, breadth first, ordered by
    (kernel degree, indices).

    Member d of a blocking is refined when refinable(d, degree) holds, where
    degree is the refined blocking's kernel degree: the children of d have
    degrees summing to base * euler_phi(d), so refining adds
    (base - 1) * euler_phi(d).  The walk stops once `limit` blockings are
    found, start included; the cut falls in breadth-first order, before the
    sort.
    """
    base = start.base
    found = [(start.kernel_degree, start)]
    seen = {start.indices}
    queue = deque(found)
    while queue and len(found) < limit:
        degree, current = queue.popleft()
        for d in current.indices:
            refined_degree = degree + (base - 1) * euler_phi(d)
            if not refinable(d, refined_degree):
                continue
            refined = _refine_blocking(current, d)
            if refined.indices not in seen:
                seen.add(refined.indices)
                found.append((refined_degree, refined))
                queue.append(found[-1])
                if len(found) >= limit:
                    break
    found.sort(key=lambda pair: (pair[0], pair[1].indices))
    return [blk for _, blk in found]


# Most blockings `enumerate_blockings` lists.  The count grows about 5x
# per doubling of the degree: base 12 has 3,774 blockings up to degree
# 800, listed in 0.06 s, and base 6 has 8,051, in 0.12 s (2 vCPUs,
# CPython 3.11).  Blockings count as they are found, so an enumeration
# past the budget stops at the 10,001st, with CyclotileError: base 60 at
# degree 3,200 in 0.15 s.
MAX_BLOCKINGS = 10_000


def enumerate_blockings(base: int, max_degree: int) -> list[Blocking]:
    """All blockings with kernel degree at most max_degree.

    Breadth-first refinement from the root blocking; each refinement
    multiplies the replaced member's degree share by the base, so degrees
    grow strictly and the enumeration terminates.  Raises CyclotileError
    once more than MAX_BLOCKINGS are found.
    """
    start = Blocking(base, root_indices(base))
    if start.kernel_degree > max_degree:
        return []
    found = _refinements(
        start, lambda d, degree: degree <= max_degree, limit=MAX_BLOCKINGS + 1
    )
    if len(found) > MAX_BLOCKINGS:
        raise CyclotileError(
            f"blockings of kernel degree at most {max_degree} exceed the budget of "
            f"{MAX_BLOCKINGS}"
        )
    return found


def enumerate_dividing_blockings(base: int, digits, limit: int = 8) -> list[Blocking]:
    """Blockings whose kernels all divide the digit mask, by kernel degree.

    Starts from the first-hit blocking and refines members whose children
    all divide; members of a blocking are coprime cyclotomics, so member
    divisibility already gives kernel divisibility.  The first `limit`
    found breadth first are returned, ordered as `enumerate_blockings`
    orders its result.  limit must be at least 1.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    exact = ExactTest(DigitSet.for_tiling(base, digits).mask())
    first, _, _ = _search(exact, base)
    if first is None:
        return []
    return _refinements(
        Blocking(base, tuple(sorted(first))),
        lambda d, degree: all(exact.divides(c) for c in children(d, base)),
        limit,
    )


# -- product-form order ----------------------------------------------------


class P1Report(FrozenRecord):
    """Order-1 condition; `witnesses` maps root divisor -> substitution exponent."""

    __slots__ = ("holds", "witnesses", "failing")


def _full_divisibility_exponent(t: int, base: int, exact: ExactTest) -> int | None:
    """Smallest j such that every factor index of the t-th cyclotomic in
    x**(base**j) divides, or None.  Degree of the substituted polynomial is
    euler_phi(t) * base**j, which bounds the search."""
    phi_t = euler_phi(t)
    j = 0
    current: frozenset[int] = frozenset((t,))
    while phi_t * base**j <= exact.degree:
        if all(exact.divides(e) for e in current):
            return j
        current = expand_times(current, base, 1)
        j += 1
    return None


def check_p1(base: int, digits) -> P1Report:
    """First-order condition: every root divisor has a substitution power
    whose full cyclotomic expansion divides the mask."""
    exact = ExactTest(DigitSet.for_tiling(base, digits).mask())
    witnesses: dict[int, int] = {}
    failing = None
    for d in root_indices(base):
        j = _full_divisibility_exponent(d, base, exact)
        if j is None:
            failing = d
            break
        witnesses[d] = j
    return P1Report(holds=failing is None, witnesses=witnesses, failing=failing)


def pk_order(base: int, digits) -> int | None:
    """Smallest nesting depth of full-divisibility stages, or None.

    A root index has order 1 when some substitution power divides in full.
    Otherwise take the first power at which at least one expansion factor
    divides; the order is one more than the worst order among all factors
    at that power.  Indices strictly grow into territory where no factor
    can divide, so the recursion bottoms out.  It needs no memo: every
    node e has one parent, e // gcd(e, base), so distinct roots, and
    distinct factors at one power, have disjoint subtrees, and no index is
    reached twice.
    """
    exact = ExactTest(DigitSet.for_tiling(base, digits).mask())
    return _order(exact, base, root_indices(base))


def _order(exact: ExactTest, base: int, indices) -> int | None:
    """The worst order among the indices (see `pk_order`), or None as soon
    as one of them has none."""
    worst = 0
    for t in indices:
        order = 1
        if _full_divisibility_exponent(t, base, exact) is None:
            current: frozenset[int] = frozenset((t,))
            while True:
                current = expand_times(current, base, 1)
                if any(exact.divides(e) for e in current):
                    break
                if min(euler_phi(e) for e in current) > exact.degree:
                    return None
            below = _order(exact, base, sorted(current))
            if below is None:
                return None
            order += below
        worst = max(worst, order)
    return worst


# -- certificates ------------------------------------------------------------


class Certificate(Record):
    """Outcome of the decision procedure, self-verifying via its kernel.

    `verdict` is "tile" or "not-tile"; `trace` holds the search's node outcomes.
    """

    __slots__ = (
        "base",
        "digits",
        "verdict",
        "blocking",
        "order",
        "report",
        "stats",
        "trace",
        "protasov_blocking",
    )

    def __init__(
        self,
        base: int,
        digits: tuple[int, ...],
        verdict: str,
        blocking: tuple[int, ...] | None,
        order: int | None,
        report: SpectrumReport,
        stats: SearchStats | None = None,
        trace: dict[int, str] | None = None,
        protasov_blocking: tuple[str, ...] | None = None,
    ) -> None:
        self.base = base
        self.digits = digits
        self.verdict = verdict
        self.blocking = blocking
        self.order = order
        self.report = report
        self.stats = stats
        self.trace = trace
        self.protasov_blocking = protasov_blocking

    @property
    def is_tile(self) -> bool:
        return self.verdict == "tile"

    def kernel(self) -> IntPoly | None:
        if self.blocking is None:
            return None
        return cyclotomic_product(self.blocking)


def decide_tile_digit_set(base: int, digits, spectrum_cap: int | None = None) -> Certificate:
    """Decide whether the digits tile for the base, with a full certificate.

    The digit set must have base-many distinct non-negative members
    including 0 and digit gcd 1; anything else raises instead of guessing a
    normalization.  A spectrum cap other than an int of at least 1 (a bool
    included) raises ValueError, as the loader would refuse it.
    """
    ds = DigitSet.for_tiling(base, digits)
    return _certify(ExactTest(ds.mask()), base, ds.digits, spectrum_cap)


def _certify(exact: ExactTest, base: int, digits: tuple[int, ...], cap: int | None) -> Certificate:
    """Decide on the exact test alone, then build the spectra report on a
    context that asks the same test last."""
    blocking, stats, trace = _search(exact, base)
    order = _order(exact, base, root_indices(base)) if blocking is not None else None
    report = context_report(MaskContext(exact), base, cap)
    return Certificate(
        base=base,
        digits=digits,
        verdict="tile" if blocking is not None else "not-tile",
        blocking=tuple(sorted(blocking)) if blocking is not None else None,
        order=order,
        report=report,
        stats=stats,
        trace=trace,
    )


def certificate_to_json(cert: Certificate, indent: int | None = None) -> str:
    """Serialize with a fixed field order and version tag."""
    return json.dumps(_payload(cert), indent=indent)


def _payload(cert: Certificate) -> dict:
    structure = cert.report.structure
    payload: dict = {
        "schema": CERTIFICATE_SCHEMA,
        "base": cert.base,
        "digits": list(cert.digits),
        "verdict": cert.verdict,
        "blocking": list(cert.blocking) if cert.blocking is not None else None,
        "kernel": list(cert.blocking) if cert.blocking is not None else None,
        "pk_order": cert.order,
        "prime_power_spectrum": list(cert.report.prime_powers),
        "t1": cert.report.t1,
        "t2": cert.report.t2,
        "thm42": {str(p): list(v) for p, v in sorted(structure.exponents.items())},
        "thm42_pass": structure.passed,
        "thm42_violation": structure.violation,
        "general_spectrum": {
            "indices": list(cert.report.general.indices),
            "cap": cert.report.general.cap,
            "threshold": cert.report.general.threshold,
            "complete": cert.report.general.complete,
        },
    }
    if cert.stats is not None:
        payload["search"] = {
            "nodes": cert.stats.nodes,
            "divisions": cert.stats.divisions,
            "max_depth": cert.stats.max_depth,
            "pruned": cert.stats.pruned,
        }
    if cert.protasov_blocking is not None:
        payload["protasov_blocking"] = list(cert.protasov_blocking)
    return payload


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def certificate_from_json(text: str) -> Certificate:
    """Parse a serialized certificate, re-verifying it rather than trusting it.

    The digit set is decided again, with the payload's general-spectrum cap,
    and the payload must be exactly what that decision serializes to, as
    the compact text `certificate_to_json` writes or as equal JSON; the
    optional fields are `search` and `protasov_blocking`, and the latter is
    recomputed by the residue-tree route when present.  A tile certificate
    may carry any blocking whose kernel divides the mask, not only the one
    the search finds first; it is checked member by member on its own.
    Anything that fails raises CertificateError.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge integer, deep nesting
        raise CertificateError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != CERTIFICATE_SCHEMA:
        raise CertificateError("missing or unsupported certificate schema")
    base = payload.get("base")
    digits = payload.get("digits")
    spectrum = payload.get("general_spectrum")
    if not _is_int(base) or base < 2:
        raise CertificateError(f"base must be an integer >= 2, got {base!r}")
    if not (isinstance(digits, list) and all(_is_int(d) for d in digits)):
        raise CertificateError(f"digits must be a list of integers, got {digits!r}")
    if not isinstance(spectrum, dict) or not _is_int(spectrum.get("cap")) or spectrum["cap"] < 1:
        raise CertificateError(f"general_spectrum needs an integer cap >= 1, got {spectrum!r}")
    try:
        ds = DigitSet.for_tiling(base, digits)
        exact = ExactTest(ds.mask())
    except CyclotileError as exc:
        raise CertificateError(f"invalid digit set: {exc}") from exc
    cert = _certify(exact, base, ds.digits, spectrum["cap"])
    blocking = payload.get("blocking")
    if (
        payload.get("verdict") == "tile"
        and isinstance(blocking, list)
        and all(_is_int(e) for e in blocking)
    ):
        try:
            blk = Blocking.checked(base, blocking)
        except InvalidBlocking as exc:
            raise CertificateError(f"invalid blocking: {exc}") from exc
        if not blk.divides(exact.poly):
            raise CertificateError("kernel does not divide the digit mask")
        if cert.is_tile:
            cert.blocking = blk.indices
    if "protasov_blocking" in payload:
        from .protasov import protasov_decide

        try:
            cert.protasov_blocking = protasov_decide(base, ds.digits).labels()
        except CyclotileError as exc:  # the residue walk's budget
            raise CertificateError(f"protasov_blocking: {exc}") from exc
    expected = _payload(cert)
    if "search" not in payload:
        del expected["search"]
    # Equal text is equal values of equal types, so the sorted comparison
    # runs only on text that `certificate_to_json` would not have written.
    if text != json.dumps(expected) and _text(payload) != _text(expected):
        raise CertificateError(_first_difference(payload, expected))
    return cert


def _text(value) -> str:
    # Compared as JSON text, so that true and 1, or 2 and 2.0, differ.
    return json.dumps(value, sort_keys=True)


def _first_difference(payload: dict, expected: dict) -> str:
    for key in expected:
        if key not in payload:
            return f"missing field {key!r}"
        if _text(payload[key]) != _text(expected[key]):
            return f"{key} is {payload[key]!r}, but recomputes to {expected[key]!r}"
    return f"unexpected field {next(k for k in payload if k not in expected)!r}"


def search_dot(cert: Certificate) -> str:
    """Graphviz rendering of the explored tree; blocking members doubled.
    Each non-root node's edge comes from its parent, c // gcd(c, base), in
    visit order."""
    if cert.trace is None:
        raise ValueError("certificate carries no search trace")
    lines = [
        "digraph blocking_search {",
        "  rankdir=TB;",
        '  node [shape=circle, fontname="Helvetica"];',
    ]
    shapes = {"hit": "doublecircle", "pruned": "octagon"}
    for e, status in sorted(cert.trace.items()):
        attrs = [f"shape={shapes[status]}"] if status in shapes else []
        if status == "hit":
            attrs += ["style=filled", 'fillcolor="palegreen"']
        if status == "pruned":
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{e}"{suffix};')
    for child in cert.trace:
        parent = child // math.gcd(child, cert.base)
        if parent > 1:
            lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

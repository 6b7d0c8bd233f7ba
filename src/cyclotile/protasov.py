"""Integer residue tree: the second, independent route to the tile decision.

Vertices at level k are residues m with 1 <= m < b**k whose last base-b
digit is nonzero; the children of m are l*b**k + m for each digit l.  Each
vertex carries a cyclotomic index b**k / gcd(m, b**k), and a digit set tiles
exactly when the vertices whose index divides the mask block every infinite
path.  Index totients grow at least geometrically with the level, so the
search ends without a depth bound.  Nothing here consults the divisor tree
in phitree or the per-mask context in spectra: each call makes its own
`spectra.ExactTest`, a memo of the exact `cyclo.cyc_divides` on its mask,
so the two routes share only that helper, never an instance of it, and
index arithmetic.  Their agreement is checked in the tests, not assumed.

The search walks the tree in pre-order from an explicit stack, and the
dividing vertices it reaches are the blocking, closed under fibers (the
level vertices sharing an index) with no second pass.  A vertex (k, m) with
index t has gcd(m, b**k) = b**k / t, so its ancestor at level j <= k has
index b**j / gcd(b**k / t, b**j), which depends on (k, t) alone.  A walk that
ends in a blocking never stopped early, so it reached every fiber mate of a
hit through ancestors that neither divide nor escape, and recorded it too.
"""

from __future__ import annotations

import math

from .cyclo import euler_phi
from .digitset import DigitSet
from .errors import CyclotileError, NotInTree
from .record import FrozenRecord, Record, setfield
from .spectra import ExactTest


class Vertex(FrozenRecord):
    """A residue m at tree level k; the walk sorts (level, value) pairs, not vertices."""

    __slots__ = ("level", "value")

    def __init__(self, level: int, value: int) -> None:
        setfield(self, "level", level)
        setfield(self, "value", value)


def tau_index(value: int, level: int, base: int) -> int:
    """Cyclotomic index carried by the residue: base**level / gcd."""
    if level < 1 or value < 1:
        raise ValueError("need a positive residue at level >= 1")
    power = base**level
    return power // math.gcd(value, power)


def _check_vertex(v: Vertex, base: int) -> None:
    if v.level < 1 or not 1 <= v.value < base**v.level:
        raise NotInTree(f"{v.value} is out of range for level {v.level}")
    if v.value % base == 0:
        raise NotInTree(f"{v.value} ends in a zero digit for base {base}")


def vertex_label(v: Vertex, base: int) -> str:
    """Digit string, most significant first; dots separate digits past base 10."""
    _check_vertex(v, base)
    out = []
    value = v.value
    for _ in range(v.level):
        out.append(value % base)
        value //= base
    text = [str(d) for d in reversed(out)]
    return ".".join(text) if base > 10 else "".join(text)


class ProtasovStats(Record):
    __slots__ = ("vertices", "divisions", "max_level")

    def __init__(self, vertices: int = 0, divisions: int = 0, max_level: int = 0) -> None:
        self.vertices = vertices
        self.divisions = divisions
        self.max_level = max_level


class ProtasovResult(Record):
    """Outcome of the residue-tree search; `status` is "blocking" or "absent"."""

    __slots__ = ("status", "base", "blocking", "stats")

    def __init__(
        self,
        status: str,
        base: int,
        blocking: tuple[Vertex, ...] | None,
        stats: ProtasovStats | None = None,
    ) -> None:
        self.status = status
        self.base = base
        self.blocking = blocking
        self.stats = ProtasovStats() if stats is None else stats

    @property
    def is_tile(self) -> bool:
        return self.status == "blocking"

    def labels(self) -> tuple[str, ...] | None:
        if self.blocking is None:
            return None
        return tuple(vertex_label(v, self.base) for v in self.blocking)


def _exact_test(base: int, digits) -> ExactTest:
    """An exact test of this call's own on the mask of base-many digits."""
    ds = DigitSet.of(base, digits)
    ds.require_cardinality()
    return ExactTest(ds.mask())


# Most vertices `protasov_decide` pops.  The degree budget does not bound
# the walk's width: base 4 {0, 1, 2*4**k, 2*4**k + 1} visits about
# 2 * 4**(k+1) / 3 vertices, 699,051 at k = 9 in 1.9 s and near 100 MB,
# all within degree 10**6.  The recipes visit at most 3,875 vertices, the
# criterion-08 sets at most 11 and base 30 {0..29} 29.
MAX_RESIDUE_VERTICES = 100_000


def protasov_decide(base: int, digits) -> ProtasovResult:
    """Search the residue tree for a blocking of dividing vertices.

    Fail-fast: the first vertex, in pre-order, that neither divides nor can
    be outgrown by any descendant settles absence.  Otherwise every path
    ends at a dividing vertex, and those vertices, sorted by (level, value),
    are the blocking.  The outcome is always definite.  A vertex at level k
    ends in a nonzero digit, so some prime p of the base divides its index
    at least k times and the index's totient is at least 2**(k-1).  By
    level degree.bit_length() + 1 that totient exceeds the degree, so the
    walk returns at the totient check and needs no depth bound; it raises
    CyclotileError once it pops more than MAX_RESIDUE_VERTICES vertices.
    """
    exact = _exact_test(base, digits)
    stats = ProtasovStats()
    hits: list[tuple[int, int]] = []
    # Children go on in reverse, so the pops visit them in digit order.
    stack = [(m, 1) for m in range(base - 1, 0, -1)]
    while stack:
        value, level = stack.pop()
        stats.vertices += 1
        if stats.vertices > MAX_RESIDUE_VERTICES:
            raise CyclotileError(
                f"the residue walk exceeds the budget of {MAX_RESIDUE_VERTICES} vertices"
            )
        stats.max_level = max(stats.max_level, level)
        t = tau_index(value, level, base)
        if exact.divides(t):
            hits.append((level, value))
        elif euler_phi(t) > exact.degree:
            stats.divisions = exact.tests
            return ProtasovResult("absent", base, None, stats)
        else:
            step = base**level
            stack.extend((l * step + value, level + 1) for l in range(base - 1, -1, -1))
    stats.divisions = exact.tests
    blocking = tuple(Vertex(level, value) for level, value in sorted(hits))
    return ProtasovResult("blocking", base, blocking, stats)


class KenyonReport(FrozenRecord):
    """Level check; `witnesses` maps each integer to the first level whose index divides."""

    __slots__ = ("holds", "witnesses", "failing", "limit")

    def __init__(
        self, holds: bool, witnesses: dict[int, int], failing: int | None, limit: int
    ) -> None:
        setfield(self, "holds", holds)
        setfield(self, "witnesses", witnesses)
        setfield(self, "failing", failing)
        setfield(self, "limit", limit)


def kenyon_check(base: int, digits, m_limit: int = 200) -> KenyonReport:
    """Root-of-unity vanishing along base-power denominators, per integer.

    For each m up to the limit the indices base**k / gcd(m, base**k) form a
    divisor chain, so the first level whose totient outruns the mask degree
    without a division settles failure for that m.
    """
    exact = _exact_test(base, digits)
    witnesses: dict[int, int] = {}
    for m in range(1, m_limit + 1):
        k = 1
        while not exact.divides(t := tau_index(m, k, base)):
            if euler_phi(t) > exact.degree:
                return KenyonReport(False, witnesses, m, m_limit)
            k += 1
        witnesses[m] = k
    return KenyonReport(True, witnesses, None, m_limit)

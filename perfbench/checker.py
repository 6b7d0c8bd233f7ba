"""Independent checker for cyclotile outputs.

Nothing here imports cyclotile.  The arithmetic is written from the
definitions, by a different route than the package takes:

* Divisibility by the n-th cyclotomic uses Phi_n(x) = Phi_r(x**t), where
  r is the radical of n and t = n / r.  Splitting the polynomial by
  exponent class modulo t gives polynomials Q_a with P = sum x**a Q_a(x**t),
  and Phi_n divides P exactly when Phi_r divides every Q_a (the powers
  x**0 .. x**(t-1) are independent over the r-th cyclotomic field).  Each
  Q_a is folded modulo y**r - 1; for prime r the fold must be constant, and
  for composite r it is divided by a dense Phi_r built from the Moebius
  product.
* The divisor tree's children of a node e for base b are e * g over the
  divisors g of b with gcd(e * g, b) = g: those are exactly the orders k of
  the roots x with x**b of order e.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from functools import lru_cache

# -- number theory -----------------------------------------------------------


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def totient(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out = out // p * (p - 1)
    return out


def radical(n: int) -> int:
    return math.prod(p for p, _ in factor(n))


def prime_powers_upto(limit: int) -> list[int]:
    """Prime powers q with 1 < q <= limit, ascending."""
    if limit < 2:
        return []
    composite = bytearray(limit + 1)
    out = []
    for p in range(2, limit + 1):
        if not composite[p]:
            composite[p * p :: p] = bytes([1]) * len(range(p * p, limit + 1, p))
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    return sorted(out)


# -- cyclotomic divisibility --------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by a monic den, dense low-to-high lists."""
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 1)
    for k in range(len(num) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            quot[k - dd] = c
            for i, d in enumerate(den):
                rem[k - dd + i] -= c * d
    return quot, rem[:dd]


@lru_cache(maxsize=None)
def dense_cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n as low-to-high coefficients: prod over d | n of (x**d - 1)**mu(n/d)."""
    numer, denom = [1], [1]
    for d in range(1, n + 1):
        if n % d:
            continue
        fs = factor(n // d)
        if any(a > 1 for _, a in fs):
            continue
        binomial = [-1] + [0] * (d - 1) + [1]
        if len(fs) % 2 == 0:
            numer = _poly_mul(numer, binomial)
        else:
            denom = _poly_mul(denom, binomial)
    quot, rem = _poly_divmod_monic(numer, denom)
    if any(rem):
        raise ArithmeticError(f"Moebius product for Phi_{n} is not exact")
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return tuple(quot)


def cyclotomic_divides(n: int, terms: dict[int, int]) -> bool:
    """Does Phi_n divide the nonzero polynomial sum c * x**e over terms?"""
    if n == 1:
        return sum(terms.values()) == 0
    r = radical(n)
    t = n // r
    classes: dict[int, list[int]] = {}
    for e, c in terms.items():
        row = classes.get(e % t)
        if row is None:
            row = classes[e % t] = [0] * r
        row[(e // t) % r] += c
    prime = len(factor(r)) == 1
    for row in classes.values():
        if prime:
            if any(v != row[0] for v in row):
                return False
        else:
            _, rem = _poly_divmod_monic(row, list(dense_cyclotomic(r)))
            if any(rem):
                return False
    return True


def mask_terms(digits) -> dict[int, int]:
    return {d: 1 for d in digits}


def polynomial_product(factors) -> dict[int, int]:
    """Product of sparse polynomials given as {exponent: coefficient}."""
    out = {0: 1}
    for f in factors:
        nxt: dict[int, int] = {}
        for e1, c1 in out.items():
            for e2, c2 in f.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        out = {e: c for e, c in nxt.items() if c}
    return out


def substituted_cyclotomic(n: int, power: int) -> dict[int, int]:
    """Phi_n(x**power) as sparse terms."""
    return {power * e: c for e, c in enumerate(dense_cyclotomic(n)) if c}


class Mask:
    """A digit mask with memoized cyclotomic divisibility."""

    def __init__(self, digits):
        self.digits = tuple(sorted(digits))
        self.terms = mask_terms(self.digits)
        self.degree = self.digits[-1]
        self._memo: dict[int, bool] = {}

    def divisible_by(self, n: int) -> bool:
        hit = self._memo.get(n)
        if hit is None:
            hit = self._memo[n] = cyclotomic_divides(n, self.terms)
        return hit

    def prime_power_spectrum(self) -> tuple[int, ...]:
        """Prime powers q whose cyclotomic divides; totient(q) >= q/2 bounds q."""
        return tuple(
            q for q in prime_powers_upto(2 * self.degree) if self.divisible_by(q)
        )


# -- the divisor tree -----------------------------------------------------------


def divisors_of(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def roots(base: int) -> list[int]:
    return [d for d in divisors_of(base) if d > 1]


def children(e: int, base: int) -> list[int]:
    return sorted(e * g for g in divisors_of(base) if math.gcd(e * g, base) == g)


def blocking_problems(base: int, members) -> list[str]:
    """Is members an antichain that every infinite root path meets once?"""
    found = set(members)
    if not found:
        return ["blocking is empty"]
    top = max(found)
    hit: set[int] = set()
    problems: list[str] = []

    def below(e: int) -> bool:
        return any(c in found or (c <= top and below(c)) for c in children(e, base))

    def covered(e: int) -> bool:
        if e in found:
            hit.add(e)
            if below(e):
                problems.append(f"a member lies below {e}")
            return True
        if e > top:
            return False
        return all(covered(c) for c in children(e, base))

    for r in roots(base):
        if not covered(r):
            problems.append(f"a path from root {r} meets no member")
    if hit != found:
        problems.append(f"members {sorted(found - hit)} are not on any root path")
    return problems


def escaping_path(base: int, mask: Mask) -> list[int] | None:
    """A root path on which no node divides, ending at a node whose totient
    exceeds the mask degree (so nothing below it can divide), or None."""

    def walk(e: int) -> list[int] | None:
        if mask.divisible_by(e):
            return None
        if totient(e) > mask.degree:
            return [e]
        for c in children(e, base):
            rest = walk(c)
            if rest is not None:
                return [e] + rest
        return None

    for r in roots(base):
        path = walk(r)
        if path is not None:
            return path
    return None


# -- certificates ----------------------------------------------------------------


def _int_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    )


def certificate_problems(payload) -> list[str]:
    """Check a certificate given as its parsed JSON object."""
    if not isinstance(payload, dict):
        return ["certificate is not an object"]
    base, digits = payload.get("base"), payload.get("digits")
    if not isinstance(base, int) or base < 2 or not _int_list(digits):
        return ["base or digits malformed"]
    if len(digits) != base or len(set(digits)) != base or min(digits) != 0:
        return ["digits are not base-many distinct values including 0"]
    if math.gcd(*digits) != 1:
        return ["digit gcd is not 1"]
    mask = Mask(digits)
    problems: list[str] = []
    verdict, blocking = payload.get("verdict"), payload.get("blocking")
    if verdict == "tile":
        if not _int_list(blocking):
            return ["tile verdict without a blocking"]
        problems += blocking_problems(base, blocking)
        problems += [
            f"Phi_{e} does not divide the mask" for e in blocking if not mask.divisible_by(e)
        ]
    elif verdict == "not-tile":
        if blocking is not None:
            problems.append("not-tile verdict carries a blocking")
        if escaping_path(base, mask) is None:
            problems.append("not-tile verdict but no root path escapes")
    else:
        return [f"unknown verdict {verdict!r}"]
    spectrum = mask.prime_power_spectrum()
    if payload.get("prime_power_spectrum") != list(spectrum):
        problems.append(
            f"prime power spectrum {payload.get('prime_power_spectrum')} != {list(spectrum)}"
        )
    t1 = math.prod(factor(q)[0][0] for q in spectrum) == len(digits)
    if payload.get("t1") is not t1:
        problems.append(f"t1 reads {payload.get('t1')}, expected {t1}")
    if verdict == "tile" and not t1:
        problems.append("tile verdict but T1 fails")
    return problems


def round_trip_problems(before, after) -> list[str]:
    """Fields that must survive serialization, compared as plain values."""
    problems = []
    for name in ("base", "digits", "verdict", "blocking"):
        a, b = getattr(before, name), getattr(after, name)
        a = tuple(a) if isinstance(a, (list, tuple)) else a
        b = tuple(b) if isinstance(b, (list, tuple)) else b
        if a != b:
            problems.append(f"round trip changed {name}: {a!r} -> {b!r}")
    return problems


# -- command line outputs --------------------------------------------------------------


def complement_problems(digits, period: int, complement) -> list[str]:
    counts = [0] * period
    for d in digits:
        for c in complement:
            counts[(d + c) % period] += 1
    if any(c != 1 for c in counts):
        return [f"digits + complement do not cover Z/{period} exactly once"]
    return []


def residue_vertex_problems(base: int, mask: Mask, labels) -> list[str]:
    """Each residue-tree vertex label names a residue whose index divides."""
    bad = []
    for label in labels:
        parts = label.split(".") if base > 10 else list(label)
        value = 0
        for part in parts:
            value = value * base + int(part)
        power = base ** len(parts)
        index = power // math.gcd(value, power)
        if not mask.divisible_by(index):
            bad.append(label)
    return [f"residue vertices {bad[:5]} carry non-dividing indices"] if bad else []

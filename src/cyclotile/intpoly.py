"""Exact dense integer polynomials.

Coefficients are plain Python ints stored densely by exponent with trailing
zeros stripped, so equality is structural and all arithmetic is exact.  The
zero polynomial has an empty coefficient tuple and its degree is None, a
deliberate sentinel: code that would silently do arithmetic with a degree of
-1 should fail loudly instead.

Multiplication and division walk only the nonzero terms of the smaller or
of the divisor operand.  The polynomials this package cares about (digit
masks, cyclotomics of smooth index) are extremely sparse, which makes both
operations near linear in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDigitSet


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coeffs[k] is the coefficient of x**k."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = self.coeffs
        if c and c[-1] == 0:
            while c and c[-1] == 0:
                c = c[:-1]
            object.__setattr__(self, "coeffs", c)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x_power(cls, n: int, coeff: int = 1) -> "IntPoly":
        """coeff * x**n."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        if coeff == 0:
            return cls(())
        return cls((0,) * n + (coeff,))

    @classmethod
    def from_terms(cls, terms) -> "IntPoly":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        terms = list(terms)
        if not terms:
            return cls(())
        top = max(e for e, _ in terms)
        out = [0] * (top + 1)
        for e, c in terms:
            if e < 0:
                raise ValueError("exponent must be non-negative")
            out[e] += c
        return cls(tuple(out))

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        if not self.coeffs:
            return None
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def terms(self):
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return [(e, c) for e, c in enumerate(self.coeffs) if c]

    def coefficient(self, e: int) -> int:
        if 0 <= e < len(self.coeffs):
            return self.coeffs[e]
        return 0

    def at_one(self) -> int:
        """Value at x = 1, i.e. the coefficient sum."""
        return sum(self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        a, b = self, other
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        bc = b.coeffs
        for e, c in a.terms():
            for j, d in enumerate(bc):
                if d:
                    out[e + j] += c * d
        return IntPoly(tuple(out))

    def compose_power(self, n: int) -> "IntPoly":
        """Substitute x -> x**n.  n = 0 collapses to the value at 1."""
        if n < 0:
            raise ValueError("power must be non-negative")
        if n == 0:
            return IntPoly((self.at_one(),))
        if self.is_zero:
            return self
        out = [0] * ((len(self.coeffs) - 1) * n + 1)
        for e, c in self.terms():
            out[e * n] = c
        return IntPoly(tuple(out))

    def fold_mod(self, n: int) -> "IntPoly":
        """Remainder modulo x**n - 1: exponents folded mod n."""
        if n <= 0:
            raise ValueError("fold modulus must be positive")
        out = [0] * n
        for e, c in self.terms():
            out[e % n] += c
        return IntPoly(tuple(out))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in reversed(self.terms()):
            if e == 0:
                parts.append(f"{c:+d}")
            elif e == 1:
                parts.append(f"{c:+d}*x")
            else:
                parts.append(f"{c:+d}*x^{e}")
        text = " ".join(parts)
        return text[1:] if text.startswith("+") else text


def mask_polynomial(digits) -> IntPoly:
    """Sum of x**d over the digit set.

    Digits must be distinct non-negative integers; anything else raises
    InvalidDigitSet.  The mask of the empty set is the zero polynomial.
    """
    seen = set()
    for d in digits:
        if not isinstance(d, int) or isinstance(d, bool):
            raise InvalidDigitSet(f"digit {d!r} is not an integer")
        if d < 0:
            raise InvalidDigitSet(f"digit {d} is negative")
        if d in seen:
            raise InvalidDigitSet(f"digit {d} repeats")
        seen.add(d)
    return IntPoly.from_terms((d, 1) for d in seen)


def divmod_exact(p: IntPoly, q: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of p by q.

    q must be nonzero with leading coefficient 1 or -1, which keeps every
    intermediate value an integer.  Non-monic divisors are rejected rather
    than handled by pseudo-division.
    """
    if q.is_zero:
        raise ValueError("division by the zero polynomial")
    if q.leading not in (1, -1):
        raise ValueError("divisor leading coefficient must be 1 or -1")
    dq = q.degree
    if p.is_zero or p.degree < dq:
        return IntPoly(()), p
    lead = q.leading
    # Sparse view of the divisor below its leading term.
    low = [(e, c) for e, c in enumerate(q.coeffs[:-1]) if c]
    rem = list(p.coeffs)
    dp = p.degree
    quot = [0] * (dp - dq + 1)
    for i in range(dp, dq - 1, -1):
        c = rem[i]
        if c:
            if lead == -1:
                c = -c
            quot[i - dq] = c
            rem[i] = 0
            base = i - dq
            for e, qc in low:
                rem[base + e] -= c * qc
    return IntPoly(tuple(quot)), IntPoly(tuple(rem[:dq]))


def divide_exact(p: IntPoly, q: IntPoly):
    """Exact quotient p / q, or None when q does not divide p."""
    quot, rem = divmod_exact(p, q)
    if not rem.is_zero:
        return None
    return quot

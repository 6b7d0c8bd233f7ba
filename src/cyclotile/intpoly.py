"""Exact sparse integer polynomials.

A polynomial is stored as its nonzero terms: a tuple of (exponent,
coefficient) pairs with exponents strictly ascending and every coefficient
a nonzero Python int.  Equality is structural and all arithmetic is exact.
The zero polynomial has no terms and its degree is None, a deliberate
sentinel: code that would silently do arithmetic with a degree of -1 should
fail loudly instead.

Every operation walks only the stored terms, so its cost follows the term
count, not the degree.  The polynomials this package cares about (digit
masks, cyclotomics of smooth index) are extremely sparse, and a mask with
a digit near 2**62 costs no more than one with a digit near 10.  Exact
division is the one exception: its quotients are dense in general, so it
runs on a dense list of the dividend's coefficients, in the one loop
`_reduce_dense`.  Its two callers keep that list short: cyclotomic
generation through `divmod_exact`, and the kernel check, which first folds
the dividend into lists no longer than the radical of a member's index.
The positional constructor and `coeffs` are dense views for small
literals, tests and that division.
"""

from __future__ import annotations

from operator import index

from .errors import InvalidDigitSet
from .record import FrozenRecord, setfield


class IntPoly(FrozenRecord):
    """Integer polynomial; IntPoly(coeffs) reads coeffs[k] as the coefficient of x**k."""

    __slots__ = ("_terms",)

    def __init__(self, coeffs=()) -> None:
        setfield(self, "_terms", tuple((e, c) for e, c in enumerate(coeffs) if c))

    @classmethod
    def _of(cls, terms: tuple[tuple[int, int], ...]) -> "IntPoly":
        """Wrap terms that are already sorted, distinct and nonzero."""
        p = object.__new__(cls)
        setfield(p, "_terms", terms)
        return p

    def __reduce__(self):
        return IntPoly._of, (self._terms,)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls._of(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls._of(((0, 1),))

    @classmethod
    def x_power(cls, n: int, coeff: int = 1) -> "IntPoly":
        """coeff * x**n."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        return cls._of(((n, coeff),) if coeff else ())

    @classmethod
    def from_terms(cls, terms) -> "IntPoly":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        acc: dict[int, int] = {}
        for e, c in terms:
            e = index(e)
            if e < 0:
                raise ValueError("exponent must be non-negative")
            acc[e] = acc.get(e, 0) + c
        return cls._of(tuple(sorted((e, c) for e, c in acc.items() if c)))

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficient tuple, trailing zeros stripped; O(degree)."""
        if not self._terms:
            return ()
        out = [0] * (self._terms[-1][0] + 1)
        for e, c in self._terms:
            out[e] = c
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return self._terms[-1][0]

    @property
    def leading(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._terms[-1][1]

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Nonzero (exponent, coefficient) pairs, ascending."""
        return self._terms

    def at_one(self) -> int:
        """Value at x = 1, i.e. the coefficient sum."""
        return sum(c for _, c in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"IntPoly.from_terms({list(self._terms)!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly.from_terms(self._terms + other._terms)

    def __neg__(self) -> "IntPoly":
        return IntPoly._of(tuple((e, -c) for e, c in self._terms))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly.from_terms(
            (e + f, c * d) for e, c in self._terms for f, d in other._terms
        )

    def compose_power(self, n: int) -> "IntPoly":
        """Substitute x -> x**n.  n = 0 collapses to the value at 1."""
        if n < 0:
            raise ValueError("power must be non-negative")
        if n == 0:
            return IntPoly.x_power(0, self.at_one())
        return IntPoly._of(tuple((e * n, c) for e, c in self._terms))

    def fold_mod(self, n: int) -> "IntPoly":
        """Remainder modulo x**n - 1: exponents folded mod n."""
        if n <= 0:
            raise ValueError("fold modulus must be positive")
        return IntPoly.from_terms((e % n, c) for e, c in self._terms)


def _validate_digits(digits) -> tuple[int, ...]:
    """The digits in ascending order, checked distinct non-negative integers.

    Anything else raises InvalidDigitSet.
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
    return tuple(sorted(seen))


def mask_polynomial(digits) -> IntPoly:
    """Sum of x**d over the digit set.

    Digits must be distinct non-negative integers; anything else raises
    InvalidDigitSet.  The mask of the empty set is the zero polynomial.
    """
    return _sorted_mask(_validate_digits(digits))


def _sorted_mask(digits: tuple[int, ...]) -> IntPoly:
    """Mask of digits already validated and in ascending order."""
    return IntPoly._of(tuple((d, 1) for d in digits))


def divmod_exact(p: IntPoly, q: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of p by q.

    q must be nonzero with leading coefficient 1 or -1, which keeps every
    intermediate value an integer.  Non-monic divisors are rejected rather
    than handled by pseudo-division.  The quotient is dense in general, so
    the division runs on a dense list of p's coefficients: this is the one
    operation whose cost grows with the degree.
    """
    rem = list(p.coeffs)
    quot = _reduce_dense(rem, q)
    return IntPoly(quot), IntPoly(rem[: q.degree])


def _reduce_dense(rem: list[int], q: IntPoly) -> list[int]:
    """Reduce the dense coefficient list rem modulo q in place, and return
    the quotient's dense coefficients; rem[:degree(q)] is then the
    remainder.  q must be nonzero with leading coefficient 1 or -1.  The
    one division loop of the package: `divmod_exact` and the kernel check
    (`cyclo.cyclotomics_divide`) both run it."""
    if q.is_zero:
        raise ValueError("division by the zero polynomial")
    if q.leading not in (1, -1):
        raise ValueError("divisor leading coefficient must be 1 or -1")
    dq, lead = q.degree, q.leading
    low = q.terms()[:-1]  # the divisor below its leading term
    quot = [0] * max(len(rem) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c:
            if lead == -1:
                c = -c
            quot[i - dq] = c
            rem[i] = 0
            base = i - dq
            for e, qc in low:
                rem[base + e] -= c * qc
    return quot


def divide_exact(p: IntPoly, q: IntPoly):
    """Exact quotient p / q, or None when q does not divide p."""
    quot, rem = divmod_exact(p, q)
    if not rem.is_zero:
        return None
    return quot

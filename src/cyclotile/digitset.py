"""Digit sets: a finite set of distinct non-negative integers plus a base."""

from __future__ import annotations

import math

from .errors import InvalidDigitSet, NormalizationRequired, WrongCardinality
from .intpoly import IntPoly, _sorted_mask, _validate_digits
from .record import FrozenRecord, setfield


class DigitSet(FrozenRecord):
    """A validated base and its digits, stored ascending."""

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...]) -> None:
        if not isinstance(base, int) or base < 2:
            raise InvalidDigitSet(f"base must be an integer >= 2, got {base!r}")
        ordered = _validate_digits(digits)
        if not ordered:
            raise InvalidDigitSet("digit set is empty")
        setfield(self, "base", base)
        setfield(self, "digits", ordered)

    @classmethod
    def of(cls, base: int, digits) -> "DigitSet":
        return cls(base, tuple(digits))

    @classmethod
    def for_tiling(cls, base: int, digits) -> "DigitSet":
        """The input of the tile decision: base-many digits, 0 among them, gcd 1."""
        ds = cls.of(base, digits)
        ds.require_cardinality()
        ds.require_normalized()
        return ds

    def __len__(self) -> int:
        return len(self.digits)

    def mask(self) -> IntPoly:
        return _sorted_mask(self.digits)

    def digit_gcd(self) -> int:
        return math.gcd(*self.digits) if len(self.digits) > 1 else self.digits[0]

    def require_cardinality(self) -> None:
        """Enforce exactly base-many digits."""
        if len(self.digits) != self.base:
            raise WrongCardinality(
                f"need exactly {self.base} digits, got {len(self.digits)}"
            )

    def require_normalized(self) -> None:
        """Enforce 0 in the set and gcd 1.

        Sets violating this are rejected rather than translated or rescaled:
        rescaling changes which base-b radix problem is being asked.
        """
        if 0 not in self.digits:
            raise NormalizationRequired("digit set must contain 0")
        if len(self.digits) > 1 and self.digit_gcd() != 1:
            raise NormalizationRequired(
                f"digit gcd is {self.digit_gcd()}, expected 1"
            )

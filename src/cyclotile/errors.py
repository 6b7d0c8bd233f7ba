"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
fine distinctions can catch one thing.  The CLI maps any of these to exit
code 2.
"""


class CyclotileError(ValueError):
    """Base class for all input and state errors raised by this package."""


class InvalidDigitSet(CyclotileError):
    """Digits are not a finite set of distinct non-negative integers."""


class WrongCardinality(CyclotileError):
    """An operation required exactly base-many digits."""


class NormalizationRequired(CyclotileError):
    """Digit set must contain 0 and have gcd 1; we refuse to rescale silently."""


class NotInTree(CyclotileError):
    """Index does not belong to the divisibility tree for this base."""


class InvalidBlocking(CyclotileError):
    """Index set is not a valid blocking of the tree."""


class DirectSumCollision(CyclotileError):
    """A sum that had to be direct produced a repeated value."""


class InvalidDecomposition(CyclotileError):
    """Parts fail the requirements of a residue-complete decomposition."""


class InvalidRepresentative(CyclotileError):
    """A congruence replacement is not congruent modulo the stage modulus."""


class InvalidRegrouping(CyclotileError):
    """Regrouped parts do not reproduce the inner digit set."""


class RecipeError(CyclotileError):
    """A construction recipe file is malformed."""


class CertificateError(CyclotileError):
    """A serialized certificate is malformed or fails re-verification."""

"""Exception hierarchy shared across the package.

Every error carries the process exit code the CLI maps it to:
1 = malformed input / usage, 2 = violated precondition, 3 = resource cap,
4 = internal error (an invariant of the package's own computation does not
hold; the CLI reports any other unexpected exception with the same code).
"""

from __future__ import annotations


class SlicekitError(Exception):
    exit_code = 2


class UsageError(SlicekitError):
    """Bad input document or bad invocation."""

    exit_code = 1


class PreconditionError(SlicekitError):
    """An operation was called outside its stated domain."""

    exit_code = 2


class ResourceError(SlicekitError):
    """A hard cap (state count, iteration budget) was hit."""

    exit_code = 3


class InternalError(SlicekitError):
    """An invariant of the computation failed: a bug, not bad input."""

    exit_code = 4


class NoCertifiedWitness(InternalError):
    """An achievable multiplicity has no witness candidate that exact
    counting certifies."""


# -- instance validation -----------------------------------------------------

class BadBase(UsageError):
    pass


class DigitOutOfRange(UsageError):
    pass


class DuplicateDigit(UsageError):
    pass


class EmptyDigitSet(UsageError):
    pass


class ZeroCoefficient(UsageError):
    pass


class LengthMismatch(UsageError):
    pass


class InvalidDocument(UsageError):
    pass


class NotPlanar(UsageError):
    pass


# -- preconditions ------------------------------------------------------------

class OutOfRange(PreconditionError):
    pass


class CoveringRequired(PreconditionError):
    pass


class HypothesisViolated(PreconditionError):
    pass


class NotAchievable(PreconditionError):
    pass


# -- resource caps ------------------------------------------------------------

class TooLarge(ResourceError):
    pass


class WideEnclosure(ResourceError):
    pass

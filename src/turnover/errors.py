"""Exception types shared across the package, and the one real-domain check.

A rejected real is named in one of four messages: ``"{what} is not a number
(nan)"``, ``"{what} must be positive, got {x}"``, ``"{what} must be >= 0,
got {x}"`` or ``"{what} must be finite, got {x}"``.
"""

import math


class TurnoverError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TurnoverError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketError(TurnoverError, ValueError):
    """A root bracket does not enclose a sign change."""


class ConvergenceError(TurnoverError, RuntimeError):
    """An iterative routine failed to reach the requested tolerance."""


class InequalityViolation(TurnoverError, RuntimeError):
    """A theorem-backed inequality failed numerically.

    The inequalities guarded by this error are proved facts, so a violation
    always indicates a quadrature or bookkeeping bug, never new mathematics.
    """


def _sign_error(x: float, what: str, rule: str) -> DomainError:
    if math.isnan(x):
        return DomainError(f"{what} is not a number (nan)")
    return DomainError(f"{what} must be {rule}, got {x}")


def require_positive(x: float, what: str) -> float:
    """``x`` if ``x > 0`` (inf included), else a ``DomainError`` naming it."""
    if not x > 0.0:
        raise _sign_error(x, what, "positive")
    return x


def require_nonnegative(x: float, what: str) -> float:
    """``x`` if ``x >= 0`` (inf included), else a ``DomainError`` naming it."""
    if not x >= 0.0:
        raise _sign_error(x, what, ">= 0")
    return x


def require_finite(x: float, what: str) -> float:
    """``x`` unless it is infinite; called after a sign check, which has
    already rejected NaN."""
    if math.isinf(x):
        raise DomainError(f"{what} must be finite, got {x}")
    return x

"""Exception types shared across the package, and the type checks that
refuse malformed input with DomainError."""

import math
from numbers import Integral, Real


class DomainError(ValueError):
    """Parameter outside the mathematical domain of an operation."""


class PrecisionError(ValueError):
    """Input cannot be represented exactly at the requested grid resolution."""


class ResourceError(RuntimeError):
    """Requested computation exceeds a configured size cap."""


class SolverError(RuntimeError):
    """Nonlinear solve failed to converge.

    A solve over column-stacked problems fails as a whole; column is then
    the index of the column that failed, and the message begins with it.
    reason is the message without that prefix.
    """

    def __init__(self, message, residual=None, column=None):
        super().__init__(message if column is None
                         else f"column {column}: {message}")
        self.reason = message
        self.residual = residual
        self.column = column


def check_int(name: str, value):
    """value if it is an integer (not a bool), else DomainError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def check_real(name: str, value):
    """value if it is a finite real number (an int or a float, not a
    bool), else DomainError."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value)):
        raise DomainError(f"{name} must be a finite real number, "
                          f"got {value!r}")
    return value

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
    """Nonlinear solve failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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

"""Exception types shared across the package, and the integer check that
raises one."""

from __future__ import annotations

import operator


class LcdiscError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(LcdiscError, ValueError):
    """A physical or numerical parameter is out of its allowed range."""


class NumericFailureError(LcdiscError):
    """A quadrature did not reach the requested tolerance.

    Attributes
    ----------
    estimate : float
        The achieved error estimate, so callers can decide whether the
        partial result would still have been useful.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (error estimate {estimate:.3e})")
        self.estimate = estimate


class ResourceLimitError(LcdiscError):
    """A requested computation exceeds a configured resource cap."""


class InvalidStateError(LcdiscError):
    """An object is not in a state that supports the requested operation."""


class ConfigError(LcdiscError):
    """A configuration file or option set could not be interpreted."""


def as_int(name: str, value: int) -> int:
    """``value`` as an int; a float, even a whole one, is rejected."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(
            f"{name} must be an integer, got {value!r}") from None

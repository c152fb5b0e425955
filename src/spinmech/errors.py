"""Exception hierarchy shared by all spinmech modules.

:func:`check_number` is the one place each numeric precondition is written,
and :func:`check_overflow` the one place a computed value must be finite.
"""

import math
import numbers

import numpy as np


class SpinmechError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SpinmechError, ValueError):
    """An argument violates a documented precondition."""


class NumericalOverflowError(SpinmechError, ArithmeticError):
    """A state variable became non-finite or crossed the overflow bound."""


class ConfigurationError(SpinmechError, ValueError):
    """A run configuration is inconsistent or violates a stability bound.

    ``errors`` holds one message per problem so callers can report them all
    at once instead of failing on the first.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class FitWindowError(InvalidInputError):
    """A regression window contains zeros or sign changes."""


def check_number(name: str, value, low: float = -math.inf, positive: bool = False):
    """``value`` if it is a finite real ``>= low`` (and ``> 0`` if ``positive``); NaN fails."""
    if not (isinstance(value, numbers.Real) and -math.inf < value < math.inf
            and low <= value and (value > 0 or not positive)):
        rule = "positive" if positive else "finite" if low == -math.inf else f">= {low:g}"
        raise InvalidInputError(f"{name} must be {rule}, got {value}")
    return value


def check_overflow(what: str, value):
    """``value`` if every entry of it is finite; else "``what`` overflowed"."""
    if not np.all(np.isfinite(value)):
        raise NumericalOverflowError(f"{what} overflowed")
    return value

"""Exception hierarchy shared by all spinmech modules.

An error's ``errors`` property holds its messages, one per problem, and every
refused input, a run configuration included, is an :class:`InvalidInputError`.
:func:`check_number` is the one place each numeric precondition is written,
:func:`check_int` the one place each count or seed must be an integer,
:func:`check_finite` the one place an input array must be finite,
:func:`check_steps` the one place a step count must fit in 64 bits, and
:func:`check_overflow` the one place a computed value must be finite.
"""

import math
import numbers

import numpy as np


class SpinmechError(Exception):
    """Base class for every error of this package; its ``args`` are its messages."""

    @property
    def errors(self) -> list[str]:
        return [str(a) for a in self.args]

    def __str__(self) -> str:
        return "; ".join(self.errors)


class InvalidInputError(SpinmechError, ValueError):
    """An argument violates a documented precondition."""


class NumericalOverflowError(SpinmechError, ArithmeticError):
    """A state variable became non-finite or crossed the overflow bound."""


class FitWindowError(InvalidInputError):
    """A regression window contains zeros or sign changes."""


def check_number(name: str, value, low: float = -math.inf, positive: bool = False):
    """``value`` if it is a finite real ``>= low`` (and ``> 0`` if ``positive``); NaN fails."""
    if not (isinstance(value, numbers.Real) and -math.inf < value < math.inf
            and low <= value and (value > 0 or not positive)):
        rule = "positive" if positive else "finite" if low == -math.inf else f">= {low:g}"
        raise InvalidInputError(f"{name} must be {rule}, got {value}")
    return value


def check_int(name: str, value, low: float = -math.inf):
    """``value`` if it is an integer ``>= low``; a bool or an integral float fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value:
        rule = "an integer" if low == -math.inf else f"an integer >= {low:g}"
        raise InvalidInputError(f"{name} must be {rule}, got {value}")
    return value


def check_finite(name: str, value):
    """``value`` if every entry of it is finite; else "``name`` must be finite"."""
    if not np.all(np.isfinite(value)):
        raise InvalidInputError(f"{name} must be finite")
    return value


def check_steps(t_final: float, dt: float) -> float:
    """``t_final / dt`` if it is below ``2**63``; an infinite or NaN ratio fails."""
    steps = t_final / dt
    if not steps < 2**63:
        raise InvalidInputError(
            f"t_final={t_final:g} / dt={dt:g} is more steps than fit in 64 bits"
        )
    return steps


def check_overflow(what: str, value):
    """``value`` if every entry of it is finite; else "``what`` overflowed"."""
    if not np.all(np.isfinite(value)):
        raise NumericalOverflowError(f"{what} overflowed")
    return value

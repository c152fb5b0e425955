"""Open-loop velocity tracking for the first-order stochastic plant.

The plant is ``dv = (-omega v + u + eta) dt + sigma dw``.  Its velocity is a
flat output: choosing ``y = v`` gives the state as ``y`` itself and the
input as ``u = y' + omega y - eta``, so any smooth reference can be tracked
by the precomputed law ``u(t) = omega v_r(t) + v_r'(t) - eta_hat(t)`` with
no feedback.  With a correct disturbance estimate the tracking error obeys
``e' + omega e = 0`` and decays at the plant rate; for an ensemble whose
per-particle disturbances average to zero, the same law with
``eta_hat = 0`` steers the ensemble-mean velocity.  One simulator,
:func:`simulate_tracking`, serves both: a tracked particle is the
one-particle ensemble.

The disturbance enters in two forms matching its two roles: a deterministic
callable (compensable, used for exact-decay checks) and white noise through
the SDE integrator (ensemble statistics).  No estimator is constructed
here; ``eta_hat`` is always caller-supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FitWindowError, InvalidInputError, NumericalOverflowError
from .errors import check_finite, check_number
from .sde import DriftSpec, SdeConfig, simulate_ensemble

#: Relative agreement required between v_r_dot and a central difference of v_r.
DERIVATIVE_CONSISTENCY_TOL = 1e-6
#: Decay-fit window as fractions of the horizon (skips transients/floor).
FIT_WINDOW = (0.1, 0.9)


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Reference velocity ``v_r(t)`` with its derivative on ``[0, duration]``.

    The constructor cross-checks the derivative against a central difference
    of ``v_r`` (step ``1e-5 * duration``) on a probe grid, allowing for that
    difference's own truncation and rounding error, and rejects an
    inconsistent one.  The factories' derivatives are exact; they skip it.
    """

    v_r: Callable[[float], float]
    v_r_dot: Callable[[float], float]
    duration: float

    def __post_init__(self):
        h = 1e-5 * check_number("duration", self.duration, positive=True)
        if h == 0.0:  # a subnormal duration
            raise InvalidInputError(f"duration {self.duration!r} has no difference step")
        for t in np.linspace(2 * h, self.duration - 2 * h, 33).tolist():  # no numpy warnings
            hi, lo = self.v_r(t + h), self.v_r(t - h)
            fd = (hi - lo) / (2 * h)
            stated = check_number(f"v_r_dot({t:g})", self.v_r_dot(t))
            allowed = (DERIVATIVE_CONSISTENCY_TOL * (1.0 + abs(stated))  # + truncation, rounding
                       + abs((self.v_r(t + 2 * h) - self.v_r(t - 2 * h)) / (4 * h) - fd)
                       + 2 * math.ulp(1.0) * (abs(hi) / 2 + abs(lo) / 2) / h)  # no sum overflows
            if fd == stated or abs(fd - stated) <= allowed < math.inf:
                continue
            if not allowed < math.inf:  # the bound overflowed, or is NaN
                raise InvalidInputError(
                    f"v_r_dot({t:g}) = {stated:g} and the central difference {fd:g} of v_r "
                    "differ, but the difference cannot be resolved: its error bound overflows"
                )
            raise InvalidInputError(
                f"v_r_dot({t:g}) = {stated:g} disagrees with the central "
                f"difference {fd:g} of v_r"
            )

    @classmethod
    def _exact(cls, v_r, v_r_dot, duration: float) -> "ReferenceTrajectory":
        """A closed-form pair, built without the probe."""
        check_number("duration", duration, positive=True)
        ref = object.__new__(cls)
        vars(ref).update(v_r=v_r, v_r_dot=v_r_dot, duration=duration)
        return ref

    @classmethod
    def constant(cls, level: float, duration: float) -> "ReferenceTrajectory":
        check_number("level", level)
        return cls._exact(lambda t: level, lambda t: 0.0, duration)

    @classmethod
    def ramp(cls, rate: float, duration: float, start: float = 0.0) -> "ReferenceTrajectory":
        check_number("start + rate * duration", start + rate * duration)
        return cls._exact(lambda t: start + rate * t, lambda t: rate, duration)

    @classmethod
    def sine(
        cls, amplitude: float, angular_freq: float, duration: float, offset: float = 0.0
    ) -> "ReferenceTrajectory":
        check_number("angular_freq * duration", angular_freq * duration)  # math.sin(inf) raises
        check_number("|offset| + |amplitude|", abs(offset) + abs(amplitude))  # bounds v_r
        check_number("amplitude * angular_freq", amplitude * angular_freq)  # bounds v_r_dot
        return cls._exact(
            lambda t: offset + amplitude * math.sin(angular_freq * t),
            lambda t: amplitude * angular_freq * math.cos(angular_freq * t),
            duration,
        )


@dataclass(frozen=True)
class ControlLaw:
    """Open-loop law ``u(t) = omega v_r(t) + v_r'(t) - eta_hat(t)``."""

    omega: float
    reference: ReferenceTrajectory
    eta_hat: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        check_number("omega", self.omega, positive=True)  # stable error dynamics


def _law_value(law: ControlLaw, t: float) -> float:
    """The tracking law at ``t``, unchecked; the caller keeps ``t`` in the horizon."""
    u = law.omega * law.reference.v_r(t) + law.reference.v_r_dot(t)
    if law.eta_hat is not None:
        u -= law.eta_hat(t)
    return u


def openloop_control(law: ControlLaw, t: float) -> float:
    """Evaluate the tracking law at ``t`` within the reference's horizon."""
    if not 0.0 <= t <= law.reference.duration * (1 + 1e-12):
        raise InvalidInputError(
            f"t={t!r} outside the reference horizon [0, {law.reference.duration!r}]"
        )
    return _law_value(law, t)


@dataclass(frozen=True)
class TrackingReport:
    """Error trace of a tracking run (per particle or ensemble mean)."""

    times: np.ndarray
    errors: np.ndarray
    error_std: np.ndarray
    control: np.ndarray
    fitted_decay_rate: Optional[float]
    terminal_error: float
    fit_window: tuple[float, float]


def _fit_window(times) -> tuple[float, float]:
    """The fit window: the ``FIT_WINDOW`` fractions of the run's span."""
    span = times[-1] - times[0]
    return times[0] + FIT_WINDOW[0] * span, times[0] + FIT_WINDOW[1] * span


def error_dynamics_fit(errors, times) -> float:
    """Least-squares slope of ``ln|e(t)|`` over the run's central ``[0.1 T, 0.9 T]``.

    That ``FIT_WINDOW`` skips initial transients and terminal floors.
    Windows containing zeros, sign changes or non-finite errors are rejected.
    """
    times = check_finite("times", np.asarray(times, dtype=float))
    errors = np.asarray(errors, dtype=float)
    if times.shape != errors.shape or times.ndim != 1:
        raise InvalidInputError("times and errors must be matching 1-d arrays")
    lo, hi = _fit_window(times)
    mask = (times >= lo) & (times <= hi)
    e = errors[mask]
    t = times[mask]
    if e.size < 2:
        raise FitWindowError(f"fit window [{lo:g}, {hi:g}] holds {e.size} samples")
    if not np.all(np.isfinite(e)):
        raise FitWindowError("fit window contains non-finite errors")
    if np.any(e == 0.0):
        raise FitWindowError("fit window contains zero errors")
    if np.any(np.sign(e) != np.sign(e[0])):
        raise FitWindowError("fit window contains sign changes")
    if not 0.0 < float(np.dot(t, t)) < math.inf:  # polyfit scales by this norm
        raise NumericalOverflowError(f"fit window [{lo:g}, {hi:g}] is beyond float range")
    slope, _ = np.polyfit(t, np.log(np.abs(e)), 1)
    return float(slope)


def simulate_tracking(
    law: ControlLaw, cfg: SdeConfig, disturbance: Optional[Callable[[float], float]] = None,
    n_workers: int = 1,
) -> TrackingReport:
    """Integrate the plant under ``law`` and report the mean tracking error.

    ``cfg.x0`` sets the initial velocities (a scalar or a per-particle
    sampler), so the initial mean error is ``E[v(0)] - v_r(0)``; every
    particle receives the same law.  ``disturbance`` is the true
    deterministic disturbance on the plant, and ``cfg.sigma`` the white
    noise.  With ``eta_hat`` matching the disturbance and ``sigma = 0`` the
    error decays as ``e(0) exp(-omega t)`` up to integrator error.

    :func:`openloop_control` checks the horizon's two ends, ``cfg.t0`` and
    ``cfg.t_final``, before any step; every step and recorded time lies
    between them, so the law is then evaluated without the per-call range
    check.  ``cfg.dt`` must be one step size, not a tuple.
    """
    if isinstance(cfg.dt, tuple):
        raise InvalidInputError(f"tracking takes one step size, got dt={cfg.dt!r}")
    openloop_control(law, cfg.t0)
    openloop_control(law, cfg.t_final)

    def plant_drift(v, t):
        b = -law.omega * v + _law_value(law, t)
        if disturbance is not None:
            b = b + disturbance(t)
        return b

    batch = simulate_ensemble(DriftSpec(plant_drift), cfg, n_workers=n_workers)
    times, errors = batch.times, batch.paths  # a fresh array that nothing else holds
    errors -= np.array([law.reference.v_r(t) for t in times])
    mean_err = errors.mean(axis=0)
    errors -= mean_err  # the deviations, squared in place: std's ddof=1 arithmetic, no copy
    std_err = np.sqrt(np.square(errors, out=errors).sum(axis=0) / max(batch.n_particles - 1, 1))
    control = np.array([_law_value(law, t) for t in times])
    try:
        rate = error_dynamics_fit(mean_err, times)
    except FitWindowError:
        rate = None
    return TrackingReport(
        times=times,
        errors=mean_err,
        error_std=std_err,
        control=control,
        fitted_decay_rate=rate,
        terminal_error=float(mean_err[-1]),
        fit_window=_fit_window(times),
    )

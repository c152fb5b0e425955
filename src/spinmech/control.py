"""Open-loop velocity tracking for the first-order stochastic plant.

The plant is ``dv = (-omega v + u + eta) dt + sigma dw``.  Its velocity is a
flat output: choosing ``y = v`` gives the state as ``y`` itself and the
input as ``u = y' + omega y - eta``, so any smooth reference can be tracked
by the precomputed law ``u(t) = omega v_r(t) + v_r'(t) - eta_hat(t)`` with
no feedback.  With a correct disturbance estimate the tracking error obeys
``e' + omega e = 0`` and decays at the plant rate; for an ensemble whose
per-particle disturbances average to zero, the same law with
``eta_hat = 0`` steers the ensemble-mean velocity.

The disturbance enters in two forms matching its two roles: a deterministic
callable (compensable, used for exact-decay checks) and white noise through
the SDE integrator (ensemble statistics).  No estimator is constructed
here; ``eta_hat`` is always caller-supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import FitWindowError, InvalidInputError, NumericalOverflowError, check_number
from .sde import DriftSpec, SdeConfig, simulate_ensemble

#: Relative agreement required between v_r_dot and a central difference of v_r.
DERIVATIVE_CONSISTENCY_TOL = 1e-6
#: Default decay-fit window as fractions of the horizon (skips transients/floor).
FIT_WINDOW = (0.1, 0.9)


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Reference velocity ``v_r(t)`` with its derivative on ``[0, duration]``.

    A missing derivative is replaced by a central difference with step
    ``1e-5 * duration``.  A given derivative is cross-checked against that
    difference on a probe grid at construction, so an inconsistent analytic
    derivative is rejected immediately rather than corrupting a run.
    """

    v_r: Callable[[float], float]
    v_r_dot: Optional[Callable[[float], float]]
    duration: float

    def __post_init__(self):
        h = 1e-5 * check_number("duration", self.duration, positive=True)
        if h == 0.0:  # a subnormal duration
            raise InvalidInputError(f"duration {self.duration!r} has no difference step")
        v = self.v_r
        central = lambda t: (v(t + h) - v(t - h)) / (2 * h)
        if self.v_r_dot is None:
            object.__setattr__(self, "v_r_dot", central)
            return
        for t in np.linspace(2 * h, self.duration - 2 * h, 33).tolist():  # no numpy warnings
            fd = central(t)
            stated = check_number(f"v_r_dot({t:g})", self.v_r_dot(t))
            if not abs(fd - stated) <= DERIVATIVE_CONSISTENCY_TOL * (1.0 + abs(stated)):
                raise InvalidInputError(
                    f"v_r_dot({t:g}) = {stated:g} disagrees with the central "
                    f"difference {fd:g} of v_r"
                )

    @classmethod
    def constant(cls, level: float, duration: float) -> "ReferenceTrajectory":
        return cls(lambda t: level, lambda t: 0.0, duration)

    @classmethod
    def ramp(cls, rate: float, duration: float, start: float = 0.0) -> "ReferenceTrajectory":
        return cls(lambda t: start + rate * t, lambda t: rate, duration)

    @classmethod
    def sine(
        cls, amplitude: float, angular_freq: float, duration: float, offset: float = 0.0
    ) -> "ReferenceTrajectory":
        check_number("angular_freq * duration", angular_freq * duration)  # math.sin(inf) raises
        return cls(
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
            f"t={t:g} outside the reference horizon [0, {law.reference.duration:g}]"
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
    """The default fit window: the ``FIT_WINDOW`` fractions of the run's span."""
    span = times[-1] - times[0]
    return times[0] + FIT_WINDOW[0] * span, times[0] + FIT_WINDOW[1] * span


def error_dynamics_fit(errors, times, window: tuple[float, float] | None = None) -> float:
    """Least-squares slope of ``ln|e(t)|`` over a window of the run.

    ``window`` is a time interval; the default spans the central
    ``[0.1 T, 0.9 T]`` to avoid initial transients and terminal floors.
    Windows containing zeros or sign changes are rejected.
    """
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if times.shape != errors.shape or times.ndim != 1:
        raise InvalidInputError("times and errors must be matching 1-d arrays")
    lo, hi = _fit_window(times) if window is None else window
    mask = (times >= lo) & (times <= hi)
    e = errors[mask]
    t = times[mask]
    if e.size < 2:
        raise FitWindowError(f"fit window [{lo:g}, {hi:g}] holds {e.size} samples")
    if np.any(e == 0.0):
        raise FitWindowError("fit window contains zero errors")
    if np.any(np.sign(e) != np.sign(e[0])):
        raise FitWindowError("fit window contains sign changes")
    if not 0.0 < float(np.dot(t, t)) < math.inf:  # polyfit scales by this norm
        raise NumericalOverflowError(f"fit window [{lo:g}, {hi:g}] is beyond float range")
    slope, _ = np.polyfit(t, np.log(np.abs(e)), 1)
    return float(slope)


def _simulate_tracking(law: ControlLaw, cfg: SdeConfig, disturbance, n_workers: int):
    """Integrate the plant under ``law`` and report the mean tracking error.

    This is the one body of both simulators.  The horizon is checked once,
    at both ends, before any step; every step and recorded time then lies
    in the reference's horizon, so the law is evaluated without
    :func:`openloop_control`'s per-call range check.
    """
    duration = law.reference.duration
    if cfg.t0 < 0.0 or cfg.t_final > duration * (1 + 1e-12):
        raise InvalidInputError(
            f"simulation horizon [{cfg.t0:g}, {cfg.t_final:g}] leaves the reference "
            f"horizon [0, {duration:g}]"
        )

    def plant_drift(v, t):
        b = -law.omega * v + _law_value(law, t)
        if disturbance is not None:
            b = b + disturbance(t)
        return b

    batch = simulate_ensemble(DriftSpec(plant_drift), cfg, n_workers=n_workers)
    times = batch.times
    refs = np.array([law.reference.v_r(t) for t in times])
    per_particle_errors = batch.paths - refs
    mean_err = per_particle_errors.mean(axis=0)
    std_err = (
        per_particle_errors.std(axis=0, ddof=1)
        if batch.n_particles > 1
        else np.zeros_like(mean_err)
    )
    control = np.array([_law_value(law, t) for t in times])
    window = _fit_window(times)
    try:
        rate = error_dynamics_fit(mean_err, times, window)
    except FitWindowError:
        rate = None
    return TrackingReport(
        times=times,
        errors=mean_err,
        error_std=std_err,
        control=control,
        fitted_decay_rate=rate,
        terminal_error=float(mean_err[-1]),
        fit_window=window,
    )


def simulate_controlled_particle(
    law: ControlLaw,
    v0: float,
    cfg: SdeConfig,
    disturbance: Optional[Callable[[float], float]] = None,
) -> TrackingReport:
    """Track one particle (or a noiseless copy) under the open-loop law.

    ``disturbance`` is the true deterministic disturbance acting on the
    plant; stochastic disturbance enters through ``cfg.sigma``.  With
    ``eta_hat`` matching the disturbance and ``sigma = 0`` the error decays
    as ``e(0) exp(-omega t)`` up to integrator error.
    """
    return _simulate_tracking(law, replace(cfg, x0=v0), disturbance, n_workers=1)


def simulate_controlled_ensemble(
    reference: ReferenceTrajectory,
    omega: float,
    cfg: SdeConfig,
    n_workers: int = 1,
) -> TrackingReport:
    """Steer an ensemble's mean velocity along the reference.

    Per-particle disturbances are the zero-mean white noise of ``cfg.sigma``;
    every particle receives the same mean-law input.  ``cfg.x0`` sets the
    initial velocities (scalar or per-particle sampler), so the initial mean
    error is ``E[v(0)] - v_r(0)``.
    """
    return _simulate_tracking(ControlLaw(omega, reference), cfg, None, n_workers)

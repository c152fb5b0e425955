"""Langevin kinematics: drift specs, Euler-Maruyama ensembles, momentum limit.

The scalar SDE integrated here is ``dx = b(x, t) dt + sigma dw`` with the
noise increment discretized as ``sigma * sqrt(dt) * z``, ``z`` standard
normal.  ``_em_update`` is that update, for both :func:`euler_maruyama_step`
and :func:`simulate_ensemble`.  Each particle consumes its own counter-based
stream (see :mod:`spinmech.rng`), so ensembles are bit-reproducible for a
fixed seed no matter how the particles are partitioned across workers.

Drift variants:

* ``DriftSpec.linear(omega)`` -- restoring drift ``-omega * x`` (the
  Ornstein-Uhlenbeck process once noise is added).
* :func:`drift_from_density` -- ``0.5 * sigma**2 * (log rho0)'``, the drift
  that makes a given positive density stationary.
* ``DriftSpec.time_scaled(t_floor)`` -- ``x / max(t, t_floor)``, the
  long-time ballistic drift whose paths have a limiting velocity ``x_t/t``.
* ``DriftSpec.tabulated(xs, bs)`` -- linear interpolation of sampled drift
  values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import InvalidInputError, NumericalOverflowError, check_number, check_overflow
from .rng import particle_stream

#: Paths whose |x| crosses this bound abort with an overflow error.
OVERFLOW_LIMIT = 1e12

#: Target byte budget for one chunk's noise buffer.
_CHUNK_NOISE_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class DriftSpec:
    """A drift function ``b(x, t)``; callables must accept ndarray ``x``.

    ``autonomous`` states that ``fn`` ignores ``t``, so a solver may evaluate
    it once and reuse the result at every step.  ``linear``, ``tabulated``
    and :func:`drift_from_density` set it; a drift that reads ``t``
    (time-scaled, the controlled plants) leaves it False.
    """

    fn: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    autonomous: bool = False

    def __call__(self, x, t):
        return self.fn(x, t)

    @staticmethod
    def linear(omega: float) -> "DriftSpec":
        """Restoring drift ``b(x, t) = -omega * x``."""
        check_number("omega", omega)
        return DriftSpec(lambda x, t: -omega * x, autonomous=True)

    @staticmethod
    def time_scaled(t_floor: float = 1e-3) -> "DriftSpec":
        """Drift ``b(x, t) = x / max(t, t_floor)``, finite for all t >= 0."""
        check_number("t_floor", t_floor, positive=True)
        return DriftSpec(lambda x, t: x / max(t, t_floor))

    @staticmethod
    def tabulated(xs, bs) -> "DriftSpec":
        """Piecewise-linear drift through samples ``(xs, bs)``."""
        xs = np.asarray(xs, dtype=float)
        bs = np.asarray(bs, dtype=float)
        if xs.ndim != 1 or xs.shape != bs.shape or xs.size < 2:
            raise InvalidInputError("tabulated drift needs matching 1-d samples")
        if not (np.all(np.isfinite([xs, bs])) and np.all(xs[1:] > xs[:-1])):
            raise InvalidInputError("tabulated drift needs finite samples on an increasing grid")
        return DriftSpec(lambda x, t: np.interp(x, xs, bs), autonomous=True)


def drift_from_density(
    rho0: Callable[[np.ndarray], np.ndarray], sigma: float
) -> DriftSpec:
    """Drift ``u(x) = 0.5 * sigma**2 * rho0'(x) / rho0(x)`` of a stationary density.

    ``rho0`` must be strictly positive wherever it is evaluated; violations
    raise at evaluation time.  The log-derivative is taken by central
    differences with a step scaled to x.
    """
    check_number("sigma", sigma, positive=True)
    half_s2 = check_overflow("sigma**2 / 2", 0.5 * sigma * sigma)

    def u(x, t):
        x = np.asarray(x, dtype=float)
        h = 1e-6 * (1.0 + np.abs(x))
        lo, hi = rho0(x - h), rho0(x + h)
        if np.any(np.asarray(lo) <= 0.0) or np.any(np.asarray(hi) <= 0.0):
            raise InvalidInputError("density must be strictly positive on the domain")
        return half_s2 * (np.log(hi) - np.log(lo)) / (2.0 * h)

    return DriftSpec(u, autonomous=True)


@dataclass(frozen=True)
class SdeConfig:
    """Numerical parameters of one ensemble integration.

    ``x0`` is either a scalar start position or a callable
    ``sampler(generator) -> float`` drawn once per particle from that
    particle's own stream (before any step noise), which keeps sampled
    initial conditions inside the reproducibility contract.  The generator
    is valid only during that call: the integrator re-keys the same object
    for the next particle, so a sampler must not keep it.  Each particle
    then draws its ``n_steps`` increments, which land in a step-major
    ``(n_steps, particles)`` buffer; with ``sigma == 0`` none are drawn, and
    with a scalar ``x0`` as well no stream is set up at all.
    ``record_every`` thins the stored samples; it must divide ``n_steps``.
    """

    dt: float
    n_steps: int
    sigma: float
    n_particles: int
    seed: int
    x0: Union[float, Callable[[np.random.Generator], float]] = 0.0
    t0: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        check_number("dt", self.dt, positive=True)
        check_number("n_steps", self.n_steps, 1)
        check_number("sigma", self.sigma, 0.0)
        check_number("n_particles", self.n_particles, 1)
        check_number("t_final = t0 + n_steps * dt", self.t_final)  # t0 finite too
        if not callable(self.x0):
            check_number("x0", self.x0)
        if self.record_every < 1 or self.n_steps % self.record_every != 0:
            raise InvalidInputError(
                f"record_every must be >= 1 and divide n_steps, got "
                f"{self.record_every} for {self.n_steps} steps"
            )

    @property
    def t_final(self) -> float:
        return self.t0 + self.n_steps * self.dt

    def recorded_times(self) -> np.ndarray:
        ks = np.arange(0, self.n_steps + 1, self.record_every)
        return self.t0 + ks * self.dt


@dataclass(frozen=True)
class TrajectoryBatch:
    """Recorded positions of an ensemble, one row per particle."""

    times: np.ndarray
    paths: np.ndarray

    def __post_init__(self):
        if self.paths.ndim != 2 or self.paths.shape[1] != self.times.size:
            raise InvalidInputError(
                f"paths shape {self.paths.shape} inconsistent with "
                f"{self.times.size} recorded times"
            )
        if not np.all(np.diff(self.times) > 0):
            raise InvalidInputError("recorded times must be strictly increasing")

    @property
    def n_particles(self) -> int:
        return self.paths.shape[0]

    def means(self) -> np.ndarray:
        return self.paths.mean(axis=0)

    def variances(self) -> np.ndarray:
        """Unbiased (``ddof=1``) variance across particles at each time."""
        return self.paths.var(axis=0, ddof=1)


def _em_update(x, drift, t, dt, dw):
    """The Euler-Maruyama update ``x + b(x, t) dt + dw``."""
    return x + drift(x, t) * dt + dw


def euler_maruyama_step(x, drift: DriftSpec, t: float, dt: float, dw):
    """One explicit step ``x + b(x, t) dt + dw``; deterministic in its inputs."""
    check_number("dt", dt, positive=True)
    x = np.asarray(x, dtype=float)
    dw = np.asarray(dw, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # check_overflow raises instead
        out = check_overflow("Euler-Maruyama step", _em_update(x, drift, t, dt, dw))
    return float(out) if out.ndim == 0 else out


def _run_range(drift, cfg, lo, hi, paths):
    """Simulate particles [lo, hi): set up their streams, then step.

    One generator, re-keyed for each particle, draws its initial condition
    and then its scaled increments into column ``i`` of a step-major buffer.
    """
    m = hi - lo
    sampled = callable(cfg.x0)
    x = np.empty(m) if sampled else np.full(m, cfg.x0, dtype=float)
    sdt = cfg.sigma * math.sqrt(cfg.dt)
    noise = np.zeros((cfg.n_steps, m))
    if sampled or sdt != 0.0:
        gen = None
        for i in range(m):
            gen = particle_stream(cfg.seed, lo + i, gen)
            if sampled:
                x[i] = cfg.x0(gen)
            if sdt != 0.0:
                noise[:, i] = sdt * gen.standard_normal(cfg.n_steps)
    paths[lo:hi, 0] = x
    for k in range(cfg.n_steps):
        x = _em_update(x, drift, cfg.t0 + k * cfg.dt, cfg.dt, noise[k])
        if not np.abs(x).max() <= OVERFLOW_LIMIT:  # a NaN max fails too
            idx = int(np.argmax(~(np.abs(x) <= OVERFLOW_LIMIT)))
            raise NumericalOverflowError(
                f"particle {lo + idx} overflowed at step {k + 1} "
                f"(x={x[idx]!r}, |x| bound {OVERFLOW_LIMIT:g})"
            )
        if (k + 1) % cfg.record_every == 0:
            paths[lo:hi, (k + 1) // cfg.record_every] = x


def simulate_ensemble(
    drift: DriftSpec, cfg: SdeConfig, n_workers: int = 1
) -> TrajectoryBatch:
    """Integrate ``cfg.n_particles`` independent paths of ``dx = b dt + sigma dw``.

    Results are identical for any ``n_workers`` because every particle's
    noise comes from its own ``(seed, particle)`` stream and the update is
    elementwise.  Chunks run on a thread pool only with ``n_workers > 1``
    and more than one chunk; otherwise they run on the calling thread, so a
    serial run starts no pool and a per-thread profiler sees all its work.
    """
    times = cfg.recorded_times()
    paths = np.empty((cfg.n_particles, times.size))
    chunk = int(_CHUNK_NOISE_BYTES // (8 * cfg.n_steps))
    chunk = max(256, min(chunk, 16384, cfg.n_particles))
    ranges = [
        (lo, min(lo + chunk, cfg.n_particles))
        for lo in range(0, cfg.n_particles, chunk)
    ]
    if n_workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda r: _run_range(drift, cfg, *r, paths), ranges))
    else:
        for lo, hi in ranges:
            _run_range(drift, cfg, lo, hi, paths)
    return TrajectoryBatch(times=times, paths=paths)


@dataclass(frozen=True)
class MomentumEstimate:
    """Tail-window estimate of ``x_t / t``: scalars for one path, arrays for rows."""

    p_hat: float | np.ndarray
    converged: bool | np.ndarray
    window_variance: float | np.ndarray


def momentum_estimate(
    times,
    positions,
    tail_fraction: float = 0.25,
    variance_threshold: float = 1e-3,
) -> MomentumEstimate:
    """Mean of ``x_t / t`` over the trailing ``tail_fraction`` of each path.

    ``positions`` is one path recorded at ``times`` or an ensemble of them,
    one path per row; the window runs along the last axis.  An estimate is
    flagged converged when the variance of ``x_t / t`` across its window is
    at most ``variance_threshold``.  A row of an ensemble gets exactly the
    estimate that the row alone would get.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float, order="C")  # rows sum as 1-d paths do
    if times.ndim != 1 or positions.ndim not in (1, 2) or positions.shape[-1] != times.size:
        raise InvalidInputError("positions must be one path or rows of paths over 1-d times")
    if not 0.0 < tail_fraction <= 1.0:
        raise InvalidInputError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    n_tail = int(math.ceil(times.size * tail_fraction))
    if n_tail < 10:
        raise InvalidInputError(
            f"tail window has {n_tail} samples; need at least 10"
        )
    tw = times[-n_tail:]
    if tw[0] <= 0.0:
        raise InvalidInputError("tail window must contain strictly positive times")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        ratio = positions[..., -n_tail:] / tw
        wvar = ratio.var(axis=-1)
    if not np.all(np.isfinite(wvar)):  # a finite variance implies a finite mean
        raise NumericalOverflowError("x_t / t overflows in the tail window")
    p_hat, converged = ratio.mean(axis=-1), wvar <= variance_threshold
    if positions.ndim == 1:
        return MomentumEstimate(float(p_hat), bool(converged), float(wvar))
    return MomentumEstimate(p_hat, converged, wvar)


def ou_analytic_moments(x0: float, omega: float, sigma: float, t):
    """Closed-form mean and variance of the restoring-drift diffusion.

    ``mean = x0 * exp(-omega t)``,
    ``variance = sigma^2 (1 - exp(-2 omega t)) / (2 omega)``.
    """
    check_number("x0", x0)
    check_number("omega", omega, positive=True)
    check_number("sigma", sigma, 0.0)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # check_overflow raises instead
        mean = x0 * np.exp(-omega * t)
        var = sigma * sigma * (1.0 - np.exp(-2.0 * omega * t)) / (2.0 * omega)
    check_overflow("closed-form moments", (mean, var))
    if t.ndim == 0:
        return float(mean), float(var)
    return mean, var

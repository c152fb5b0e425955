"""Langevin kinematics: drift specs, Euler-Maruyama ensembles, momentum limit.

The scalar SDE integrated here is ``dx = b(x, t) dt + sigma dw`` with the
noise increment discretized as ``sigma * sqrt(dt) * z``, ``z`` standard
normal.  ``_em_update`` is that update, for both :func:`euler_maruyama_step`
and :func:`simulate_ensemble`.  Each particle consumes its own counter-based
stream (see :mod:`spinmech.rng`), so ensembles are bit-reproducible for a
fixed seed no matter how the particles are partitioned across workers, and a
tuple ``dt`` steps the same particles with each of its step sizes from one draw.

Drift variants:

* ``DriftSpec.linear(omega)`` -- restoring drift ``-omega * x`` (the
  Ornstein-Uhlenbeck process once noise is added).
* :func:`drift_from_density` -- ``0.5 * sigma**2 * (log rho0)'``, the drift
  that makes a given positive density stationary.
* ``DriftSpec.time_scaled(t_floor)`` -- ``x / np.maximum(t, t_floor)``, the
  long-time ballistic drift whose paths have a limiting velocity ``x_t/t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalOverflowError,
    check_finite,
    check_int,
    check_number,
    check_overflow,
)
from .rng import particle_stream

#: Paths whose |x| crosses this bound abort with an overflow error.
OVERFLOW_LIMIT = 1e12

#: Bound on the bytes of a run's noise block; it sets the depth of the step blocks.
_CHUNK_NOISE_BYTES = 24 * 1024 * 1024

#: The most streams in one chunk; the chunks of an ensemble have equal widths.
_CHUNK_STREAMS = 2048

#: Recorded times that ``SdeConfig`` compares at once, and the most it compares at all.
_TIME_BLOCK, _TIME_SCAN = 4096, 2**20

#: Streams drawn into contiguous rows before one transpose.  Drawing each stream into a
#: stream-major block kept every byte but took 1.69 s on 1 worker and 1.68 s on 2, against
#: 1.61 s: medians of 10 in-process runs of 20 000 streams x 3000 steps on 2 shared vCPUs.
_TILE = 16


@dataclass(frozen=True)
class DriftSpec:
    """A drift function ``b(x, t)``; callables must accept ndarray ``x``.

    ``autonomous`` states that ``fn`` ignores ``t``, so a solver may evaluate
    it once and reuse the result at every step.  ``linear`` and
    :func:`drift_from_density` set it; a drift that reads ``t``
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
        """Drift ``b(x, t) = x / np.maximum(t, t_floor)``, finite for all t >= 0."""
        check_number("t_floor", t_floor, positive=True)
        return DriftSpec(lambda x, t: x / np.maximum(t, t_floor))


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

    ``dt`` is a step size or a tuple of ``G`` that divides ``n_particles``:
    row ``g * n + i`` (``n = n_particles // G``) is path ``i`` of a
    one-step-size run, stepped with ``dt[g]``.  ``x0`` is a scalar or a
    ``sampler(generator) -> float`` drawn once per particle from that
    particle's own stream before any step noise, so sampled initial
    conditions stay reproducible; the generator is valid only during that
    call.  Each particle then draws ``n_steps`` normals, none with
    ``sigma == 0``; with a scalar ``x0`` as well no stream is set up at all.
    ``record_every`` thins the stored samples; it must divide ``n_steps``.
    ``record_from`` is the first recorded step, a multiple of ``record_every``
    up to ``n_steps``: every step is still integrated, but only steps
    ``record_from, record_from + record_every, .., n_steps`` are stored, and
    ``x0`` (step 0) only when it is 0.  Recorded times that round to one value
    are refused.
    """

    dt: Union[float, tuple[float, ...]]
    n_steps: int
    sigma: float
    n_particles: int
    seed: int
    x0: Union[float, Callable[[np.random.Generator], float]] = 0.0
    t0: float = 0.0
    record_every: int = 1
    record_from: int = 0

    def __post_init__(self):
        for dt in self.step_sizes:
            check_number("dt", dt, positive=True)
        check_int("n_steps", self.n_steps, 1)
        check_number("sigma", self.sigma, 0.0)
        check_int("n_particles", self.n_particles, 1)
        if not self.step_sizes or self.n_particles % len(self.step_sizes):
            raise InvalidInputError(f"dt must hold a number of step sizes that divides "
                                    f"n_particles={self.n_particles}, got {self.dt!r}")
        check_int("seed", self.seed)
        check_number("t_final = t0 + n_steps * dt", self.t_final)  # t0 finite too
        if not callable(self.x0):
            check_number("x0", self.x0)
        if self.n_steps % check_int("record_every", self.record_every, 1) != 0:
            raise InvalidInputError(
                f"record_every must divide n_steps, got "
                f"{self.record_every} for {self.n_steps} steps"
            )
        if check_int("record_from", self.record_from, 0) % self.record_every != 0 \
                or self.record_from > self.n_steps:
            raise InvalidInputError(
                f"record_from must be a multiple of record_every={self.record_every} "
                f"up to n_steps={self.n_steps}, got {self.record_from}"
            )
        if not self._times_distinct():
            raise InvalidInputError("recorded times must be strictly increasing")

    def _times_distinct(self) -> bool:
        """False if two recorded times round to one value.

        A time ``t0 + k * dt`` is rounded twice, so with ``k`` exact (below
        ``2**53``) it is off by at most one ulp of the largest |time|, and times
        more than two such ulps apart differ.  Closer ones are compared as
        ``recorded_times`` computes them, ``_TIME_BLOCK`` at a time; past
        ``_TIME_SCAN`` of them per step size, the batch's own check decides.
        """
        top = abs(self.t0) + self.n_steps * max(self.step_sizes)  # rounds as the times do
        gap = self.record_every * min(self.step_sizes)
        if self.n_steps <= 2**53 and gap > 2 * math.ulp(top) \
                or (self.n_steps - self.record_from) // self.record_every > _TIME_SCAN:
            return True
        dt, span = np.asarray(self.dt, dtype=float)[..., None], self.record_every * _TIME_BLOCK
        return all(np.all(np.diff(self.t0 + np.arange(a, min(a + span, self.n_steps) + 1,
                                                          self.record_every) * dt) > 0)
                   for a in range(self.record_from, self.n_steps, span))

    @property
    def step_sizes(self) -> tuple:
        """``dt`` as a tuple: the step size of each of the ``G`` groups."""
        return self.dt if isinstance(self.dt, tuple) else (self.dt,)

    @property
    def t_final(self) -> float:
        """The end of the run; of its longest step size for a tuple ``dt``."""
        return self.t0 + self.n_steps * max(self.step_sizes)

    def recorded_times(self) -> np.ndarray:
        """The recorded times; ``(G, n_rec)``, one row per step size, for a tuple ``dt``."""
        ks = np.arange(self.record_from, self.n_steps + 1, self.record_every)
        return self.t0 + ks * np.asarray(self.dt, dtype=float)[..., None]


@dataclass(frozen=True)
class TrajectoryBatch:
    """Recorded positions, one row per particle; ``(G, n_rec)`` times for ``G`` step sizes."""

    times: np.ndarray
    paths: np.ndarray

    def __post_init__(self):
        if self.paths.ndim != 2 or self.paths.shape[1:] != self.times.shape[-1:]:
            raise InvalidInputError(f"paths {self.paths.shape} don't fit times {self.times.shape}")
        if not np.all(np.diff(self.times) > 0):
            raise InvalidInputError("recorded times must be strictly increasing")

    @property
    def n_particles(self) -> int:
        return self.paths.shape[0]

    def means(self) -> np.ndarray:
        return self.paths.mean(axis=0)

    def variances(self) -> np.ndarray:
        """Unbiased (``ddof=1``) variance across particles at each time."""
        if self.n_particles < 2:
            raise InvalidInputError(f"variances need at least 2 particles, got {self.n_particles}")
        return self.paths.var(axis=0, ddof=1)


def _em_update(x, drift, t, dt, dw, out=None):
    """The Euler-Maruyama update ``x + b(x, t) dt + dw``, written into ``out`` if given.

    It adds ``x`` to ``b dt`` and then ``dw``; IEEE addition commutes, so the
    bits and signs of zero are those of ``x + b dt + dw``.
    """
    nxt = np.multiply(drift(x, t), dt, out=out)
    nxt = np.add(nxt, x, out=out)
    return np.add(nxt, dw, out=out)


def euler_maruyama_step(x, drift: DriftSpec, t: float, dt: float, dw):
    """One explicit step ``x + b(x, t) dt + dw``; |x| beyond ``OVERFLOW_LIMIT`` is refused."""
    check_number("dt", dt, positive=True)
    check_number("t", t)
    x = check_finite("x", np.asarray(x, dtype=float))
    dw = check_finite("dw", np.asarray(dw, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # the bound check raises instead
        out = _em_update(x, drift, t, dt, dw)
        if not np.all(np.abs(out) <= OVERFLOW_LIMIT):  # a NaN fails too
            raise NumericalOverflowError(
                f"Euler-Maruyama step overflowed (|x| bound {OVERFLOW_LIMIT:g})")
    return float(out) if out.ndim == 0 else out


def _draw(cfg, lo, a, b, gens, x, raw, tile):
    """Fill columns ``[a, b)`` of the step-major block ``raw`` from streams ``lo + a .. lo + b``.

    Given ``x`` (a chunk's first block), ``gens[i]`` is first re-keyed to stream ``lo + i``
    and draws its ``x0`` into ``x[:, i]``; normals go through ``tile``, ``_TILE`` at a time.
    """
    for i in range(a, b if x is not None else a):
        gens[i] = particle_stream(cfg.seed, lo + i, gens[i])
        if callable(cfg.x0):
            x[:, i] = cfg.x0(gens[i])
    nb = len(raw)
    for c in range(a, b if nb else a, _TILE):
        tiled = tile[:min(_TILE, b - c), :nb]
        for row, gen in zip(tiled, gens[c:c + len(tiled)]):
            gen.standard_normal(nb, out=row)
        raw[:, c:c + len(tiled)] = tiled.T


def _run_range(drift, cfg, lo, hi, paths, depth, fill):
    """Step streams [lo, hi) of every step-size group in place, ``depth`` steps per noise block.

    ``fill(lo, hi, x, nb)`` returns the block's ``nb`` step-major rows of normals (none if
    no noise is drawn); given ``x`` on the first block, it keys the streams and samples ``x0``
    into ``x``.  Each step's row is scaled by each group's ``sigma * sqrt(dt)``.  Step
    ``cfg.record_from + j * cfg.record_every`` is stored in column ``j``.
    """
    G, m = len(cfg.step_sizes), hi - lo
    dt = cfg.step_sizes[0] if G == 1 else np.array(cfg.step_sizes, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # an infinite scale fails the first step's bound check
        sdt = cfg.sigma * np.sqrt(dt)
    draw, sampled = bool(np.any(sdt != 0.0)), callable(cfg.x0)
    quiet = np.flatnonzero(sdt == 0.0).tolist()  # the groups whose noise scale is zero
    x = np.empty((G, m)) if sampled else np.full((G, m), cfg.x0, dtype=float)
    nxt, dw, scratch = np.empty((G, m)), np.empty((G, m)), np.empty((G, m))
    rows = paths.reshape(G, -1, paths.shape[1])[:, lo:hi]  # group g's rows of streams lo..hi
    with np.errstate(over="ignore", invalid="ignore"):  # the bound check raises instead
        for k0 in range(0, cfg.n_steps, depth):
            nb = min(depth, cfg.n_steps - k0)
            if draw or (sampled and k0 == 0):
                raw = fill(lo, hi, x if k0 == 0 else None, nb if draw else 0)
            if k0 == 0 and cfg.record_from == 0:
                rows[:, :, 0] = x
            for k in range(k0, k0 + nb):
                step_dw = 0.0
                if draw:
                    step_dw = np.multiply(sdt, raw[k - k0], out=dw)
                    for g in quiet:
                        dw[g] = 0.0  # a zero scale adds +0.0, as an undrawn step does
                _em_update(x, drift, cfg.t0 + k * dt, dt, step_dw, out=nxt)
                x, nxt = nxt, x
                if not np.abs(x, out=scratch).max() <= OVERFLOW_LIMIT:  # a NaN max fails too
                    g, i = divmod(int(np.argmax(~(scratch <= OVERFLOW_LIMIT))), m)
                    raise NumericalOverflowError(
                        f"particle {g * (paths.shape[0] // G) + lo + i} overflowed at step "
                        f"{k + 1} (x={x[g, i]!r}, |x| bound {OVERFLOW_LIMIT:g})")
                if (k + 1) % cfg.record_every == 0 and k + 1 >= cfg.record_from:
                    rows[:, :, (k + 1 - cfg.record_from) // cfg.record_every] = x


def simulate_ensemble(
    drift: DriftSpec, cfg: SdeConfig, n_workers: int = 1
) -> TrajectoryBatch:
    """Integrate ``cfg.n_particles`` independent paths of ``dx = b dt + sigma dw``.

    Results are identical for any ``n_workers`` because every particle's
    noise comes from its own ``(seed, particle)`` stream and the update is
    elementwise.  The ``n`` streams of each step size run, with every step
    size, in ``ceil(n / _CHUNK_STREAMS)`` chunks of equal width, in order on
    the calling thread, which steps them.  A run holds one generator pool,
    re-keyed chunk by chunk, and one noise block of ``width`` streams by
    ``min(n_steps, _CHUNK_NOISE_BYTES // (8 G width))`` steps, however many
    workers.  With ``n_workers > 1`` and more than one chunk, a thread pool of
    at most one thread per chunk only splits each block's draw: a worker
    draws a share of the streams on its own tile.  Otherwise nothing imports
    or starts a pool, and a per-thread profiler sees all the work.
    """
    check_int("n_workers", n_workers, 1)
    times = cfg.recorded_times()
    paths = np.empty((cfg.n_particles, times.shape[-1]))
    G = len(cfg.step_sizes)
    n = cfg.n_particles // G
    width = -(-n // -(-n // _CHUNK_STREAMS))
    depth = min(cfg.n_steps, max(1, _CHUNK_NOISE_BYTES // (8 * G * width)))
    ranges = [(lo, min(lo + width, n)) for lo in range(0, n, width)]
    workers = min(n_workers, len(ranges))

    def run(fan):  # ``fan`` maps a block's draw over the workers' shares of its streams
        gens, noise = [None] * width, np.empty((depth, width))  # freed before the batch is built
        tiles = [np.empty((min(_TILE, width), depth)) for _ in range(workers)]
        def fill(lo, hi, x, nb):
            m = hi - lo
            cuts = [w * m // workers for w in range(workers + 1)]
            list(fan(lambda a, b, tile: _draw(cfg, lo, a, b, gens, x, noise[:nb], tile),
                     cuts, cuts[1:], tiles))
            return noise[:nb, :m]
        for lo, hi in ranges:
            _run_range(drift, cfg, lo, hi, paths, depth, fill)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            run(pool.map)
    else:
        run(map)
    return TrajectoryBatch(times=times, paths=paths)


@dataclass(frozen=True)
class MomentumEstimate:
    """Tail-window estimate of ``x_t / t``: scalars for one path, arrays for rows."""

    p_hat: float | np.ndarray
    converged: bool | np.ndarray
    window_variance: float | np.ndarray


def tail_samples(n_times: int, tail_fraction: float) -> int:
    """The samples in the trailing ``tail_fraction`` of ``n_times``; at least 10."""
    if not 0.0 < tail_fraction <= 1.0:
        raise InvalidInputError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    n_tail = int(math.ceil(n_times * tail_fraction))
    if n_tail < 10:
        raise InvalidInputError(f"tail window has {n_tail} samples; need at least 10")
    return n_tail


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
    check_number("variance_threshold", variance_threshold, 0.0)
    times = check_finite("times", np.asarray(times, dtype=float))
    positions = np.asarray(positions, dtype=float, order="C")  # rows sum as 1-d paths do
    if times.ndim != 1 or positions.ndim not in (1, 2) or positions.shape[-1] != times.size:
        raise InvalidInputError("positions must be one path or rows of paths over 1-d times")
    n_tail = tail_samples(times.size, tail_fraction)
    tw = times[-n_tail:]
    if tw[0] <= 0.0:
        raise InvalidInputError("tail window must contain strictly positive times")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        ratio = positions[..., -n_tail:] / tw
        wvar = ratio.var(axis=-1)
    if not np.all(np.isfinite(wvar)):  # a finite variance implies a finite mean
        check_finite("positions in the tail window", positions[..., -n_tail:])
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
    t = check_finite("t", np.asarray(t, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # check_overflow raises instead
        mean = x0 * np.exp(-omega * t)
        var = sigma * sigma * (1.0 - np.exp(-2.0 * omega * t)) / (2.0 * omega)
    check_overflow("closed-form moments", (mean, var))
    if t.ndim == 0:
        return float(mean), float(var)
    return mean, var

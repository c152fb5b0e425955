"""Finite-volume solver for the 1-D drift-diffusion density equation.

Evolves ``d rho/dt = 0.5 sigma^2 d^2 rho/dx^2 - d(u rho)/dx`` on a uniform
grid in conservative flux form with zero-flux (reflecting) boundaries, so
total mass is conserved to rounding at every step.

The face flux is exponentially fitted (the drift weight interpolates
between central and upwind according to the face Peclet number
``w = u dx / D``).  This keeps the update positivity-preserving like plain
upwinding, but it also makes the discrete stationary state satisfy
``rho_{i+1}/rho_i = exp(w)`` exactly, so densities that are stationary for
the continuous equation stay put on the grid instead of leaking mass into
numerical diffusion.

Time stepping is explicit with checked stability bounds; grids here are
small enough that implicit solvers would buy nothing but opacity.

A drift marked ``DriftSpec.autonomous`` (linear, from-density) does not
read ``t``, so :func:`fp_solve` checks stability and builds the face flux
at its first step, the largest, and keeps it; any other drift is checked
and weighted at every step's ``t``.  Its loop is the one density step (the
update, the negative-density guard and clip, the boundary-mass warning) and
validates a :class:`DensityField` only at snapshots; :func:`fp_step` is the
one-step solve.  One time rule: times closer than ``TIME_SLACK * t_final``
are equal.  One step rule: :func:`_step_bounds` gives every bound, and
:func:`stable_dt` refuses a face drift that is not finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalOverflowError,
    check_finite,
    check_int,
    check_number,
    check_steps,
)
from .sde import DriftSpec, TrajectoryBatch

#: Mass in the two edge cells above this fraction triggers a runtime warning.
BOUNDARY_MASS_WARN = 1e-6
#: Normalization tolerance of a valid density field.
MASS_TOL = 1e-9
#: Most negative value tolerated (and clipped) in a computed density.
NEGATIVE_FLOOR = -1e-12
#: Fraction of the largest stable step that :func:`stable_dt` returns.
STABLE_DT_SAFETY = 0.8
#: Times closer than this fraction of ``t_final`` are equal in :func:`fp_solve`.
TIME_SLACK = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on ``[x_min, x_max]``."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        check_number("x_min", self.x_min)
        check_number("x_max - x_min", self.x_max - self.x_min, positive=True)
        check_int("n_cells", self.n_cells, 16)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


@dataclass(frozen=True)
class DensityField:
    """Non-negative, unit-mass density values on a grid (per unit length)."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise InvalidInputError(
                f"values shape {v.shape} does not match {self.grid.n_cells} cells"
            )
        if not np.all(v >= 0.0):  # a NaN fails too
            raise InvalidInputError("density values must be non-negative")
        with np.errstate(over="ignore"):  # an overflowed mass fails below
            mass = float(v.sum() * self.grid.dx)
        if not abs(mass - 1.0) <= MASS_TOL:
            raise InvalidInputError(
                f"density mass is {mass!r}; must equal 1 within {MASS_TOL}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid1D, fn) -> "DensityField":
        """Evaluate ``fn`` at cell centers and normalize to unit mass."""
        raw = np.asarray(fn(grid.centers), dtype=float)
        if np.any(raw < 0.0) or not np.all(np.isfinite(raw)):
            raise InvalidInputError("density function must give finite values >= 0")
        total = raw.sum() * grid.dx
        if total <= 0.0:
            raise InvalidInputError("density function integrates to zero")
        with np.errstate(over="ignore"):  # on a grid so narrow, the mass check fails
            return cls(grid, raw / total)

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx)

    def mean(self) -> float:
        return float((self.grid.centers * self.values).sum() * self.grid.dx)

    def variance(self) -> float:
        mu = self.mean()
        return float(((self.grid.centers - mu) ** 2 * self.values).sum() * self.grid.dx)


def _drift_weight(w: np.ndarray) -> np.ndarray:
    """Downwind cell weight: 1/w - 1/(e^w - 1); 1/2 at w=0, upwind limits at +-inf."""
    # expm1 overflowing to inf or rounding to -1 gives those limits; a series covers w ~ 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # both sides are built
        return np.where(np.abs(w) < 1e-8, 0.5 - w / 12.0, 1.0 / w - 1.0 / np.expm1(w))


def _face_flux(u_face, sigma, dx):
    """Interior-face flux ``rho -> u*(weighted rho) - D*d rho/dx`` of one drift field.

    The parts that depend only on the drift (the upwind side for
    ``D == 0``, else ``D`` and the fitted weight ``delta``) are computed
    here once; the returned function evaluates
    ``u*((1-delta)*L + delta*R) - D*(R-L)/dx`` in that order, so applying it
    at every step gives the same bits as rebuilding it at every step.
    """
    d = 0.5 * sigma * sigma
    if d == 0.0:  # sigma == 0, or so small that sigma**2 underflows
        from_left = u_face >= 0.0
        return lambda rho: u_face * np.where(from_left, rho[:-1], rho[1:])
    delta = _drift_weight(u_face * dx / d)
    keep = 1.0 - delta

    def flux(rho):
        left = rho[:-1]
        right = rho[1:]
        return u_face * (keep * left + delta * right) - d * (right - left) / dx

    return flux


def _checked_flux(u_face, sigma: float, dx: float, dt: float):
    """The face flux of ``u_face``; a configuration error names each bound ``dt`` violates."""
    u_face = np.asarray(u_face, dtype=float)
    diffusive, advective, _ = _step_bounds(u_face, sigma, dx)
    problems = []
    if dt > diffusive:
        problems.append(f"diffusive stability bound violated: dt={dt:g} > "
                        f"dx^2/(2 sigma^2)={diffusive:g}")
    if dt > advective:
        problems.append(f"advective CFL bound violated: dt={dt:g} > dx/max|u|={advective:g}")
    if problems:
        raise InvalidInputError(*problems)
    return _face_flux(u_face, sigma, dx)


def _step_bounds(u_face: np.ndarray, sigma: float, dx: float):
    """The diffusive, advective and positivity step bounds (inf where absent)."""
    umax = float(np.max(np.abs(u_face)))
    twice_d = 2.0 * sigma * sigma
    diffusive = dx * dx / twice_d if twice_d > 0.0 else math.inf
    advective = dx / umax if umax > 0.0 else math.inf
    dx2 = dx * dx  # if it underflows, the diffusive term is inf unless sigma == 0
    denom = (sigma * sigma / dx2 if dx2 > 0.0 else math.inf if sigma else 0.0) + 2.0 * umax / dx
    positivity = 1.0 / denom if denom > 0.0 else math.inf  # <= advective / 2
    return diffusive, advective, positivity


def stable_dt(drift: DriftSpec, sigma: float, grid: Grid1D) -> float:
    """A step within both stated bounds and the positivity bound for the drift at t=0."""
    check_number("sigma", sigma, 0.0)
    u_face = np.asarray(drift(grid.faces[1:-1], 0.0), dtype=float)
    if not np.all(np.isfinite(u_face)):
        raise InvalidInputError("drift is not finite on the grid faces at t=0")
    if sigma == 0.0 and not np.any(u_face):
        raise InvalidInputError("no dynamics: sigma and drift are both zero")
    diffusive, _, positivity = _step_bounds(u_face, sigma, grid.dx)
    dt = STABLE_DT_SAFETY * min(diffusive, positivity)
    if not 0.0 < dt < math.inf:  # inf where both bounds underflow
        raise InvalidInputError(f"no stable step is representable for dx={grid.dx:g}")
    return dt


def fp_step(
    rho: DensityField, drift: DriftSpec, sigma: float, t: float, dt: float
) -> DensityField:
    """One explicit conservative step from ``t``: the one-step :func:`fp_solve`
    of the drift shifted by ``t``, so mass is conserved to rounding."""
    check_number("sigma", sigma, 0.0)
    check_number("t", t)
    check_number("dt", dt, positive=True)
    _, snaps = fp_solve(rho, DriftSpec(lambda x, s: drift(x, t + s)), sigma, dt, dt)
    return snaps[-1]


def fp_solve(
    rho0: DensityField,
    drift: DriftSpec,
    sigma: float,
    t_final: float,
    dt: float,
    output_times=None,
) -> tuple[np.ndarray, list[DensityField]]:
    """March the density to ``t_final``, snapshotting at the requested times.

    Times closer than ``TIME_SLACK * t_final`` are equal: the clock steps
    until it reaches ``t_final``, and a snapshot is taken at the first step
    boundary that reaches its time or ``t_final``; the returned times are
    the actual ones.  ``t_final = 0`` returns the initial field unchanged.
    A step moves ``dt / dx * flux`` across each interior face, refuses a
    value below ``NEGATIVE_FLOOR`` and clips the rounding-level negatives
    above it.  It warns of boundary mass at most once.  For an autonomous
    drift the stability check and face flux are built once, for the largest step.
    """
    check_number("t_final", t_final, 0.0)
    check_number("dt", dt, positive=True)
    check_number("sigma", sigma, 0.0)
    check_steps(t_final, dt)
    slack = TIME_SLACK * t_final
    if output_times is None:
        output_times = [t_final]
    wanted = sorted(float(t) for t in output_times)
    if not all(0.0 <= t <= t_final + slack for t in wanted):  # a NaN fails too
        raise InvalidInputError("output times must lie in [0, t_final]")

    grid = rho0.grid
    faces = grid.faces[1:-1]
    times: list[float] = []
    snaps: list[DensityField] = []
    t, next_out, values, warned = 0.0, 0, rho0.values.copy(), False  # updated in place
    while True:
        while next_out < len(wanted) and min(wanted[next_out], t_final) - slack <= t:
            times.append(t)
            snaps.append(DensityField(grid, values) if t else rho0)
            next_out += 1
        if not t < t_final - slack:
            break
        step = min(dt, t_final - t)
        if t == 0.0 or not drift.autonomous:  # the first step is the largest
            flux = _checked_flux(drift(faces, t), sigma, grid.dx, step)
        boundary = 0.0 if warned else (values[0] + values[-1]) * grid.dx
        if boundary > BOUNDARY_MASS_WARN:  # named at the caller's line
            warnings.warn(f"boundary mass {boundary:.3g} exceeds {BOUNDARY_MASS_WARN:g}; the "
                          "domain is too narrow for reflecting boundaries to be neutral",
                          RuntimeWarning, stacklevel=2)
            warned = True
        moved = step / grid.dx * flux(values)
        values[:-1] -= moved
        values[1:] += moved
        low = float(values.min())
        if not low >= NEGATIVE_FLOOR:  # a NaN fails too
            raise NumericalOverflowError(
                f"density went negative or NaN ({low:g}); step is unstable for this drift"
            )
        if low < 0.0:
            values[values < 0.0] = 0.0
        t = min(t + step, t_final)
    return np.asarray(times), snaps


def histogram_density(
    batch: TrajectoryBatch, step_index: int, grid: Grid1D
) -> tuple[DensityField, float]:
    """Empirical density of an ensemble snapshot, plus out-of-range fraction."""
    if batch.n_particles == 0:
        raise InvalidInputError("empty trajectory batch")
    n_times = batch.paths.shape[1]
    if not check_int("step_index", step_index, -n_times) < n_times:
        raise InvalidInputError(f"step_index must be < {n_times}, got {step_index}")
    xs = check_finite("positions", batch.paths[:, step_index])
    counts, _ = np.histogram(xs, bins=grid.faces)
    inside = int(counts.sum())
    if inside == 0:
        raise InvalidInputError("all positions fall outside the histogram grid")
    out_fraction = 1.0 - inside / xs.size
    values = counts / (inside * grid.dx)
    return DensityField(grid, values), out_fraction


def l1_distance(a: DensityField, b: DensityField) -> float:
    """Integrated absolute difference of two fields on one grid; 2 for disjoint unit masses."""
    if a.grid != b.grid:
        raise InvalidInputError("density fields live on different grids")
    return float(np.abs(a.values - b.values).sum() * a.grid.dx)

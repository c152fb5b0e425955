"""Spin-dependent beam deflection through a field-gradient magnet.

Neutral particles carry a magnetic moment whose z-component takes one of
two values, ``+-gamma*hbar/2``.  Inside the magnet the transverse force is
``M_z * grad_bz`` (field intensity positive, gradient negative in the usual
setup), after which the particle flies straight to the detection plate.
Only the transverse coordinate is simulated; longitudinal motion is uniform
at the beam speed, which converts the two lengths into flight times.

Branch selection is a single Bernoulli draw against the up-state weight of
the spinor; the plate then shows two disjoint distributions rather than the
classical continuum, with the branch separation set entirely by the beam
geometry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .errors import InvalidInputError, NumericalOverflowError, check_number, check_overflow
from .rng import particle_stream
from .sde import OVERFLOW_LIMIT
from .spin import Spinor, measurement_probabilities

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class BeamConfig:
    """Geometry and physics of one beam run.

    ``grad_bz`` is expected negative; a positive value is accepted with a
    warning so mirrored setups remain expressible.
    """

    mass: float
    gamma: float
    grad_bz: float
    b_z: float
    magnet_length: float
    drift_length: float
    v_beam: float
    sigma_z: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass", "magnet_length", "drift_length", "v_beam", "hbar", "b_z"):
            check_number(name, getattr(self, name), positive=True)
        for name, low in (("sigma_z", 0.0), ("gamma", -math.inf), ("grad_bz", -math.inf)):
            check_number(name, getattr(self, name), low)
        if self.grad_bz >= 0:
            warnings.warn(
                f"grad_bz = {self.grad_bz} is not negative; proceeding with the "
                "mirrored geometry",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def t_magnet(self) -> float:
        return self.magnet_length / self.v_beam

    @property
    def t_drift(self) -> float:
        return self.drift_length / self.v_beam

    def moment_z(self, branch: str) -> float:
        """Transverse moment ``+-gamma*hbar/2`` selected by the branch."""
        if branch == UP:
            return 0.5 * self.gamma * self.hbar
        if branch == DOWN:
            return -0.5 * self.gamma * self.hbar
        raise InvalidInputError(f"branch must be '{UP}' or '{DOWN}', got {branch!r}")


class PlateRecords:
    """Columnar collection of plate hits: branch, plate position, momentum."""

    def __init__(self, is_up: np.ndarray, z_final: np.ndarray, p_final: np.ndarray):
        self.is_up = np.asarray(is_up, dtype=bool)
        self.z_final = np.asarray(z_final, dtype=float)
        self.p_final = np.asarray(p_final, dtype=float)
        if not (self.is_up.shape == self.z_final.shape == self.p_final.shape):
            raise InvalidInputError("plate record columns have mismatched lengths")

    def __len__(self):
        return self.is_up.size

    def up_fraction(self) -> float:
        return float(self.is_up.mean())

    def branch_arrays(self, branch: str) -> tuple[np.ndarray, np.ndarray]:
        mask = self.is_up if branch == UP else ~self.is_up
        return self.z_final[mask], self.p_final[mask]


def deflection(branch: str, cfg: BeamConfig) -> tuple[float, float]:
    """Plate position and transverse momentum for one branch.

    Constant acceleration ``a = M_z grad_bz / mass`` over the magnet
    transit, then free flight: ``z = a t1^2 / 2 + a t1 t2`` and
    ``p = mass a t1``.  The two branches land mirror-symmetrically.
    """
    a = cfg.moment_z(branch) * cfg.grad_bz / cfg.mass
    t1 = cfg.t_magnet
    t2 = cfg.t_drift
    z_final = 0.5 * a * t1 * t1 + a * t1 * t2
    p_final = cfg.mass * a * t1
    return z_final, p_final


def simulate_beam(state: Spinor, cfg: BeamConfig, n: int, seed: int) -> PlateRecords:
    """Send ``n`` identically prepared particles through the apparatus.

    Each particle draws its branch (one uniform) and then its initial
    transverse offset (one normal) from its own ``(seed, index)`` stream, so
    results do not depend on how the loop is chunked.  One generator is
    re-keyed for each particle rather than built anew, which gives the same
    draws at a fraction of the cost.  The loop runs on the calling thread.
    A plate position or momentum beyond ``OVERFLOW_LIMIT`` is an overflow.
    """
    check_number("n", n, 1)
    p_up, _ = measurement_probabilities(state)
    z_up, p_mom_up = deflection(UP, cfg)
    z_dn, p_mom_dn = deflection(DOWN, cfg)
    is_up = np.empty(n, dtype=bool)
    z0 = np.empty(n)
    gen = None
    for i in range(n):
        gen = particle_stream(seed, i, gen)
        is_up[i] = gen.random() < p_up
        z0[i] = cfg.sigma_z * gen.standard_normal()
    z_final = np.where(is_up, z_up, z_dn) + z0
    extremes = np.abs([z_up, z_dn, p_mom_up, p_mom_dn, z_final.min(), z_final.max()])
    if not extremes.max() <= OVERFLOW_LIMIT:  # a NaN max fails too
        raise NumericalOverflowError(f"plate hits beyond |x| bound {OVERFLOW_LIMIT:g}")
    p_final = np.where(is_up, p_mom_up, p_mom_dn)
    return PlateRecords(is_up, z_final, p_final)


def energy_transition(
    p_minus: float, p_plus: float, mass: float, mode: str = "literal"
) -> float:
    """Energy change between the initial and final momentum magnitudes.

    ``mode='literal'`` evaluates ``mass * (|p_plus|^2 - |p_minus|^2)``;
    ``mode='kinetic'`` the dimensionally standard
    ``(|p_plus|^2 - |p_minus|^2) / (2 mass)``.  Both are exposed because the
    two differ only by the constant ``2 mass^2`` factor and either sign
    convention answers "which level did the particle end in".
    """
    mass = float(check_number("mass", mass, positive=True))
    if mode not in ("literal", "kinetic"):
        raise InvalidInputError(f"mode must be 'literal' or 'kinetic', got {mode!r}")
    p_plus, p_minus = float(p_plus), float(p_minus)  # numpy scalars would warn on overflow
    diff = p_plus * p_plus - p_minus * p_minus  # products overflow to inf; ** raises
    energy = mass * diff if mode == "literal" else diff / (2.0 * mass)
    return check_overflow(f"{mode} energy change", energy)


def precess_moment(gamma_vec, field, gamma: float, dt: float) -> np.ndarray:
    """Rotate a kinetic moment about the field axis by ``-gamma |B| dt``.

    Implemented as an exact Rodrigues rotation (not an Euler step), so the
    moment magnitude and its component along the field are conserved to
    rounding for any ``dt``.
    """
    g = np.asarray(gamma_vec, dtype=float)
    b = np.asarray(field, dtype=float)
    if g.shape != (3,) or b.shape != (3,) or not np.all(np.isfinite([g, b])):
        raise InvalidInputError("moment and field must be 3-vectors of finite values")
    gamma, dt = float(check_number("gamma", gamma)), float(check_number("dt", dt))
    b_norm = math.hypot(*b)  # scaled: a huge field does not overflow its square
    if b_norm == 0.0:
        return g.copy()
    angle = check_overflow("precession angle", -gamma * b_norm * dt)
    axis = b / b_norm
    c, s = math.cos(angle), math.sin(angle)
    with np.errstate(over="ignore", invalid="ignore"):  # check_overflow raises instead
        out = g * c + np.cross(axis, g) * s + axis * np.dot(axis, g) * (1.0 - c)
    return check_overflow("precessed moment", out)


#: Bins of the plate histogram that :func:`count_plate_modes` reads.
PLATE_BINS = 64
#: Fraction of the tallest smoothed bin that a plate peak must clear.
PLATE_PROMINENCE = 0.1


def count_plate_modes(z_values) -> int:
    """Number of local maxima of the plate histogram.

    The histogram (``PLATE_BINS`` bins) is lightly smoothed (3-bin kernel)
    and peaks must clear ``PLATE_PROMINENCE`` times the tallest bin, which
    suppresses single-bin sampling noise while keeping well-separated
    branches distinct.
    """
    z = np.asarray(z_values, dtype=float)
    if z.size == 0:
        raise InvalidInputError("no plate positions to histogram")
    counts, _ = np.histogram(z, bins=PLATE_BINS)
    smooth = np.convolve(counts, np.array([1.0, 2.0, 1.0]) / 4.0, mode="same")
    if smooth.max() == 0.0:
        return 0
    return _count_prominent_peaks(
        [0.0, *smooth.tolist(), 0.0], PLATE_PROMINENCE * smooth.max()
    )


def _count_prominent_peaks(x: list[float], threshold: float) -> int:
    """Number of peaks of ``x`` whose prominence is at least ``threshold``.

    The count of ``scipy.signal.find_peaks(x, prominence=threshold)``.  A
    peak is a sample, or a flat plateau counted once, above both neighbours
    and away from the edges.  Its prominence is its height minus the higher
    of its two side minima, each taken over the values up to the first
    strictly higher one or the edge.
    """
    count = 0
    i = 1
    while i < len(x) - 1:
        if x[i - 1] < x[i]:
            top = x[i]
            end = i + 1
            while end < len(x) - 1 and x[end] == top:
                end += 1
            if x[end] < top:
                base = max(_side_min(reversed(x[:i]), top), _side_min(x[end:], top))
                if top - base >= threshold:
                    count += 1
                i = end
        i += 1
    return count


def _side_min(side, top: float) -> float:
    """Lowest value of ``side`` before the first one above ``top``."""
    return min(takewhile(lambda v: v <= top, side))

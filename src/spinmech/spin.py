"""Two-level spin algebra: spinor states, measurement operators, evolution.

Conventions
-----------
* Operators carry an explicit ``hbar`` scale; the default is 1 (natural
  units).  Measurement operators are ``(hbar/2) * sigma_axis`` so their
  eigenvalues are ``+-hbar/2``.
* The basis is the z-measurement eigenbasis: ``[1, 0]`` is the up state,
  ``[0, 1]`` the down state.
* The propagator for a Hermitian ``H`` over time ``t`` is
  ``exp(-i H t / hbar)``, evaluated in closed form by eigendecomposition
  (exact for 2x2 Hermitian matrices).
* Global phase is never canonicalized; use :func:`equal_up_to_phase` when
  phase should not matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_number, check_overflow

#: Inputs farther than this from unit norm are rejected.
NORM_VALIDATION_TOL = 1e-9
#: Guaranteed norm accuracy after construction and after every evolution.
NORM_DRIFT_TOL = 1e-12
#: Maximum allowed deviation from Hermiticity in operator entries.
HERMITIAN_TOL = 1e-14

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _squared_norm(alpha: complex, beta: complex) -> float:
    """``|alpha|^2 + |beta|^2`` from products: huge amplitudes give inf, never raise."""
    a, b = complex(alpha), complex(beta)
    return a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag


@dataclass(frozen=True)
class Spinor:
    """Normalized two-component state ``alpha * up + beta * down``.

    Construction rejects amplitudes whose squared norm differs from 1 by
    more than ``NORM_VALIDATION_TOL`` and renormalizes the rest, so the
    stored state satisfies the unit-norm invariant to ``NORM_DRIFT_TOL``.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        n2 = _squared_norm(a, b)
        if not abs(n2 - 1.0) <= NORM_VALIDATION_TOL:  # inf and NaN fail too
            raise InvalidInputError(f"|alpha|^2 + |beta|^2 is {n2!r}; must equal 1 within 1e-9")
        scale = np.sqrt(n2)
        object.__setattr__(self, "alpha", a / scale)
        object.__setattr__(self, "beta", b / scale)

    @classmethod
    def up(cls) -> "Spinor":
        return cls(1.0, 0.0)

    @classmethod
    def down(cls) -> "Spinor":
        return cls(0.0, 1.0)

    @classmethod
    def from_unnormalized(cls, alpha: complex, beta: complex) -> "Spinor":
        """Build a state from any nonzero, finite amplitude pair."""
        parts = np.array([alpha, beta], dtype=complex).view(float)
        largest = np.abs(parts).max()  # scale first: huge parts overflow the norm
        if not 0.0 < largest < np.inf:  # a NaN fails too
            raise InvalidInputError("cannot normalize a zero or non-finite spinor")
        scaled = parts / largest
        unit = scaled / np.sqrt(_squared_norm(*scaled.view(complex)))
        return cls(*unit.view(complex))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def norm(self) -> float:
        return float(np.sqrt(_squared_norm(self.alpha, self.beta)))

    def overlap(self, other: "Spinor") -> complex:
        """Inner product ``<self|other>``."""
        return complex(
            np.conj(self.alpha) * other.alpha + np.conj(self.beta) * other.beta
        )


def equal_up_to_phase(a: Spinor, b: Spinor, tol: float = 1e-12) -> bool:
    """Equality of the physical states: ``|<a|b>| = 1`` within ``tol``."""
    check_number("tol", tol, 0.0)
    return abs(1.0 - abs(a.overlap(b))) <= tol


@dataclass(frozen=True)
class SpinOperator:
    """A 2x2 Hermitian operator together with its ``hbar`` scale."""

    entries: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidInputError(f"operator entries must be 2x2, got {m.shape}")
        check_number("hbar", self.hbar, positive=True)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries fail below
            asymmetry = np.max(np.abs(m - m.conj().T))
        if not (np.all(np.isfinite(m)) and asymmetry <= HERMITIAN_TOL):
            raise InvalidInputError("operator entries must be Hermitian with finite values")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "hbar", float(self.hbar))

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True)
class EnergyPair:
    """The two energy levels of the spin Hamiltonian; ``e_minus == -e_plus``."""

    e_plus: float
    e_minus: float


def pauli(axis: str, hbar: float = 1.0) -> SpinOperator:
    """Measurement operator ``(hbar/2) * sigma_axis`` for axis x, y or z."""
    if axis not in _PAULI:
        raise InvalidInputError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    check_number("hbar", hbar, positive=True)
    return SpinOperator(0.5 * hbar * _PAULI[axis], hbar=hbar)


def spin_hamiltonian(omega0: float, hbar: float = 1.0) -> SpinOperator:
    """Hamiltonian ``omega0 * S_z`` of a moment in a z-axis field.

    ``omega0 = -gamma * B_z`` for gyromagnetic ratio ``gamma`` and field
    intensity ``B_z``.  Eigenvalues are ``+-hbar*omega0/2``.
    """
    levels = energy_levels(omega0, hbar)
    return SpinOperator(np.diag([levels.e_plus, levels.e_minus]), hbar=hbar)


def energy_levels(omega0: float, hbar: float = 1.0) -> EnergyPair:
    """The two levels ``(+hbar*omega0/2, -hbar*omega0/2)``."""
    hbar = float(check_number("hbar", hbar, positive=True))
    e_plus = check_overflow("energy level", 0.5 * hbar * float(check_number("omega0", omega0)))
    return EnergyPair(e_plus=e_plus, e_minus=-e_plus)


def measurement_probabilities(state: Spinor) -> tuple[float, float]:
    """Born-rule outcome probabilities ``(|alpha|^2, |beta|^2)``.

    They sum to 1 within ``NORM_DRIFT_TOL``, which every Spinor guarantees.
    """
    return float(abs(state.alpha) ** 2), float(abs(state.beta) ** 2)


def propagator(hamiltonian: SpinOperator, duration: float) -> np.ndarray:
    """Unitary ``exp(-i H t / hbar)`` via closed-form eigendecomposition.

    A SpinOperator's entries are checked Hermitian when it is built.
    """
    check_number("duration", duration)
    evals, evecs = np.linalg.eigh(hamiltonian.entries)
    with np.errstate(over="ignore", invalid="ignore"):  # check_overflow raises instead
        phases = check_overflow("phase", np.exp(-1.0j * evals * duration / hamiltonian.hbar))
    return (evecs * phases) @ evecs.conj().T


def evolve_spinor(state: Spinor, hamiltonian: SpinOperator, duration: float) -> Spinor:
    """Propagate a state for ``duration`` under a Hermitian Hamiltonian.

    The norm is preserved to ``NORM_DRIFT_TOL``; evolution under any
    diagonal Hamiltonian leaves the measurement probabilities unchanged.
    """
    u = propagator(hamiltonian, duration)
    vec = u @ state.as_array()
    return Spinor(vec[0], vec[1])

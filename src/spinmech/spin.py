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

from .errors import InvalidInputError

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
        a = complex(self.alpha)
        b = complex(self.beta)
        n2 = abs(a) ** 2 + abs(b) ** 2
        if not np.isfinite(n2) or abs(n2 - 1.0) > NORM_VALIDATION_TOL:
            raise InvalidInputError(
                f"spinor squared norm is {n2!r}; must equal 1 within "
                f"{NORM_VALIDATION_TOL}"
            )
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
        """Build a state from any nonzero amplitude pair."""
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if not np.isfinite(norm) or norm == 0.0:
            raise InvalidInputError("cannot normalize a zero or non-finite spinor")
        return cls(alpha / norm, beta / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def norm(self) -> float:
        return float(np.sqrt(abs(self.alpha) ** 2 + abs(self.beta) ** 2))

    def overlap(self, other: "Spinor") -> complex:
        """Inner product ``<self|other>``."""
        return complex(
            np.conj(self.alpha) * other.alpha + np.conj(self.beta) * other.beta
        )


def equal_up_to_phase(a: Spinor, b: Spinor, tol: float = 1e-12) -> bool:
    """Equality of the physical states: ``|<a|b>| = 1`` within ``tol``."""
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
        if not np.isfinite(self.hbar) or self.hbar <= 0:
            raise InvalidInputError(f"hbar must be positive, got {self.hbar}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise InvalidInputError("operator entries are not Hermitian")
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
    if not np.isfinite(hbar) or hbar <= 0:
        raise InvalidInputError(f"hbar must be positive, got {hbar}")
    return SpinOperator(0.5 * hbar * _PAULI[axis], hbar=hbar)


def spin_hamiltonian(omega0: float, hbar: float = 1.0) -> SpinOperator:
    """Hamiltonian ``omega0 * S_z`` of a moment in a z-axis field.

    ``omega0 = -gamma * B_z`` for gyromagnetic ratio ``gamma`` and field
    intensity ``B_z``.  Eigenvalues are ``+-hbar*omega0/2``.
    """
    sz = pauli("z", hbar=hbar)
    return SpinOperator(omega0 * sz.entries, hbar=hbar)


def energy_levels(omega0: float, hbar: float = 1.0) -> EnergyPair:
    """The two levels ``(+hbar*omega0/2, -hbar*omega0/2)``."""
    if not np.isfinite(hbar) or hbar <= 0:
        raise InvalidInputError(f"hbar must be positive, got {hbar}")
    e_plus = 0.5 * hbar * omega0
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
    if not np.isfinite(duration):
        raise InvalidInputError(f"duration must be finite, got {duration}")
    evals, evecs = np.linalg.eigh(hamiltonian.entries)
    phases = np.exp(-1.0j * evals * duration / hamiltonian.hbar)
    return (evecs * phases) @ evecs.conj().T


def evolve_spinor(state: Spinor, hamiltonian: SpinOperator, duration: float) -> Spinor:
    """Propagate a state for ``duration`` under a Hermitian Hamiltonian.

    The norm is preserved to ``NORM_DRIFT_TOL``; evolution under any
    diagonal Hamiltonian leaves the measurement probabilities unchanged.
    """
    u = propagator(hamiltonian, duration)
    vec = u @ state.as_array()
    return Spinor(vec[0], vec[1])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmech.errors import InvalidInputError
from spinmech.spin import (
    EnergyPair,
    SpinOperator,
    Spinor,
    energy_levels,
    equal_up_to_phase,
    evolve_spinor,
    measurement_probabilities,
    pauli,
    spin_hamiltonian,
)


def expm_series(m, order=80):
    """Independent matrix exponential by plain Taylor summation."""
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, order):
        term = term @ m / k
        out = out + term
    return out


finite = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def hermitians(draw):
    a = draw(finite)
    b = draw(finite)
    c = draw(finite)
    d = draw(finite)
    return np.array([[a, c - 1j * d], [c + 1j * d, b]], dtype=complex)


@st.composite
def spinors(draw):
    theta = draw(st.floats(0.0, np.pi, allow_nan=False))
    phi = draw(st.floats(0.0, 2 * np.pi, allow_nan=False))
    g = draw(st.floats(0.0, 2 * np.pi, allow_nan=False))
    return Spinor(
        np.exp(1j * g) * np.cos(theta / 2),
        np.exp(1j * (g + phi)) * np.sin(theta / 2),
    )


class TestPauli:
    def test_matrix_entries(self):
        assert np.array_equal(pauli("z").entries, 0.5 * np.array([[1, 0], [0, -1]]))
        assert np.array_equal(pauli("x").entries, 0.5 * np.array([[0, 1], [1, 0]]))
        assert np.array_equal(
            pauli("y").entries, 0.5 * np.array([[0, -1j], [1j, 0]])
        )

    def test_hbar_scale(self):
        assert np.array_equal(pauli("z", hbar=2.0).entries, np.diag([1.0, -1.0]))

    def test_eigenrelation_exact(self):
        sz = pauli("z")
        up = np.array([1.0, 0.0], dtype=complex)
        down = np.array([0.0, 1.0], dtype=complex)
        assert np.array_equal(sz.entries @ up, 0.5 * up)
        assert np.array_equal(sz.entries @ down, -0.5 * down)

    def test_invalid_axis(self):
        with pytest.raises(InvalidInputError):
            pauli("w")

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_hbar(self, hbar):
        with pytest.raises(InvalidInputError, match="hbar must be positive"):
            pauli("z", hbar=hbar)

    def test_hermiticity_enforced(self):
        with pytest.raises(InvalidInputError):
            SpinOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHamiltonian:
    def test_unit_frequency_is_sz(self):
        h = spin_hamiltonian(1.0)
        assert np.array_equal(h.entries, pauli("z").entries)

    def test_zero_frequency(self):
        assert np.array_equal(spin_hamiltonian(0.0).entries, np.zeros((2, 2)))

    def test_eigenvalues(self):
        vals = spin_hamiltonian(2.0).eigenvalues()
        assert np.allclose(sorted(vals), [-1.0, 1.0], atol=1e-14)


class TestEnergyLevels:
    def test_basic(self):
        pair = energy_levels(1.0)
        assert pair == EnergyPair(0.5, -0.5)

    def test_degenerate(self):
        assert energy_levels(0.0) == EnergyPair(0.0, 0.0)

    def test_from_field(self):
        # omega0 = -gamma * b_z evaluated before the level formula
        gamma, b_z = 2.0, 3.0
        pair = energy_levels(-gamma * b_z, hbar=1.0)
        assert pair == EnergyPair(-3.0, 3.0)

    def test_sign_symmetry_exact(self):
        pair = energy_levels(0.7316, hbar=1.3)
        assert pair.e_plus == -pair.e_minus


class TestSpinor:
    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.9), (1e200, 0)])
    def test_rejects_non_normalized(self, alpha, beta):
        with pytest.raises(InvalidInputError, match="must equal 1 within 1e-9"):
            Spinor(alpha, beta)

    def test_renormalizes_within_tolerance(self):
        eps = 4e-10
        s = Spinor(np.sqrt(1 + eps), 0.0)
        assert abs(s.norm() - 1.0) < 1e-12

    def test_from_unnormalized(self):
        s = Spinor.from_unnormalized(3.0, 4.0j)
        assert abs(s.norm() - 1.0) < 1e-12
        assert abs(s.alpha - 0.6) < 1e-12

    @pytest.mark.parametrize("alpha, beta, expected", [
        (1e200, 0, Spinor.up()),  # the squares overflow
        (1e308 + 1e308j, 1e308, Spinor.from_unnormalized(1 + 1j, 1)),
        (1e-320, 0, Spinor.up()),  # the squares underflow to zero
    ])
    def test_from_unnormalized_scales_before_squaring(self, alpha, beta, expected):
        assert Spinor.from_unnormalized(alpha, beta) == expected

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            Spinor.from_unnormalized(0.0, 0.0)

    @given(spinors())
    @settings(max_examples=200)
    def test_construction_invariant(self, s):
        assert abs(abs(s.alpha) ** 2 + abs(s.beta) ** 2 - 1.0) <= 1e-12


class TestMeasurementProbabilities:
    def test_basis_state(self):
        assert measurement_probabilities(Spinor.up()) == (1.0, 0.0)

    def test_equal_superposition(self):
        p_plus, p_minus = measurement_probabilities(
            Spinor(1 / np.sqrt(2), 1 / np.sqrt(2))
        )
        assert abs(p_plus - 0.5) < 1e-12
        assert abs(p_minus - 0.5) < 1e-12

    def test_complex_amplitudes(self):
        p_plus, p_minus = measurement_probabilities(Spinor(0.6, 0.8j))
        assert abs(p_plus - 0.36) < 1e-12
        assert abs(p_minus - 0.64) < 1e-12

    @given(spinors())
    @settings(max_examples=200)
    def test_sums_to_one(self, s):
        p_plus, p_minus = measurement_probabilities(s)
        assert abs(p_plus + p_minus - 1.0) <= 1e-12


class TestEvolution:
    def test_zero_duration_is_identity(self):
        s = Spinor(0.6, 0.8j)
        out = evolve_spinor(s, spin_hamiltonian(3.0), 0.0)
        assert abs(out.alpha - s.alpha) < 1e-14
        assert abs(out.beta - s.beta) < 1e-14

    def test_diagonal_hamiltonian_preserves_probabilities(self):
        s = Spinor(0.6, 0.8j)
        h = spin_hamiltonian(2.5)
        for t in (0.1, 1.0, 17.3):
            out = evolve_spinor(s, h, t)
            p = measurement_probabilities(out)
            assert abs(p[0] - 0.36) < 1e-12
            assert abs(p[1] - 0.64) < 1e-12

    @given(
        spinors(),
        st.floats(-4, 4, allow_nan=False),
        st.floats(-4, 4, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_diagonal_hamiltonian_preserves_probabilities(self, s, a, b, t):
        h = SpinOperator(np.diag([a, b]).astype(complex))
        before = measurement_probabilities(s)
        after = measurement_probabilities(evolve_spinor(s, h, t))
        assert abs(before[0] - after[0]) <= 1e-12
        assert abs(before[1] - after[1]) <= 1e-12

    def test_x_axis_half_period_flip(self):
        # Quarter turn about x for time pi/omega1 takes up to down.
        omega1 = 1.0
        h = SpinOperator(omega1 * pauli("x").entries)
        t = np.pi / omega1
        out = evolve_spinor(Spinor.up(), h, t)
        oracle = expm_series(-1j * h.entries * t) @ np.array([1.0, 0.0], dtype=complex)
        assert np.max(np.abs(out.as_array() - oracle)) < 1e-10
        assert equal_up_to_phase(out, Spinor.down(), tol=1e-10)

    def test_non_finite_duration_rejected(self):
        with pytest.raises(InvalidInputError):
            evolve_spinor(Spinor.up(), spin_hamiltonian(1.0), np.inf)

    @given(hermitians(), spinors(), st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_unitarity(self, h, s, t):
        out = evolve_spinor(s, SpinOperator(h), t)
        assert abs(out.norm() - 1.0) <= 1e-12

    @given(
        hermitians(),
        spinors(),
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.0, 5.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_hamiltonian_composition(self, h, s, t1, t2):
        op = SpinOperator(h)
        two_step = evolve_spinor(evolve_spinor(s, op, t1), op, t2)
        one_step = evolve_spinor(s, op, t1 + t2)
        assert np.max(np.abs(two_step.as_array() - one_step.as_array())) < 1e-10

    def test_matches_series_oracle_random_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c, d = rng.uniform(-2, 2, size=4)
            h = SpinOperator(np.array([[a, c - 1j * d], [c + 1j * d, b]]))
            s = Spinor.from_unnormalized(
                rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
            )
            t = rng.uniform(-3, 3)
            out = evolve_spinor(s, h, t)
            oracle = expm_series(-1j * h.entries * t) @ s.as_array()
            assert np.max(np.abs(out.as_array() - oracle)) < 1e-10

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinmech
from spinmech.errors import InvalidInputError, NumericalOverflowError
from spinmech.sde import momentum_estimate
from spinmech.spin import Spinor
from spinmech.stern_gerlach import (
    DOWN,
    PLATE_BINS,
    PLATE_PROMINENCE,
    UP,
    BeamConfig,
    _count_prominent_peaks,
    count_plate_modes,
    deflection,
    energy_transition,
    precess_moment,
    simulate_beam,
)


def beam_cfg(**overrides):
    base = dict(
        mass=1.0,
        gamma=1.0,
        grad_bz=-2.0,
        b_z=1.0,
        magnet_length=1.0,
        drift_length=1.0,
        v_beam=1.0,
        sigma_z=0.0,
        hbar=1.0,
    )
    base.update(overrides)
    return BeamConfig(**base)


class TestBeamConfig:
    def test_rejects_nonpositive_quantities(self):
        with pytest.raises(InvalidInputError, match="mass"):
            beam_cfg(mass=0.0)
        with pytest.raises(InvalidInputError, match="b_z"):
            beam_cfg(b_z=-1.0)
        with pytest.raises(InvalidInputError, match="sigma_z"):
            beam_cfg(sigma_z=-0.1)

    def test_positive_gradient_warns_but_builds(self):
        with pytest.warns(RuntimeWarning, match="grad_bz"):
            cfg = beam_cfg(grad_bz=2.0)
        assert cfg.grad_bz == 2.0

    def test_flight_times(self):
        cfg = beam_cfg(magnet_length=2.0, drift_length=3.0, v_beam=2.0)
        assert cfg.t_magnet == 1.0
        assert cfg.t_drift == 1.5

    def test_moment_by_branch(self):
        cfg = beam_cfg(gamma=2.0, hbar=3.0)
        assert cfg.moment_z(UP) == 3.0
        assert cfg.moment_z(DOWN) == -3.0


class TestDeflection:
    def test_no_gradient_no_deflection(self):
        with pytest.warns(RuntimeWarning):
            cfg = beam_cfg(grad_bz=0.0)
        assert deflection(UP, cfg) == (0.0, 0.0)
        assert deflection(DOWN, cfg) == (0.0, 0.0)

    def test_branches_are_exact_mirrors(self):
        cfg = beam_cfg(gamma=1.7, grad_bz=-0.9, v_beam=2.3)
        z_up, p_up = deflection(UP, cfg)
        z_dn, p_dn = deflection(DOWN, cfg)
        assert z_up == -z_dn
        assert p_up == -p_dn

    def test_hand_checked_kinematics(self):
        # a = (gamma hbar/2) grad / m = 0.5 * (-2) = -1; t1 = t2 = 1
        # z = a/2 + a = -1.5 ; p = m a t1 = -1
        cfg = beam_cfg()
        z, p = deflection(UP, cfg)
        assert z == pytest.approx(-1.5, abs=1e-15)
        assert p == pytest.approx(-1.0, abs=1e-15)

    def test_negating_gradient_swaps_centers(self):
        cfg = beam_cfg(grad_bz=-2.0)
        with pytest.warns(RuntimeWarning):
            flipped = beam_cfg(grad_bz=2.0)
        assert deflection(UP, cfg) == deflection(DOWN, flipped)
        assert deflection(DOWN, cfg) == deflection(UP, flipped)


class TestSimulateBeam:
    @pytest.mark.parametrize("state,branch", [(Spinor.up(), UP), (Spinor.down(), DOWN)])
    def test_pure_state_is_deterministic(self, state, branch):
        cfg = beam_cfg(sigma_z=0.0)
        records = simulate_beam(state, cfg, 100, seed=1)
        z_branch, _ = deflection(branch, cfg)
        assert np.all(records.is_up == (branch == UP))
        assert np.all(records.z_final == z_branch)

    def test_born_statistics(self):
        n = 100_000
        records = simulate_beam(Spinor(0.6, 0.8), beam_cfg(), n, seed=42)
        band = 3 * np.sqrt(0.36 * 0.64 / n)
        assert abs(records.up_fraction() - 0.36) < band

    def test_equal_superposition_no_mass_between_modes(self):
        cfg = beam_cfg(sigma_z=0.05)  # separation 3, spread tiny
        records = simulate_beam(Spinor(1 / np.sqrt(2), 1 / np.sqrt(2)), cfg, 20_000, seed=3)
        n_up = records.is_up.sum()
        assert abs(n_up / 20_000 - 0.5) < 3 * np.sqrt(0.25 / 20_000)
        middle = np.abs(records.z_final) < 0.5
        assert middle.sum() == 0

    def test_branch_means_match_ballistic_oracle(self):
        cfg = beam_cfg(sigma_z=0.3)
        n = 50_000
        records = simulate_beam(Spinor(0.6, 0.8), cfg, n, seed=7)
        for branch in (UP, DOWN):
            z, _ = records.branch_arrays(branch)
            oracle_z, _ = deflection(branch, cfg)
            assert abs(z.mean() - oracle_z) < 3 * cfg.sigma_z / np.sqrt(z.size)

    def test_seed_reproducibility(self):
        cfg = beam_cfg(sigma_z=0.2)
        a = simulate_beam(Spinor(0.6, 0.8), cfg, 5000, seed=11)
        b = simulate_beam(Spinor(0.6, 0.8), cfg, 5000, seed=11)
        assert np.array_equal(a.z_final, b.z_final)
        assert np.array_equal(a.is_up, b.is_up)

    def test_branch_fixes_momentum_sign(self):
        # negative gradient: the up moment is pushed to negative z
        cfg = beam_cfg(sigma_z=0.4)
        records = simulate_beam(Spinor(0.6, 0.8), cfg, 2000, seed=17)
        _, p_up = records.branch_arrays(UP)
        _, p_dn = records.branch_arrays(DOWN)
        assert np.all(p_up < 0) and p_up.mean() < 0
        assert np.all(p_dn > 0) and p_dn.mean() > 0

    def test_bimodal_plate_histogram(self):
        # spread well under separation/6 gives exactly two modes
        cfg = beam_cfg(sigma_z=0.375)  # separation = 3
        records = simulate_beam(
            Spinor(1 / np.sqrt(2), 1 / np.sqrt(2)), cfg, 50_000, seed=21
        )
        assert count_plate_modes(records.z_final) == 2

    def test_point_beam_two_modes(self):
        cfg = beam_cfg(sigma_z=0.0)
        records = simulate_beam(Spinor(0.6, 0.8), cfg, 10_000, seed=5)
        assert count_plate_modes(records.z_final) == 2

    @pytest.mark.parametrize("sigma_z", [0.0, 0.3])
    def test_equals_fresh_per_particle_streams(self, sigma_z):
        # Oracle: a newly built Philox generator per particle, branch draw first.
        cfg = beam_cfg(sigma_z=sigma_z)
        state, seed, n = Spinor(0.6, 0.8), -5, 300
        records = simulate_beam(state, cfg, n, seed=seed)
        is_up = np.empty(n, dtype=bool)
        z0 = np.empty(n)
        for i in range(n):
            key = np.array([seed & (2**64 - 1), i], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            is_up[i] = gen.random() < abs(state.alpha) ** 2
            z0[i] = sigma_z * gen.standard_normal()
        z_up, _ = deflection(UP, cfg)
        z_dn, _ = deflection(DOWN, cfg)
        assert np.array_equal(records.is_up, is_up)
        assert np.array_equal(records.z_final, np.where(is_up, z_up, z_dn) + z0)

    def test_momentum_limit_consistency(self):
        # Straightened post-magnet paths feed the tail-window velocity
        # estimator, which must recover p_final/mass.
        cfg = beam_cfg(sigma_z=0.0)
        records = simulate_beam(Spinor(0.6, 0.8), cfg, 50, seed=13)
        times = np.linspace(1.0, 50.0, 400)
        for i in range(len(records)):
            velocity = records.p_final[i] / cfg.mass
            est = momentum_estimate(times, velocity * times)
            assert abs(est.p_hat - velocity) < 1e-10
            assert est.converged


class TestEnergyTransition:
    def test_no_transition(self):
        assert energy_transition(2.0, 2.0, 1.0, "literal") == 0.0
        assert energy_transition(2.0, 2.0, 1.0, "kinetic") == 0.0

    def test_literal_form(self):
        # m (|p+|^2 - |p-|^2) evaluated directly
        assert energy_transition(1.0, 2.0, 1.0, "literal") == pytest.approx(3.0)
        assert energy_transition(1.0, 2.0, 2.0, "literal") == pytest.approx(6.0)

    def test_kinetic_form(self):
        assert energy_transition(1.0, 2.0, 1.0, "kinetic") == pytest.approx(1.5)
        assert energy_transition(1.0, 2.0, 3.0, "kinetic") == pytest.approx(0.5)

    def test_bad_mode(self):
        with pytest.raises(InvalidInputError):
            energy_transition(1.0, 2.0, 1.0, "bogus")

    def test_bad_mass(self):
        with pytest.raises(InvalidInputError):
            energy_transition(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("mode", ["literal", "kinetic"])
    def test_overflow_is_a_numerical_error(self, mode):
        with pytest.raises(NumericalOverflowError, match=f"{mode} energy change overflowed"):
            energy_transition(1e200, 0.0, 1.0, mode)

    def test_numpy_scalar_overflow_raises_without_a_numpy_warning(self):
        # numpy's overflow warning is an error in this suite, so it must not come first
        with pytest.raises(NumericalOverflowError, match="literal energy change overflowed"):
            energy_transition(np.float64(1e200), 0.0, 1.0)

    # magnitudes stay clear of the subnormal range so |p|^2 cannot
    # underflow to zero and fake a vanishing transition
    momenta = st.one_of(
        st.just(0.0),
        st.floats(1e-3, 10, allow_nan=False),
        st.floats(-10, -1e-3, allow_nan=False),
    )

    @given(momenta, momenta, st.floats(0.1, 10, allow_nan=False))
    @settings(max_examples=200)
    def test_sign_tracks_momentum_magnitudes(self, p_minus, p_plus, mass):
        for mode in ("literal", "kinetic"):
            de = energy_transition(p_minus, p_plus, mass, mode)
            assert np.sign(de) == np.sign(abs(p_plus) - abs(p_minus))


class TestPrecession:
    def test_parallel_moment_unchanged(self):
        out = precess_moment([0.0, 0.0, 2.0], [0.0, 0.0, 5.0], 1.3, 0.7)
        assert np.allclose(out, [0.0, 0.0, 2.0], atol=1e-15)

    def test_norm_conserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.normal(size=3)
            b = rng.normal(size=3)
            out = precess_moment(g, b, 2.0, 0.31)
            assert abs(np.linalg.norm(out) - np.linalg.norm(g)) < 1e-14

    def test_field_component_conserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = rng.normal(size=3)
            b = rng.normal(size=3)
            out = precess_moment(g, b, -1.5, 0.11)
            b_hat = b / np.linalg.norm(b)
            assert abs(np.dot(out, b_hat) - np.dot(g, b_hat)) < 1e-14

    def test_quarter_turn_oracle(self):
        # gamma*b*T = pi/2 about z: closed-form rotation by -pi/2 sends
        # x-hat to -y-hat.
        out = precess_moment([1.0, 0.0, 0.0], [0.0, 0.0, 2.0], 1.0, np.pi / 4.0)
        assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-12)

    def test_zero_field_identity(self):
        out = precess_moment([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 1.0, 0.5)
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_composition_matches_single_rotation(self):
        g = np.array([1.0, 0.5, -0.2])
        b = np.array([0.3, -0.4, 0.8])
        two = precess_moment(precess_moment(g, b, 1.1, 0.2), b, 1.1, 0.3)
        one = precess_moment(g, b, 1.1, 0.5)
        assert np.allclose(two, one, atol=1e-13)


# Short runs of a few levels make plateaus, equal peaks and zero edges common.
levels = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])


class TestPlatePeakCount:
    @given(
        st.integers(0, 12),
        st.lists(levels, min_size=1, max_size=40),
        st.integers(0, 12),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.9]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_find_peaks(self, n_left, body, n_right, prominence):
        from scipy.signal import find_peaks

        x = [0.0] * n_left + body + [0.0] * n_right
        peaks, _ = find_peaks(np.array(x), prominence=prominence)
        assert _count_prominent_peaks(x, prominence) == peaks.size

    @given(st.lists(st.integers(0, 4), min_size=PLATE_BINS, max_size=PLATE_BINS))
    @settings(max_examples=300, deadline=None)
    def test_plate_modes_match_find_peaks(self, counts):
        from scipy.signal import find_peaks

        # Anchors at 0 and PLATE_BINS put the bin edges on the integers, so
        # bin k holds counts[k] hits at k + 0.5, plus one anchor at each end.
        centres = np.arange(PLATE_BINS) + 0.5
        z = np.concatenate(([0.0, float(PLATE_BINS)], np.repeat(centres, counts)))
        hist = np.array(counts, dtype=float)
        hist[[0, -1]] += 1
        smooth = np.convolve(hist, [0.25, 0.5, 0.25], mode="same")
        peaks, _ = find_peaks(
            np.concatenate(([0.0], smooth, [0.0])),
            prominence=PLATE_PROMINENCE * smooth.max(),
        )
        assert count_plate_modes(z) == peaks.size


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(spinmech.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spinmech, spinmech.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmech.control import (
    ControlLaw,
    ReferenceTrajectory,
    error_dynamics_fit,
    openloop_control,
    simulate_controlled_ensemble,
    simulate_controlled_particle,
)
from spinmech.errors import FitWindowError, InvalidInputError
from spinmech.sde import SdeConfig


def euler_forward(omega, u_fn, v0, dt, n_steps, eta_fn=None):
    """Tiny independent plant integrator for round-trip oracles."""
    v = v0
    vs = [v0]
    for k in range(n_steps):
        t = k * dt
        rhs = -omega * v + u_fn(t)
        if eta_fn is not None:
            rhs += eta_fn(t)
        v = v + rhs * dt
        vs.append(v)
    return np.array(vs)


class TestReferenceTrajectory:
    def test_consistent_pair_accepted(self):
        ReferenceTrajectory(math.sin, math.cos, duration=5.0)

    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(InvalidInputError, match="disagrees"):
            ReferenceTrajectory(math.sin, lambda t: -math.cos(t), duration=5.0)

    def test_finite_difference_fallback(self):
        ref = ReferenceTrajectory(math.sin, None, duration=5.0)
        assert abs(ref.v_r_dot(1.0) - math.cos(1.0)) < 1e-6
        # the law then runs on the difference quotient
        u = openloop_control(ControlLaw(1.0, ref), 1.0)
        assert abs(u - (math.cos(1.0) + math.sin(1.0))) < 1e-4

    def test_duration_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            ReferenceTrajectory(math.sin, math.cos, duration=0.0)

    def test_factories(self):
        c = ReferenceTrajectory.constant(2.0, 1.0)
        assert c.v_r(0.5) == 2.0 and c.v_r_dot(0.5) == 0.0
        r = ReferenceTrajectory.ramp(3.0, 1.0, start=1.0)
        assert r.v_r(0.5) == 2.5 and r.v_r_dot(0.1) == 3.0
        s = ReferenceTrajectory.sine(2.0, 3.0, 1.0)
        assert abs(s.v_r_dot(0.2) - 6.0 * math.cos(0.6)) < 1e-12


class TestControlLaw:
    def test_rejects_nonpositive_omega(self):
        ref = ReferenceTrajectory.constant(1.0, 1.0)
        with pytest.raises(InvalidInputError, match="omega"):
            ControlLaw(omega=0.0, reference=ref)
        with pytest.raises(InvalidInputError, match="omega"):
            ControlLaw(omega=-1.0, reference=ref)


class TestOpenloopControl:
    @pytest.mark.parametrize("reference,omega,expected", [
        (ReferenceTrajectory.constant(1.0, 10.0), 2.0, lambda t: 2.0),
        (ReferenceTrajectory.constant(1.0, 10.0), 1.0, lambda t: 1.0),
        (ReferenceTrajectory.constant(2.0, 10.0), 3.0, lambda t: 6.0),
        # equilibrium: a zero output needs a zero input
        (ReferenceTrajectory.constant(0.0, 10.0), 1.0, lambda t: 0.0),
        (ReferenceTrajectory.ramp(1.0, 10.0), 2.0, lambda t: 2.0 * t + 1.0),
    ])
    def test_polynomial_reference(self, reference, omega, expected):
        law = ControlLaw(omega, reference)
        for t in (0.0, 1.0, 3.0, 9.9):
            assert openloop_control(law, t) == expected(t)

    def test_reference_matching_unforced_decay(self):
        # v_r = e^{-t} with omega = 1 needs no input at all
        ref = ReferenceTrajectory(
            lambda t: math.exp(-t), lambda t: -math.exp(-t), duration=5.0
        )
        law = ControlLaw(1.0, ref)
        for t in (0.0, 0.7, 3.0):
            assert abs(openloop_control(law, t)) < 1e-14

    def test_sine_with_disturbance_estimate(self):
        ref = ReferenceTrajectory(math.sin, math.cos, duration=10.0)
        law = ControlLaw(1.0, ref, eta_hat=lambda t: 0.3)
        for t in (0.1, 2.0, 7.5):
            expected = math.sin(t) + math.cos(t) - 0.3
            assert abs(openloop_control(law, t) - expected) < 1e-14

    def test_round_trip_reproduces_reference(self):
        # forward-integrating the noiseless plant under the law from v_r(0)
        # recovers the reference; the global error shrinks ~linearly in dt
        omega = 2.0
        law = ControlLaw(omega, ReferenceTrajectory(math.sin, math.cos, duration=2.0))
        u = lambda t: openloop_control(law, t)
        errors = []
        for dt in (1e-3, 5e-4):
            n = int(round(2.0 / dt))
            vs = euler_forward(omega, u, law.reference.v_r(0.0), dt, n)
            ts = np.arange(n + 1) * dt
            errors.append(np.max(np.abs(vs - np.sin(ts))))
        assert errors[0] < 2e-3
        assert 1.6 < errors[0] / errors[1] < 2.4

    def test_out_of_range_rejected(self):
        law = ControlLaw(1.0, ReferenceTrajectory.constant(1.0, 1.0))
        with pytest.raises(InvalidInputError):
            openloop_control(law, 2.0)
        with pytest.raises(InvalidInputError):
            openloop_control(law, -0.1)

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.floats(0.0, 9.9))
    @settings(max_examples=100)
    def test_linearity_in_reference(self, omega, scale, t):
        base = ReferenceTrajectory(math.sin, math.cos, duration=10.0)
        scaled = ReferenceTrajectory(
            lambda x: scale * math.sin(x), lambda x: scale * math.cos(x), duration=10.0
        )
        u1 = openloop_control(ControlLaw(omega, base), t)
        u2 = openloop_control(ControlLaw(omega, scaled), t)
        assert abs(u2 - scale * u1) < 1e-9 * (1 + abs(u1))


class TestErrorDynamicsFit:
    def test_exact_exponential(self):
        t = np.arange(0, 3, 0.01)
        slope = error_dynamics_fit(np.exp(-2.0 * t), t)
        assert abs(slope + 2.0) < 1e-6

    def test_scaled_exponential_with_intercept(self):
        t = np.arange(0, 5, 0.01)
        e = 5.0 * np.exp(-0.5 * t)
        slope = error_dynamics_fit(e, t)
        assert abs(slope + 0.5) < 1e-6
        # the intercept of the same window regression is ln 5
        mask = (t >= 0.5) & (t <= 4.5)
        _, intercept = np.polyfit(t[mask], np.log(np.abs(e[mask])), 1)
        assert abs(intercept - math.log(5.0)) < 1e-6

    def test_sign_change_rejected(self):
        t = np.arange(0, 3, 0.01)
        with pytest.raises(FitWindowError, match="sign changes"):
            error_dynamics_fit(np.sin(5 * t) + 1e-3, t)

    def test_zero_rejected(self):
        t = np.linspace(0, 1, 11)
        e = np.ones(11)
        e[5] = 0.0
        with pytest.raises(FitWindowError, match="zero"):
            error_dynamics_fit(e, t)

    def test_explicit_window(self):
        t = np.arange(0, 10, 0.01)
        e = np.exp(-1.0 * t) + 1e-9  # late-time floor
        slope = error_dynamics_fit(e, t, window=(1.0, 5.0))
        assert abs(slope + 1.0) < 1e-3


@pytest.fixture
def no_steps(monkeypatch):
    """Fail any integration, so a horizon error must come before the first step."""

    def integrate(*args, **kwargs):
        raise AssertionError("a step ran before the horizon check")

    monkeypatch.setattr("spinmech.control.simulate_ensemble", integrate)


class TestSimulateControlledParticle:
    def _law(self, omega=1.0, duration=3.0 + 1e-6, eta_hat=None):
        return ControlLaw(
            omega, ReferenceTrajectory.constant(1.0, duration), eta_hat=eta_hat
        )

    def _cfg(self, t_final=3.0, dt=1e-3, sigma=0.0, v0=2.0):
        n = int(round(t_final / dt))
        return SdeConfig(
            dt=dt, n_steps=n, sigma=sigma, n_particles=1, seed=0, x0=v0,
            record_every=max(1, n // 1000),
        )

    def test_zero_error_stays_zero(self):
        law = self._law(eta_hat=lambda t: 0.4)
        cfg = self._cfg(v0=1.0)
        rep = simulate_controlled_particle(
            law, v0=1.0, cfg=cfg, disturbance=lambda t: 0.4
        )
        assert np.max(np.abs(rep.errors)) < 1e-12

    def test_compensated_exponential_decay(self):
        # e(0)=1, omega=1: closed-form linear-ODE solution e^{-t}
        law = self._law(eta_hat=lambda t: 0.4)
        cfg = self._cfg(v0=2.0)
        rep = simulate_controlled_particle(
            law, v0=2.0, cfg=cfg, disturbance=lambda t: 0.4
        )
        assert abs(rep.terminal_error - math.exp(-3.0)) < 0.01 * math.exp(-3.0)
        assert rep.fitted_decay_rate is not None
        assert abs(rep.fitted_decay_rate + 1.0) < 0.01
        decay = np.exp(-rep.times)
        assert np.max(np.abs(rep.errors - decay)) < 0.01

    def test_uncompensated_constant_disturbance_steady_state(self):
        # linear-ODE steady state eta/omega
        law = self._law(duration=10.0 + 1e-6)
        cfg = self._cfg(t_final=10.0, v0=1.0)
        rep = simulate_controlled_particle(
            law, v0=1.0, cfg=cfg, disturbance=lambda t: 0.5
        )
        assert abs(rep.terminal_error - 0.5) < 0.005

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_decay_envelope_at_every_sample(self, omega):
        # |e(t) - e(0) e^{-omega t}| stays under 1% of |e(0)| throughout
        law = self._law(omega=omega, eta_hat=lambda t: 0.2)
        cfg = self._cfg(v0=2.0)
        rep = simulate_controlled_particle(
            law, v0=2.0, cfg=cfg, disturbance=lambda t: 0.2
        )
        envelope = np.exp(-omega * rep.times)
        assert np.max(np.abs(rep.errors - envelope)) < 0.01

    def test_horizon_must_fit_reference(self, no_steps):
        law = self._law(duration=1.0)
        cfg = self._cfg(t_final=3.0)
        with pytest.raises(InvalidInputError, match="horizon"):
            simulate_controlled_particle(law, v0=1.0, cfg=cfg)
        early = replace(self._cfg(t_final=0.5), t0=-0.1)
        with pytest.raises(InvalidInputError, match="horizon"):
            simulate_controlled_particle(law, v0=1.0, cfg=early)


class TestSimulateControlledEnsemble:
    @pytest.mark.parametrize("t0,n_steps", [(0.0, 3000), (-0.1, 500)])
    def test_horizon_must_fit_reference(self, no_steps, t0, n_steps):
        ref = ReferenceTrajectory.constant(1.0, 1.0)
        cfg = SdeConfig(
            dt=1e-3, n_steps=n_steps, sigma=0.0, n_particles=4, seed=0, x0=1.0, t0=t0
        )
        with pytest.raises(InvalidInputError, match="horizon"):
            simulate_controlled_ensemble(ref, omega=1.0, cfg=cfg)

    def test_all_on_reference_zero_mean_error(self):
        ref = ReferenceTrajectory.constant(1.0, 2.0 + 1e-6)
        cfg = SdeConfig(
            dt=1e-3, n_steps=2000, sigma=0.0, n_particles=16, seed=0, x0=1.0,
            record_every=100,
        )
        rep = simulate_controlled_ensemble(ref, omega=1.0, cfg=cfg)
        assert np.max(np.abs(rep.errors)) < 1e-12

    def test_mean_error_decays_within_clt_band(self):
        n = 4000
        sigma = 0.5
        ref = ReferenceTrajectory.sine(1.0, 1.0, 2.0 + 1e-6)
        cfg = SdeConfig(
            dt=1e-3, n_steps=2000, sigma=sigma, n_particles=n, seed=77,
            x0=ref.v_r(0.0) + 1.0, record_every=100,
        )
        rep = simulate_controlled_ensemble(ref, omega=1.0, cfg=cfg)
        band = 3 * sigma / math.sqrt(n)
        assert abs(rep.terminal_error - math.exp(-2.0)) < band

    def test_per_particle_variance_approaches_stationary(self):
        # the error process is itself the restoring diffusion
        n = 4000
        ref = ReferenceTrajectory.constant(0.0, 4.0 + 1e-6)
        cfg = SdeConfig(
            dt=2e-3, n_steps=2000, sigma=1.0, n_particles=n, seed=5, x0=1.0,
            record_every=200,
        )
        rep = simulate_controlled_ensemble(ref, omega=1.0, cfg=cfg)
        terminal_var = rep.error_std[-1] ** 2
        assert abs(terminal_var - 0.5) < 0.05

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from spinmech import sde
from spinmech.errors import InvalidInputError, NumericalOverflowError
from spinmech.sde import (
    DriftSpec,
    SdeConfig,
    TrajectoryBatch,
    drift_from_density,
    euler_maruyama_step,
    momentum_estimate,
    ou_analytic_moments,
    simulate_ensemble,
)


def ou_cfg(**overrides):
    base = dict(
        dt=1e-3, n_steps=1000, sigma=1.0, n_particles=200, seed=123, x0=1.0
    )
    base.update(overrides)
    return SdeConfig(**base)


def _at(index, value):
    """A restoring drift that returns ``value`` for one particle of a chunk."""
    return lambda x, t: np.where(np.arange(x.size) == index, value, -x)


def _blow_up_in_last_chunk(x, t):
    """Pushes particle 7 of the 88-particle third chunk (of 600) past the bound."""
    return np.where(np.arange(x.size) == 7, 3e12, 0.0) if x.size == 88 else -x


class TestDriftSpec:
    def test_linear(self):
        d = DriftSpec.linear(2.0)
        assert d(3.0, 17.0) == -6.0

    def test_time_scaled_regularized_at_origin(self):
        d = DriftSpec.time_scaled(t_floor=1e-3)
        assert np.isfinite(d(1.0, 0.0))
        assert d(1.0, 0.0) == 1.0 / 1e-3
        assert d(2.0, 4.0) == 0.5

    def test_time_scaled_requires_positive_floor(self):
        with pytest.raises(InvalidInputError):
            DriftSpec.time_scaled(t_floor=0.0)

    def test_tabulated_interpolates(self):
        d = DriftSpec.tabulated([0.0, 1.0, 2.0], [0.0, -1.0, 0.0])
        assert d(0.5, 0.0) == -0.5
        assert d(1.5, 0.0) == -0.5

    def test_tabulated_rejects_bad_grid(self):
        with pytest.raises(InvalidInputError):
            DriftSpec.tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


class TestDriftFromDensity:
    def test_uniform_density_gives_zero_drift(self):
        d = drift_from_density(lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0)
        xs = np.linspace(-2, 2, 11)
        assert np.max(np.abs(d(xs, 0.0))) < 1e-12

    def test_gaussian_density_gives_linear_drift(self):
        # oracle: 0.5 sigma^2 d/dx ln rho computed symbolically = -omega x
        omega, sigma = 1.7, 0.9

        def rho(x):
            return np.exp(-omega * np.asarray(x) ** 2 / sigma**2)

        d = drift_from_density(rho, sigma)
        xs = np.linspace(-3, 3, 101)
        assert np.max(np.abs(d(xs, 0.0) - (-omega * xs))) < 1e-8

    def test_two_gaussian_mixture_zero_crossings(self):
        # Shifted overlapping bumps: the drift vanishes at the saddle between
        # them and near each bump, located by root-finding on the analytic
        # log-derivative.
        a, s, sigma = 1.0, 0.8, 1.0

        def rho(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-((x - a) ** 2) / (2 * s * s)) + np.exp(
                -((x + a) ** 2) / (2 * s * s)
            )

        def log_deriv(x):
            lo = np.exp(-((x - a) ** 2) / (2 * s * s))
            hi = np.exp(-((x + a) ** 2) / (2 * s * s))
            return (-(x - a) / (s * s) * lo - (x + a) / (s * s) * hi) / (lo + hi)

        roots = [brentq(log_deriv, -1.8, -0.2), 0.0, brentq(log_deriv, 0.2, 1.8)]
        d = drift_from_density(rho, sigma)
        for r in roots:
            assert abs(d(np.array(r), 0.0)) < 1e-7
            # genuine sign change, not a tangency
            assert d(np.array(r - 0.05), 0.0) * d(np.array(r + 0.05), 0.0) < 0

    def test_stationarity_residual(self):
        # 0.5 sigma^2 rho' - u rho must vanish pointwise (analytic rho').
        omega, sigma = 1.0, 1.0

        def rho(x):
            return np.exp(-omega * np.asarray(x) ** 2 / sigma**2)

        def rho_prime(x):
            x = np.asarray(x)
            return -2 * omega * x / sigma**2 * rho(x)

        d = drift_from_density(rho, sigma)
        xs = np.linspace(-4, 4, 1000)
        residual = 0.5 * sigma**2 * rho_prime(xs) - d(xs, 0.0) * rho(xs)
        assert np.max(np.abs(residual)) < 1e-8

    def test_non_positive_density_rejected(self):
        d = drift_from_density(lambda x: np.asarray(x, dtype=float), 1.0)
        with pytest.raises(InvalidInputError):
            d(np.array([-1.0, 1.0]), 0.0)


class TestEulerMaruyamaStep:
    def test_free_particle_no_noise(self):
        assert euler_maruyama_step(1.0, DriftSpec.linear(0.0), 0.0, 0.1, 0.0) == 1.0

    def test_definition_arithmetic(self):
        out = euler_maruyama_step(2.0, DriftSpec.linear(1.0), 0.0, 0.1, 0.05)
        assert abs(out - 1.85) < 1e-15

    def test_vectorized(self):
        out = euler_maruyama_step(
            np.array([1.0, 2.0]), DriftSpec.linear(1.0), 0.0, 0.5, np.array([0.0, 0.0])
        )
        assert np.allclose(out, [0.5, 1.0])

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(NumericalOverflowError):
            euler_maruyama_step(np.nan, DriftSpec.linear(1.0), 0.0, 0.1, 0.0)
        with pytest.raises(NumericalOverflowError):
            euler_maruyama_step(1.0, DriftSpec.linear(1.0), 0.0, 0.1, np.inf)

    def test_bad_dt_rejected(self):
        with pytest.raises(InvalidInputError):
            euler_maruyama_step(1.0, DriftSpec.linear(1.0), 0.0, 0.0, 0.0)


class TestSdeConfig:
    def test_validation_messages(self):
        with pytest.raises(InvalidInputError, match="dt must be positive"):
            ou_cfg(dt=-1.0)
        with pytest.raises(InvalidInputError, match="n_particles"):
            ou_cfg(n_particles=0)
        with pytest.raises(InvalidInputError, match="sigma"):
            ou_cfg(sigma=-0.5)

    def test_record_every_must_divide(self):
        with pytest.raises(InvalidInputError, match="record_every"):
            ou_cfg(n_steps=1000, record_every=3)

    def test_recorded_times(self):
        cfg = ou_cfg(n_steps=10, record_every=5, t0=1.0, dt=0.1)
        assert np.allclose(cfg.recorded_times(), [1.0, 1.5, 2.0])

    @pytest.mark.parametrize("field", ["dt", "sigma", "t0", "x0"])
    def test_nan_is_rejected(self, field):
        with pytest.raises(InvalidInputError, match=field):
            ou_cfg(**{field: math.nan})


class TestTrajectoryBatch:
    def test_nan_time_is_rejected(self):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            TrajectoryBatch(np.array([0.0, math.nan, 2.0]), np.zeros((1, 3)))


class TestSimulateEnsemble:
    def test_deterministic_limit_matches_exponential(self):
        # sigma = 0 reduces to the explicit-Euler ODE path.
        cfg = ou_cfg(sigma=0.0, n_particles=3, n_steps=1000)
        batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        expected = np.exp(-batch.times)
        assert np.max(np.abs(batch.paths - expected)) < 1e-3

    def test_ou_mean_at_horizon(self):
        # analytic mean oracle x0 e^{-omega t} at T = 2
        cfg = ou_cfg(sigma=0.5, n_particles=20_000, n_steps=2000, record_every=2000)
        batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        final = batch.paths[:, -1]
        se = final.std(ddof=1) / np.sqrt(final.size)
        assert abs(final.mean() - np.exp(-2.0)) < 3 * se

    def test_ou_stationary_variance(self):
        cfg = ou_cfg(
            sigma=1.0, n_particles=5000, n_steps=800, dt=0.01, x0=0.0, record_every=800
        )
        batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        var = batch.paths[:, -1].var(ddof=1)
        se = var * np.sqrt(2.0 / (cfg.n_particles - 1))
        assert abs(var - 0.5) < 3 * se + 0.01  # EM bias allowance ~ omega*dt/2

    def test_same_seed_bitwise_identical(self):
        cfg = ou_cfg()
        b1 = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        b2 = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        assert np.array_equal(b1.paths, b2.paths)
        assert np.array_equal(b1.times, b2.times)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 0)  # three 256-particle chunks
        cfg = ou_cfg(n_particles=700)
        serial = simulate_ensemble(DriftSpec.linear(1.0), cfg, n_workers=1)
        threaded = simulate_ensemble(DriftSpec.linear(1.0), cfg, n_workers=4)
        assert np.array_equal(serial.paths, threaded.paths)

    def test_sampled_initial_conditions_reproducible(self):
        cfg = ou_cfg(x0=lambda gen: gen.standard_normal())
        b1 = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        b2 = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        assert np.array_equal(b1.paths, b2.paths)
        assert b1.paths[:, 0].std() > 0.5  # the sampler actually ran

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_equals_fresh_per_particle_streams(self, monkeypatch, n_workers):
        # Oracle: a newly built Philox generator per particle, sampler first.
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 0)  # 256-particle chunks
        cfg = ou_cfg(
            n_particles=700, n_steps=40, sigma=0.7, seed=-9,
            x0=lambda gen: 2.0 * gen.standard_normal() + gen.random(),
        )
        batch = simulate_ensemble(DriftSpec.linear(1.3), cfg, n_workers=n_workers)
        sdt = cfg.sigma * math.sqrt(cfg.dt)
        x = np.empty(cfg.n_particles)
        noise = np.empty((cfg.n_steps, cfg.n_particles))
        for i in range(cfg.n_particles):
            key = np.array([cfg.seed & (2**64 - 1), i], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            x[i] = cfg.x0(gen)
            noise[:, i] = sdt * gen.standard_normal(cfg.n_steps)
        expected = [x]
        for k in range(cfg.n_steps):
            x = x + (-1.3 * x) * cfg.dt + noise[k]
            expected.append(x)
        assert np.array_equal(batch.paths, np.array(expected).T)

    def test_no_stream_when_nothing_is_drawn(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a stream was set up for a particle that draws nothing")

        monkeypatch.setattr(sde, "particle_stream", no_stream)
        cfg = ou_cfg(sigma=0.0, n_particles=5, n_steps=10)
        batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        assert np.all(batch.paths[:, 0] == 1.0)
        assert np.all(batch.paths == batch.paths[0])

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("drift, n_particles, message", [
        (DriftSpec.linear(-40.0), 4,
         "particle 0 overflowed at step 8 (x=np.float64(7984925229121.0), |x| bound 1e+12)"),
        (DriftSpec(_at(3, np.nan)), 4,
         "particle 3 overflowed at step 1 (x=np.float64(nan), |x| bound 1e+12)"),
        (DriftSpec(_at(2, -np.inf)), 4,
         "particle 2 overflowed at step 1 (x=np.float64(-inf), |x| bound 1e+12)"),
        (DriftSpec(_blow_up_in_last_chunk), 600,
         "particle 519 overflowed at step 1 (x=np.float64(3000000000001.0), |x| bound 1e+12)"),
    ], ids=["finite", "nan", "-inf", "third-chunk"])
    def test_overflow_reports_particle_and_step(
        self, monkeypatch, drift, n_particles, message, n_workers
    ):
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 0)  # 256-particle chunks
        cfg = SdeConfig(
            dt=1.0, n_steps=60, sigma=0.0, n_particles=n_particles, seed=1, x0=1.0
        )
        with pytest.raises(NumericalOverflowError) as err:
            simulate_ensemble(drift, cfg, n_workers=n_workers)
        assert str(err.value) == message

    def test_weak_convergence_order_richardson(self):
        # Deterministic skeleton of the scheme: halving dt halves the
        # end-time mean error against the analytic decay.
        omega, t_final = 1.0, 2.0
        errs = []
        for dt in (2e-3, 1e-3):
            cfg = SdeConfig(
                dt=dt,
                n_steps=int(round(t_final / dt)),
                sigma=0.0,
                n_particles=1,
                seed=0,
                x0=1.0,
                record_every=int(round(t_final / dt)),
            )
            batch = simulate_ensemble(DriftSpec.linear(omega), cfg)
            mean_exact, _ = ou_analytic_moments(1.0, omega, 0.0, t_final)
            errs.append(abs(batch.paths[0, -1] - mean_exact))
        ratio = errs[0] / errs[1]
        assert 1.8 < ratio < 2.2

    def test_time_scaled_drift_start_offset(self):
        cfg = SdeConfig(
            dt=0.01, n_steps=100, sigma=0.0, n_particles=1, seed=0, x0=1.0, t0=1.0
        )
        batch = simulate_ensemble(DriftSpec.time_scaled(), cfg)
        # noiseless: dx/x = dt/t  =>  x(t) ~ t
        assert np.max(np.abs(batch.paths[0] / batch.times - 1.0)) < 0.01


class TestMomentumEstimate:
    def test_ballistic_path_exact(self):
        t = np.linspace(1.0, 10.0, 200)
        est = momentum_estimate(t, 3.0 * t)
        assert abs(est.p_hat - 3.0) < 1e-12
        assert est.converged
        assert est.window_variance < 1e-20

    def test_wiener_path_tends_to_zero(self):
        rng = np.random.default_rng(5)
        dt = 0.01
        n = 200_000
        t = 1.0 + np.arange(n + 1) * dt
        x = np.concatenate(([0.0], np.cumsum(np.sqrt(dt) * rng.standard_normal(n))))
        est = momentum_estimate(t, x, tail_fraction=0.1)
        assert abs(est.p_hat) < 0.1

    def test_short_path_rejected(self):
        t = np.linspace(1, 2, 20)
        with pytest.raises(InvalidInputError, match="at least 10"):
            momentum_estimate(t, t, tail_fraction=0.25)

    def test_zero_time_in_window_rejected(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(InvalidInputError, match="positive times"):
            momentum_estimate(t, t, tail_fraction=1.0)

    def test_bad_tail_fraction(self):
        t = np.linspace(1, 2, 50)
        with pytest.raises(InvalidInputError):
            momentum_estimate(t, t, tail_fraction=0.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_ensemble_rows_equal_single_paths(self, order):
        rng = np.random.default_rng(11)
        t = np.linspace(0.5, 20.0, 4001)
        paths = 0.3 * t + np.cumsum(rng.standard_normal((64, t.size)), axis=1)
        paths[5] = 2.0 * t  # converged exactly
        paths = np.asarray(paths, order=order)
        est = momentum_estimate(t, paths, tail_fraction=0.3, variance_threshold=0.05)
        rows = [momentum_estimate(t, x, tail_fraction=0.3, variance_threshold=0.05)
                for x in paths]
        assert np.array_equal(est.p_hat, [r.p_hat for r in rows])
        assert np.array_equal(est.window_variance, [r.window_variance for r in rows])
        assert np.array_equal(est.converged, [r.converged for r in rows])
        assert est.converged[5] and not est.converged.all()

    def test_ensemble_with_an_overflowing_row(self):
        t = np.linspace(1.0, 2.0, 50)
        paths = np.tile(t, (4, 1))
        paths[2, -1] = 1e308  # x_t / t is finite, its variance is not
        with pytest.raises(NumericalOverflowError, match="overflows"):
            momentum_estimate(t, paths)

    @pytest.mark.parametrize("positions", [np.ones(49), np.ones((3, 49)), np.ones((2, 3, 50))])
    def test_positions_must_run_over_the_times(self, positions):
        with pytest.raises(InvalidInputError, match="one path"):
            momentum_estimate(np.linspace(1, 2, 50), positions)


class TestOuAnalyticMoments:
    def test_initial_condition(self):
        assert ou_analytic_moments(1.0, 1.0, 1.0, 0.0) == (1.0, 0.0)

    def test_stationary_limit(self):
        mean, var = ou_analytic_moments(1.0, 1.0, 1.0, 1e6)
        assert abs(mean) < 1e-12
        assert abs(var - 0.5) < 1e-12

    def test_against_quadrature_oracle(self):
        x0, omega, sigma, t = 2.0, 0.5, 1.0, 2.0
        mean, var = ou_analytic_moments(x0, omega, sigma, t)
        assert abs(mean - x0 * np.exp(-omega * t)) < 1e-14
        var_quad, _ = quad(lambda s: sigma**2 * np.exp(-2 * omega * (t - s)), 0.0, t)
        assert abs(var - var_quad) < 1e-10

    def test_requires_positive_omega(self):
        with pytest.raises(InvalidInputError):
            ou_analytic_moments(1.0, 0.0, 1.0, 1.0)

import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import spinmech
from spinmech import sde
from spinmech.errors import InvalidInputError, NumericalOverflowError
from spinmech.rng import particle_stream
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


def _same_bits(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _blow_up_in_last_chunk(x, t):
    """Pushes particle 7 of the 1666-particle third chunk (of 5000) past the bound."""
    return np.where(np.arange(x.size) == 7, 3e12, 0.0) if x.size == 1666 else -x


def _blow_up_in_every_chunk(x, t):
    """Pushes particle 7 of each chunk past the bound: at step 1 in the last, step 5 in the rest."""
    late = x.size == 1667 and t < 4.0
    return -x if late else np.where(np.arange(x.size) == 7, 3e12, 0.0)


def _pool_bytes(width):
    """The traced bytes of a pool of ``width`` generators."""
    particle_stream(0, 0)  # the first build imports what every later one uses
    tracemalloc.start()
    try:
        gens = [particle_stream(0, i) for i in range(width)]  # noqa: F841, alive while measured
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


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
        with pytest.raises(InvalidInputError, match="^x must be finite"):
            euler_maruyama_step(np.nan, DriftSpec.linear(1.0), 0.0, 0.1, 0.0)
        with pytest.raises(InvalidInputError, match="^dw must be finite"):
            euler_maruyama_step(1.0, DriftSpec.linear(1.0), 0.0, 0.1, np.inf)
        with pytest.raises(InvalidInputError, match="^t must be finite"):
            euler_maruyama_step(1.0, DriftSpec.linear(1.0), np.nan, 0.1, 0.0)

    @pytest.mark.parametrize("x, omega, dw", [(1e308, -1.0, 1e308), (1e11, -100.0, 0.0),
                                              (0.0, 0.0, -1.5e12)],
                             ids=["non-finite", "drift-past-the-bound", "noise-past-the-bound"])
    def test_an_overflowing_step_is_a_numerical_error(self, x, omega, dw):
        # the ensemble's bound: a one-particle simulate_ensemble refuses 1.01e13 too
        with pytest.raises(NumericalOverflowError,
                           match=r"^Euler-Maruyama step overflowed \(\|x\| bound 1e\+12\)$"):
            euler_maruyama_step(x, DriftSpec.linear(omega), 0.0, 1.0, dw)
        assert euler_maruyama_step(1e12, DriftSpec.linear(0.0), 0.0, 1.0, 0.0) == 1e12

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
        assert np.allclose(replace(cfg, record_from=5).recorded_times(), [1.5, 2.0])

    @pytest.mark.parametrize("record_from", [-5, 3, 1005])
    def test_record_from_is_a_stride_multiple_up_to_n_steps(self, record_from):
        with pytest.raises(InvalidInputError, match="^record_from must be"):
            ou_cfg(n_steps=1000, record_every=5, record_from=record_from)

    @pytest.mark.parametrize("dt", [(), (0.1, 0.0), (0.1, -0.2), (math.nan, 0.1)])
    def test_refuses_a_bad_step_size_tuple(self, dt):
        with pytest.raises(InvalidInputError, match="^dt must"):
            ou_cfg(dt=dt)

    def test_step_sizes_must_divide_the_particles(self):
        with pytest.raises(InvalidInputError, match="divides n_particles=200"):
            ou_cfg(dt=(0.1, 0.2, 0.3))

    def test_recorded_times_of_a_tuple_are_one_row_per_step_size(self):
        cfg = ou_cfg(n_steps=10, record_every=5, t0=1.0, dt=(0.1, 0.3))
        assert np.array_equal(cfg.recorded_times(), [
            ou_cfg(n_steps=10, record_every=5, t0=1.0, dt=d).recorded_times() for d in (0.1, 0.3)
        ])
        assert cfg.t_final == 1.0 + 10 * 0.3

    @pytest.mark.parametrize("block", [4096, 2, 3])  # the collision in one block, or a later one
    def test_recorded_times_that_round_to_one_are_refused(self, monkeypatch, block):
        monkeypatch.setattr(sde, "_TIME_BLOCK", block)
        # 2**52 - 10 + k / 2 is exact up to 2**52, where the ulp grows to 1 and k = 21 rounds down
        with pytest.raises(InvalidInputError, match="^recorded times must be strictly increasing$"):
            ou_cfg(n_steps=40, record_every=1, t0=2.0**52 - 10, dt=0.5)
        cfg = ou_cfg(n_steps=40, record_every=1, t0=2.0**52 - 100, dt=0.5)  # an ulp apart
        assert np.all(np.diff(cfg.recorded_times()) > 0)

    def test_times_past_the_scan_are_left_to_the_batch(self, monkeypatch):
        monkeypatch.setattr(sde, "_TIME_SCAN", 39)
        cfg = ou_cfg(n_steps=40, record_every=1, t0=2.0**52 - 10, dt=0.5)  # 41 times
        with pytest.raises(InvalidInputError, match="^recorded times must be strictly increasing$"):
            TrajectoryBatch(cfg.recorded_times(), np.zeros((1, 41)))

    @pytest.mark.parametrize("field", ["dt", "sigma", "t0", "x0"])
    def test_nan_is_rejected(self, field):
        with pytest.raises(InvalidInputError, match=field):
            ou_cfg(**{field: math.nan})

    @pytest.mark.parametrize("field,value", [
        ("n_steps", 1000.0), ("n_particles", 200.0), ("n_particles", True),
        ("record_every", 2.0), ("seed", 1.5), ("seed", 123.0), ("seed", False),
        ("record_from", 10.0), ("record_from", True),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer"):
            ou_cfg(**{field: value})


class TestTrajectoryBatch:
    def test_nan_time_is_rejected(self):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            TrajectoryBatch(np.array([0.0, math.nan, 2.0]), np.zeros((1, 3)))

    @pytest.mark.parametrize("paths", [np.zeros((1, 2)), np.zeros(3), np.zeros((1, 3, 1))])
    def test_paths_must_be_rows_over_the_times(self, paths):
        with pytest.raises(InvalidInputError, match=r"^paths \(.*\) don't fit times \(3,\)$"):
            TrajectoryBatch(np.array([0.0, 1.0, 2.0]), paths)

    def test_variances_refuse_one_particle(self):
        batch = TrajectoryBatch(np.array([0.0, 1.0]), np.zeros((1, 2)))
        with pytest.raises(InvalidInputError, match="at least 2 particles, got 1"):
            batch.variances()


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

    @pytest.mark.parametrize("depth", [7, 1000], ids=["many-blocks", "one-block"])
    def test_worker_count_does_not_change_results(self, monkeypatch, depth):
        cfg = ou_cfg(n_particles=700)
        # three chunks of 234, 233 and 233 streams, each drawn in 143 step blocks or in one
        monkeypatch.setattr(sde, "_CHUNK_STREAMS", 256)
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 8 * 234 * depth)
        serial = simulate_ensemble(DriftSpec.linear(1.0), cfg, n_workers=1)
        threaded = simulate_ensemble(DriftSpec.linear(1.0), cfg, n_workers=4)
        assert np.array_equal(serial.paths, threaded.paths)

    def test_threaded_draws_under_a_short_switch_interval(self, monkeypatch):
        # 8 workers on 16 chunks of 63 streams, switching threads every microsecond: a lost
        # or misplaced write to the shared generator pool, x0 or noise block moves the paths
        monkeypatch.setattr(sde, "_CHUNK_STREAMS", 64)
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 8 * 63 * 7)  # 7-step blocks
        cfg = ou_cfg(n_particles=1000, n_steps=50, x0=lambda gen: gen.standard_normal())
        serial = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            threaded = simulate_ensemble(DriftSpec.linear(1.0), cfg, n_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - started < 60.0
        assert np.array_equal(serial.paths, threaded.paths)

    @pytest.mark.parametrize("n_workers, streams, budget, n_particles", [
        # four 256-stream chunks of 2048 steps: a chunk's full-length noise is
        # 4x the 1 MiB budget, so each chunk draws in 4 blocks of 512 steps
        (1, 256, 1 << 20, 1024),
        (2, 256, 1 << 20, 1024),
        # the sizes a run uses: one chunk of 2048 streams in 4 blocks
        (1, sde._CHUNK_STREAMS, sde._CHUNK_NOISE_BYTES, sde._CHUNK_STREAMS),
    ], ids=["1-worker", "2-workers", "production"])
    def test_noise_stays_within_the_budget(self, monkeypatch, n_workers, streams, budget,
                                           n_particles):
        monkeypatch.setattr(sde, "_CHUNK_STREAMS", streams)
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", budget)
        depth = budget // (8 * streams)
        cfg = SdeConfig(dt=1e-3, n_steps=4 * depth, sigma=1.0, n_particles=n_particles, seed=1,
                        x0=1.0, record_every=depth)
        pool = _pool_bytes(streams)  # the run's generators, one per stream of a chunk
        simulate_ensemble(DriftSpec.linear(1.0), replace(cfg, n_steps=1, record_every=1),
                          n_workers)  # imports the thread pool before the count starts
        tracemalloc.start()
        try:
            batch = simulate_ensemble(DriftSpec.linear(1.0), cfg, n_workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = 8 * min(sde._TILE, streams) * depth
        state = 5 * 8 * streams  # x, its next step, dw, guard scratch, the drift's value
        # one noise block and one pool per run; a worker adds a tile, a pool thread its objects
        per_run = budget + pool + state + (16 << 10)  # + small objects
        threads = n_workers if n_workers > 1 else 0
        assert peak <= per_run + n_workers * tile + threads * (8 << 10) + batch.paths.nbytes
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 8 * cfg.n_steps * streams)
        one_block = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        assert np.array_equal(batch.paths, one_block.paths)

    @pytest.mark.parametrize("n_workers", [0, -3, 1.5, math.nan, True])
    def test_refuses_a_worker_count_below_one(self, n_workers):
        with pytest.raises(InvalidInputError, match="^n_workers must be an integer >= 1"):
            simulate_ensemble(DriftSpec.linear(1.0), ou_cfg(), n_workers=n_workers)

    def test_sampled_initial_conditions_reproducible(self):
        cfg = ou_cfg(x0=lambda gen: gen.standard_normal())
        b1 = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        b2 = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        assert np.array_equal(b1.paths, b2.paths)
        assert b1.paths[:, 0].std() > 0.5  # the sampler actually ran

    @pytest.mark.parametrize("drift", [DriftSpec.linear(1.3), DriftSpec(lambda x, t: x)],
                             ids=["linear", "returns-its-input"])
    @pytest.mark.parametrize("dt", [1e-3, (1e-3, 0.02, 0.3)], ids=["G=1", "G=3"])
    @pytest.mark.parametrize("depth", [1, 40], ids=["many-blocks", "one-block"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_equals_fresh_per_particle_streams(self, monkeypatch, n_workers, depth, dt, drift):
        # Oracle: a newly built Philox generator per particle, sampler first.
        n = 230
        cfg = ou_cfg(
            dt=dt, n_particles=len(np.atleast_1d(dt)) * n, n_steps=40, sigma=0.7, seed=-9,
            x0=lambda gen: 2.0 * gen.standard_normal() + gen.random(),
        )
        # four chunks of 58, 58, 58 and 56 streams: a worker's pool is re-keyed chunk by chunk
        monkeypatch.setattr(sde, "_CHUNK_STREAMS", 64)
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 8 * len(cfg.step_sizes) * 58 * depth)
        batch = simulate_ensemble(drift, cfg, n_workers=n_workers)
        x0 = np.empty(n)
        normals = np.empty((cfg.n_steps, n))
        for i in range(n):
            key = np.array([cfg.seed & (2**64 - 1), i], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            x0[i] = cfg.x0(gen)
            normals[:, i] = gen.standard_normal(cfg.n_steps)
        for g, h in enumerate(cfg.step_sizes):
            x, sdt = x0, cfg.sigma * math.sqrt(h)
            expected = [x]
            for k in range(cfg.n_steps):
                x = x + drift(x, k * h) * h + sdt * normals[k]
                expected.append(x)
            assert np.array_equal(batch.paths[g * n:(g + 1) * n], np.array(expected).T)

    @pytest.mark.parametrize("n_paths, n_steps", [(40, 30), (600, 90)], ids=["one-chunk", "3-chunks"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    @pytest.mark.parametrize("x0", [1.0, lambda gen: 1.0 + gen.standard_normal()],
                             ids=["scalar", "sampled"])
    def test_stacked_step_sizes_equal_separate_runs(
        self, monkeypatch, x0, sigma, n_workers, n_paths, n_steps
    ):
        monkeypatch.setattr(sde, "_CHUNK_STREAMS", 256)  # 600 paths: 3 chunks of 200
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 0)  # one-step blocks
        dts = (0.01, 0.1, 1.0)
        drift = DriftSpec.time_scaled()
        base = dict(n_steps=n_steps, sigma=sigma, seed=4, x0=x0, t0=1.0, record_every=3)
        stacked = simulate_ensemble(
            drift, SdeConfig(dt=dts, n_particles=3 * n_paths, **base), n_workers
        )
        assert stacked.times.shape == (3, n_steps // 3 + 1)
        for g, dt in enumerate(dts):
            one = simulate_ensemble(drift, SdeConfig(dt=dt, n_particles=n_paths, **base), n_workers)
            assert _same_bits(stacked.paths[g * n_paths:(g + 1) * n_paths], one.paths)
            assert np.array_equal(stacked.times[g], one.times)

    @pytest.mark.parametrize("record_from", [60, 90])
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("dt", [0.01, (0.01, 0.1, 1.0)], ids=["G=1", "G=3"])
    @pytest.mark.parametrize("x0", [1.0, lambda gen: 1.0 + gen.standard_normal()],
                             ids=["scalar", "sampled"])
    def test_a_window_is_the_tail_of_the_full_record(
        self, monkeypatch, x0, dt, n_workers, record_from
    ):
        monkeypatch.setattr(sde, "_CHUNK_STREAMS", 256)  # 600 or 1800 paths: 3 or 8 chunks
        monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", 0)  # one-step blocks
        cfg = SdeConfig(dt=dt, n_steps=90, sigma=1.0, n_particles=3 * 600, seed=4, x0=x0,
                        t0=1.0, record_every=3)
        drift = DriftSpec.time_scaled()
        full = simulate_ensemble(drift, cfg, n_workers)
        window = simulate_ensemble(drift, replace(cfg, record_from=record_from), n_workers)
        n_win = (90 - record_from) // 3 + 1  # one sample when record_from == n_steps
        assert window.paths.shape == (cfg.n_particles, n_win)
        assert _same_bits(window.paths, full.paths[:, -n_win:])
        assert np.array_equal(window.times, cfg.recorded_times()[..., -n_win:])

    def test_record_from_zero_stores_x0_first(self):
        cfg = ou_cfg(n_particles=20, n_steps=10, seed=-9, record_every=5, record_from=0,
                     x0=lambda gen: gen.standard_normal())
        batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        x0 = [cfg.x0(np.random.Generator(np.random.Philox(
            key=np.array([cfg.seed & (2**64 - 1), i], dtype=np.uint64)))) for i in range(20)]
        assert np.array_equal(batch.paths[:, 0], x0)
        later = simulate_ensemble(DriftSpec.linear(1.0), replace(cfg, record_from=5))
        assert np.array_equal(batch.paths[:, 1:], later.paths)

    @pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "one-chunk"])
    def test_a_serial_run_imports_no_thread_pool(self, n_workers):
        # a one-chunk run is serial at any worker count: its blocks are drawn on the caller
        src = os.path.dirname(os.path.dirname(spinmech.__file__))
        code = ("import sys, spinmech\n"
                "from spinmech.sde import DriftSpec, SdeConfig, simulate_ensemble\n"
                "cfg = SdeConfig(dt=0.01, n_steps=10, sigma=1.0, n_particles=4, seed=1)\n"
                f"simulate_ensemble(DriftSpec.linear(1.0), cfg, {n_workers})\n"
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_zero_scaled_step_size_adds_positive_zero(self, monkeypatch, n_workers):
        # sigma * sqrt(0.25) underflows to 0 while sigma * sqrt(4.0) does not:
        # that group must step as an undrawn run does, adding +0.0 rather than 0.0 * z.
        monkeypatch.setattr(sde, "_CHUNK_STREAMS", 8)  # 20 paths: chunks of 7, 7 and 6
        drift = DriftSpec(lambda x, t: x)  # keeps x = -0.0 at -0.0 before the noise
        base = dict(n_steps=4, sigma=5e-324, seed=2, x0=-0.0)
        stacked = simulate_ensemble(drift, SdeConfig(dt=(4.0, 0.25), n_particles=40, **base),
                                    n_workers)
        quiet = simulate_ensemble(drift, SdeConfig(dt=0.25, n_particles=20, **base), n_workers)
        loud = simulate_ensemble(drift, SdeConfig(dt=4.0, n_particles=20, **base), n_workers)
        assert not np.signbit(quiet.paths[:, 1:]).any()
        assert _same_bits(stacked.paths[20:], quiet.paths)
        assert _same_bits(stacked.paths[:20], loud.paths)

    @pytest.mark.parametrize("dt", [9e268, (9e268, 1e269)])
    def test_an_infinite_noise_scale_fails_the_bound_check(self, dt):
        # sigma * sqrt(dt) overflows to inf without a numpy warning; the first step reports it
        cfg = SdeConfig(dt=dt, n_steps=2, sigma=1e270, n_particles=2, seed=1, x0=1.0)
        with pytest.raises(NumericalOverflowError, match="^particle 0 overflowed at step 1 "):
            simulate_ensemble(DriftSpec.linear(1.0), cfg)

    def test_stacked_overflow_reports_the_stacked_row(self):
        cfg = SdeConfig(dt=(0.5, 2.0), n_steps=60, sigma=0.0, n_particles=8, seed=1, x0=1.0)
        with pytest.raises(NumericalOverflowError) as err:  # 81**7 > 1e12 in rows 4-7
            simulate_ensemble(DriftSpec.linear(-40.0), cfg)
        assert str(err.value) == (
            "particle 4 overflowed at step 7 (x=22876792454961.0, |x| bound 1e+12)"
        )

    def test_no_stream_when_nothing_is_drawn(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a stream was set up for a particle that draws nothing")

        monkeypatch.setattr(sde, "particle_stream", no_stream)
        cfg = ou_cfg(sigma=0.0, n_particles=5, n_steps=10)
        batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        assert np.all(batch.paths[:, 0] == 1.0)
        assert np.all(batch.paths == batch.paths[0])

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("drift, n_particles, message", [
        (DriftSpec.linear(-40.0), 4,
         "particle 0 overflowed at step 8 (x=7984925229121.0, |x| bound 1e+12)"),
        (DriftSpec(_at(3, np.nan)), 4,
         "particle 3 overflowed at step 1 (x=nan, |x| bound 1e+12)"),
        (DriftSpec(_at(2, -np.inf)), 4,
         "particle 2 overflowed at step 1 (x=-inf, |x| bound 1e+12)"),
        (DriftSpec(_blow_up_in_last_chunk), 5000,
         "particle 3341 overflowed at step 1 (x=3000000000001.0, |x| bound 1e+12)"),
        (DriftSpec(_blow_up_in_every_chunk), 5000,
         "particle 7 overflowed at step 5 (x=3000000000000.0, |x| bound 1e+12)"),
    ], ids=["finite", "nan", "-inf", "third-chunk", "lowest-chunk"])
    def test_overflow_reports_particle_and_step(self, drift, n_particles, message, n_workers):
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

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, math.inf, None])
    def test_bad_variance_threshold(self, threshold):
        t = np.linspace(1, 2, 50)
        with pytest.raises(InvalidInputError, match="^variance_threshold must be >= 0"):
            momentum_estimate(t, np.vstack([t, t]), variance_threshold=threshold)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        t = np.linspace(1.0, 2.0, 50)
        t[-1] = bad
        with pytest.raises(InvalidInputError, match="^times must be finite"):
            momentum_estimate(t, np.ones(50))

    @pytest.mark.parametrize("shape", [(50,), (4, 50)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_in_the_window_rejected(self, shape, bad):
        positions = np.ones(shape)
        positions[..., -1] = bad
        with pytest.raises(InvalidInputError, match="^positions in the tail window must be"):
            momentum_estimate(np.linspace(1.0, 2.0, 50), positions)

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

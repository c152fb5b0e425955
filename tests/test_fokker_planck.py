import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmech.errors import (
    ConfigurationError,
    InvalidInputError,
    NumericalOverflowError,
)
from spinmech.fokker_planck import (
    TIME_SLACK,
    DensityField,
    Grid1D,
    fp_solve,
    fp_step,
    histogram_density,
    l1_distance,
    stable_dt,
)
from spinmech.sde import DriftSpec, SdeConfig, drift_from_density, simulate_ensemble

ZERO_DRIFT = DriftSpec.linear(0.0)
NAN_DRIFT = DriftSpec(lambda x, t: np.full_like(x, math.nan), autonomous=True)


def gaussian_field(grid, mu=0.0, std=1.0):
    return DensityField.from_function(
        grid, lambda x: np.exp(-((np.asarray(x) - mu) ** 2) / (2 * std * std))
    )


class TestGrid1D:
    def test_geometry(self):
        g = Grid1D(-1.0, 1.0, 16)
        assert g.dx == 0.125
        assert g.centers[0] == -1.0 + 0.0625
        assert g.faces[0] == -1.0 and g.faces[-1] == 1.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Grid1D(1.0, -1.0, 32)
        with pytest.raises(InvalidInputError):
            Grid1D(-1.0, 1.0, 8)

    @pytest.mark.parametrize("n_cells", [16.5, 16.0, True])
    def test_cell_count_must_be_an_integer(self, n_cells):
        with pytest.raises(InvalidInputError, match="^n_cells must be an integer >= 16"):
            Grid1D(0.0, 1.0, n_cells)


class TestDensityField:
    def test_rejects_negative_values(self):
        g = Grid1D(0.0, 1.0, 16)
        values = np.full(16, 1.0)
        values[3] = -0.1
        with pytest.raises(InvalidInputError):
            DensityField(g, values)

    def test_rejects_unnormalized(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(InvalidInputError, match="mass"):
            DensityField(g, np.full(16, 2.0))

    def test_rejects_nan_values(self):
        with pytest.raises(InvalidInputError, match="non-negative"):
            DensityField(Grid1D(-1.0, 1.0, 16), np.full(16, math.nan))

    def test_from_function_normalizes(self):
        g = Grid1D(-5.0, 5.0, 128)
        f = gaussian_field(g)
        assert abs(f.mass() - 1.0) < 1e-12

    def test_moments(self):
        g = Grid1D(-8.0, 8.0, 1024)
        f = gaussian_field(g, mu=0.5, std=0.7)
        assert abs(f.mean() - 0.5) < 1e-6
        assert abs(f.variance() - 0.49) < 1e-3


class TestFpStep:
    def test_no_dynamics_is_identity(self):
        g = Grid1D(-4.0, 4.0, 32)
        f = gaussian_field(g, std=0.5)
        out = fp_step(f, ZERO_DRIFT, 0.0, 0.0, 0.01)
        assert np.array_equal(out.values, f.values)

    def test_mass_conserved_per_step(self):
        g = Grid1D(-5.0, 5.0, 128)
        f = gaussian_field(g)
        drift = DriftSpec.linear(1.0)
        dt = stable_dt(drift, 1.0, g)
        out = fp_step(f, drift, 1.0, 0.0, dt)
        assert abs(out.mass() - f.mass()) < 1e-12

    def test_diffusive_bound_named(self):
        g = Grid1D(-2.0, 2.0, 64)
        f = gaussian_field(g, std=0.5)
        with pytest.raises(ConfigurationError, match="diffusive stability bound"):
            fp_step(f, ZERO_DRIFT, 1.0, 0.0, 1.0)

    def test_advective_bound_named(self):
        g = Grid1D(-2.0, 2.0, 64)
        f = gaussian_field(g, std=0.5)
        with pytest.raises(ConfigurationError, match="advective CFL bound"):
            fp_step(f, DriftSpec.linear(5.0), 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_stable_dt_refuses_a_bad_sigma(self, sigma):
        with pytest.raises(InvalidInputError, match="^sigma must be >= 0"):
            stable_dt(DriftSpec.linear(1.0), sigma, Grid1D(-1.0, 1.0, 16))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_solve_refuses_a_bad_sigma_without_a_step(self, sigma):
        f = gaussian_field(Grid1D(-4.0, 4.0, 32), std=0.5)
        with pytest.raises(InvalidInputError, match="^sigma must be >= 0"):
            fp_solve(f, DriftSpec.linear(1.0), sigma, 0.0, 1e-3)

    def test_stable_dt_names_no_dynamics_on_an_underflowing_grid(self):
        # dx * dx underflows to 0, yet sigma and the drift are both zero
        with pytest.raises(InvalidInputError, match="^no dynamics"):
            stable_dt(ZERO_DRIFT, 0.0, Grid1D(0.0, 1.6e-169, 16))

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_stable_dt_refuses_a_nan_drift(self, sigma):
        with pytest.raises(InvalidInputError, match="^drift is not finite"):
            stable_dt(NAN_DRIFT, sigma, Grid1D(-8.0, 8.0, 32))

    @pytest.mark.parametrize("omega,sigma", [(0.0, 1e-200), (1e-320, 0.0)])
    def test_stable_dt_refuses_an_infinite_step(self, omega, sigma):
        # every bound underflows to none, so no finite step is left to return
        with pytest.raises(InvalidInputError, match="^no stable step is representable"):
            stable_dt(DriftSpec.linear(omega), sigma, Grid1D(-1.0, 1.0, 16))

    def test_boundary_mass_warning(self):
        g = Grid1D(-1.0, 1.0, 32)
        f = gaussian_field(g, std=2.0)  # broad density pressed to the edges
        with pytest.warns(RuntimeWarning, match="boundary mass"):
            fp_step(f, ZERO_DRIFT, 0.2, 0.0, 1e-4)

    def test_heat_equation_variance_growth(self):
        # pure diffusion: Var(T) = Var(0) + sigma^2 T
        g = Grid1D(-8.0, 8.0, 512)
        sigma = 0.5
        f = gaussian_field(g, std=1.0)
        dt = stable_dt(ZERO_DRIFT, sigma, g)
        t_final = 1.0
        _, snaps = fp_solve(f, ZERO_DRIFT, sigma, t_final, dt)
        expected = f.variance() + sigma**2 * t_final
        assert abs(snaps[-1].variance() - expected) / expected < 0.02

    def test_stationary_density_stays_put(self):
        omega, sigma = 1.0, 1.0
        g = Grid1D(-4.5, 4.5, 256)

        def rho(x):
            return np.exp(-omega * np.asarray(x) ** 2 / sigma**2)

        f = DensityField.from_function(g, rho)
        drift = drift_from_density(rho, sigma)
        dt = stable_dt(drift, sigma, g)
        current = f
        for k in range(1000):
            current = fp_step(current, drift, sigma, k * dt, dt)
        assert l1_distance(current, f) < 1e-3

    def test_non_negative_under_strong_drift(self):
        g = Grid1D(-4.0, 4.0, 128)
        f = gaussian_field(g, mu=1.0, std=0.4)
        drift = DriftSpec.linear(3.0)
        dt = stable_dt(drift, 0.8, g)
        _, snaps = fp_solve(f, drift, 0.8, 0.5, dt)
        assert np.min(snaps[-1].values) >= 0.0

    def test_nan_density_raised_by_step(self):
        # a NaN drift passes both step bounds; the negative-density guard must catch it
        g = Grid1D(-8.0, 8.0, 32)
        with pytest.raises(NumericalOverflowError, match="density went negative or NaN"):
            fp_step(gaussian_field(g, std=1.0), NAN_DRIFT, 1.0, 0.0, 1e-3)


class TestFpSolve:
    def test_zero_horizon_returns_initial(self):
        g = Grid1D(-3.0, 3.0, 64)
        f = gaussian_field(g)
        times, snaps = fp_solve(f, ZERO_DRIFT, 1.0, 0.0, 1e-3)
        assert list(times) == [0.0]
        assert snaps[0] is f

    @pytest.mark.parametrize(
        "t_final,dt,output_times",
        [(5e-13, 5e-14, np.linspace(0.0, 5e-13, 3)), (1e-20, 1e-3, None)],
    )
    def test_short_horizon_steps_to_each_output_time(self, t_final, dt, output_times):
        f = gaussian_field(Grid1D(-4.0, 4.0, 64), std=0.5)
        times, snaps = fp_solve(f, DriftSpec.linear(1.0), 1.0, t_final, dt, output_times)
        expected = [t_final] if output_times is None else output_times
        assert times == pytest.approx(expected, rel=TIME_SLACK, abs=0.0)
        assert snaps[-1] is not f

    @pytest.mark.filterwarnings("ignore:boundary mass")
    def test_time_dependent_drift_takes_no_zero_length_last_step(self):
        # ten thousand steps of 0.1 add up to 1000.0000000001588, past t_final
        g = Grid1D(-300.0, 300.0, 16)
        drift, calls = counting(DriftSpec.time_scaled(1.0))
        t_final = 1000.0000000001
        times, _ = fp_solve(gaussian_field(g, std=50.0), drift, 1.0, t_final, 0.1)
        assert abs(times[-1] - t_final) <= TIME_SLACK * t_final
        assert calls[0] == 10_000

    def test_final_snapshot_when_steps_sum_short_of_t_final(self):
        # six steps of 3333.3 add up to 19999.8, 3.6e-12 short of 6 * 3333.3
        g = Grid1D(-1000.0, 1000.0, 16)
        t_final = 6 * 3333.3
        times, snaps = fp_solve(gaussian_field(g, std=100.0), ZERO_DRIFT, 1e-3, t_final, 3333.3)
        assert len(snaps) == 1
        assert times[0] == pytest.approx(t_final, rel=1e-15)

    def test_start_and_repeated_final_snapshots_when_steps_sum_short(self):
        g = Grid1D(-1000.0, 1000.0, 16)
        t_final = 6 * 3333.3
        f = gaussian_field(g, std=100.0)
        times, snaps = fp_solve(f, ZERO_DRIFT, 1e-3, t_final, 3333.3, [0.0, t_final, t_final])
        assert times[0] == 0.0 and snaps[0] is f
        assert times[1] == times[2] == pytest.approx(t_final, rel=1e-15)
        final = step_chain(f, ZERO_DRIFT, 1e-3, t_final, 3333.3).values
        assert np.array_equal(snaps[1].values, final) and np.array_equal(snaps[2].values, final)

    def test_mean_decay_matches_analytic(self):
        omega, sigma = 1.0, 1.0
        g = Grid1D(-4.0, 4.0, 512)
        f = gaussian_field(g, mu=1.0, std=0.15)
        drift = DriftSpec.linear(omega)
        dt = stable_dt(drift, sigma, g)
        out_times = [0.25, 0.5, 1.0]
        times, snaps = fp_solve(f, drift, sigma, 1.0, dt, out_times)
        for t, snap in zip(times, snaps):
            expected = 1.0 * np.exp(-omega * t)
            assert abs(snap.mean() - expected) < 0.01 * max(1.0, expected)

    def test_long_run_mass_conservation(self):
        g = Grid1D(-4.0, 4.0, 64)
        f = gaussian_field(g, std=0.8)
        drift = DriftSpec.linear(1.0)
        dt = stable_dt(drift, 1.0, g)
        current = f
        worst = 0.0
        prev_mass = f.mass()
        for k in range(20_000):
            current = fp_step(current, drift, 1.0, k * dt, dt)
            mass = current.values.sum() * g.dx
            worst = max(worst, abs(mass - prev_mass))
            prev_mass = mass
        assert worst < 1e-12
        assert abs(prev_mass - 1.0) < 1e-9

    def test_grid_refinement_reduces_stationary_residual(self):
        # Quartic-potential stationary pair: the fitted flux is exact only
        # for locally linear drift, so this residual is genuinely O(dx^2).
        sigma = 1.0

        def rho(x):
            return np.exp(-np.asarray(x, dtype=float) ** 4)

        drift = drift_from_density(rho, sigma)
        changes = []
        for n_cells in (64, 128):
            g = Grid1D(-2.5, 2.5, n_cells)
            f = DensityField.from_function(g, rho)
            dt = stable_dt(drift, sigma, g)
            _, snaps = fp_solve(f, drift, sigma, 2.0, dt)
            changes.append(l1_distance(snaps[-1], f))
        assert changes[0] / changes[1] >= 2.0


def step_chain(rho, drift, sigma, t_final, dt):
    """The final field of ``fp_solve`` rebuilt from single ``fp_step`` calls."""
    t = 0.0
    for _ in range(math.ceil(t_final / dt - 1e-12)):
        step = min(dt, t_final - t)
        rho = fp_step(rho, drift, sigma, t, step)
        t = min(t + step, t_final)
    return rho


def counting(drift):
    """``drift`` with a call counter in ``calls[0]``; autonomy is kept."""
    calls = [0]

    def fn(x, t):
        calls[0] += 1
        return drift.fn(x, t)

    return replace(drift, fn=fn), calls


def _rho_stationary(x):
    return np.exp(-np.asarray(x) ** 2)


AUTONOMOUS_DRIFTS = {
    "linear": DriftSpec.linear(1.5),
    "from_density": drift_from_density(_rho_stationary, 1.0),
    "tabulated": DriftSpec.tabulated(
        np.linspace(-5.0, 5.0, 41), np.sin(np.linspace(-5.0, 5.0, 41))
    ),
}


class TestAutonomousFastPath:
    """fp_solve hoists the drift of an autonomous spec without moving a bit."""

    def test_autonomy_of_each_drift_kind(self):
        assert all(d.autonomous for d in AUTONOMOUS_DRIFTS.values())
        assert not DriftSpec.time_scaled(1.0).autonomous

    @pytest.mark.parametrize("sigma", [0.8, 0.0])
    @pytest.mark.parametrize("kind", sorted(AUTONOMOUS_DRIFTS))
    def test_equals_a_chain_of_steps(self, kind, sigma):
        g = Grid1D(-6.0, 6.0, 96)
        f = gaussian_field(g, mu=0.5, std=0.6)
        drift = AUTONOMOUS_DRIFTS[kind]
        dt = stable_dt(drift, sigma, g)
        t_final = 123.4 * dt  # the last step is shorter than dt
        times, snaps = fp_solve(f, drift, sigma, t_final, dt)
        assert times[-1] == t_final
        assert np.array_equal(snaps[-1].values, step_chain(f, drift, sigma, t_final, dt).values)

    def test_time_scaled_drift_keeps_per_step_evaluation(self):
        g = Grid1D(-8.0, 8.0, 96)
        f = gaussian_field(g, std=0.5)
        drift, calls = counting(DriftSpec.time_scaled(t_floor=1.0))
        dt = 0.5 * stable_dt(DriftSpec.time_scaled(t_floor=1.0), 0.7, g)
        t_final = 200.5 * dt
        _, snaps = fp_solve(f, drift, 0.7, t_final, dt)
        assert calls[0] == 201  # one evaluation per step, 201 steps
        expected = step_chain(f, DriftSpec.time_scaled(t_floor=1.0), 0.7, t_final, dt)
        assert np.array_equal(snaps[-1].values, expected.values)

    @pytest.mark.parametrize("kind", sorted(AUTONOMOUS_DRIFTS))
    def test_drift_evaluated_a_constant_number_of_times(self, kind):
        g = Grid1D(-6.0, 6.0, 96)
        f = gaussian_field(g, std=0.5)
        drift, calls = counting(AUTONOMOUS_DRIFTS[kind])
        dt = stable_dt(AUTONOMOUS_DRIFTS[kind], 1.0, g)
        _, snaps = fp_solve(f, drift, 1.0, 200 * dt, dt, [0.0, 100 * dt, 200 * dt])
        assert len(snaps) == 3
        assert calls[0] == 1

    def test_horizon_shorter_than_dt_is_judged_by_the_step_taken(self):
        g = Grid1D(-2.0, 2.0, 64)
        f = gaussian_field(g, std=0.3)
        drift = DriftSpec.linear(5.0)
        bound = g.dx / (5.0 * 2.0)  # dx / max|u| on the interior faces
        fp_solve(f, drift, 0.0, 0.5 * bound, 10.0 * bound)
        with pytest.raises(ConfigurationError, match="advective CFL bound"):
            fp_solve(f, drift, 0.0, 1.5 * bound, 10.0 * bound)

    def test_stability_error_raised_by_solve(self):
        g = Grid1D(-2.0, 2.0, 64)
        f = gaussian_field(g, std=0.5)
        with pytest.raises(ConfigurationError, match="diffusive stability bound"):
            fp_solve(f, ZERO_DRIFT, 1.0, 2.0, 1.0)

    def test_negative_density_raised_by_solve(self):
        # a spike on a diverging drift: both bounds hold, their sum does not
        g = Grid1D(-4.0, 4.0, 65)
        sigma, dx = 1.0, g.dx
        u = 2.0 * sigma**2 / dx
        drift = DriftSpec.tabulated([-4.0, -dx / 4, dx / 4, 4.0], [-u, -u, u, u])
        dt = 0.99 * min(dx * dx / (2.0 * sigma**2), dx / u)
        spike = np.zeros(65)
        spike[32] = 1.0 / dx
        with pytest.raises(NumericalOverflowError, match="density went negative"):
            fp_solve(DensityField(g, spike), drift, sigma, 3 * dt, dt)

    def test_boundary_mass_warning_raised_by_solve(self):
        g = Grid1D(-1.0, 1.0, 32)
        f = gaussian_field(g, std=2.0)
        with pytest.warns(RuntimeWarning, match="boundary mass") as record:
            fp_solve(f, ZERO_DRIFT, 0.2, 3e-4, 1e-4)
        assert record[0].filename == __file__
        assert len(record) == 1


class TestHistogramDensity:
    def _batch(self, positions):
        positions = np.asarray(positions, dtype=float)
        return type(
            "FakeBatch",
            (),
            {
                "paths": positions.reshape(-1, 1),
                "n_particles": positions.size,
                "times": np.array([0.0]),
            },
        )()

    def test_single_cell_spike(self):
        g = Grid1D(0.0, 1.0, 16)
        center = g.centers[5]
        field, out_frac = histogram_density(self._batch([center] * 50), 0, g)
        assert out_frac == 0.0
        assert field.values[5] == pytest.approx(1.0 / g.dx)
        assert np.count_nonzero(field.values) == 1

    def test_standard_normal_matches_pdf(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(100_000)
        g = Grid1D(-5.0, 5.0, 64)
        field, out_frac = histogram_density(self._batch(samples), 0, g)
        pdf = DensityField.from_function(
            g, lambda x: np.exp(-np.asarray(x) ** 2 / 2.0)
        )
        assert out_frac < 1e-4
        assert l1_distance(field, pdf) < 0.02

    def test_symmetric_bimodal(self):
        rng = np.random.default_rng(3)
        half = 20_000
        samples = np.concatenate(
            [rng.normal(-2.0, 0.1, half), rng.normal(2.0, 0.1, half)]
        )
        g = Grid1D(-3.0, 3.0, 60)
        field, _ = histogram_density(self._batch(samples), 0, g)
        left = field.values[g.centers < 0].sum() * g.dx
        right = field.values[g.centers > 0].sum() * g.dx
        assert abs(left - 0.5) < 3 * np.sqrt(0.25 / (2 * half))
        assert abs(left - right) < 0.02

    def test_out_of_range_mass_reported(self):
        g = Grid1D(-1.0, 1.0, 16)
        field, out_frac = histogram_density(self._batch([0.0, 0.5, 5.0, -7.0]), 0, g)
        assert out_frac == 0.5
        assert abs(field.mass() - 1.0) < 1e-12

    def test_real_batch_roundtrip(self):
        cfg = SdeConfig(dt=0.01, n_steps=100, sigma=1.0, n_particles=5000, seed=9, x0=0.0)
        batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
        g = Grid1D(-5.0, 5.0, 64)
        field, out_frac = histogram_density(batch, -1, g)
        assert out_frac < 0.01
        assert abs(field.mass() - 1.0) < 1e-12


class TestL1Distance:
    def _field(self, grid, values):
        return DensityField(grid, values)

    def test_identity(self):
        g = Grid1D(0.0, 1.0, 16)
        f = gaussian_field(g, mu=0.5, std=0.2)
        assert l1_distance(f, f) == 0.0

    def test_disjoint_unit_masses(self):
        g = Grid1D(0.0, 1.0, 16)
        a = np.zeros(16)
        a[2] = 1.0 / g.dx
        b = np.zeros(16)
        b[10] = 1.0 / g.dx
        assert l1_distance(self._field(g, a), self._field(g, b)) == pytest.approx(2.0)

    def test_mass_transfer(self):
        g = Grid1D(0.0, 1.0, 16)
        a = np.zeros(16)
        a[2] = 1.0 / g.dx
        b = np.zeros(16)
        b[2] = 0.9 / g.dx
        b[10] = 0.1 / g.dx
        assert l1_distance(self._field(g, a), self._field(g, b)) == pytest.approx(0.2)

    def test_grid_mismatch_rejected(self):
        f1 = gaussian_field(Grid1D(-2.0, 2.0, 32))
        f2 = gaussian_field(Grid1D(-2.0, 2.0, 64))
        with pytest.raises(InvalidInputError):
            l1_distance(f1, f2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid1D(0.0, 1.0, 16)

        def random_field():
            v = rng.random(16) + 1e-3
            return DensityField(g, v / (v.sum() * g.dx))

        a, b, c = random_field(), random_field(), random_field()
        assert l1_distance(a, b) == pytest.approx(l1_distance(b, a))
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12
        assert l1_distance(a, b) >= 0.0

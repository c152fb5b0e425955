"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from spinmech.control import (
    ControlLaw,
    ReferenceTrajectory,
    simulate_tracking,
)
from spinmech.fokker_planck import (
    DensityField,
    Grid1D,
    fp_solve,
    histogram_density,
    l1_distance,
    stable_dt,
)
from spinmech.scenarios import parse_config, run_scenario
from spinmech.sde import (
    DriftSpec,
    SdeConfig,
    drift_from_density,
    momentum_estimate,
    ou_analytic_moments,
    simulate_ensemble,
)
from spinmech.spin import (
    SpinOperator,
    Spinor,
    equal_up_to_phase,
    evolve_spinor,
    pauli,
    spin_hamiltonian,
)
from spinmech.stern_gerlach import (
    DOWN,
    UP,
    BeamConfig,
    count_plate_modes,
    deflection,
    simulate_beam,
)


class Criterion:
    """Collects named checks, prints one summary line, then asserts."""

    def __init__(self, label, runtime_budget):
        self.label = label
        self.budget = runtime_budget
        self.failures = []
        self.started = time.perf_counter()

    def check(self, name, ok, detail=""):
        if not ok:
            self.failures.append(f"{name} ({detail})" if detail else name)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds {self.budget}s budget")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.1f}s)")
        assert not self.failures, f"{self.label}: " + "; ".join(self.failures)


def expm_series(m, order=80):
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, order):
        term = term @ m / k
        out = out + term
    return out


def test_criterion_1_spin_algebra():
    c = Criterion("1 spin algebra", runtime_budget=5.0)

    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    sz = pauli("z")
    c.check(
        "S_z matrix entries",
        np.array_equal(sz.entries, 0.5 * np.array([[1, 0], [0, -1]])),
    )
    c.check(
        "S_x matrix entries",
        np.array_equal(pauli("x").entries, 0.5 * np.array([[0, 1], [1, 0]])),
    )
    c.check(
        "S_y matrix entries",
        np.array_equal(pauli("y").entries, 0.5 * np.array([[0, -1j], [1j, 0]])),
    )
    c.check(
        "S_z eigenrelation",
        np.max(np.abs(sz.entries @ up - 0.5 * up)) <= 1e-14
        and np.max(np.abs(sz.entries @ down - (-0.5) * down)) <= 1e-14,
    )
    h0 = spin_hamiltonian(2.0)
    c.check(
        "H0 eigenrelation",
        np.max(np.abs(h0.entries @ up - 1.0 * up)) <= 1e-14
        and np.max(np.abs(h0.entries @ down - (-1.0) * down)) <= 1e-14,
    )

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        a, b, re, im = rng.uniform(-3, 3, size=4)
        h = SpinOperator(np.array([[a, re - 1j * im], [re + 1j * im, b]]))
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        s = Spinor(np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2))
        out = evolve_spinor(s, h, rng.uniform(-5, 5))
        worst = max(worst, abs(out.norm() - 1.0))
    c.check("unitarity over 1e4 random cases", worst <= 1e-12, f"worst drift {worst:.2e}")

    omega1 = 1.0
    h = SpinOperator(omega1 * pauli("x").entries)
    t = np.pi / omega1
    flipped = evolve_spinor(Spinor.up(), h, t)
    oracle = expm_series(-1j * h.entries * t) @ up
    c.check(
        "half-period x-flip vs series oracle",
        np.max(np.abs(flipped.as_array() - oracle)) <= 1e-10,
    )
    c.check("flip lands on down state", equal_up_to_phase(flipped, Spinor.down(), 1e-10))
    c.finish()


def test_criterion_2_ou_moments():
    c = Criterion("2 OU moments", runtime_budget=60.0)
    omega = sigma = x0 = 1.0
    n = 100_000
    cfg = SdeConfig(
        dt=1e-3, n_steps=3000, sigma=sigma, n_particles=n, seed=20240, x0=x0,
        record_every=300,
    )
    batch = simulate_ensemble(DriftSpec.linear(omega), cfg, n_workers=2)
    means = batch.means()
    variances = batch.variances()
    mean_ref, var_ref = ou_analytic_moments(x0, omega, sigma, batch.times)
    checkpoints = batch.times > 0
    c.check("ten checkpoints", int(checkpoints.sum()) == 10)
    se_mean = np.sqrt(variances[checkpoints] / n)
    z_mean = np.abs(means[checkpoints] - mean_ref[checkpoints]) / se_mean
    c.check(
        "mean within 3 standard errors at every checkpoint",
        float(z_mean.max()) < 3.0,
        f"max |z| = {z_mean.max():.2f}",
    )
    se_var = variances[checkpoints] * math.sqrt(2.0 / (n - 1))
    z_var = np.abs(variances[checkpoints] - var_ref[checkpoints]) / se_var
    c.check(
        "variance within 3 standard errors at every checkpoint",
        float(z_var.max()) < 3.0,
        f"max |z| = {z_var.max():.2f}",
    )
    c.finish()


def test_criterion_3_drift_stationarity():
    c = Criterion("3 drift/stationarity consistency", runtime_budget=30.0)
    omega = sigma = 1.0
    spread = sigma / math.sqrt(2 * omega)
    grid = Grid1D(-6 * spread, 6 * spread, 512)

    def rho_fn(x):
        return np.exp(-omega * np.asarray(x) ** 2 / sigma**2)

    rho0 = DensityField.from_function(grid, rho_fn)
    drift = drift_from_density(rho_fn, sigma)
    dt = stable_dt(drift, sigma, grid)
    _, snaps = fp_solve(rho0, drift, sigma, 1.0, dt)
    final = snaps[-1]
    l1 = l1_distance(rho0, final)
    c.check("L1 change < 1e-3 over T=1", l1 < 1e-3, f"L1 = {l1:.2e}")
    mass_err = abs(final.mass() - 1.0)
    c.check("mass conserved to 1e-9", mass_err < 1e-9, f"drift = {mass_err:.2e}")
    c.finish()


def test_criterion_4_mc_fp_cross_validation():
    c = Criterion("4 MC-FP cross-validation", runtime_budget=90.0)
    omega = sigma = x0 = 1.0
    t_final = 2.0
    grid = Grid1D(-3.5, 4.5, 256)
    s0 = 4.0 * grid.dx
    cfg = SdeConfig(
        dt=1e-3, n_steps=2000, sigma=sigma, n_particles=100_000, seed=777,
        x0=lambda gen: x0 + s0 * gen.standard_normal(), record_every=2000,
    )
    batch = simulate_ensemble(DriftSpec.linear(omega), cfg, n_workers=2)
    hist, out_frac = histogram_density(batch, -1, grid)
    c.check("all samples on the grid", out_frac < 1e-4, f"outside = {out_frac:.1e}")

    rho0 = DensityField.from_function(
        grid, lambda x: np.exp(-((np.asarray(x) - x0) ** 2) / (2 * s0 * s0))
    )
    drift = DriftSpec.linear(omega)
    _, snaps = fp_solve(rho0, drift, sigma, t_final, stable_dt(drift, sigma, grid))
    l1 = l1_distance(hist, snaps[-1])
    c.check("L1 distance < 0.05", l1 < 0.05, f"L1 = {l1:.3f}")
    c.finish()


def test_criterion_5_stern_gerlach_statistics():
    c = Criterion("5 Stern-Gerlach Born statistics", runtime_budget=10.0)
    n = 100_000
    state = Spinor(0.6, 0.8)
    cfg = BeamConfig(
        mass=1.0, gamma=1.0, grad_bz=-2.0, b_z=1.0, magnet_length=1.0,
        drift_length=1.0, v_beam=1.0, sigma_z=0.375,
    )
    records = simulate_beam(state, cfg, n, seed=99)
    band = 3 * math.sqrt(0.36 * 0.64 / n)
    frac = records.up_fraction()
    c.check(
        "up fraction = 0.36 within 3 sigma binomial",
        abs(frac - 0.36) < band,
        f"fraction = {frac:.4f}, band = {band:.4f}",
    )
    c.check("plate histogram bimodal", count_plate_modes(records.z_final) == 2)
    mirror_gap = abs(deflection(UP, cfg)[0] + deflection(DOWN, cfg)[0])
    c.check("branch centers mirror-symmetric", mirror_gap == 0.0)
    for branch in (UP, DOWN):
        z, _ = records.branch_arrays(branch)
        oracle_z, _ = deflection(branch, cfg)
        gap = abs(z.mean() - oracle_z)
        tol = 3 * cfg.sigma_z / math.sqrt(z.size)
        c.check(
            f"mean {branch} deflection matches ballistic oracle",
            gap < tol,
            f"gap = {gap:.2e}, 3 sigma = {tol:.2e}",
        )
    c.finish()


def test_criterion_6_momentum_limit():
    c = Criterion("6 momentum limit", runtime_budget=60.0)

    # straight-line recovery at 1e-10
    times = np.linspace(1.0, 100.0, 1000)
    worst = 0.0
    for velocity in (-2.0, -1.0, 0.5, 3.0):
        est = momentum_estimate(times, velocity * times)
        worst = max(worst, abs(est.p_hat - velocity))
    c.check("ballistic recovery to 1e-10", worst <= 1e-10, f"worst = {worst:.1e}")

    # ballistic-drift paths: tail-window variance falls across decades
    drift = DriftSpec.time_scaled()
    mean_wv = []
    for horizon in (10.0, 100.0, 1000.0):
        n_steps = 10_000
        cfg = SdeConfig(
            dt=(horizon - 1.0) / n_steps, n_steps=n_steps, sigma=1.0,
            n_particles=1000, seed=606, x0=1.0, t0=1.0, record_every=5,
        )
        batch = simulate_ensemble(drift, cfg, n_workers=2)
        wv = np.mean(
            [
                momentum_estimate(batch.times, batch.paths[i]).window_variance
                for i in range(batch.n_particles)
            ]
        )
        mean_wv.append(wv)
    c.check(
        "tail-window variance decreases monotonically over T=10,100,1000",
        mean_wv[0] > mean_wv[1] > mean_wv[2],
        "variances = " + ", ".join(f"{v:.2e}" for v in mean_wv),
    )
    c.finish()


def test_criterion_7_single_particle_tracking():
    c = Criterion("7 single-particle tracking", runtime_budget=5.0)
    omega, e0 = 1.0, 1.0
    ref = ReferenceTrajectory.constant(1.0, 10.0 + 1e-6)

    # compensated, noiseless
    law = ControlLaw(omega, ref, eta_hat=lambda t: 0.4)
    cfg = SdeConfig(
        dt=1e-3, n_steps=3000, sigma=0.0, n_particles=1, seed=0,
        x0=ref.v_r(0.0) + e0, record_every=3,
    )
    rep = simulate_tracking(law, cfg, lambda t: 0.4)
    target = math.exp(-3.0)
    c.check(
        "e(3) = e^-3 within 1%",
        abs(rep.terminal_error - target) < 0.01 * target,
        f"e(3) = {rep.terminal_error:.6f} vs {target:.6f}",
    )
    c.check(
        "fitted decay rate = -1 within 1%",
        rep.fitted_decay_rate is not None
        and abs(rep.fitted_decay_rate + omega) < 0.01 * omega,
        f"rate = {rep.fitted_decay_rate}",
    )

    # uncompensated constant disturbance
    law2 = ControlLaw(omega, ref, eta_hat=None)
    cfg2 = SdeConfig(
        dt=1e-3, n_steps=10_000, sigma=0.0, n_particles=1, seed=0,
        x0=ref.v_r(0.0) + e0, record_every=10,
    )
    rep2 = simulate_tracking(law2, cfg2, lambda t: 0.5)
    c.check(
        "uncompensated steady-state error = 0.5 within 1%",
        abs(rep2.terminal_error - 0.5) < 0.005,
        f"terminal = {rep2.terminal_error:.6f}",
    )
    c.finish()


def test_criterion_8_ensemble_mean_tracking():
    c = Criterion("8 ensemble-mean tracking", runtime_budget=120.0)
    omega, sigma, e0 = 1.0, 1.0, 1.0
    n = 100_000
    ref = ReferenceTrajectory.sine(1.0, 1.0, 3.0 + 1e-6)
    cfg = SdeConfig(
        dt=1e-3, n_steps=3000, sigma=sigma, n_particles=n, seed=31337,
        x0=ref.v_r(0.0) + e0, record_every=300,
    )
    rep = simulate_tracking(ControlLaw(omega, ref), cfg, n_workers=2)
    band = 3.0 / math.sqrt(n)
    target = e0 * math.exp(-3.0)
    gap = abs(rep.terminal_error - target)
    c.check(
        "terminal mean error within 3/sqrt(N) of e^-3",
        gap < band,
        f"gap = {gap:.2e}, band = {band:.2e}",
    )
    terminal_var = rep.error_std[-1] ** 2
    stationary = sigma**2 / (2 * omega)
    c.check(
        "per-particle error variance within 5% of sigma^2/(2 omega)",
        abs(terminal_var - stationary) < 0.05 * stationary,
        f"variance = {terminal_var:.4f} vs {stationary:.4f}",
    )
    c.finish()


def test_criterion_9_reproducibility(tmp_path):
    c = Criterion("9 reproducibility", runtime_budget=60.0)
    out = tmp_path / "run"
    text = f"""
[scenario]
name = ou_relax
seed = 42

[parameters]
omega = 1.0
sigma = 1.0
n_particles = 2000
t_final = 1.0
dt = 2e-3

[output]
dir = {out}
"""
    cfg = parse_config(text)
    run_scenario(cfg, n_workers=1)
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for p in out.iterdir():
        p.unlink()
    run_scenario(cfg, n_workers=4)
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    c.check("same artifact set", set(first) == set(second))
    identical = all(first[k] == second[k] for k in first)
    c.check("byte-identical artifacts at 1 vs 4 threads", identical)

    sg_out = tmp_path / "sg"
    sg_text = f"""
[scenario]
name = stern_gerlach
seed = 5

[parameters]
alpha_re = 0.6
beta_re = 0.8
n = 20000
sigma_z = 0.3

[output]
dir = {sg_out}
"""
    sg_cfg = parse_config(sg_text)
    run_scenario(sg_cfg, n_workers=1)
    first = {p.name: p.read_bytes() for p in sorted(sg_out.iterdir())}
    for p in sg_out.iterdir():
        p.unlink()
    run_scenario(sg_cfg, n_workers=3)
    second = {p.name: p.read_bytes() for p in sorted(sg_out.iterdir())}
    c.check(
        "beam scenario byte-identical across reruns and thread counts",
        set(first) == set(second) and all(first[k] == second[k] for k in first),
    )
    c.finish()

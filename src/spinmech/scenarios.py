"""Named experiments binding the simulation modules to config files.

Every scenario declares its parameter schema (names, types, defaults,
invariant checks) in ``REGISTRY``; the same table drives config validation,
the ``list-scenarios`` catalogue, and the defaults applied at run time, so
the documentation cannot drift from the behavior.

``run_scenario`` writes the scenario's CSV artifacts first and then
computes every reported metric by re-reading those files, so the numbers in
a summary are guaranteed to describe what is actually on disk.  The summary
file deliberately omits wall-clock timing: artifacts must be byte-identical
across reruns and thread counts for a fixed seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import io
from .config import EMPTY_DIR, ScenarioConfig, parse_sections, read_value
from .control import (
    ControlLaw,
    ReferenceTrajectory,
    simulate_controlled_ensemble,
    simulate_controlled_particle,
)
from .errors import ConfigurationError, InvalidInputError, SpinmechError, check_overflow
from .fokker_planck import (
    DensityField,
    Grid1D,
    fp_solve,
    histogram_density,
    l1_distance,
    stable_dt,
)
from .sde import (
    DriftSpec,
    SdeConfig,
    drift_from_density,
    momentum_estimate,
    ou_analytic_moments,
    simulate_ensemble,
)
from .spin import Spinor, measurement_probabilities
from .stern_gerlach import (
    DOWN,
    UP,
    BeamConfig,
    count_plate_modes,
    deflection,
    energy_transition,
    simulate_beam,
)

_REQUIRED = object()

#: How ``summary.txt`` writes a metric that its run leaves undefined (None).
UNDEFINED = "undefined"


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # "int" | "float" | "str" | "list"
    default: object = _REQUIRED
    check: Optional[tuple[Callable, str]] = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


@dataclass(frozen=True)
class ScenarioSpec:
    description: str
    params: tuple
    artifacts: str  # human description; actual names come from the run
    metrics: tuple
    runner: Callable
    validator: Optional[Callable] = None  # extra cross-parameter checks
    undefined: str = ""  # which metrics can be undefined (None), and when


def _positive(name):
    return (lambda v: v > 0, f"{name} must be > 0")


def _non_negative(name):
    return (lambda v: v >= 0, f"{name} must be >= 0")


def _read_section(section: str, items: dict, params: tuple, errors: list) -> dict:
    """The values of one config section, each typed by its key's ``Param``.

    Every value is read as its key's kind and passed through its key's
    check; omitted keys take their defaults.  Unknown, ill-typed, failing
    and missing required keys are appended to ``errors`` and left out.
    """
    by_name = {p.name: p for p in params}
    values = {}
    for key, item in items.items():
        param = by_name.get(key)
        if param is None:
            errors.append(f"line {item.line}: unknown key '{key}' in [{section}] "
                          f"(expected {', '.join(by_name)})")
            continue
        try:
            value = read_value(param.kind, item.text)
        except ValueError as e:
            errors.append(f"line {item.line}: {section}.{key}: {e}")
            continue
        if param.check is not None and not param.check[0](value):
            errors.append(f"line {item.line}: invalid {section}.{key}: {param.check[1]}")
            continue
        values[key] = value
    for p in params:
        if p.name in items:
            continue
        if p.required:
            errors.append(f"missing required key '{p.name}' in [{section}]")
        else:
            values[p.name] = p.default
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a config document.

    All problems are collected into one ConfigurationError (line-numbered
    where applicable) rather than failing on the first.
    """
    raw = parse_sections(text)
    errors = list(raw.errors)
    head = _read_section("scenario", raw.sections["scenario"], _SCENARIO_KEYS, errors)
    output = _read_section("output", raw.sections["output"], _OUTPUT_KEYS, errors)
    spec = REGISTRY.get(head.get("name"))
    params = {}
    if spec is not None:
        params = _read_section("parameters", raw.sections["parameters"], spec.params, errors)
        if spec.validator is not None and not errors:
            errors.extend(spec.validator(params))
    if errors:
        raise ConfigurationError(errors)
    return ScenarioConfig(scenario=head["name"], parameters=params, seed=head["seed"],
                          output_dir=output["dir"])


@dataclass(frozen=True)
class RunSummary:
    scenario: str
    config_echo: dict
    metrics: dict
    duration_seconds: float
    artifacts: list


def _fmt_value(v) -> str:
    if v is None:
        return UNDEFINED
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return io.fmt(v)
    if isinstance(v, list):
        return ",".join(io.fmt(x) for x in v)
    return str(v)


def _write_summary(path, summary: RunSummary):
    bad = {k: v for k, v in summary.metrics.items()
           if isinstance(v, float) and not math.isfinite(v)}
    if bad:  # an undefined metric is None; a non-finite float is a bug
        raise AssertionError(f"scenario '{summary.scenario}' non-finite metrics: {bad}")
    lines = [f"scenario = {summary.scenario}"]
    for k, v in summary.config_echo.items():
        lines.append(f"config.{k} = {_fmt_value(v)}")
    for k in sorted(summary.metrics):
        lines.append(f"metric.{k} = {_fmt_value(summary.metrics[k])}")
    for i, name in enumerate(summary.artifacts):
        lines.append(f"artifact.{i} = {name}")
    Path(path).write_text("\n".join(lines) + "\n")


def human_summary(summary: RunSummary) -> str:
    lines = [
        f"scenario {summary.scenario} finished in {summary.duration_seconds:.2f} s",
        "metrics:",
    ]
    for k in sorted(summary.metrics):
        lines.append(f"  {k} = {_fmt_value(summary.metrics[k])}")
    lines.append("artifacts:")
    for name in summary.artifacts:
        lines.append(f"  {name}")
    return "\n".join(lines)


def run_scenario(cfg: ScenarioConfig, n_workers: int = 1) -> RunSummary:
    """Execute one scenario; artifacts land in ``cfg.output_dir``.

    Metrics are always recomputed from the written artifact files.
    """
    spec = REGISTRY[cfg.scenario]
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        metrics, artifacts = spec.runner(cfg, out, n_workers)
    except SpinmechError as e:
        if isinstance(e, ConfigurationError):  # the CLI prints its errors one by one
            e.errors = [f"scenario '{cfg.scenario}': {msg}" for msg in e.errors]
        e.args = (f"scenario '{cfg.scenario}': {e}",)
        raise
    missing = set(spec.metrics) - set(metrics)
    extra = set(metrics) - set(spec.metrics)
    if missing or extra:
        raise AssertionError(
            f"scenario '{cfg.scenario}' metric set drifted: missing={missing} "
            f"extra={extra}"
        )
    artifacts = list(artifacts) + ["summary.txt"]
    summary = RunSummary(
        scenario=cfg.scenario,
        config_echo=cfg.echo(),
        metrics=metrics,
        duration_seconds=time.perf_counter() - started,
        artifacts=artifacts,
    )
    _write_summary(out / "summary.txt", summary)
    return summary


def list_scenarios() -> str:
    """Stable human-readable catalogue of every scenario."""
    lines = ["Available scenarios", "==================="]
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        lines.append("")
        lines.append(name)
        lines.append("  " + spec.description)
        required = [p for p in spec.params if p.required]
        optional = [p for p in spec.params if not p.required]
        if required:
            lines.append(
                "  required: "
                + ", ".join(f"{p.name} ({p.kind})" for p in required)
            )
        if optional:
            lines.append(
                "  optional: "
                + ", ".join(
                    f"{p.name} ({p.kind}, default {_fmt_value(p.default)})"
                    for p in optional
                )
            )
        lines.append("  artifacts: " + spec.artifacts)
        lines.append("  metrics: " + ", ".join(spec.metrics))
        if spec.undefined:
            lines.append("  undefined: " + spec.undefined)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# scenario runners
# --------------------------------------------------------------------------


def _steps_for(t_final: float, dt: float) -> int:
    if not t_final / dt < 2**63:  # an inf ratio fails too
        raise ConfigurationError(
            f"t_final={t_final:g} / dt={dt:g} is more steps than fit in 64 bits"
        )
    n = round(t_final / dt)
    if n < 1 or abs(n * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ConfigurationError(
            f"t_final={t_final:g} must be a whole number of dt={dt:g} steps"
        )
    return n


#: Candidates ``_auto_record`` tries from each end before it refuses.
_STRIDE_SEARCH = 10**6


def _auto_record(n_steps: int, requested: int, target: int = 10) -> int:
    """A record stride that divides n_steps; 0 requests ~target checkpoints.

    The automatic stride is the largest divisor of n_steps that is at most
    ``top = max(1, n_steps // target)``.  It is also ``n_steps // c`` for the
    least divisor ``c`` of n_steps (a checkpoint count) at or above
    ``ceil(n_steps / top)``, so the search walks down the strides and up the
    checkpoint counts at once, and refuses after ``_STRIDE_SEARCH`` steps.
    """
    if requested:
        if n_steps % requested != 0:
            raise ConfigurationError(
                f"record_every={requested} does not divide n_steps={n_steps}"
            )
        return requested
    top = max(1, n_steps // target)
    fewest = -(-n_steps // top)
    for k in range(_STRIDE_SEARCH):
        if n_steps % (top - k) == 0:  # stride 1 divides, so top - k stays >= 1
            return top - k
        if n_steps % (fewest + k) == 0:
            return n_steps // (fewest + k)
    raise ConfigurationError(
        f"n_steps={n_steps} has no divisor near n_steps / {target} to record at; "
        "choose a step count that has one"
    )


def _run_ou_relax(cfg: ScenarioConfig, out: Path, n_workers: int):
    p = cfg.parameters
    n_steps = _steps_for(p["t_final"], p["dt"])
    rec = _auto_record(n_steps, p["record_every"])
    sde_cfg = SdeConfig(
        dt=p["dt"],
        n_steps=n_steps,
        sigma=p["sigma"],
        n_particles=p["n_particles"],
        seed=cfg.seed,
        x0=p["x0"],
        record_every=rec,
    )
    batch = simulate_ensemble(DriftSpec.linear(p["omega"]), sde_cfg, n_workers)
    io.write_trajectories(out / "trajectories.csv", batch)

    rb = io.read_trajectories(out / "trajectories.csv")
    means = rb.means()
    variances = rb.variances() if rb.n_particles > 1 else np.zeros_like(means)
    n = rb.n_particles
    mean_ref, var_ref = ou_analytic_moments(p["x0"], p["omega"], p["sigma"], rb.times)
    io.write_csv(out / "moments.csv", ["t", "mean", "var", "mean_analytic", "var_analytic"],
                 [rb.times, means, variances, mean_ref, var_ref])

    live = rb.times > 0
    metrics = {
        "n_checkpoints": int(live.sum()),
        "terminal_mean": float(means[-1]),
        "terminal_mean_analytic": float(mean_ref[-1]),
        "terminal_var_analytic": float(var_ref[-1]),
        # one particle has no sample variance to compare or to scale by
        "max_abs_z_mean": None, "max_abs_z_var": None, "terminal_var": None,
    }
    if n > 1:
        se_mean = np.sqrt(np.maximum(variances[live], 1e-300) / n)
        z_mean = np.abs(means[live] - mean_ref[live]) / se_mean
        se_var = variances[live] * math.sqrt(2.0 / (n - 1))
        z_var = np.abs(variances[live] - var_ref[live]) / np.maximum(se_var, 1e-300)
        metrics.update(max_abs_z_mean=float(z_mean.max()), max_abs_z_var=float(z_var.max()),
                       terminal_var=float(variances[-1]))
    return metrics, ["trajectories.csv", "moments.csv"]


def _run_fp_stationary(cfg: ScenarioConfig, out: Path, n_workers: int):
    p = cfg.parameters
    omega, sigma = p["omega"], p["sigma"]
    spread = sigma / math.sqrt(2.0 * omega)
    half = p["half_width"] or 6.0 * spread
    grid = Grid1D(-half, half, p["n_cells"])

    def rho_fn(x):
        return np.exp(-omega * np.asarray(x) ** 2 / (sigma * sigma))

    rho0 = DensityField.from_function(grid, rho_fn)
    drift = drift_from_density(rho_fn, sigma)
    dt = p["dt"] or stable_dt(drift, sigma, grid)
    output_times = np.linspace(0.0, p["t_final"], p["n_snapshots"])
    times, snaps = fp_solve(rho0, drift, sigma, p["t_final"], dt, output_times)
    names = io.write_density_sequence(out, times, snaps)

    first = io.read_density(out / names[0])
    last = io.read_density(out / names[-2])  # last snapshot; manifest is names[-1]
    metrics = {
        "l1_change": l1_distance(first, last),
        "mass_error": abs(last.mass() - 1.0),
        "boundary_mass": float((last.values[0] + last.values[-1]) * last.grid.dx),
        "dt_used": float(dt),
    }
    return metrics, names


def _run_mc_fp_xval(cfg: ScenarioConfig, out: Path, n_workers: int):
    p = cfg.parameters
    grid = Grid1D(p["x_min"], p["x_max"], p["n_cells"])
    s0 = p["init_width_cells"] * grid.dx
    n_steps = _steps_for(p["t_final"], p["dt_mc"])
    x0 = p["x0"]

    def sampler(gen):
        return x0 + s0 * gen.standard_normal()

    sde_cfg = SdeConfig(
        dt=p["dt_mc"],
        n_steps=n_steps,
        sigma=p["sigma"],
        n_particles=p["n_particles"],
        seed=cfg.seed,
        x0=sampler,
        record_every=n_steps,
    )
    batch = simulate_ensemble(DriftSpec.linear(p["omega"]), sde_cfg, n_workers)
    hist, out_frac = histogram_density(batch, -1, grid)
    io.write_density(out / "mc_histogram.csv", hist)

    def rho_init(x):
        return np.exp(-((np.asarray(x) - x0) ** 2) / (2.0 * s0 * s0))

    rho0 = DensityField.from_function(grid, rho_init)
    drift = DriftSpec.linear(p["omega"])
    dt_fp = stable_dt(drift, p["sigma"], grid)
    _, snaps = fp_solve(rho0, drift, p["sigma"], p["t_final"], dt_fp)
    io.write_density(out / "fp_density.csv", snaps[-1])

    a = io.read_density(out / "mc_histogram.csv")
    b = io.read_density(out / "fp_density.csv")
    metrics = {
        "l1_distance": l1_distance(a, b),
        "out_of_range_fraction": float(out_frac),
    }
    return metrics, ["mc_histogram.csv", "fp_density.csv"]


def _run_stern_gerlach(cfg: ScenarioConfig, out: Path, n_workers: int):
    p = cfg.parameters
    state = _spinor(p)
    beam = BeamConfig(
        mass=p["mass"],
        gamma=p["gyromagnetic"],
        grad_bz=p["grad_bz"],
        b_z=p["b_z"],
        magnet_length=p["magnet_length"],
        drift_length=p["drift_length"],
        v_beam=p["v_beam"],
        sigma_z=p["sigma_z"],
        hbar=p["hbar"],
    )
    records = simulate_beam(state, beam, p["n"], cfg.seed)
    io.write_plate_records(out / "plate.csv", records)
    io.write_branch_summary(out / "branch_summary.csv", records)

    rr = io.read_plate_records(out / "plate.csv")
    z_up, p_up = rr.branch_arrays(UP)
    z_dn, p_dn = rr.branch_arrays(DOWN)
    oracle_up = deflection(UP, beam)
    oracle_dn = deflection(DOWN, beam)
    both = bool(p_up.size and p_dn.size)
    metrics = {
        "up_fraction": rr.up_fraction(),
        "expected_up_fraction": measurement_probabilities(state)[0],
        "mean_z_up": float(z_up.mean()) if z_up.size else None,
        "mean_z_down": float(z_dn.mean()) if z_dn.size else None,
        "oracle_z_up": oracle_up[0],
        "oracle_z_down": oracle_dn[0],
        "n_modes": count_plate_modes(rr.z_final),
    }
    for mode in ("literal", "kinetic"):
        metrics[f"delta_e_{mode}"] = energy_transition(
            float(p_dn.mean()), float(p_up.mean()), beam.mass, mode
        ) if both else None
    return metrics, ["plate.csv", "branch_summary.csv"]


def _run_momentum_limit(cfg: ScenarioConfig, out: Path, n_workers: int):
    p = cfg.parameters
    drift = DriftSpec.time_scaled(p["t_floor"])
    n_paths, n_steps, estimates = p["n_paths"], p["steps_per_horizon"], []
    record_every = _auto_record(n_steps, 0, target=4000)
    for horizon in p["horizons"]:
        sde_cfg = SdeConfig(
            dt=(horizon - p["t0"]) / n_steps,
            n_steps=n_steps,
            sigma=p["sigma"],
            n_particles=n_paths,
            seed=cfg.seed,
            x0=p["x0"],
            t0=p["t0"],
            record_every=record_every,
        )
        batch = simulate_ensemble(drift, sde_cfg, n_workers)
        estimates.append(momentum_estimate(batch.times, batch.paths, p["tail_fraction"],
                                           p["variance_threshold"]))
    momentum_header = ["horizon", "path", "p_hat", "window_variance", "converged"]
    io.write_csv(out / "momentum.csv", momentum_header, [
        np.repeat(p["horizons"], n_paths),
        np.tile(np.arange(n_paths), len(estimates)),
        np.concatenate([e.p_hat for e in estimates]),
        np.concatenate([e.window_variance for e in estimates]),
        np.concatenate([e.converged for e in estimates]),
    ])

    table = io.read_csv(out / "momentum.csv", converters={4: lambda s: s == "true"})
    horizons = sorted(set(table[:, 0]))
    sels = [table[table[:, 0] == h] for h in horizons]
    mean_ph = [sel[:, 2].mean() for sel in sels]
    mean_wv = [sel[:, 3].mean() for sel in sels]
    summary_header = ["horizon", "mean_p_hat", "mean_window_variance", "converged_fraction"]
    io.write_csv(out / "horizon_summary.csv", summary_header,
                 [horizons, mean_ph, mean_wv, [sel[:, 4].mean() for sel in sels]])
    metrics = {
        "n_horizons": len(horizons),
        "first_window_variance": float(mean_wv[0]),
        "last_window_variance": float(mean_wv[-1]),
        "variance_monotone_decreasing": bool(
            all(a > b for a, b in zip(mean_wv, mean_wv[1:]))
        ),
        "mean_p_hat_last": float(mean_ph[-1]),
    }
    return metrics, ["momentum.csv", "horizon_summary.csv"]


def _make_reference(p: dict) -> ReferenceTrajectory:
    profile = p["profile"]
    duration = p["t_final"] * (1.0 + 1e-9)
    if profile == "constant":
        return ReferenceTrajectory.constant(p["level"], duration)
    if profile == "ramp":
        return ReferenceTrajectory.ramp(p["rate"], duration, start=p["level"])
    # "sine": the profile's check rejects any other profile at parse time
    return ReferenceTrajectory.sine(
        p["amplitude"], p["angular_freq"], duration, offset=p["level"]
    )


def _tracking_setup(cfg: ScenarioConfig, n_particles: int, target: int):
    """The reference and the SdeConfig of a tracking run; v(0) = v_r(0) + e0."""
    p = cfg.parameters
    reference = _make_reference(p)
    n_steps = _steps_for(p["t_final"], p["dt"])
    sde_cfg = SdeConfig(
        dt=p["dt"],
        n_steps=n_steps,
        sigma=p["sigma"],
        n_particles=n_particles,
        seed=cfg.seed,
        x0=reference.v_r(0.0) + p["e0"],
        record_every=_auto_record(n_steps, p["record_every"], target=target),
    )
    return reference, sde_cfg


def _tracking_metrics(cfg: ScenarioConfig, out: Path, report, eta_gap):
    """Write both tracking artifacts; the re-read table and the shared metrics."""
    io.write_tracking_report(out / "tracking.csv", report)
    io.write_tracking_summary(out / "tracking_summary.json", report, cfg.echo())
    table = io.read_tracking_table(out / "tracking.csv")
    fit = json.loads((out / "tracking_summary.json").read_text())
    omega, e0 = cfg.parameters["omega"], cfg.parameters["e0"]
    t, e = table["t"], table["e_mean"]
    t_final = t[-1]
    tail = e[t >= 0.9 * t_final]
    expected = check_overflow("closed-form terminal error", e0 * math.exp(-omega * t_final)
                              + eta_gap / omega * (1.0 - math.exp(-omega * t_final)))
    return table, {
        "terminal_error": float(e[-1]),
        "expected_terminal_error": float(expected),
        "fitted_decay_rate": fit["fitted_decay_rate"],
        "steady_state_error": float(np.abs(tail).mean()),
    }


def _run_track_particle(cfg: ScenarioConfig, out: Path, n_workers: int):
    p = cfg.parameters
    reference, sde_cfg = _tracking_setup(cfg, 1, target=1000)
    eta, eta_hat = p["eta"], p["eta_hat"]
    law = ControlLaw(
        omega=p["omega"], reference=reference, eta_hat=lambda t: eta_hat
    )
    report = simulate_controlled_particle(law, sde_cfg.x0, sde_cfg, disturbance=lambda t: eta)
    _, metrics = _tracking_metrics(cfg, out, report, eta - eta_hat)
    return metrics, ["tracking.csv", "tracking_summary.json"]


def _run_track_ensemble(cfg: ScenarioConfig, out: Path, n_workers: int):
    p = cfg.parameters
    reference, sde_cfg = _tracking_setup(cfg, p["n_particles"], target=100)
    report = simulate_controlled_ensemble(
        reference, p["omega"], sde_cfg, n_workers=n_workers
    )
    table, base = _tracking_metrics(cfg, out, report, 0.0)
    metrics = {
        "terminal_mean_error": base["terminal_error"],
        "expected_terminal_error": base["expected_terminal_error"],
        "clt_band": 3.0 * p["sigma"] / math.sqrt(p["n_particles"]),
        "terminal_error_variance": (
            float(table["e_std"][-1] ** 2) if p["n_particles"] > 1 else None
        ),
        "stationary_error_variance": check_overflow(
            "closed-form stationary error variance", p["sigma"] * p["sigma"] / (2.0 * p["omega"])
        ),
        "fitted_decay_rate": base["fitted_decay_rate"],
    }
    return metrics, ["tracking.csv", "tracking_summary.json"]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def _spinor(p) -> Spinor:
    return Spinor(p["alpha_re"] + 1j * p["alpha_im"], p["beta_re"] + 1j * p["beta_im"])


def _validate_spinor(p):
    try:
        _spinor(p)
    except InvalidInputError as e:
        return [str(e)]
    return []


def _validate_momentum(p):
    if any(h <= p["t0"] for h in p["horizons"]):
        return ["every horizon must exceed t0"]
    return []


_TRACK_OMEGA = Param("omega", "float", check=(
    lambda v: v > 0,
    "omega must be > 0 (stable error dynamics require positive omega)",
))

_FIT_UNDEFINED = (
    "fitted_decay_rate when the mean error in the fit window is zero, changes "
    "sign or has fewer than two samples (e.g. e0 = 0 with sigma = 0)"
)

_TRACK_PROFILE_PARAMS = (
    Param("profile", "str", "constant", check=(
        lambda v: v in ("constant", "ramp", "sine"), "profile must be one of constant, ramp, sine"
    )),
    Param("level", "float", 1.0),
    Param("rate", "float", 1.0),
    Param("amplitude", "float", 1.0),
    Param("angular_freq", "float", 1.0),
)

REGISTRY: dict[str, ScenarioSpec] = {
    "ou_relax": ScenarioSpec(
        description=(
            "Noisy restoring-force ensemble relaxing toward its stationary "
            "law, checked against the closed-form moments."
        ),
        params=(
            Param("omega", "float", check=_positive("omega")),
            Param("sigma", "float", check=_non_negative("sigma")),
            Param("n_particles", "int", check=_positive("n_particles")),
            Param("x0", "float", 1.0),
            Param("dt", "float", 1e-3, check=_positive("dt")),
            Param("t_final", "float", 3.0, check=_positive("t_final")),
            Param("record_every", "int", 0, check=_non_negative("record_every")),
        ),
        artifacts="trajectories.csv, moments.csv, summary.txt",
        metrics=(
            "n_checkpoints",
            "max_abs_z_mean",
            "max_abs_z_var",
            "terminal_mean",
            "terminal_mean_analytic",
            "terminal_var",
            "terminal_var_analytic",
        ),
        runner=_run_ou_relax,
        undefined="max_abs_z_mean, max_abs_z_var, terminal_var when n_particles = 1",
    ),
    "fp_stationary": ScenarioSpec(
        description=(
            "Density evolution started from the stationary profile matched "
            "to its drift; measures how little the solver lets it move."
        ),
        params=(
            Param("omega", "float", check=_positive("omega")),
            Param("sigma", "float", check=_positive("sigma")),
            Param("n_cells", "int", 512, check=(lambda v: v >= 16, "n_cells must be >= 16")),
            Param("half_width", "float", 0.0, check=_non_negative("half_width")),
            Param("t_final", "float", 1.0, check=_non_negative("t_final")),
            Param("dt", "float", 0.0, check=_non_negative("dt")),
            Param("n_snapshots", "int", 2, check=(lambda v: v >= 2, "n_snapshots must be >= 2")),
        ),
        artifacts="density_*.csv, density_manifest.csv, summary.txt",
        metrics=("l1_change", "mass_error", "boundary_mass", "dt_used"),
        runner=_run_fp_stationary,
    ),
    "mc_fp_xval": ScenarioSpec(
        description=(
            "Cross-validation of the path ensemble against the density "
            "solver: final-time histogram vs integrated density."
        ),
        params=(
            Param("omega", "float", check=_positive("omega")),
            Param("sigma", "float", check=_positive("sigma")),
            Param("n_particles", "int", check=_positive("n_particles")),
            Param("x0", "float", 1.0),
            Param("t_final", "float", 2.0, check=_positive("t_final")),
            Param("dt_mc", "float", 1e-3, check=_positive("dt_mc")),
            Param("n_cells", "int", 256, check=(lambda v: v >= 16, "n_cells must be >= 16")),
            Param("x_min", "float", -3.5),
            Param("x_max", "float", 4.5),
            Param("init_width_cells", "float", 4.0, check=_positive("init_width_cells")),
        ),
        artifacts="mc_histogram.csv, fp_density.csv, summary.txt",
        metrics=("l1_distance", "out_of_range_fraction"),
        runner=_run_mc_fp_xval,
        validator=lambda p: (
            ["x_min must be < x_max"] if p["x_min"] >= p["x_max"] else []
        ),
    ),
    "stern_gerlach": ScenarioSpec(
        description=(
            "Beam of identically prepared spins through the field gradient; "
            "plate statistics against the two-branch ballistic prediction."
        ),
        params=(
            Param("alpha_re", "float"),
            Param("alpha_im", "float", 0.0),
            Param("beta_re", "float"),
            Param("beta_im", "float", 0.0),
            Param("n", "int", check=_positive("n")),
            Param("mass", "float", 1.0, check=_positive("mass")),
            Param("gyromagnetic", "float", 1.0),
            Param("grad_bz", "float", -2.0),
            Param("b_z", "float", 1.0, check=_positive("b_z")),
            Param("magnet_length", "float", 1.0, check=_positive("magnet_length")),
            Param("drift_length", "float", 1.0, check=_positive("drift_length")),
            Param("v_beam", "float", 1.0, check=_positive("v_beam")),
            Param("sigma_z", "float", 0.0, check=_non_negative("sigma_z")),
            Param("hbar", "float", 1.0, check=_positive("hbar")),
        ),
        artifacts="plate.csv, branch_summary.csv, summary.txt",
        metrics=(
            "up_fraction",
            "expected_up_fraction",
            "mean_z_up",
            "mean_z_down",
            "oracle_z_up",
            "oracle_z_down",
            "n_modes",
            "delta_e_literal",
            "delta_e_kinetic",
        ),
        runner=_run_stern_gerlach,
        validator=_validate_spinor,
        undefined=(
            "mean_z_up, mean_z_down when no particle takes that branch; "
            "delta_e_literal, delta_e_kinetic when either branch is empty"
        ),
    ),
    "momentum_limit": ScenarioSpec(
        description=(
            "Ballistic-drift paths over growing horizons; the spread of "
            "x_t/t over the tail window shrinks as the velocity limit sets in."
        ),
        params=(
            Param("horizons", "list", [10.0, 100.0, 1000.0], check=(
                lambda v: sorted(set(v)) == v, "horizons must be listed in increasing order"
            )),
            Param("n_paths", "int", 1000, check=_positive("n_paths")),
            Param("steps_per_horizon", "int", 10000, check=_positive("steps_per_horizon")),
            Param("t0", "float", 1.0, check=_positive("t0")),
            Param("x0", "float", 1.0),
            Param("sigma", "float", 1.0, check=_non_negative("sigma")),
            Param("tail_fraction", "float", 0.25, check=(
                lambda v: 0.0 < v <= 1.0, "tail_fraction must lie in (0, 1]"
            )),
            Param("t_floor", "float", 1e-3, check=_positive("t_floor")),
            Param("variance_threshold", "float", 1e-3, check=_positive("variance_threshold")),
        ),
        artifacts="momentum.csv, horizon_summary.csv, summary.txt",
        metrics=(
            "n_horizons",
            "first_window_variance",
            "last_window_variance",
            "variance_monotone_decreasing",
            "mean_p_hat_last",
        ),
        runner=_run_momentum_limit,
        validator=_validate_momentum,
    ),
    "track_particle": ScenarioSpec(
        description=(
            "Single velocity tracked along a reference by the open-loop law; "
            "exponential error decay and disturbance compensation."
        ),
        params=(
            _TRACK_OMEGA,
            Param("e0", "float", 1.0),
            Param("eta", "float", 0.0),
            Param("eta_hat", "float", 0.0),
            Param("sigma", "float", 0.0, check=_non_negative("sigma")),
            Param("t_final", "float", 3.0, check=_positive("t_final")),
            Param("dt", "float", 1e-3, check=_positive("dt")),
            Param("record_every", "int", 0, check=_non_negative("record_every")),
        ) + _TRACK_PROFILE_PARAMS,
        artifacts="tracking.csv, tracking_summary.json, summary.txt",
        metrics=(
            "terminal_error",
            "expected_terminal_error",
            "fitted_decay_rate",
            "steady_state_error",
        ),
        runner=_run_track_particle,
        undefined=_FIT_UNDEFINED,
    ),
    "track_ensemble": ScenarioSpec(
        description=(
            "Ensemble mean velocity steered along a reference while "
            "per-particle noise keeps individual paths stochastic."
        ),
        params=(
            _TRACK_OMEGA,
            Param("sigma", "float", check=_non_negative("sigma")),
            Param("n_particles", "int", check=_positive("n_particles")),
            Param("e0", "float", 1.0),
            Param("t_final", "float", 3.0, check=_positive("t_final")),
            Param("dt", "float", 1e-3, check=_positive("dt")),
            Param("record_every", "int", 0, check=_non_negative("record_every")),
        ) + _TRACK_PROFILE_PARAMS,
        artifacts="tracking.csv, tracking_summary.json, summary.txt",
        metrics=(
            "terminal_mean_error",
            "expected_terminal_error",
            "clt_band",
            "terminal_error_variance",
            "stationary_error_variance",
            "fitted_decay_rate",
        ),
        runner=_run_track_ensemble,
        undefined=_FIT_UNDEFINED + "; terminal_error_variance when n_particles = 1",
    ),
}

#: The keys of [scenario] and [output]; each scenario declares its [parameters].
_SCENARIO_KEYS = (
    Param("name", "str", check=(
        REGISTRY.__contains__, "unknown scenario; known: " + ", ".join(sorted(REGISTRY))
    )),
    Param("seed", "int"),
)
_OUTPUT_KEYS = (Param("dir", "str", check=(bool, EMPTY_DIR)),)

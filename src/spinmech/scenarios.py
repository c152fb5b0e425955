"""Named experiments binding the simulation modules to config files.

Every scenario declares its parameter schema (names, types, defaults,
checks) in ``REGISTRY``; the same table drives config validation, the
``list-scenarios`` catalogue, and the defaults applied at run time, so the
documentation cannot drift from the behavior.  Each scenario's setup (its
``runner``) builds what the run fixes before its first step, sizes no array
by the config, and returns the run; ``parse_config`` calls it, so
``validate`` refuses what ``run`` would before any work, and ``run_scenario``
calls it again before making the output directory.  Each rule on a value has
one home: a registry check states only a rule that no library constructor
called by the setup states (``SdeConfig``, ``Grid1D``, ``BeamConfig``,
``ControlLaw`` and the like state the rest).  Left to the run: checks on
config-sized arrays (initial density and its drift, solver ``dt``, the
histogram of simulated positions), made before the run writes any artifact,
and the stability bound of a configured density ``dt``.

A setup returns the run in two stages, and ``run_scenario`` writes what
each returns.  ``compute(n_workers)`` simulates and returns the primary
tables with the metrics that no artifact records: ``dt_used`` (the density
step) and ``out_of_range_fraction`` (the samples a histogram drops).
``measure(out)`` gets only the output directory: it re-reads the primary
tables through ``io.read_csv`` and returns the derived tables and every other
metric, so those numbers describe what is on disk.  The summary file
deliberately omits wall-clock timing: artifacts must be byte-identical
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
from .config import ScenarioConfig, parse_sections, read_value
from .control import ControlLaw, ReferenceTrajectory, simulate_tracking
from .errors import InvalidInputError, SpinmechError, check_number, check_overflow, check_steps
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
    TrajectoryBatch,
    drift_from_density,
    momentum_estimate,
    ou_analytic_moments,
    simulate_ensemble,
    tail_samples,
)
from .spin import Spinor, measurement_probabilities
from .stern_gerlach import (
    DOWN,
    UP,
    BeamConfig,
    PlateRecords,
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
    kind: str  # "int" | "float" | "str" | "list" | "dir"
    default: object = _REQUIRED
    check: Optional[tuple[Callable, str]] = None  # a rule no constructor in the setup states

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


@dataclass(frozen=True)
class ScenarioSpec:
    description: str
    params: tuple
    artifacts: str  # human description; actual names come from the run
    metrics: tuple
    runner: Callable  # the setup: runner(cfg) -> (compute, measure); see run_scenario
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
    for key, (text, line) in items.items():
        param = by_name.get(key)
        if param is None:
            errors.append(f"line {line}: unknown key '{key}' in [{section}] "
                          f"(expected {', '.join(by_name)})")
            continue
        try:
            value = read_value(param.kind, text)
        except ValueError as e:
            errors.append(f"line {line}: {section}.{key}: {e}")
            continue
        if param.check is not None and not param.check[0](value):
            errors.append(f"line {line}: invalid {section}.{key}: {param.check[1]}")
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

    All schema problems are collected into one InvalidInputError (line-numbered
    where applicable) rather than failing on the first.  A config that passes
    the schema then runs its scenario's setup, which refuses it as its run would.
    """
    sections, errors = parse_sections(text)
    head = _read_section("scenario", sections["scenario"], _SCENARIO_KEYS, errors)
    output = _read_section("output", sections["output"], _OUTPUT_KEYS, errors)
    spec = REGISTRY.get(head.get("name"))
    params = {}
    if spec is not None:
        params = _read_section("parameters", sections["parameters"], spec.params, errors)
    if errors:
        raise InvalidInputError(*errors)
    cfg = ScenarioConfig(scenario=head["name"], parameters=params, seed=head["seed"],
                         output_dir=output["dir"])
    try:
        spec.runner(cfg)
    except SpinmechError as e:
        raise InvalidInputError(*[f"scenario '{cfg.scenario}': {m}" for m in e.errors]) from None
    return cfg


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

    The setup returns two stages, each returning ``(tables, metrics)``; a
    table is ``(header, columns)`` for ``io.write_csv`` or the text of its
    file.  ``compute(n_workers)`` runs the simulation, and ``measure(out)``
    gets only the directory that ``compute``'s tables were written to.  Both
    stages' tables are written here, in order, and their metrics together
    must be the documented set, each reported once and none a non-finite float.
    """
    spec = REGISTRY[cfg.scenario]
    out = Path(cfg.output_dir)
    started = time.perf_counter()
    artifacts, reported = [], []
    try:
        compute, measure = spec.runner(cfg)  # set up again: apply_overrides may change the seed
        out.mkdir(parents=True, exist_ok=True)
        for stage, arg in ((compute, n_workers), (measure, out)):
            tables, metrics = stage(arg)
            for name, table in tables.items():
                if isinstance(table, str):
                    (out / name).write_text(table)
                else:
                    io.write_csv(out / name, *table)
            artifacts += tables  # the names, in the order written
            reported.append(metrics)
            tables = table = None  # the next stage runs without this one's arrays
    except SpinmechError as e:
        e.args = tuple(f"scenario '{cfg.scenario}': {m}" for m in e.errors)
        raise
    computed, measured = reported
    metrics = {**computed, **measured}
    drift = {"missing": set(spec.metrics) - set(metrics), "extra": set(metrics) - set(spec.metrics),
             "reported by both stages": computed.keys() & measured.keys(),
             # an undefined metric is None; a non-finite float is a bug
             "non-finite": {k: v for k, v in metrics.items()
                            if isinstance(v, float) and not math.isfinite(v)}}
    if any(drift.values()):
        raise AssertionError(f"scenario '{cfg.scenario}' metric set drifted: "
                             + "; ".join(f"{k} {v}" for k, v in drift.items() if v))
    summary = RunSummary(scenario=cfg.scenario, config_echo=cfg.echo(), metrics=metrics,
                         duration_seconds=time.perf_counter() - started,
                         artifacts=artifacts + ["summary.txt"])
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
            lines.append("  required: " + ", ".join(f"{p.name} ({p.kind})" for p in required))
        if optional:
            lines.append("  optional: " + ", ".join(
                f"{p.name} ({p.kind}, default {_fmt_value(p.default)})" for p in optional))
        lines.append("  artifacts: " + spec.artifacts)
        lines.append("  metrics: " + ", ".join(spec.metrics))
        if spec.undefined:
            lines.append("  undefined: " + spec.undefined)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# scenario runners
# --------------------------------------------------------------------------


def _steps_for(t_final: float, dt: float) -> int:
    n = round(check_steps(t_final, dt))
    if n < 1 or abs(n * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise InvalidInputError(
            f"t_final={t_final:g} must be a whole number of dt={dt:g} steps"
        )
    return n


#: Candidates ``_auto_record`` tries from each end before it refuses.
_STRIDE_SEARCH = 10**6


def _auto_record(n_steps: int, target: int = 10) -> int:
    """The record stride of ``record_every = 0``: ~target checkpoints at one that divides n_steps.

    It is the largest divisor of n_steps that is at most ``top = max(1,
    n_steps // target)``.  It is also ``n_steps // c`` for the least divisor
    ``c`` of n_steps (a checkpoint count) at or above ``ceil(n_steps / top)``,
    so the search walks down the strides and up the checkpoint counts at
    once, and refuses after ``_STRIDE_SEARCH`` steps.
    """
    top = max(1, n_steps // target)
    fewest = -(-n_steps // top)
    for k in range(_STRIDE_SEARCH):
        if n_steps % (top - k) == 0:  # stride 1 divides, so top - k stays >= 1
            return top - k
        if n_steps % (fewest + k) == 0:
            return n_steps // (fewest + k)
    raise InvalidInputError(
        f"n_steps={n_steps} has no divisor near n_steps / {target} to record at; "
        "choose a step count that has one"
    )


def _run_ou_relax(cfg: ScenarioConfig):
    p = cfg.parameters
    n_steps = _steps_for(p["t_final"], p["dt"])
    rec = p["record_every"] or _auto_record(n_steps)
    sde_cfg = SdeConfig(
        dt=p["dt"],
        n_steps=n_steps,
        sigma=p["sigma"],
        n_particles=p["n_particles"],
        seed=cfg.seed,
        x0=p["x0"],
        record_every=rec,
    )
    def compute(n_workers: int):
        batch = simulate_ensemble(DriftSpec.linear(p["omega"]), sde_cfg, n_workers)
        header = ["t", *(f"particle_{i}" for i in range(batch.n_particles))]
        return {"trajectories.csv": (header, [batch.times, *batch.paths])}, {}

    def measure(out: Path):
        data = io.read_csv(out / "trajectories.csv")
        rb = TrajectoryBatch(times=data[:, 0], paths=data[:, 1:].T)
        means = rb.means()
        variances = rb.variances() if rb.n_particles > 1 else np.zeros_like(means)
        n = rb.n_particles
        mean_ref, var_ref = ou_analytic_moments(p["x0"], p["omega"], p["sigma"], rb.times)
        moments = (["t", "mean", "var", "mean_analytic", "var_analytic"],
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
            metrics.update(max_abs_z_mean=float(z_mean.max()),
                           max_abs_z_var=float(z_var.max()), terminal_var=float(variances[-1]))
        return {"moments.csv": moments}, metrics
    return compute, measure


def _density_table(field: DensityField):
    """The ``x,rho`` table of ``field`` at its cell centers."""
    return ["x", "rho"], [field.grid.centers, field.values]


def _read_density(path, grid: Grid1D) -> DensityField:
    """The ``x,rho`` file at ``path``, read on ``grid``, the grid it was written on.

    The x column must equal ``grid.centers`` exactly, since ``%.17g``
    round-trips every double; a file from any other grid is refused.
    """
    data = io.read_csv(path)
    if data.shape != (grid.n_cells, 2) or not np.array_equal(data[:, 0], grid.centers):
        raise InvalidInputError(f"{path}: not an x,rho table on the cell centers of {grid}")
    return DensityField(grid, data[:, 1])


def _run_fp_stationary(cfg: ScenarioConfig):
    p = cfg.parameters
    omega, sigma = p["omega"], p["sigma"]

    def rho_fn(x):
        with np.errstate(over="ignore"):  # a user-set half_width can overflow: exp(-inf) = 0
            return np.exp(-((np.asarray(x) * math.sqrt(omega) / sigma) ** 2))

    drift = drift_from_density(rho_fn, sigma)  # refuses sigma <= 0 before it sizes the grid
    half = p["half_width"] or 6.0 * (sigma / math.sqrt(2.0 * omega))
    grid = Grid1D(-half, half, p["n_cells"])
    if p["dt"]:  # the solver's own dt is known only at run time
        check_steps(p["t_final"], p["dt"])
    def compute(n_workers: int):
        rho0 = DensityField.from_function(grid, rho_fn)
        dt = p["dt"] or stable_dt(drift, sigma, grid)
        output_times = np.linspace(0.0, p["t_final"], p["n_snapshots"])
        times, snaps = fp_solve(rho0, drift, sigma, p["t_final"], dt, output_times)
        names = [f"density_{i:04d}.csv" for i in range(len(times))]
        tables = {name: _density_table(field) for name, field in zip(names, snaps)}
        tables["density_manifest.csv"] = (["index", "time", "file"], [
            np.arange(len(times)), np.asarray(times, dtype=float), names])
        return tables, {"dt_used": float(dt)}

    def measure(out: Path):
        first = _read_density(out / "density_0000.csv", grid)
        last = _read_density(out / f"density_{p['n_snapshots'] - 1:04d}.csv", grid)
        return {}, {
            "l1_change": l1_distance(first, last),
            "mass_error": abs(last.mass() - 1.0),
            "boundary_mass": float((last.values[0] + last.values[-1]) * last.grid.dx),
        }
    return compute, measure


def _run_mc_fp_xval(cfg: ScenarioConfig):
    p = cfg.parameters
    grid = Grid1D(p["x_min"], p["x_max"], p["n_cells"])
    s0 = p["init_width_cells"] * grid.dx
    check_number("2 * (init_width_cells * dx)**2", 2.0 * s0 * s0, positive=True)
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
        record_from=n_steps,
    )
    drift = DriftSpec.linear(p["omega"])

    def rho_init(x):
        with np.errstate(over="ignore"):  # a subnormal 2 s0**2 gives exp(-inf) = 0
            return np.exp(-((np.asarray(x) - x0) ** 2) / (2.0 * s0 * s0))

    def compute(n_workers: int):
        batch = simulate_ensemble(drift, sde_cfg, n_workers)
        hist, out_frac = histogram_density(batch, -1, grid)
        rho0 = DensityField.from_function(grid, rho_init)
        dt_fp = stable_dt(drift, p["sigma"], grid)
        _, snaps = fp_solve(rho0, drift, p["sigma"], p["t_final"], dt_fp)
        return ({"mc_histogram.csv": _density_table(hist),
                 "fp_density.csv": _density_table(snaps[-1])},
                {"out_of_range_fraction": float(out_frac)})

    def measure(out: Path):
        a = _read_density(out / "mc_histogram.csv", grid)
        b = _read_density(out / "fp_density.csv", grid)
        return {}, {"l1_distance": l1_distance(a, b)}
    return compute, measure


def _branch_table(records: PlateRecords):
    """Per-branch counts, means, and standard deviations."""
    rows = []
    for branch in (UP, DOWN):
        z, p = records.branch_arrays(branch)
        if z.size == 0:
            rows.append((branch, 0) + (float("nan"),) * 4)
            continue
        std_z = z.std(ddof=1) if z.size > 1 else 0.0
        std_p = p.std(ddof=1) if p.size > 1 else 0.0
        rows.append((branch, z.size, z.mean(), std_z, p.mean(), std_p))
    return (["branch", "count", "mean_z", "std_z", "mean_p", "std_p"],
            [np.array(c) for c in zip(*rows)])


def _run_stern_gerlach(cfg: ScenarioConfig):
    p = cfg.parameters
    state = Spinor(p["alpha_re"] + 1j * p["alpha_im"], p["beta_re"] + 1j * p["beta_im"])
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
    def compute(n_workers: int):
        records = simulate_beam(state, beam, p["n"], cfg.seed)
        return {"plate.csv": (["index", "branch", "z_final", "p_final"], [
                    np.arange(len(records)), np.where(records.is_up, UP, DOWN),
                    records.z_final, records.p_final]),
                "branch_summary.csv": _branch_table(records)}, {}

    def measure(out: Path):
        data = io.read_csv(out / "plate.csv", converters={1: lambda s: s == UP})
        rr = PlateRecords(data[:, 1] == 1.0, data[:, 2], data[:, 3])
        z_up, p_up = rr.branch_arrays(UP)
        z_dn, p_dn = rr.branch_arrays(DOWN)
        both = bool(p_up.size and p_dn.size)
        metrics = {
            "up_fraction": rr.up_fraction(),
            "expected_up_fraction": measurement_probabilities(state)[0],
            "mean_z_up": float(z_up.mean()) if z_up.size else None,
            "mean_z_down": float(z_dn.mean()) if z_dn.size else None,
            "oracle_z_up": deflection(UP, beam)[0],
            "oracle_z_down": deflection(DOWN, beam)[0],
            "n_modes": count_plate_modes(rr.z_final),
        }
        for mode in ("literal", "kinetic"):
            metrics[f"delta_e_{mode}"] = energy_transition(
                float(p_dn.mean()), float(p_up.mean()), beam.mass, mode
            ) if both else None
        return {}, metrics
    return compute, measure


def _run_momentum_limit(cfg: ScenarioConfig):
    p = cfg.parameters
    if any(h <= p["t0"] for h in p["horizons"]):
        raise InvalidInputError("every horizon must exceed t0")
    drift = DriftSpec.time_scaled(p["t_floor"])
    n_paths, n_steps = p["n_paths"], p["steps_per_horizon"]
    record_every = _auto_record(n_steps, target=4000)
    n_rec = n_steps // record_every + 1
    n_tail = tail_samples(n_rec, p["tail_fraction"])  # the window; a short one is refused now
    sde_cfg = SdeConfig(
        dt=tuple((horizon - p["t0"]) / n_steps for horizon in p["horizons"]),
        n_steps=n_steps,
        sigma=p["sigma"],
        n_particles=n_paths * len(p["horizons"]),
        seed=cfg.seed,
        x0=p["x0"],
        t0=p["t0"],
        record_every=record_every,
        record_from=(n_rec - n_tail) * record_every,  # store the tail window alone
    )
    def compute(n_workers: int):
        batch = simulate_ensemble(drift, sde_cfg, n_workers)  # a block of rows per horizon
        # each row's estimate over the stored window, 64 rows at a time: small temporaries
        estimates = [momentum_estimate(t, x[i:i + 64], 1.0, p["variance_threshold"])
                     for t, x in zip(batch.times, np.split(batch.paths, len(batch.times)))
                     for i in range(0, n_paths, 64)]
        header = ["horizon", "path", "p_hat", "window_variance", "converged"]
        return {"momentum.csv": (header, [
            np.repeat(p["horizons"], n_paths),
            np.tile(np.arange(n_paths), len(p["horizons"])),
            np.concatenate([e.p_hat for e in estimates]),
            np.concatenate([e.window_variance for e in estimates]),
            np.concatenate([e.converged for e in estimates]),
        ])}, {}

    def measure(out: Path):
        table = io.read_csv(out / "momentum.csv", converters={4: lambda s: s == "true"})
        horizons = sorted(set(table[:, 0]))
        sels = [table[table[:, 0] == h] for h in horizons]
        mean_ph = [sel[:, 2].mean() for sel in sels]
        mean_wv = [sel[:, 3].mean() for sel in sels]
        summary = (["horizon", "mean_p_hat", "mean_window_variance", "converged_fraction"],
                   [horizons, mean_ph, mean_wv, [sel[:, 4].mean() for sel in sels]])
        return {"horizon_summary.csv": summary}, {
            "n_horizons": len(horizons),
            "first_window_variance": float(mean_wv[0]),
            "last_window_variance": float(mean_wv[-1]),
            "variance_monotone_decreasing": all(a > b for a, b in zip(mean_wv, mean_wv[1:])),
            "mean_p_hat_last": float(mean_ph[-1]),
        }
    return compute, measure


#: Columns of ``tracking.csv``.
_TRACKING_COLUMNS = ("t", "e_mean", "e_std", "u")


def _tracking(cfg: ScenarioConfig, n_particles: int, target: int, eta_hat=None,
              disturbance=None, eta_gap: float = 0.0):
    """The compute and measure stages of a tracking run; v(0) = v_r(0) + e0.

    The setup builds the reference, the SdeConfig and the law, in that order.
    ``measure(out)`` re-reads both artifacts and returns the tracking table
    with the metrics both tracking scenarios report.
    """
    p = cfg.parameters
    n_steps = _steps_for(p["t_final"], p["dt"])
    duration = n_steps * p["dt"]  # the reference spans the run's own steps, from t0 = 0
    if p["profile"] == "constant":
        reference = ReferenceTrajectory.constant(p["level"], duration)
    elif p["profile"] == "ramp":
        reference = ReferenceTrajectory.ramp(p["rate"], duration, start=p["level"])
    else:  # "sine": the profile's check rejects any other profile at parse time
        reference = ReferenceTrajectory.sine(p["amplitude"], p["angular_freq"], duration,
                                             offset=p["level"])
    sde_cfg = SdeConfig(dt=p["dt"], n_steps=n_steps, sigma=p["sigma"], n_particles=n_particles,
                        seed=cfg.seed, x0=reference.v_r(0.0) + p["e0"],
                        record_every=p["record_every"] or _auto_record(n_steps, target=target))
    law = ControlLaw(p["omega"], reference, eta_hat)

    def compute(n_workers: int):
        report = simulate_tracking(law, sde_cfg, disturbance, n_workers)
        return {
            "tracking.csv": (_TRACKING_COLUMNS,
                             [report.times, report.errors, report.error_std, report.control]),
            "tracking_summary.json": json.dumps({
                "fitted_decay_rate": report.fitted_decay_rate,
                "terminal_error": report.terminal_error,
                "fit_window": list(report.fit_window),
                "config": cfg.echo(),
            }, indent=2, sort_keys=True) + "\n",
        }, {}

    def measure(out: Path):
        table = dict(zip(_TRACKING_COLUMNS, io.read_csv(out / "tracking.csv").T))
        fit = json.loads((out / "tracking_summary.json").read_text())
        t, e, omega = table["t"], table["e_mean"], p["omega"]
        decay = math.exp(-omega * t[-1])
        expected = check_overflow("closed-form terminal error",
                                  p["e0"] * decay + eta_gap / omega * (1.0 - decay))
        return table, {
            "terminal_error": float(e[-1]),
            "expected_terminal_error": float(expected),
            "fitted_decay_rate": fit["fitted_decay_rate"],
            "steady_state_error": float(np.abs(e[t >= 0.9 * t[-1]]).mean()),
        }
    return compute, measure


def _run_track_particle(cfg: ScenarioConfig):
    eta, eta_hat = cfg.parameters["eta"], cfg.parameters["eta_hat"]
    compute, measure = _tracking(cfg, 1, 1000, lambda t: eta_hat, lambda t: eta, eta - eta_hat)
    return compute, lambda out: ({}, measure(out)[1])


def _run_track_ensemble(cfg: ScenarioConfig):
    p = cfg.parameters
    compute, shared = _tracking(cfg, p["n_particles"], target=100)

    def measure(out: Path):
        table, base = shared(out)
        return {}, {
            "terminal_mean_error": base["terminal_error"],
            "expected_terminal_error": base["expected_terminal_error"],
            "clt_band": 3.0 * p["sigma"] / math.sqrt(p["n_particles"]),
            "terminal_error_variance":
                float(table["e_std"][-1] ** 2) if p["n_particles"] > 1 else None,
            "stationary_error_variance": check_overflow(
                "closed-form stationary error variance",
                p["sigma"] * p["sigma"] / (2.0 * p["omega"]),
            ),
            "fitted_decay_rate": base["fitted_decay_rate"],
        }
    return compute, measure


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


_FIT_UNDEFINED = (
    "fitted_decay_rate when the mean error in the fit window is zero, changes "
    "sign or has fewer than two samples (e.g. e0 = 0 with sigma = 0)"
)

#: The keys both tracking scenarios take, after their own.
_TRACK_PARAMS = (
    Param("t_final", "float", 3.0, check=_positive("t_final")),
    Param("dt", "float", 1e-3, check=_positive("dt")),
    Param("record_every", "int", 0, check=_non_negative("record_every")),
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
            Param("sigma", "float"),
            Param("n_particles", "int"),
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
            Param("sigma", "float"),
            Param("n_cells", "int", 512),
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
            Param("n_particles", "int"),
            Param("x0", "float", 1.0),
            Param("t_final", "float", 2.0, check=_positive("t_final")),
            Param("dt_mc", "float", 1e-3, check=_positive("dt_mc")),
            Param("n_cells", "int", 256),
            Param("x_min", "float", -3.5),
            Param("x_max", "float", 4.5),
            Param("init_width_cells", "float", 4.0, check=_positive("init_width_cells")),
        ),
        artifacts="mc_histogram.csv, fp_density.csv, summary.txt",
        metrics=("l1_distance", "out_of_range_fraction"),
        runner=_run_mc_fp_xval,
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
            Param("mass", "float", 1.0),
            Param("gyromagnetic", "float", 1.0),
            Param("grad_bz", "float", -2.0),
            Param("b_z", "float", 1.0),
            Param("magnet_length", "float", 1.0),
            Param("drift_length", "float", 1.0),
            Param("v_beam", "float", 1.0),
            Param("sigma_z", "float", 0.0),
            Param("hbar", "float", 1.0),
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
            Param("sigma", "float", 1.0),
            Param("tail_fraction", "float", 0.25),
            Param("t_floor", "float", 1e-3),
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
    ),
    "track_particle": ScenarioSpec(
        description=(
            "Single velocity tracked along a reference by the open-loop law; "
            "exponential error decay and disturbance compensation."
        ),
        params=(
            Param("omega", "float"),
            Param("e0", "float", 1.0),
            Param("eta", "float", 0.0),
            Param("eta_hat", "float", 0.0),
            Param("sigma", "float", 0.0),
        ) + _TRACK_PARAMS,
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
            Param("omega", "float"),
            Param("sigma", "float"),
            Param("n_particles", "int"),
            Param("e0", "float", 1.0),
        ) + _TRACK_PARAMS,
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
_OUTPUT_KEYS = (Param("dir", "dir"),)

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinmech import cli, io
from spinmech.errors import ConfigurationError
from spinmech.fokker_planck import DensityField, Grid1D
from spinmech.scenarios import (
    REGISTRY,
    _auto_record,
    list_scenarios,
    parse_config,
    run_scenario,
)

DATA = Path(__file__).parent / "data"

SMALL_OU = """
[scenario]
name = ou_relax
seed = 42

[parameters]
omega = 1.0
sigma = 1.0
n_particles = 500
t_final = 1.0
dt = 2e-3

[output]
dir = {out}
"""

SMALL_SG = """
[scenario]
name = stern_gerlach
seed = 9

[parameters]
alpha_re = 0.6
beta_re = 0.8
n = 4000
sigma_z = 0.2

[output]
dir = {out}
"""


def run_text(text, out_dir, n_workers=1):
    cfg = parse_config(text.format(out=out_dir))
    return run_scenario(cfg, n_workers=n_workers)


def snapshot_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()
    }


class TestReproducibility:
    def test_same_seed_byte_identical(self, tmp_path):
        run_text(SMALL_OU, tmp_path / "a")
        run_text(SMALL_OU, tmp_path / "b")
        a = snapshot_bytes(tmp_path / "a")
        b = snapshot_bytes(tmp_path / "b")
        # the summaries echo the differing output dirs; everything else matches
        assert set(a) == set(b)
        for name in a:
            if name != "summary.txt":
                assert a[name] == b[name], name

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        run_text(SMALL_OU, tmp_path / "serial", n_workers=1)
        run_text(SMALL_OU, tmp_path / "threads", n_workers=4)
        a = snapshot_bytes(tmp_path / "serial")
        b = snapshot_bytes(tmp_path / "threads")
        for name in a:
            if name != "summary.txt":
                assert a[name] == b[name], name

    def test_different_seed_changes_data(self, tmp_path):
        run_text(SMALL_OU, tmp_path / "a")
        run_text(SMALL_OU.replace("seed = 42", "seed = 43"), tmp_path / "b")
        a = snapshot_bytes(tmp_path / "a")
        b = snapshot_bytes(tmp_path / "b")
        assert a["trajectories.csv"] != b["trajectories.csv"]


class TestRunSummary:
    def test_artifact_list_matches_directory_exactly(self, tmp_path):
        summary = run_text(SMALL_SG, tmp_path)
        on_disk = {p.name for p in tmp_path.iterdir() if p.is_file()}
        assert set(summary.artifacts) == on_disk

    def test_metric_set_matches_documented_set(self, tmp_path):
        summary = run_text(SMALL_OU, tmp_path)
        assert set(summary.metrics) == set(REGISTRY["ou_relax"].metrics)

    def test_summary_file_lists_each_metric_once(self, tmp_path):
        run_text(SMALL_OU, tmp_path)
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        metric_keys = [l.split(" = ")[0] for l in lines if l.startswith("metric.")]
        assert len(metric_keys) == len(set(metric_keys))
        assert set(metric_keys) == {
            f"metric.{m}" for m in REGISTRY["ou_relax"].metrics
        }

    def test_summary_echoes_config(self, tmp_path):
        run_text(SMALL_OU, tmp_path)
        text = (tmp_path / "summary.txt").read_text()
        assert "config.scenario.seed = 42" in text
        assert "config.parameters.omega = 1" in text

    def test_duration_recorded_in_memory_not_on_disk(self, tmp_path):
        summary = run_text(SMALL_OU, tmp_path)
        assert summary.duration_seconds > 0
        keys = [
            line.split(" = ")[0]
            for line in (tmp_path / "summary.txt").read_text().splitlines()
        ]
        assert not any("duration" in k for k in keys)


class TestCatalogue:
    def test_contains_exactly_the_seven_scenarios(self):
        assert set(REGISTRY) == {
            "ou_relax",
            "fp_stationary",
            "mc_fp_xval",
            "stern_gerlach",
            "momentum_limit",
            "track_particle",
            "track_ensemble",
        }
        text = list_scenarios()
        for name in REGISTRY:
            assert f"\n{name}\n" in text

    def test_golden_catalogue(self):
        assert list_scenarios() == (DATA / "scenario_catalogue.txt").read_text()

    def test_documented_defaults_are_the_applied_defaults(self, tmp_path):
        cfg = parse_config(SMALL_OU.format(out=tmp_path))
        spec = REGISTRY["ou_relax"]
        given = {"omega", "sigma", "n_particles", "t_final", "dt"}
        for p in spec.params:
            if p.name not in given:
                assert cfg.parameters[p.name] == p.default


class TestScenarioErrors:
    def test_record_every_must_divide_steps(self, tmp_path):
        text = SMALL_OU.format(out=tmp_path).replace(
            "dt = 2e-3", "dt = 2e-3\nrecord_every = 7"
        )
        with pytest.raises(ConfigurationError, match="does not divide"):
            run_scenario(parse_config(text))

    def test_fp_stability_violation_is_config_error_with_context(self, tmp_path):
        text = f"""
[scenario]
name = fp_stationary
seed = 1

[parameters]
omega = 1
sigma = 1
n_cells = 64
dt = 1.0

[output]
dir = {tmp_path}
"""
        with pytest.raises(ConfigurationError, match="fp_stationary.*stability"):
            run_scenario(parse_config(text))


def _auto_record_by_walk(n_steps, target):
    """Reference: walk down from n_steps // target to the first stride that divides."""
    rec = max(1, n_steps // target)
    while n_steps % rec:
        rec -= 1
    return rec


class TestAutoRecord:
    @given(n_steps=st.integers(1, 10**6), target=st.sampled_from([10, 100, 1000, 4000]))
    @example(n_steps=999_983, target=10)  # a prime: stride 1
    @example(n_steps=2 * 499_979, target=10)  # twice a prime: stride 2
    @example(n_steps=11 * 90_901, target=10)  # stride 90901 at 11 checkpoints
    @example(n_steps=1, target=4000)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_stride_as_the_walk(self, n_steps, target):
        assert _auto_record(n_steps, 0, target) == _auto_record_by_walk(n_steps, target)

    def test_far_stride_refused_at_once(self):
        # 80 * 734150239091023: the nearest stride below n_steps / 4000 is 80
        started = time.perf_counter()
        with pytest.raises(ConfigurationError, match="no divisor near"):
            _auto_record(58_732_019_127_281_840, 0, target=4000)
        assert time.perf_counter() - started < 10.0

    def test_large_step_count_with_near_stride(self):
        n_steps = 2**62
        assert _auto_record(n_steps, 0, target=10) == 2**58


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_run_exit_zero_and_prints_summary(self, tmp_path, capsys):
        cfg = self._write(tmp_path, SMALL_OU.format(out=tmp_path / "out"))
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "scenario ou_relax finished" in out
        assert "terminal_mean" in out

    def test_validate_ok(self, tmp_path, capsys):
        cfg = self._write(tmp_path, SMALL_OU.format(out=tmp_path / "out"))
        assert cli.main(["validate", cfg]) == cli.EXIT_OK
        assert "config OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_2_lists_all_errors(self, tmp_path, capsys):
        bad = SMALL_OU.format(out=tmp_path).replace("omega = 1.0", "omega = -1")
        bad = bad.replace("seed = 42\n", "")
        cfg = self._write(tmp_path, bad)
        assert cli.main(["validate", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "omega must be > 0" in err
        assert "'seed'" in err

    def test_missing_file_exit_4(self, capsys):
        assert cli.main(["run", "/nonexistent/path.cfg"]) == cli.EXIT_IO
        assert "cannot read config" in capsys.readouterr().err

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        # dt far beyond the explicit-Euler stability limit blows the plant up
        text = f"""
[scenario]
name = track_particle
seed = 1

[parameters]
omega = 1.0
t_final = 150
dt = 3.0

[output]
dir = {tmp_path / "out"}
"""
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", cfg]) == cli.EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario,params,bad",
        [
            ("fp_stationary", "omega = 1.0\nsigma = 1.0\nt_final = inf", "t_final"),
            ("ou_relax", "omega = 1.0\nsigma = inf\nn_particles = 10", "sigma"),
            ("ou_relax", "omega = 1.0\nsigma = 1.0\nn_particles = 10\nx0 = nan", "x0"),
            (
                "stern_gerlach",
                "alpha_re = 0.6\nbeta_re = 0.8\nn = 100\nmass = inf",
                "mass",
            ),
        ],
    )
    def test_non_finite_value_exits_2_without_traceback(
        self, tmp_path, capsys, scenario, params, bad
    ):
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"parameters.{bad}: expected a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario,params,bad",
        [
            ("ou_relax", "omega = 1.0\nsigma = 1.0\nn_particles = 1e20", "n_particles"),
            ("stern_gerlach", "alpha_re = 0.6\nbeta_re = 0.8\nn = 1e20", "n"),
            ("fp_stationary", "omega = 1.0\nsigma = 1.0\nn_cells = 1e20", "n_cells"),
        ],
    )
    def test_integer_beyond_int64_exits_2_without_traceback(
        self, tmp_path, capsys, scenario, params, bad
    ):
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"parameters.{bad}: expected an integer within 64 bits" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario,params",
        [
            ("ou_relax", "omega = 1.0\nsigma = 1.0\nn_particles = 10000000000000"),
            ("stern_gerlach", "alpha_re = 0.6\nbeta_re = 0.8\nn = 1000000000000000"),
            ("fp_stationary", "omega = 1.0\nsigma = 1.0\nn_cells = 1000000000000000"),
            ("fp_stationary", "omega = 1.0\nsigma = 1.0\nn_snapshots = 1000000000000000"),
            ("momentum_limit", "n_paths = 10000000000000"),
            ("track_ensemble", "omega = 1.0\nsigma = 1.0\nn_particles = 10000000000000"),
        ],
    )
    def test_size_too_large_to_allocate_exits_2_without_traceback(
        self, tmp_path, capsys, scenario, params
    ):
        # each run's first array needs more than 128 TiB, so allocation fails
        # at once whatever the overcommit policy; the setup that validate runs
        # allocates nothing sized by the config, so it accepts the config
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["validate", cfg]) == cli.EXIT_OK
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "too large to allocate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "scenario,params,undefined",
        [
            # a spin eigenstate sends every particle into the up branch
            ("stern_gerlach", "alpha_re = 1\nbeta_re = 0\nn = 200",
             {"mean_z_down", "delta_e_literal", "delta_e_kinetic"}),
            # starting on the reference leaves no error to fit
            ("track_particle", "omega = 1.0\ne0 = 0", {"fitted_decay_rate"}),
        ],
        ids=["stern_gerlach-eigenstate", "track_particle-e0-zero"],
    )
    def test_undefined_metric_exits_0_and_says_undefined(
        self, tmp_path, capsys, scenario, params, undefined
    ):
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        printed = capsys.readouterr().out
        lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        said = {l[len("metric."):].split(" = ")[0] for l in lines
                if l.startswith("metric.") and l.endswith(" = undefined")}
        assert said == undefined
        for name in undefined:
            assert f"  {name} = undefined" in printed
        json_path = tmp_path / "out" / "tracking_summary.json"
        if json_path.exists():
            assert json.loads(json_path.read_text())["fitted_decay_rate"] is None

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = self._write(tmp_path, SMALL_OU.format(out=tmp_path / "a"))
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        assert cli.main(["run", cfg, "--seed", "43", "--out", str(tmp_path / "b")]) == cli.EXIT_OK
        a = (tmp_path / "a" / "trajectories.csv").read_bytes()
        b = (tmp_path / "b" / "trajectories.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("where", ["--seed", "scenario.seed"])
    def test_seed_beyond_64_bits_exits_2_and_writes_nothing(self, tmp_path, capsys, where):
        seed = str(2**64 + 42)
        text = SMALL_OU.format(out=tmp_path / "out")
        if where == "scenario.seed":
            text = text.replace("seed = 42", f"seed = {seed}")
        cfg = self._write(tmp_path, text)
        flag = ["--seed", seed] if where == "--seed" else []
        assert cli.main(["run", cfg, *flag]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{where}: expected an integer within 64 bits, got '{seed}'" in err
        assert len(err.splitlines()) == (1 if flag else 2)  # the file's under a heading
        assert not (tmp_path / "out").exists()

    def test_numeric_looking_output_dir_is_used_as_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self._write(tmp_path, SMALL_SG.format(out="007").replace("n = 4000", "n = 50"))
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        assert (tmp_path / "007" / "summary.txt").exists()
        assert not (tmp_path / "7").exists()

    def test_dot_output_dir_is_the_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self._write(tmp_path, SMALL_SG.format(out=".").replace("n = 4000", "n = 50"))
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        assert (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("where", ["--out", "output.dir"])
    def test_empty_output_dir_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, where
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        flag = ["--out", ""] if where == "--out" else []
        text = SMALL_SG.format(out="sg" if flag else "").replace("n = 4000", "n = 50")
        assert cli.main(["run", self._write(tmp_path, text), *flag]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{where}: the output dir must not be empty" in err
        assert len(err.splitlines()) == (1 if flag else 2)  # the file's under a heading
        assert list(work.iterdir()) == []

    def test_run_time_config_error_names_the_scenario(self, tmp_path, capsys):
        text = SMALL_OU.format(out=tmp_path / "out").replace(
            "dt = 2e-3", "dt = 2e-3\nrecord_every = 7"
        )
        assert cli.main(["run", self._write(tmp_path, text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration errors:",
            "  - scenario 'ou_relax': record_every=7 does not divide n_steps=500",
        ]

    @pytest.mark.parametrize(
        "scenario,params",
        [
            ("ou_relax", "omega = 1\nsigma = 1\nn_particles = 10\ndt = 0.3\nt_final = 1.0"),
            ("ou_relax", "omega = 1\nsigma = 1\nn_particles = 10\nrecord_every = 7"),
            ("track_particle", "omega = 1\nprofile = sine\nangular_freq = 1e300"),
            ("momentum_limit", "horizons = 2, 4\nn_paths = 4\nsteps_per_horizon = 20"),
        ],
    )
    def test_validate_refuses_what_run_refuses_before_its_first_step(
        self, tmp_path, capsys, scenario, params
    ):
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["validate", cfg]) == cli.EXIT_CONFIG
        validated = capsys.readouterr().err
        assert validated.startswith(f"configuration errors:\n  - scenario '{scenario}': ")
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == validated
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario,params",
        [
            ("track_particle", "omega = 1"),
            ("track_ensemble", "omega = 1\nsigma = 0.1\nn_particles = 4"),
        ],
    )
    def test_tracking_reference_spans_the_steps_the_run_takes(
        self, tmp_path, scenario, params
    ):
        # ten steps of this dt end 5e-11 past t_final, within its whole-step tolerance
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"t_final = 0.001\ndt = 1.00000005e-4\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["validate", cfg]) == cli.EXIT_OK
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "summary.txt", "tracking.csv", "tracking_summary.json"
        ]

    def test_short_horizon_density_runs_step_to_t_final(self, tmp_path):
        # both horizons are shorter than the solver's old absolute time tolerance
        fp = (
            "[scenario]\nname = fp_stationary\nseed = 1\n[parameters]\nomega = 1\n"
            "sigma = 1\nn_cells = 64\nt_final = 5e-13\nn_snapshots = 3\n"
            f"[output]\ndir = {tmp_path / 'fp'}\n"
        )
        assert cli.main(["run", self._write(tmp_path, fp)]) == cli.EXIT_OK
        manifest = (tmp_path / "fp" / "density_manifest.csv").read_text().splitlines()
        assert float(manifest[-1].split(",")[1]) == 5e-13

        mc = (
            "[scenario]\nname = mc_fp_xval\nseed = 7\n[parameters]\nomega = 1\n"
            "sigma = 1\nt_final = 5e-13\ndt_mc = 5e-14\nn_particles = 200\n"
            f"n_cells = 64\n[output]\ndir = {tmp_path / 'mc'}\n"
        )
        assert cli.main(["run", self._write(tmp_path, mc)]) == cli.EXIT_OK
        grid = Grid1D(-3.5, 4.5, 64)  # the scenario's default domain
        s0 = 4.0 * grid.dx  # its default initial width, in cells
        initial = DensityField.from_function(
            grid, lambda x: np.exp(-((x - 1.0) ** 2) / (2.0 * s0 * s0))
        )
        io.write_density(tmp_path / "initial.csv", initial)
        density = (tmp_path / "mc" / "fp_density.csv").read_bytes()
        assert density != (tmp_path / "initial.csv").read_bytes()

    def test_refused_run_scenario_creates_no_output_dir(self, tmp_path):
        cfg = parse_config(SMALL_OU.format(out=tmp_path / "out"))
        cfg = replace(cfg, parameters={**cfg.parameters, "record_every": 7})
        with pytest.raises(ConfigurationError, match="^scenario 'ou_relax': record_every=7"):
            run_scenario(cfg)
        assert not (tmp_path / "out").exists()

    def test_threads_flag_reproduces_bytes(self, tmp_path):
        cfg = self._write(tmp_path, SMALL_OU.format(out=tmp_path / "a"))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "a")]) == cli.EXIT_OK
        assert (
            cli.main(["run", cfg, "--out", str(tmp_path / "b"), "--threads", "4"])
            == cli.EXIT_OK
        )
        a = (tmp_path / "a" / "trajectories.csv").read_bytes()
        b = (tmp_path / "b" / "trajectories.csv").read_bytes()
        assert a == b

    def test_list_scenarios_matches_library(self, capsys):
        assert cli.main(["list-scenarios"]) == cli.EXIT_OK
        assert capsys.readouterr().out == list_scenarios()

    def test_tracking_summary_json_artifact(self, tmp_path):
        text = f"""
[scenario]
name = track_particle
seed = 5

[parameters]
omega = 1.0
eta = 0.5
eta_hat = 0.5
t_final = 2.0

[output]
dir = {tmp_path / "out"}
"""
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        payload = json.loads((tmp_path / "out" / "tracking_summary.json").read_text())
        assert payload["config"]["parameters.eta"] == 0.5
        assert abs(payload["fitted_decay_rate"] + 1.0) < 0.01

import contextlib
import json
import math
import re
import shutil
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinmech import cli, io, scenarios
from spinmech.errors import InvalidInputError
from spinmech.fokker_planck import DensityField, Grid1D
from spinmech.scenarios import (
    REGISTRY,
    _auto_record,
    _density_table,
    list_scenarios,
    parse_config,
    run_scenario,
)
from spinmech.sde import tail_samples

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

#: A small valid parameter set per scenario.
SMALL_PARAMS = {
    "ou_relax": {"omega": 1, "sigma": 1, "n_particles": 8, "t_final": 0.05, "dt": 0.01},
    "fp_stationary": {"omega": 1, "sigma": 1, "n_cells": 16, "t_final": 0.01},
    "mc_fp_xval": {"omega": 1, "sigma": 1, "n_particles": 8, "n_cells": 16, "t_final": 0.01,
                   "dt_mc": 0.005},
    "stern_gerlach": {"alpha_re": 0.6, "beta_re": 0.8, "n": 20},
    "momentum_limit": {"horizons": "2, 4", "n_paths": 4, "steps_per_horizon": 40},
    "track_particle": {"omega": 1, "t_final": 0.1, "dt": 0.01},
    "track_ensemble": {"omega": 1, "sigma": 1, "n_particles": 4, "t_final": 0.1, "dt": 0.01},
}


def small_config(scenario, out, **changes):
    """A config of ``scenario`` with ``SMALL_PARAMS`` and then ``changes``."""
    params = {**SMALL_PARAMS[scenario], **changes}
    return (
        f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n"
        + "".join(f"{k} = {v}\n" for k, v in params.items())
        + f"[output]\ndir = {out}\n"
    )


def boundary_mass_warned(scenario):
    """Expect the boundary-mass warning that ``mc_fp_xval``'s 16-cell ``SMALL_PARAMS`` grid gives."""
    if scenario == "mc_fp_xval":
        return pytest.warns(RuntimeWarning, match="boundary mass")
    return contextlib.nullcontext()


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
    @pytest.mark.parametrize("scenario", sorted(SMALL_PARAMS))
    def test_artifact_list_matches_directory_exactly(self, tmp_path, scenario):
        with boundary_mass_warned(scenario):
            summary = run_scenario(parse_config(small_config(scenario, tmp_path)))
        assert sorted(summary.artifacts) == sorted(p.name for p in tmp_path.iterdir())

    @pytest.mark.parametrize("scenario", sorted(SMALL_PARAMS))
    def test_measure_needs_only_the_directory(self, tmp_path, scenario):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = parse_config(small_config(scenario, a))
        with boundary_mass_warned(scenario):
            summary = run_scenario(cfg)
            tables, computed = REGISTRY[scenario].runner(cfg)[0](1)
        b.mkdir()
        for name in tables:  # only what compute wrote
            shutil.copyfile(a / name, b / name)
        derived, measured = REGISTRY[scenario].runner(cfg)[1](b)  # a setup that computed nothing
        assert measured == {k: v for k, v in summary.metrics.items() if k not in computed}
        assert sorted(p.name for p in b.iterdir()) == sorted(tables)  # measure writes nothing
        for name, (header, columns) in derived.items():
            io.write_csv(tmp_path / name, header, columns)
            assert (tmp_path / name).read_bytes() == (a / name).read_bytes(), name
        assert summary.artifacts == [*tables, *derived, "summary.txt"]

    @pytest.mark.parametrize("change,drift", [
        (lambda m: {k: v for k, v in m.items() if k != "l1_change"}, "missing {'l1_change'}"),
        (lambda m: {**m, "spare": 1.0}, "extra {'spare'}"),
        (lambda m: {**m, "dt_used": 0.5}, "reported by both stages {'dt_used'}"),
        (lambda m: {**m, "l1_change": math.inf}, "non-finite {'l1_change': inf}"),
    ], ids=["missing", "extra", "both-stages", "non-finite"])
    def test_metric_set_drift_fails_before_the_summary(self, tmp_path, monkeypatch, change, drift):
        cfg = parse_config(small_config("fp_stationary", tmp_path))
        spec = REGISTRY["fp_stationary"]

        def runner(cfg):
            compute, measure = spec.runner(cfg)

            def changed(out):
                tables, metrics = measure(out)
                return tables, change(metrics)
            return compute, changed

        monkeypatch.setitem(REGISTRY, "fp_stationary", replace(spec, runner=runner))
        with pytest.raises(AssertionError, match=re.escape(drift)):
            run_scenario(cfg)
        assert not (tmp_path / "summary.txt").exists()

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
        with pytest.raises(InvalidInputError, match="record_every must divide n_steps"):
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
        with pytest.raises(InvalidInputError, match="fp_stationary.*stability"):
            run_scenario(parse_config(text))


def _auto_record_by_walk(n_steps, target):
    """Reference: walk down from n_steps // target to the first stride that divides."""
    rec = max(1, n_steps // target)
    while n_steps % rec:
        rec -= 1
    return rec


class TestRecordedWindow:
    """An ensemble scenario stores only the samples its metrics read."""

    @staticmethod
    def _recorded(monkeypatch, tmp_path, scenario, **changes):
        """The SdeConfig and the recorded samples per path of one run."""
        seen, simulate = [], scenarios.simulate_ensemble

        def spy(drift, cfg, n_workers=1):
            batch = simulate(drift, cfg, n_workers)
            seen.append((cfg, batch.paths.shape[1]))
            return batch
        monkeypatch.setattr(scenarios, "simulate_ensemble", spy)
        run_scenario(parse_config(small_config(scenario, tmp_path / "out", **changes)))
        (recorded,) = seen
        return recorded

    @pytest.mark.parametrize("tail_fraction", [0.25, 0.5, 1.0])
    def test_momentum_limit_records_its_tail_window(self, monkeypatch, tmp_path, tail_fraction):
        cfg, n_samples = self._recorded(monkeypatch, tmp_path, "momentum_limit",
                                        tail_fraction=tail_fraction)
        n_rec = cfg.n_steps // cfg.record_every + 1
        assert n_samples == tail_samples(n_rec, tail_fraction)
        assert cfg.record_from == (n_rec - n_samples) * cfg.record_every
        assert (cfg.record_from == 0) == (tail_fraction == 1.0)

    def test_mc_fp_xval_records_the_final_sample(self, monkeypatch, tmp_path):
        with boundary_mass_warned("mc_fp_xval"):
            cfg, n_samples = self._recorded(monkeypatch, tmp_path, "mc_fp_xval")
        assert n_samples == 1 and cfg.record_from == cfg.n_steps


class TestAutoRecord:
    @given(n_steps=st.integers(1, 10**6), target=st.sampled_from([10, 100, 1000, 4000]))
    @example(n_steps=999_983, target=10)  # a prime: stride 1
    @example(n_steps=2 * 499_979, target=10)  # twice a prime: stride 2
    @example(n_steps=11 * 90_901, target=10)  # stride 90901 at 11 checkpoints
    @example(n_steps=1, target=4000)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_stride_as_the_walk(self, n_steps, target):
        assert _auto_record(n_steps, target) == _auto_record_by_walk(n_steps, target)

    def test_far_stride_refused_at_once(self):
        # 80 * 734150239091023: the nearest stride below n_steps / 4000 is 80
        started = time.perf_counter()
        with pytest.raises(InvalidInputError, match="no divisor near"):
            _auto_record(58_732_019_127_281_840, target=4000)
        assert time.perf_counter() - started < 10.0

    def test_large_step_count_with_near_stride(self):
        n_steps = 2**62
        assert _auto_record(n_steps, target=10) == 2**58


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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(SMALL_OU.format(out=tmp_path / "out").encode("utf-16"))  # starts \xff\xfe
        assert cli.main([command, str(cfg)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration errors:",
            f"  - {cfg}: not UTF-8 text (invalid start byte at byte 0)",
        ]
        assert not (tmp_path / "out").exists()

    def test_output_dir_with_a_nul_byte_exits_2_at_validate(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cfg = self._write(tmp_path, SMALL_SG.format(out="a\0b").replace("n = 4000", "n = 50"))
        for command in ("validate", "run"):
            assert cli.main([command, cfg]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [
                "configuration errors:",
                "  - line 13: output.dir: the output dir must not hold a NUL byte, got 'a\\x00b'",
            ]
        assert list(work.iterdir()) == []

    def test_cli_integers_are_read_as_the_file_reads_them(self, tmp_path):
        file_seed = SMALL_SG.format(out=tmp_path / "a").replace("seed = 9", "seed = 1e3")
        assert cli.main(["run", self._write(tmp_path, file_seed)]) == cli.EXIT_OK
        cfg = self._write(tmp_path, SMALL_SG.format(out=tmp_path / "b"))
        flags = ["--seed", "1e3", "--threads", "2e0"]
        assert cli.main(["run", cfg, *flags]) == cli.EXIT_OK
        for name in ("plate.csv", "branch_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert "config.scenario.seed = 1000" in (tmp_path / "b" / "summary.txt").read_text()

    @pytest.mark.parametrize("flag,value", [("--seed", "1.5"), ("--seed", "x"),
                                            ("--threads", "1.5"), ("--threads", "x")])
    def test_non_integer_cli_integer_exits_2_under_the_heading(
        self, tmp_path, capsys, flag, value
    ):
        cfg = self._write(tmp_path, SMALL_OU.format(out=tmp_path / "out"))
        assert cli.main(["run", cfg, flag, value]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration errors:",
            f"  - {flag}: expected an integer, got '{value}'",
        ]
        assert not (tmp_path / "out").exists()

    def test_a_warning_is_one_line_without_its_source(self, tmp_path, capsys):
        # a Gaussian of standard deviation 0.71 on [-1, 1] leaves mass in the edge cells
        shown = warnings.showwarning
        cfg = self._write(tmp_path, small_config("fp_stationary", tmp_path / "out",
                                                 half_width=1.0))
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: boundary mass 0.0695 exceeds 1e-06; the domain is too narrow for "
            "reflecting boundaries to be neutral"
        ]
        assert warnings.showwarning is shown

    def test_output_dir_that_is_a_file_exit_4(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = self._write(tmp_path, SMALL_SG.format(out="sg").replace("n = 4000", "n = 50"))
        assert cli.main(["run", cfg, "--out", str(taken)]) == cli.EXIT_IO
        assert "I/O failure: [Errno 17] File exists" in capsys.readouterr().err

    def test_narrow_beam_is_one_plate_mode(self, tmp_path, capsys):
        # every plate hit lies within a few ulps of -1.5: too narrow for the histogram's bins
        text = SMALL_SG.format(out=tmp_path / "out")
        for old, new in [("alpha_re = 0.6", "alpha_re = 1"), ("beta_re = 0.8", "beta_re = 0"),
                         ("n = 4000", "n = 2000"), ("sigma_z = 0.2", "sigma_z = 1e-16")]:
            text = text.replace(old, new)
        cfg = self._write(tmp_path, text)
        assert cli.main(["validate", cfg]) == cli.EXIT_OK
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        assert "  n_modes = 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario,changes", [
        # dt far beyond the explicit-Euler stability limit blows the plant up
        ("track_particle", {"omega": 1.0, "t_final": 150, "dt": 3.0}),
        ("ou_relax", {"sigma": 1e20}),  # the first step leaves the overflow bound
        ("stern_gerlach", {"grad_bz": -1e300}),  # the plate hits lie beyond it
    ])
    def test_numeric_failure_exit_3(self, tmp_path, capsys, scenario, changes):
        out = tmp_path / "out"
        cfg = self._write(tmp_path, small_config(scenario, out, **changes))
        assert cli.main(["run", cfg]) == cli.EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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
            # beyond numpy's index range: numpy refuses the size with a ValueError
            ("ou_relax", "omega = 1.0\nsigma = 1.0\nn_particles = 1000000000000000000"),
            ("ou_relax", "omega = 1.0\nsigma = 1.0\nn_particles = 300000000000000000\n"
                         "record_every = 1"),
            ("track_ensemble", "omega = 1.0\nsigma = 1.0\nn_particles = 1000000000000000000"),
            ("mc_fp_xval", "omega = 1.0\nsigma = 1.0\nn_particles = 2000000000000000000"),
            ("momentum_limit", "n_paths = 1000000000000000000"),
            ("fp_stationary", "omega = 1.0\nsigma = 1.0\nn_cells = 2000000000000000000"),
            ("fp_stationary", "omega = 1.0\nsigma = 1.0\nn_snapshots = 2000000000000000000"),
        ],
    )
    def test_size_too_large_to_allocate_exits_2_without_traceback(
        self, tmp_path, capsys, scenario, params
    ):
        # each run's first array needs more than 128 TiB, so allocation fails
        # at once whatever the overcommit policy, or more bytes than numpy can
        # index; the setup that validate runs allocates nothing sized by the
        # config, so it accepts the config
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["validate", cfg]) == cli.EXIT_OK
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration errors:" in err and "too large to allocate" in err
        assert "Traceback" not in err

    def test_another_value_error_is_not_a_size_refusal(self, tmp_path, monkeypatch):
        def broken(cfg, n_workers=1):
            raise ValueError("a defect, not a size")
        monkeypatch.setattr(cli, "run_scenario", broken)
        cfg = self._write(tmp_path, small_config("ou_relax", tmp_path / "out"))
        with pytest.raises(ValueError, match="a defect, not a size"):
            cli.main(["run", cfg])

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
        assert len(err.splitlines()) == 2  # the heading and one line, for a flag as for the file
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
        assert len(err.splitlines()) == 2  # the heading and one line, for a flag as for the file
        assert list(work.iterdir()) == []

    def test_run_time_config_error_names_the_scenario(self, tmp_path, capsys):
        text = SMALL_OU.format(out=tmp_path / "out").replace(
            "dt = 2e-3", "dt = 2e-3\nrecord_every = 7"
        )
        assert cli.main(["run", self._write(tmp_path, text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration errors:",
            "  - scenario 'ou_relax': record_every must divide n_steps, got 7 for 500 steps",
        ]

    @pytest.mark.parametrize(
        "scenario,params",
        [
            ("ou_relax", "omega = 1\nsigma = 1\nn_particles = 10\ndt = 0.3\nt_final = 1.0"),
            ("ou_relax", "omega = 1\nsigma = 1\nn_particles = 10\nrecord_every = 7"),
            # the sine's derivative amplitude * angular_freq overflows
            ("track_particle",
             "omega = 1\nprofile = sine\namplitude = 1e300\nangular_freq = 1e10"),
            ("momentum_limit", "horizons = 2, 4\nn_paths = 4\nsteps_per_horizon = 20"),
            # the initial width's square underflows or overflows
            ("mc_fp_xval", "omega = 1\nsigma = 1\nn_particles = 8\ninit_width_cells = 1e-170"),
            ("mc_fp_xval", "omega = 1\nsigma = 1\nn_particles = 8\ninit_width_cells = 1e160"),
            # rules a run once met only after its steps: t0 + k * dt rounds recorded times
            # of the tail window to one value, and a configured dt's step count overflows
            ("momentum_limit", "t0 = 9.999999999999998e15\nhorizons = 1e16, 1.0000000000000004e16"
                               "\nn_paths = 4\nsteps_per_horizon = 40"),
            ("fp_stationary", "omega = 1\nsigma = 1\nn_cells = 16\nt_final = 3.5e19\ndt = 1.9"),
            # closed-form metrics that overflow: the run once wrote tracking.csv and
            # tracking_summary.json, then exited 3 without summary.txt
            ("track_particle", "omega = 1e-320\neta = 1"),
            ("track_ensemble", "omega = 1\nsigma = 1e155\nn_particles = 2\nt_final = 1e-300"
                               "\ndt = 1e-300"),
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

    def test_warnings_follow_the_outcome_line(self, tmp_path, capsys):
        cfg = self._write(tmp_path, small_config("stern_gerlach", tmp_path / "out",
                                                 grad_bz=1e155))
        assert cli.main(["run", cfg]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: scenario 'stern_gerlach': plate hits beyond |x| bound 1e+12",
            "warning: grad_bz = 1e+155 is not negative; proceeding with the mirrored geometry",
        ]

    @pytest.mark.parametrize("width", [1e-150, 1e-155])  # 2 * (width * dx)**2 subnormal
    def test_density_refused_at_run_time_leaves_no_artifact(self, tmp_path, capsys, width):
        # validate passes this width; its initial density is zero on every cell
        out = tmp_path / "out"
        cfg = self._write(tmp_path, small_config("mc_fp_xval", out, init_width_cells=width))
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "configuration errors:"
        assert len(err) == 2 and "density function integrates to zero" in err[1], err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("scenario", sorted(SMALL_PARAMS))
    def test_small_params_are_valid(self, scenario):
        assert parse_config(small_config(scenario, "out")).scenario == scenario

    @pytest.mark.parametrize(
        "scenario,fault,key",
        [
            ("ou_relax", {"sigma": -1}, "sigma"),
            ("ou_relax", {"n_particles": 0}, "n_particles"),
            ("ou_relax", {"record_every": 7}, "record_every"),
            ("fp_stationary", {"n_cells": 8}, "n_cells"),
            ("fp_stationary", {"sigma": 0}, "sigma"),  # refused before it sizes the grid
            ("mc_fp_xval", {"n_particles": 0}, "n_particles"),
            ("mc_fp_xval", {"n_cells": 8}, "n_cells"),
            ("mc_fp_xval", {"x_min": 2, "x_max": -2}, "x_max - x_min"),
            ("stern_gerlach", {"mass": 0}, "mass"),
            ("stern_gerlach", {"b_z": -1}, "b_z"),
            ("stern_gerlach", {"magnet_length": 0}, "magnet_length"),
            ("stern_gerlach", {"drift_length": -1}, "drift_length"),
            ("stern_gerlach", {"v_beam": 0}, "v_beam"),
            ("stern_gerlach", {"sigma_z": -1}, "sigma_z"),
            ("stern_gerlach", {"hbar": -1}, "hbar"),
            ("momentum_limit", {"sigma": -1}, "sigma"),
            ("momentum_limit", {"tail_fraction": 1.5}, "tail_fraction"),
            ("momentum_limit", {"t_floor": 0}, "t_floor"),
            ("track_particle", {"sigma": -1}, "sigma"),
            ("track_ensemble", {"sigma": -1}, "sigma"),
            ("track_ensemble", {"n_particles": 0}, "n_particles"),
            ("track_particle", {"omega": 0}, "omega"),
            ("track_particle", {"omega": -1}, "omega"),
            ("track_ensemble", {"omega": 0}, "omega"),
            ("track_ensemble", {"omega": -1}, "omega"),
        ],
    )
    def test_a_constructor_rule_is_refused_once_naming_its_key(
        self, tmp_path, capsys, scenario, fault, key
    ):
        # these rules are stated only by the library constructors the setup calls
        cfg = self._write(tmp_path, small_config(scenario, tmp_path / "out", **fault))
        assert cli.main(["validate", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        heading, *problems = err.splitlines()
        assert heading == "configuration errors:"
        assert len(problems) == 1, problems
        assert problems[0].startswith(f"  - scenario '{scenario}': {key} must "), problems
        assert "Traceback" not in err
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario,params",
        [
            # ten steps of this dt end 5e-11 past t_final, within its whole-step tolerance
            ("track_particle", "omega = 1\nt_final = 0.001\ndt = 1.00000005e-4"),
            ("track_ensemble",
             "omega = 1\nsigma = 0.1\nn_particles = 4\nt_final = 0.001\ndt = 1.00000005e-4"),
            # exact derivatives that a central difference of v_r misjudges, by its
            # truncation error and by its rounding error
            ("track_particle", "omega = 1\nt_final = 3\nprofile = sine\nangular_freq = 100"),
            ("track_particle", "omega = 1\nt_final = 3\nprofile = ramp\nlevel = 1e8\nrate = 1"),
        ],
        ids=["track_particle", "track_ensemble", "sine-truncation", "ramp-rounding"],
    )
    def test_tracking_reference_spans_the_steps_the_run_takes(
        self, tmp_path, scenario, params
    ):
        text = (
            f"[scenario]\nname = {scenario}\nseed = 1\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
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
        io.write_csv(tmp_path / "initial.csv", *_density_table(initial))
        density = (tmp_path / "mc" / "fp_density.csv").read_bytes()
        assert density != (tmp_path / "initial.csv").read_bytes()

    @pytest.mark.parametrize(
        "scenario,params",
        [
            # cell centers 1e5 away from zero; a grid rebuilt from them misses unit mass
            ("mc_fp_xval",
             "omega = 1e-9\nsigma = 1e-3\nx0 = 100000.005\nt_final = 0.001\ndt_mc = 1e-4\n"
             "n_particles = 2000\nn_cells = 50\nx_min = 100000\nx_max = 100000.01"),
            # a domain so wide that x**2 overflows before omega scales it down
            ("fp_stationary", "omega = 1e-310\nsigma = 1\nn_cells = 64\nt_final = 1\n"
             "n_snapshots = 3"),
        ],
        ids=["offset-grid", "tiny-omega"],
    )
    def test_density_metrics_read_back_on_extreme_grids(self, tmp_path, scenario, params):
        text = (
            f"[scenario]\nname = {scenario}\nseed = 3\n[parameters]\n{params}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", self._write(tmp_path, text)]) == cli.EXIT_OK

    def test_refused_run_scenario_creates_no_output_dir(self, tmp_path):
        cfg = parse_config(SMALL_OU.format(out=tmp_path / "out"))
        cfg = replace(cfg, parameters={**cfg.parameters, "record_every": 7})
        with pytest.raises(InvalidInputError,
                           match="^scenario 'ou_relax': record_every must divide"):
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

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_2_under_the_heading(self, tmp_path, capsys, threads):
        cfg = self._write(tmp_path, SMALL_OU.format(out=tmp_path / "out"))
        assert cli.main(["run", cfg, "--threads", threads]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration errors:",
            f"  - --threads must be an integer >= 1, got {threads}",
        ]
        assert not (tmp_path / "out").exists()

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

"""Self-test of the benchmark at reduced sizes (about a minute).

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit
for every workload, that the traced run's layer self times add up to the
root span, that the seed argument selects the scenario seed, that an
artifact mismatch injected here (not in ``src/``) fails the operation and
counts in ``error_rate``, and that the tracer fails loudly on a copy of the
program whose work-counted entry point or argument is renamed.
"""

import contextlib
import io
import json
import math
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import run

#: Parameter overrides that make each workload take about a second.
REDUCED = {
    "ensemble": {"n_particles": "400", "t_final": "0.3"},
    "density": {"n_cells": "64", "t_final": "0.1"},
    "beam": {"n": "4000"},
    "paths": {"n_paths": "40", "steps_per_horizon": "2000"},
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def reduce_config(text: str, overrides: dict) -> str:
    """The config with the values of ``overrides`` (keys it already sets) replaced."""
    lines = []
    pending = dict(overrides)
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in pending:
            line = f"{key} = {pending.pop(key)}"
        lines.append(line)
    assert not pending, f"config does not set {sorted(pending)}"
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def reduced(tmp_path_factory):
    """run.WORKLOADS with each config cut to a reduced size."""
    root = tmp_path_factory.mktemp("configs")
    out = {}
    for name, workload in run.WORKLOADS.items():
        text = (run.ROOT / workload.config).read_text()
        path = root / Path(workload.config).name
        path.write_text(reduce_config(text, REDUCED[name]))
        out[name] = replace(workload, config=str(path))
    return out


def run_main(monkeypatch, reduced, argv):
    monkeypatch.setattr(run, "WORKLOADS", reduced)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(monkeypatch, reduced, workload, trace):
    code, lines, result = run_main(
        monkeypatch, reduced,
        ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    facts = json.loads(next(line for line in lines if line.startswith("facts: "))[7:])
    assert facts["seed_arg"] == 5 and facts["seed_index"] == 5
    assert facts["seed"] == run.scenario_seeds(workload)[5]
    assert facts["input_size"]["count"] > 0
    assert 0 <= facts["cpu_steal_frac"] <= 1
    assert any(re.fullmatch(r"error_rate: 0 \(0 of 1 operations failed\)", line)
               for line in lines)
    if not trace:
        assert any(re.fullmatch(r"wall_2t_s: \S+ s \(median of 1, not gated\)", line)
                   for line in lines)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_zero_is_the_configs_own_seed(workload):
    text = (run.ROOT / run.WORKLOADS[workload].config).read_text()
    assert run.scenario_seeds(workload)[0] == run.parse_seed(text)


def test_any_integer_seed_runs_a_listed_seed(monkeypatch, reduced):
    seeds = run.scenario_seeds("beam")
    n = len(seeds)
    for arg, index in ((n + 3, 3), (3 * n, 0), (-1, n - 1), (2**40 + 7, (2**40 + 7) % n)):
        assert run.scenario_seed("beam", arg) == (index, seeds[index])
    code, lines, result = run_main(
        monkeypatch, reduced, ["--workload", "beam", "--seed", str(2**40 + 7), "--seconds", "0"])
    assert code == 0 and result["correct"] is True
    facts = json.loads(next(line for line in lines if line.startswith("facts: "))[7:])
    assert (facts["seed_arg"], facts["seed_index"]) == (2**40 + 7, (2**40 + 7) % n)
    assert facts["seed"] == seeds[(2**40 + 7) % n]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_self_times_add_up_to_the_root_span(reduced, workload, tmp_path):
    ops = run.measure(reduced[workload], 3, 0, True, tmp_path, run.run_child)
    traced = [c for c in ops[0].children if c.label == "1t-traced"][0]
    self_s = traced.result["layer_self_s"]
    assert sum(self_s.values()) == pytest.approx(traced.result["root_s"], rel=1e-9)
    layers = traced.result["layers"]
    assert layers["scenarios.self_s"] == pytest.approx(self_s["scenarios"], rel=1e-12)
    assert layers["config.parse_s"] > 0
    for direction in ("write", "read"):
        # io time and io bytes come from the same spans
        assert (layers[f"io.{direction}_s"] > 0) == (layers[f"io.{direction}_mb"] > 0)


def test_traced_work_count_must_match_the_input_size(reduced, tmp_path):
    workload = reduced["density"]
    wrong = replace(workload, size=lambda p, m: ("cell_steps", 1))
    op = run.run_operation(wrong, 1, tmp_path, True, None, run.run_child)
    assert op.problems == [
        f"1t-traced: tracer counted {op.children[1].result['work']['fokker_planck']} "
        "cell_steps in fokker_planck, the input size is 1"
    ]


@pytest.mark.parametrize("pattern, replacement, files, message", [
    (r"\bsimulate_ensemble\b", "simulate_paths", "*.py",
     "['sde.simulate_ensemble'] named in WORK/RSS_TRACKED are not functions"),
    (r"\bcfg\b", "setup", "sde.py",
     "cannot count the work of sde.simulate_ensemble from its arguments"),
])
def test_renamed_entry_point_fails_the_traced_run(monkeypatch, reduced, tmp_path,
                                                  pattern, replacement, files, message):
    """A copy of the program with a renamed work-counted function or argument."""
    package = tmp_path / "src" / "spinmech"
    shutil.copytree(run.SRC / "spinmech", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in package.glob(files):
        path.write_text(re.sub(pattern, replacement, path.read_text()))
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    op = run.run_operation(reduced["ensemble"], 42, tmp_path, True, None, run.run_child)
    plain, traced = op.children
    assert plain.ok  # the renamed program still runs
    assert not traced.ok and traced.exit_code != 0
    assert message in traced.log_tail
    assert op.failed


def _tampering(which):
    """run_child, but afterwards one artifact of the children in ``which`` changes."""
    run_child = run.run_child

    def spawn(config, seed, workers, out_dir, scratch, trace=False):
        child = run_child(config, seed, workers, out_dir, scratch, trace)
        if (workers, trace) in which:
            artifact = sorted(p for p in out_dir.iterdir() if p.suffix == ".csv")[0]
            with artifact.open("a") as fh:
                fh.write("\n")
        return child

    return spawn


def test_artifact_mismatch_between_thread_counts_counts_as_failure(monkeypatch, reduced):
    monkeypatch.setattr(run, "run_child", _tampering({(2, False)}))
    code, lines, result = run_main(
        monkeypatch, reduced, ["--workload", "beam", "--seconds", "0", "--trace", "0"]
    )
    assert code == 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "error_rate: 1 (1 of 1 operations failed)" in lines
    assert any("artifacts of 2t differ from 1t" in line for line in lines)


def test_artifact_mismatch_with_first_operation_counts_as_failure(reduced, tmp_path):
    workload = reduced["density"]
    first = run.run_operation(workload, 2, tmp_path, False, None, run.run_child)
    assert not first.failed
    second = run.run_operation(workload, 2, tmp_path, False, first.children[0].digests,
                               _tampering({(1, False), (2, False)}))
    assert second.failed
    assert second.problems == ["artifacts of 1t differ from the first operation"]

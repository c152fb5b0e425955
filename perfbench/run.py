#!/usr/bin/env python3
"""spinmech scenario benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is taken from ``src/``.

Each workload is a canned config from ``configs/`` at its committed size.
The benchmark runs a closed loop: one operation at a time, the next starting
only after the previous one has finished, while the next one would end
within ``--seconds`` (at least one operation).  An operation is two fresh child processes
(``perfbench/child.py``), each calling ``parse_config`` ->
``apply_overrides(seed, output_dir)`` -> ``run_scenario``:

* ``--trace 0``: the child at ``n_workers=1``, then again at
  ``n_workers=2``.  Prints the end-to-end metrics; ``wall_2t_s`` is printed
  but left out of the result line (``UNGATED_UNITS``).
* ``--trace 1``: the child at ``n_workers=1`` untraced, then traced (see
  ``tracer.py``).  Prints the per-layer metrics, medians over the traced
  children, and the tracing overhead against the untraced ones.

No operation uses more than two threads.  An operation fails when a child
exits non-zero, when the summary metrics fail the acceptance check of the
scenario, when any artifact's sha256 differs between the operation's two
children or from the first operation of the run, or when the traced child's
work count differs from the workload's input size.  Digests are compared
only within one run, never against pinned values.

``--seed N`` takes any integer and runs entry ``N mod L`` of the L scenario
seeds listed for the workload in ``seeds.json``; ``--seed 0`` is the config's
own seed.  The ``facts:`` line records N, the entry and the scenario seed
run.  The list holds, from the config's seed upwards,
the seeds whose operation passes the correctness gate on this program, and
the file also records the seeds that fail the gate by chance, with the
reason; ``screen_seeds.py`` explains why and regenerates it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run facts, each metric with its sample count, and ``error_rate``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"

#: A child that runs longer than this is killed and its operation fails.
CHILD_TIMEOUT_S = 60.0


# --------------------------------------------------------------------------
# workloads: config, input size, and the scenario's own acceptance check
# --------------------------------------------------------------------------


def _gate_ou_relax(m, p):
    return [
        f"{k} = {m[k]!r} is not < 3"
        for k in ("max_abs_z_mean", "max_abs_z_var")
        if not m[k] < 3.0
    ]


def _gate_fp_stationary(m, p):
    problems = []
    if not m["l1_change"] < 1e-3:
        problems.append(f"l1_change = {m['l1_change']!r} is not < 1e-3")
    if not m["mass_error"] < 1e-9:
        problems.append(f"mass_error = {m['mass_error']!r} is not < 1e-9")
    return problems


def _gate_stern_gerlach(m, p):
    problems = []
    if m["n_modes"] != 2:
        problems.append(f"n_modes = {m['n_modes']!r}, expected 2")
    n = p["n"]
    q = m["expected_up_fraction"]
    band = 3.0 * math.sqrt(q * (1.0 - q) / n)
    if not abs(m["up_fraction"] - q) < band:
        problems.append(f"up_fraction = {m['up_fraction']!r} outside {q} +- {band:.3g}")
    n_up = round(m["up_fraction"] * n)
    for branch, count in (("up", n_up), ("down", n - n_up)):
        gap = abs(m[f"mean_z_{branch}"] - m[f"oracle_z_{branch}"])
        tol = 3.0 * p["sigma_z"] / math.sqrt(max(count, 1))
        if not gap < tol:
            problems.append(f"mean_z_{branch} is {gap:.3g} from its oracle (3 sigma {tol:.3g})")
    return problems


def _gate_momentum_limit(m, p):
    if m["variance_monotone_decreasing"] is not True:
        return ["variance_monotone_decreasing is false"]
    return []


@dataclass(frozen=True)
class Workload:
    config: str
    #: Problems found in (summary metrics, echoed parameters); empty when correct.
    gate: Callable[[dict, dict], list]
    #: (work units, count) from (echoed parameters, summary metrics).
    size: Callable[[dict, dict], tuple]
    #: The layer whose traced work count must equal the input size.
    layer: str


WORKLOADS = {
    "ensemble": Workload(
        "configs/ou_relax.cfg",
        _gate_ou_relax,
        lambda p, m: ("particle_steps", p["n_particles"] * round(p["t_final"] / p["dt"])),
        "sde",
    ),
    "density": Workload(
        "configs/fp_stationary.cfg",
        _gate_fp_stationary,
        lambda p, m: (
            "cell_steps",
            p["n_cells"] * math.ceil(p["t_final"] / m["dt_used"] - 1e-12),
        ),
        "fokker_planck",
    ),
    "beam": Workload(
        "configs/stern_gerlach.cfg",
        _gate_stern_gerlach,
        lambda p, m: ("particles", p["n"]),
        "stern_gerlach",
    ),
    "paths": Workload(
        "configs/momentum_limit.cfg",
        _gate_momentum_limit,
        lambda p, m: (
            "particle_steps",
            len(p["horizons"]) * p["n_paths"] * p["steps_per_horizon"],
        ),
        "sde",
    ),
}


SEEDS_FILE = Path(__file__).resolve().parent / "seeds.json"


def parse_seed(config_text: str) -> int:
    """The ``seed`` a config file sets."""
    return int(re.search(r"^seed\s*=\s*(\d+)", config_text, re.M).group(1))


def scenario_seeds(workload_name: str) -> list:
    """The screened scenario seeds of a workload."""
    return json.loads(SEEDS_FILE.read_text())[workload_name]["seeds"]


def scenario_seed(workload_name: str, seed_arg: int) -> tuple:
    """(entry, scenario seed) that ``--seed seed_arg`` runs: entry ``seed_arg mod L``."""
    seeds = scenario_seeds(workload_name)
    index = seed_arg % len(seeds)
    return index, seeds[index]


# --------------------------------------------------------------------------
# one child process
# --------------------------------------------------------------------------


@dataclass
class ChildRun:
    label: str
    exit_code: int
    peak_rss_mb: float
    result: dict = field(default_factory=dict)
    log_tail: str = ""
    digests: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Exited 0 and reported its timings."""
        return self.exit_code == 0 and bool(self.result)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with its rusage; kill it if it outlives the timeout."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(config: Path, seed: int, workers: int, out_dir: Path,
              scratch: Path, trace: bool = False) -> ChildRun:
    """Start one child, wait for it, and collect its timings and peak RSS."""
    label = f"{workers}t" + ("-traced" if trace else "")
    result_path = scratch / f"{label}.json"
    log_path = scratch / f"{label}.log"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(CHILD), str(config), "--seed", str(seed),
           "--out", str(out_dir), "--workers", str(workers), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    with log_path.open("wb") as log:
        cmd += ["--t-spawn", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        code, usage = _wait(proc, CHILD_TIMEOUT_S)
    run = ChildRun(label, code, usage.ru_maxrss / 1024.0)
    if code == 0 and result_path.exists():
        run.result = json.loads(result_path.read_text())
    else:
        run.log_tail = log_path.read_text(errors="replace")[-2000:]
    return run


# --------------------------------------------------------------------------
# one operation: two children, checked
# --------------------------------------------------------------------------


def digest_dir(path: Path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir())
        if f.is_file()
    }


def _parse_scalar(text: str):
    """One summary.txt value; parsed here so the harness never imports the program."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        try:
            return [float(x) for x in text.split(",")]
        except ValueError:
            pass
    return text


def read_summary(path: Path) -> dict:
    """``summary.txt`` as {"seed": N, "metric": {...}, "parameters": {...}}."""
    out = {"seed": None, "metric": {}, "parameters": {}}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "config.scenario.seed":
            out["seed"] = int(value)
        elif key.startswith("metric."):
            out["metric"][key[len("metric."):]] = _parse_scalar(value)
        elif key.startswith("config.parameters."):
            out["parameters"][key[len("config.parameters."):]] = _parse_scalar(value)
    return out


@dataclass
class Operation:
    children: list
    problems: list

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_operation(workload: Workload, seed, work: Path, trace: bool,
                  reference: Optional[dict], spawn) -> Operation:
    """Run the operation's two children in turn and apply the correctness gate."""
    out_dir = work / "out"
    plan = [(1, False), (1, True)] if trace else [(1, False), (2, False)]
    children, problems = [], []
    for workers, traced in plan:
        shutil.rmtree(out_dir, ignore_errors=True)
        child = spawn(ROOT / workload.config, seed, workers, out_dir, work, traced)
        children.append(child)
        if not child.ok:
            problems.append(f"{child.label}: exit {child.exit_code}: {child.log_tail}")
            continue
        child.digests = digest_dir(out_dir)
        child.summary = read_summary(out_dir / "summary.txt")
        problems += [
            f"{child.label}: {msg}"
            for msg in workload.gate(child.summary["metric"], child.summary["parameters"])
        ]
        if traced:
            units, count = workload.size(child.summary["parameters"],
                                         child.summary["metric"])
            counted = child.result["work"].get(workload.layer, 0)
            if counted != count:
                problems.append(f"{child.label}: tracer counted {counted} {units} in "
                                f"{workload.layer}, the input size is {count}")
    ok = [c for c in children if c.ok]
    for child in ok[1:]:
        if child.digests != ok[0].digests:
            problems.append(f"artifacts of {child.label} differ from {ok[0].label}")
    if ok and reference is not None and ok[0].digests != reference:
        problems.append(f"artifacts of {ok[0].label} differ from the first operation")
    return Operation(children, problems)


# --------------------------------------------------------------------------
# a run: the closed loop and its metrics
# --------------------------------------------------------------------------


def measure(workload: Workload, seed, seconds: float, trace: bool, work: Path,
            spawn) -> list:
    """Closed loop of operations until the next one would overrun ``seconds``.

    The next operation is predicted to take as long as the fastest so far, so
    one operation slowed by the host does not cut the run's sample count.
    """
    ops = []
    reference = None
    fastest = math.inf
    started = time.monotonic()
    while True:
        op_started = time.monotonic()
        op = run_operation(workload, seed, work, trace, reference, spawn)
        ops.append(op)
        if reference is None:
            reference = next((c.digests for c in op.children if c.ok), None)
        now = time.monotonic()
        fastest = min(fastest, now - op_started)
        if now - started + fastest > seconds:
            return ops


#: Measured and printed, but not in BENCHMARK.json and so not gated: on a
#: shared two-core host the second core comes and goes for minutes at a time,
#: so the 2-thread time spreads wider between runs than any allowed bound.
UNGATED_UNITS = {"wall_2t_s": "s"}


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(ops: list) -> dict:
    """Medians over the operations' children, with their sample counts."""
    ok = [c for op in ops for c in op.children if c.ok]
    one = [c for c in ok if c.label == "1t"]
    two = [c for c in ok if c.label == "2t"]
    return {
        "wall_s": (_median([c.result["wall_s"] for c in one]), len(one)),
        "wall_2t_s": (_median([c.result["wall_s"] for c in two]), len(two)),
        "setup_s": (_median([c.result["setup_s"] for c in ok]), len(ok)),
        "peak_rss_mb": (_median([c.peak_rss_mb for c in one]), len(one)),
        "peak_rss_2t_mb": (_median([c.peak_rss_mb for c in two]), len(two)),
    }


def per_layer(ops: list, names) -> dict:
    """Medians over the traced children, plus the tracing overhead."""
    ok = [c for op in ops for c in op.children if c.ok]
    traced = [c for c in ok if c.label == "1t-traced"]
    plain = [c for c in ok if c.label == "1t"]
    out = {
        name: (_median([c.result["layers"][name] for c in traced]), len(traced))
        for name in names
        if name != "trace.overhead_frac"
    }
    overhead = (_median([c.result["wall_s"] for c in traced])
                / _median([c.result["wall_s"] for c in plain]) - 1.0)
    out["trace.overhead_frac"] = (overhead, len(traced))
    return out


def span_self_times(ops: list) -> list:
    """Median self time per traced function, largest first."""
    traced = [c.result["span_self_s"] for op in ops for c in op.children
              if c.ok and c.label == "1t-traced"]
    names = {name for spans in traced for name in spans}
    medians = {n: _median([spans.get(n, 0.0) for spans in traced]) for n in names}
    return sorted(medians.items(), key=lambda kv: -kv[1])


def cpu_jiffies():
    """(steal, total) CPU jiffies of the machine from /proc/stat, or None."""
    try:
        values = [int(v) for v in Path("/proc/stat").read_text().split()[1:9]]
    except (OSError, ValueError):
        return None
    return values[7], sum(values)


def run_facts(workload_name: str, seed_arg: int, ops: list, load_before,
              jiffies_before) -> dict:
    first = next((c for op in ops for c in op.children if c.summary), None)
    size, seed = (None, None), None
    if first is not None:
        size = WORKLOADS[workload_name].size(first.summary["parameters"],
                                             first.summary["metric"])
        seed = first.summary["seed"]
    jiffies_after = cpu_jiffies()
    steal = None
    if jiffies_before and jiffies_after and jiffies_after[1] > jiffies_before[1]:
        steal = ((jiffies_after[0] - jiffies_before[0])
                 / (jiffies_after[1] - jiffies_before[1]))
    return {
        "workload": workload_name,
        "config": WORKLOADS[workload_name].config,
        "seed_arg": seed_arg,
        "seed_index": scenario_seed(workload_name, seed_arg)[0],
        "seed": seed,
        "input_size": {"units": size[0], "count": size[1]},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        # share of the machine's CPU time taken by other guests during the run
        "cpu_steal_frac": steal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="any integer N: runs entry N mod L of the workload's L "
                             "seeds in seeds.json (0: the config's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    missing = [p for p in (SRC / "spinmech" / "__init__.py", ROOT / workload.config)
               if not p.is_file()]
    if missing:
        print("perfbench: not a spinmech checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2

    _, seed = scenario_seed(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    load_before, jiffies_before = os.getloadavg(), cpu_jiffies()
    try:
        ops = measure(workload, seed, seconds, bool(args.trace), work, run_child)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = per_layer(ops, units) if args.trace else end_to_end(ops)
    failed = sum(op.failed for op in ops)
    gated = set(measured) - set(UNGATED_UNITS)
    if gated != set(units):
        print("perfbench: measured metrics do not match BENCHMARK.json: "
              f"{sorted(gated ^ set(units))}", file=sys.stderr)
        return 1
    facts = run_facts(args.workload, args.seed, ops, load_before, jiffies_before)
    print("facts: " + json.dumps(facts))
    for op_index, op in enumerate(ops):
        for problem in op.problems:
            print(f"operation {op_index} failed: {problem}")
    print(f"error_rate: {failed / len(ops):.4g} ({failed} of {len(ops)} operations failed)")
    for name, (value, count) in measured.items():
        note = "" if name in gated else ", not gated"
        print(f"{name}: {value:.6g} {({**UNGATED_UNITS, **units})[name]} "
              f"(median of {count}{note})")
    if args.trace:
        for name, value in span_self_times(ops):
            print(f"self time of {name}: {value:.6g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, (value, _) in measured.items() if name in gated},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())

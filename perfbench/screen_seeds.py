#!/usr/bin/env python3
"""Regenerate ``seeds.json``: the scenario seeds behind ``run.py --seed N``.

    python3 perfbench/screen_seeds.py

For every workload it runs one benchmark operation
(``run.run_operation``: the 1- and 2-thread children and the full
correctness gate) on the config's own seed, then on the seeds after it,
and keeps the first ``COUNT`` seeds whose operation passes.  The seeds
that fail are written to the file too, with the gate's reasons.

Why the benchmark needs this: the gates are 3-sigma statistical checks.  A
correct program fails them on some seeds by chance (``ou_relax`` checks 10
checkpoints for mean and variance and fails about one seed in ten;
``stern_gerlach`` about one in a hundred), and the benchmark must not report
chance excursions as failed operations.  Which seeds fail depends on the
random streams: a change to them shows its chance failures as failed
operations on the listed seeds, and this script, run on the changed
program, gives the seeds to list after it.
"""

import json
import os
import shutil
import sys

import run

#: Seeds kept per workload: ``run.py --seed N`` runs entry ``N mod COUNT``.
COUNT = 128


def screen(workload: run.Workload, count: int, work) -> dict:
    seed = run.parse_seed((run.ROOT / workload.config).read_text())
    kept, failed = [], {}
    while len(kept) < count:
        op = run.run_operation(workload, seed, work, False, None, run.run_child)
        if op.failed:
            failed[str(seed)] = op.problems
            print(f"seed {seed} fails: {'; '.join(op.problems)}", file=sys.stderr)
        else:
            kept.append(seed)
        seed += 1
    return {"seeds": kept, "failed": failed}


def main() -> int:
    table = {}
    work = run.WORK_ROOT / f"screen-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in run.WORKLOADS.items():
            table[name] = screen(workload, COUNT, work)
        run.SEEDS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write or check the sha256 digests of every scenario artifact.

Usage:
    PYTHONPATH=src python scripts/regen_goldens.py [--full] [--check]

Each canned config in ``configs/`` runs at the reduced sizes in ``REDUCED``
(a few seconds in total), on one thread by default, with the relative output dir
``golden/<scenario>`` inside a scratch working directory.  ``summary.txt``
and ``tracking_summary.json`` echo the output dir, so the fixed relative
dir makes them hash the same wherever the run happens.  The digests land
in ``tests/data/golden_digests.txt`` as ``<sha256>  <scenario>/<file>``
lines; ``--check`` compares against that file instead of writing it and,
on any difference, prints each moved line and numpy's enabled CPU dispatch
features, then exits 1.  ``tests/test_goldens.py`` runs the same check.

``--full`` runs the canned configs as committed instead, with output dir
``canned/<scenario>``, once on one worker and once on two; the two runs must
give the same digests, which go to ``tests/data/canned_digests.txt``.  It
takes about 15 s, so the test suite does not run it.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from spinmech.scenarios import parse_config, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_FILE = ROOT / "tests" / "data" / "golden_digests.txt"
CANNED_FILE = ROOT / "tests" / "data" / "canned_digests.txt"

#: Parameter overrides that shrink each canned config to a quick run.
REDUCED = {
    "fp_stationary": {"n_cells": 128, "t_final": 0.25, "n_snapshots": 3},
    "mc_fp_xval": {"n_particles": 2000, "t_final": 0.5, "n_cells": 64},
    "momentum_limit": {"horizons": [10.0, 100.0], "n_paths": 50,
                       "steps_per_horizon": 1000},
    "ou_relax": {"n_particles": 200, "t_final": 0.5},
    "stern_gerlach": {"n": 2000},
    "track_ensemble": {"n_particles": 500, "t_final": 1.0},
    "track_particle": {},
}


def digest_lines(work_dir, n_workers: int = 1, full: bool = False) -> list[str]:
    """Run every scenario under ``work_dir``; one digest line per artifact.

    The runs are reduced unless ``full``.  The digests do not depend on
    ``n_workers`` or on how ensembles are split into chunks;
    ``tests/test_goldens.py`` checks that.  A file in an output directory
    that the run's ``summary.artifacts`` does not list is refused, so no
    artifact goes unpinned.
    """
    lines = []
    here = os.getcwd()
    os.chdir(work_dir)
    try:
        for path in sorted(CONFIGS.glob("*.cfg")):
            cfg = parse_config(path.read_text())
            cfg = replace(
                cfg,
                parameters={**cfg.parameters, **({} if full else REDUCED[cfg.scenario])},
                output_dir=f"{'canned' if full else 'golden'}/{cfg.scenario}",
            )
            summary = run_scenario(cfg, n_workers=n_workers)
            unlisted = {p.name for p in Path(cfg.output_dir).iterdir()} - set(summary.artifacts)
            if unlisted:
                raise RuntimeError(f"{cfg.scenario} wrote {sorted(unlisted)}, which its "
                                   "summary does not list as artifacts")
            for name in sorted(summary.artifacts):
                digest = hashlib.sha256(
                    (Path(cfg.output_dir) / name).read_bytes()
                ).hexdigest()
                lines.append(f"{digest}  {cfg.scenario}/{name}")
    finally:
        os.chdir(here)
    return lines


def moved_lines(expected, actual) -> list[str]:
    """``- <line>`` for each digest line only in ``expected``, then ``+ <line>``
    for each only in ``actual``."""
    old, new = set(expected), set(actual)
    return ([f"- {line}" for line in expected if line not in new]
            + [f"+ {line}" for line in actual if line not in old])


def cpu_features() -> str:
    """The CPU features numpy dispatches its loops to in this process.

    Float64 ``exp``, ``log``, ``expm1`` and ``power`` give other last bits in
    their AVX-512 loops than in the AVX2 and baseline ones, so digests
    pinned on one feature level can move on another.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return "numpy dispatch features: " + " ".join(k for k, on in __cpu_features__.items() if on)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed digests instead of writing")
    parser.add_argument("--full", action="store_true",
                        help="run the canned configs at full size, on 1 and 2 workers")
    args = parser.parse_args()
    target = CANNED_FILE if args.full else GOLDEN_FILE
    with tempfile.TemporaryDirectory() as work:
        lines = digest_lines(work, full=args.full)
    if args.full:
        with tempfile.TemporaryDirectory() as work:
            two = digest_lines(work, n_workers=2, full=True)
        if two != lines:
            print("digests differ between 1 and 2 workers:", *moved_lines(lines, two),
                  sep="\n", file=sys.stderr)
            return 1
    text = "\n".join(lines) + "\n"
    if not args.check:
        target.write_text(text)
        print(f"wrote {len(lines)} digests to {target}")
        return 0
    if target.read_text() == text:
        print(f"{len(lines)} digests match {target}")
        return 0
    print(f"digests differ from {target}:", *moved_lines(target.read_text().splitlines(), lines),
          cpu_features(), sep="\n", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""One benchmark child: a fresh process that runs one scenario config once.

    python3 perfbench/child.py CONFIG --seed N --out DIR --workers K \
        --t-spawn T --result FILE [--trace]

``--t-spawn`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is system-wide on Linux, so ``setup_s`` covers
interpreter start, imports and config parsing.  The child follows the CLI's
path: ``parse_config`` -> ``apply_overrides`` -> ``run_scenario``.  It writes
its timings (and, with ``--trace``, the per-layer figures) as JSON to
``--result``; any exception exits non-zero with a traceback on stderr.
"""

import argparse
import json
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from spinmech.config import apply_overrides
    from spinmech.scenarios import parse_config, run_scenario

    cfg = apply_overrides(
        parse_config(Path(args.config).read_text()),
        seed=args.seed,
        output_dir=args.out,
    )
    setup_s = time.monotonic() - args.t_spawn
    started = time.perf_counter()
    run_scenario(cfg, n_workers=args.workers)
    wall_s = time.perf_counter() - started

    result = {"setup_s": setup_s, "wall_s": wall_s}
    if tracer is not None:
        tracer.close()
        result["layers"] = tracer.layer_metrics()
        result["work"] = tracer.work_counts()
        result["layer_self_s"] = tracer.self_times("layer")
        result["span_self_s"] = tracer.self_times("name")
        result["root_s"] = tracer.root().duration
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

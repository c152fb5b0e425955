"""Command-line entry point.

Subcommands::

    spinmech run <config-file> [--seed N] [--out DIR] [--threads N]
    spinmech validate <config-file>
    spinmech list-scenarios

Exit codes: 0 success, 2 configuration problems, 3 numerical failures,
4 I/O failures.  ``--seed`` and ``--out`` override the config file and are
read by its rules, as is the integer ``--threads``, which never changes results.
A warning is printed to stderr as one line, ``warning: <message>``, without
the source file and line that raised it, after the outcome it came with.
``validate`` refuses what ``run`` would before any work, recorded times that
round to one value and a configured ``fp_stationary`` step count beyond 64
bits included; README lists what only ``run`` refuses, ``mc_fp_xval``'s
``all positions fall outside the histogram grid`` among them.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .config import apply_overrides, read_flag
from .errors import InvalidInputError, NumericalOverflowError, check_int
from .scenarios import human_summary, list_scenarios, parse_config, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmech",
        description="Run spin-ensemble simulation scenarios from config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("--seed", default=None, help="override scenario.seed")
    run_p.add_argument("--out", default=None, help="override output.dir")
    run_p.add_argument(
        "--threads", default="1",
        help="worker threads for ensembles (does not change results)",
    )

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to the config file")

    sub.add_parser("list-scenarios", help="print the scenario catalogue")
    return parser


def main(argv=None) -> int:
    shown = []
    with warnings.catch_warnings():  # restores the caller's display on return
        warnings.showwarning = lambda message, *args, **kwargs: shown.append(message)
        try:
            return _main(argv)
        finally:  # after the outcome, so that stderr's first line names it
            for message in shown:
                print(f"warning: {message}", file=sys.stderr)


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        print(list_scenarios(), end="")
        return EXIT_OK

    try:
        raw = Path(args.config).read_bytes()
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return EXIT_IO

    try:
        cfg = parse_config(raw.decode())
        if args.command == "validate":
            print(f"config OK: scenario '{cfg.scenario}', seed {cfg.seed}")
            return EXIT_OK
        threads = check_int("--threads", read_flag("--threads", "int", args.threads), 1)
        cfg = apply_overrides(cfg, seed=args.seed, output_dir=args.out)
        summary = run_scenario(cfg, n_workers=threads)
    except NumericalOverflowError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvalidInputError as e:
        refused = e.errors
    except UnicodeDecodeError as e:  # the file was read, but it is not config text
        refused = [f"{args.config}: not UTF-8 text ({e.reason} at byte {e.start})"]
    except (MemoryError, ValueError) as e:  # numpy refuses a size beyond its index range
        if not isinstance(e, MemoryError) and not str(e).startswith("array is too big"):
            raise
        refused = ["configured sizes are too large to allocate"]
    except OSError as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return EXIT_IO
    else:
        print(human_summary(summary))
        return EXIT_OK
    print("configuration errors:", file=sys.stderr)
    for msg in refused:
        print(f"  - {msg}", file=sys.stderr)
    return EXIT_CONFIG


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

"""CSV serialization for simulation artifacts.

Every CSV artifact is written by :func:`write_csv` and read back by
:func:`read_csv`.  Floats are written with 17 significant digits so that
reading a file back reproduces the original doubles exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .fokker_planck import DensityField, Grid1D
from .sde import TrajectoryBatch
from .stern_gerlach import DOWN, UP, PlateRecords

FLOAT_FMT = "%.17g"

#: The writer formats rows in blocks of about this many cells, which bounds
#: its memory on long tables.
_BLOCK_CELLS = 8192

#: Columns of ``tracking.csv``.
_TRACKING_COLUMNS = ("t", "e_mean", "e_std", "u")


def fmt(x) -> str:
    """Round-trip-exact decimal form of one float."""
    return FLOAT_FMT % float(x)


def write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, one row per index.

    A column is written by its dtype: floats with ``FLOAT_FMT``, bools as
    ``true``/``false`` and anything else (ints, strings) with ``str``.
    """
    cols = [np.asarray(c) for c in columns]
    cols = [np.where(c, "true", "false") if c.dtype.kind == "b" else c for c in cols]
    if len(cols) != len(header) or len({c.shape for c in cols}) != 1:
        raise InvalidInputError(f"{path}: columns do not match the header {header}")
    row = ",".join(FLOAT_FMT if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    step = max(1, _BLOCK_CELLS // len(cols))
    # an all-float table is sliced row-wise in one call, however wide it is
    table = np.array(cols).T if all(c.dtype.kind == "f" for c in cols) else None
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, cols[0].size, step):
            if table is not None:
                block = map(tuple, table[lo:lo + step].tolist())
            else:
                block = zip(*(c[lo:lo + step].tolist() for c in cols))
            fh.write("".join(row % cells for cells in block))


def read_csv(path, converters=None) -> np.ndarray:
    """The rows of a CSV artifact below its header, as a 2-d float array.

    ``converters`` maps a column index to a function of the cell text, for
    columns that do not hold numbers.
    """
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, converters=converters)


def write_trajectories(path, batch: TrajectoryBatch) -> None:
    """``t,particle_0,...,particle_{N-1}``; one row per recorded time."""
    header = ["t"] + [f"particle_{i}" for i in range(batch.n_particles)]
    write_csv(path, header, [batch.times, *batch.paths])


def read_trajectories(path) -> TrajectoryBatch:
    data = read_csv(path)
    if data.shape[1] < 2:
        raise InvalidInputError(f"{path}: expected a time column plus particles")
    return TrajectoryBatch(times=data[:, 0], paths=data[:, 1:].T)


def write_density(path, field: DensityField) -> None:
    """``x,rho`` rows at cell centers."""
    write_csv(path, ["x", "rho"], [field.grid.centers, field.values])


def read_density(path, grid: Grid1D) -> DensityField:
    """The ``x,rho`` file at ``path``, read on ``grid``, the grid it was written on.

    The x column must equal ``grid.centers`` exactly, since ``%.17g``
    round-trips every double; a file from any other grid is refused.
    """
    data = read_csv(path)
    if data.shape != (grid.n_cells, 2) or not np.array_equal(data[:, 0], grid.centers):
        raise InvalidInputError(f"{path}: not an x,rho table on the cell centers of {grid}")
    return DensityField(grid, data[:, 1])


def write_density_sequence(out_dir, times, fields) -> list[str]:
    """One ``x,rho`` file per snapshot plus a manifest listing the times.

    Returns the written file names (manifest last).
    """
    out_dir = Path(out_dir)
    names = [f"density_{i:04d}.csv" for i in range(len(times))]
    for name, field in zip(names, fields):
        write_density(out_dir / name, field)
    write_csv(out_dir / "density_manifest.csv", ["index", "time", "file"],
              [np.arange(len(times)), np.asarray(times, dtype=float), names])
    return names + ["density_manifest.csv"]


def write_plate_records(path, records: PlateRecords) -> None:
    """``index,branch,z_final,p_final``, one row per particle."""
    branch = np.where(records.is_up, UP, DOWN)
    write_csv(path, ["index", "branch", "z_final", "p_final"],
              [np.arange(len(records)), branch, records.z_final, records.p_final])


def read_plate_records(path) -> PlateRecords:
    data = read_csv(path, converters={1: lambda s: s == UP})
    if data.shape[0] == 0:
        raise InvalidInputError(f"{path}: no plate records")
    return PlateRecords(data[:, 1] == 1.0, data[:, 2], data[:, 3])


def write_branch_summary(path, records: PlateRecords) -> None:
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
    write_csv(path, ["branch", "count", "mean_z", "std_z", "mean_p", "std_p"],
              [np.array(c) for c in zip(*rows)])


def write_tracking_report(path, report) -> None:
    """``t,e_mean,e_std,u`` rows."""
    write_csv(path, _TRACKING_COLUMNS,
              [report.times, report.errors, report.error_std, report.control])


def read_tracking_table(path) -> dict[str, np.ndarray]:
    return dict(zip(_TRACKING_COLUMNS, read_csv(path).T))


def write_tracking_summary(path, report, config_echo: dict) -> None:
    """JSON record of the fit results alongside the config that produced them."""
    payload = {
        "fitted_decay_rate": report.fitted_decay_rate,
        "terminal_error": report.terminal_error,
        "fit_window": list(report.fit_window),
        "config": config_echo,
    }
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

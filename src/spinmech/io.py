"""The CSV format of every artifact, and nothing about what the artifact holds.

Every CSV artifact is written by :func:`write_csv` and read back by
:func:`read_csv`.  Floats are written with 17 significant digits so that
reading a file back reproduces the original doubles exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidInputError

FLOAT_FMT = "%.17g"

#: The writer formats rows in blocks of about this many cells, which bounds
#: its memory on long tables.
_BLOCK_CELLS = 8192


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

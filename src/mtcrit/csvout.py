"""The one CSV writer behind every curve file the toolkit emits."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["HERMITE_STRIDE", "write_csv"]

# A curve written with its derivative column keeps every HERMITE_STRIDE-th
# node of its grid and the last one: cubic Hermite interpolation of the kept
# values and slopes rebuilds the rest.
HERMITE_STRIDE = 5


def write_csv(paths: Sequence[str], header: Sequence[str], columns: Sequence,
              stride: int = 1) -> None:
    """Write one file per path: the header row, then one row per kept node.

    The first cell of every row comes from `columns[0]`, which all the files
    share; the other cells come from the path's own block of
    `len(header) - 1` columns, taken in order from `columns[1:]`.  Each value
    is written with 17 significant digits (`%.17g`, which round-trips a
    double) and each row ends in CRLF, the layout of the standard library's
    `csv.writer`; the first column is formatted once, into a row template
    that each file's cells fill in.  With `stride` k > 1 only the rows at
    nodes 0, k, 2k, ... and the last node are written, each the same bytes
    as at stride 1; the bubble and profile curves, which carry a derivative
    column, pass HERMITE_STRIDE.  Columns of unequal length, a header of
    fewer than two names, or a count of columns that is not one block per
    path are refused (ValueError) before any file is written.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    width = len(header) - 1
    if width < 1:
        raise ValueError(f"header has {len(header)} names; it needs at least 2")
    if len(arrays) != 1 + width * len(paths):
        raise ValueError(f"{len(arrays)} columns are not one shared column and a block "
                         f"of {width} for each of {len(paths)} paths")

    def kept(a):  # the rows at nodes 0, k, 2k, ... and the last, flattened row by row
        return np.append(a[::stride], a[-1:] if (len(a) - 1) % stride else a[:0])

    # no "%.17g" text holds a "%", so the first column's cells pass through the template
    row = "%.17g" + ",%%.17g" * width + "\r\n"
    rows = "".join([row % x for x in kept(arrays[0]).tolist()])
    for i, path in enumerate(paths):
        block = np.column_stack(arrays[1 + i * width:1 + (i + 1) * width])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.write(rows % tuple(kept(block).tolist()))

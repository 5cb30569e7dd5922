"""The one CSV writer behind every curve file the toolkit emits: `write_csv`
for one file, `write_csv_on_grid` for a ladder of curves on a common grid."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["HERMITE_STRIDE", "write_csv", "write_csv_on_grid"]

# A curve written with its derivative column keeps every HERMITE_STRIDE-th
# node of its grid and the last one: cubic Hermite interpolation of the kept
# values and slopes rebuilds the rest.
HERMITE_STRIDE = 5


def write_csv(path: str, header: Sequence[str], columns: Sequence, stride: int = 1) -> None:
    """Write equal-length numeric columns under a header row.

    Each value is written with 17 significant digits (`%.17g`, which
    round-trips a double) and each row ends in CRLF, the layout of the
    standard library's `csv.writer`.  With `stride` k > 1 only the rows at
    nodes 0, k, 2k, ... and the last node are written, each the same bytes
    as at stride 1; the bubble and profile curves, which carry a derivative
    column, pass HERMITE_STRIDE.  Columns of unequal length, or a header
    whose width is not the number of columns, are refused (ValueError).
    """
    lists = [np.asarray(c, dtype=float).tolist() for c in columns]
    lengths = [len(c) for c in lists]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    if len(header) != len(lists):
        raise ValueError(f"header has {len(header)} names for {len(lists)} columns")
    lists = [c[::stride] + c[-1:] if (len(c) - 1) % stride else c[::stride] for c in lists]
    row = ",".join(["%.17g"] * len(lists)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(row % values for values in zip(*lists)))


def write_csv_on_grid(paths: Sequence[str], header: Sequence[str], grid, columns: Sequence) -> None:
    """Write each column next to the common grid column, one file per path.

    Each file holds the bytes of `write_csv(path, header, [grid, column])`;
    the grid is formatted once, into a row template whose second cell is
    each file's `%.17g`.  A column whose length is not the grid's, a count of
    paths that is not the count of columns, or a header of other than two
    names is refused (ValueError) before any file is written.
    """
    grid = np.asarray(grid, dtype=float).tolist()
    lists = [np.asarray(c, dtype=float).tolist() for c in columns]
    for c in lists:
        if len(c) != len(grid):
            raise ValueError(f"columns differ in length: {[len(grid), len(c)]}")
    if len(paths) != len(lists):
        raise ValueError(f"{len(paths)} paths for {len(lists)} columns")
    if len(header) != 2:
        raise ValueError(f"header has {len(header)} names for 2 columns")
    # no "%.17g" text holds a "%", so the grid cells pass through the template
    rows = "".join(["%.17g,%%.17g\r\n" % x for x in grid])
    for path, c in zip(paths, lists):
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.write(rows % tuple(c))

"""The one CSV writer behind every curve file the toolkit emits."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["HERMITE_STRIDE", "write_csv"]

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

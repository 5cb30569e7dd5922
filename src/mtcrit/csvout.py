"""The one CSV formatter and writer behind every curve file the toolkit emits."""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

__all__ = ["HERMITE_STRIDE", "csv_texts", "write_csv"]

# A curve written with its derivative column keeps every HERMITE_STRIDE-th
# node of its grid and the last one: cubic Hermite interpolation of the kept
# values and slopes rebuilds the rest.
HERMITE_STRIDE = 5


def csv_texts(header: Sequence[str], columns: Sequence, count: int, stride: int = 1):
    """The texts of `count` files, formatted one at a time as they are drawn:
    the header row, then one row per kept node.

    The first cell of every row comes from `columns[0]`, which all the files
    share; the other cells come from the file's own block of
    `len(header) - 1` columns, taken in order from `columns[1:]`.  Each value
    is written with 17 significant digits (`%.17g`, which round-trips a
    double) and each row ends in CRLF, the layout of the standard library's
    `csv.writer`; the header and the first column are formatted once, into a
    template that each file's cells fill in.  With `stride` k > 1 only the
    rows at nodes 0, k, 2k, ... and the last node are kept, each the same
    bytes as at stride 1; the bubble and profile curves, which carry a
    derivative column, pass HERMITE_STRIDE.  Columns of unequal length, a
    header of fewer than two names, or a count of columns that is not one
    block per file are refused (ValueError) here, before any text is drawn.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    width = len(header) - 1
    if width < 1:
        raise ValueError(f"header has {len(header)} names; it needs at least 2")
    if len(arrays) != 1 + width * count:
        raise ValueError(f"{len(arrays)} columns are not one shared column and a block "
                         f"of {width} for each of {count} files")

    def kept(a):  # the values at nodes 0, k, 2k, ... and the last
        return np.append(a[::stride], a[-1:] if (len(a) - 1) % stride else a[:0])

    # no "%.17g" text holds a "%", so the first column's cells pass through the template
    row = "%.17g" + ",%%.17g" * width + "\r\n"
    template = "".join([",".join(header).replace("%", "%%") + "\r\n"]
                       + [row % x for x in kept(arrays[0]).tolist()])
    blocks = (arrays[1 + i * width:1 + (i + 1) * width] for i in range(count))
    # a file's kept cells, row by row
    return (template % tuple(np.column_stack([kept(a) for a in block]).ravel().tolist())
            for block in blocks)


def write_csv(out_dir: str, names: Sequence[str], header: Sequence[str], columns: Sequence,
              stride: int = 1) -> None:
    """Write the `csv_texts` of `header`, `columns` and `stride` to the files
    `names` in `out_dir`, one each; a refusal leaves every file unwritten."""
    texts = csv_texts(header, columns, len(names), stride)
    for name in names:
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(next(texts))  # one text is alive at a time

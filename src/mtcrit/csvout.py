"""The one CSV writer behind every curve file the toolkit emits."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["write_csv"]


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns under a header row.

    Each value is written with 17 significant digits (`%.17g`, which
    round-trips a double) and each row ends in CRLF, the layout of the
    standard library's `csv.writer`.
    """
    lists = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join(["%.17g"] * len(lists)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(row % values for values in zip(*lists)))

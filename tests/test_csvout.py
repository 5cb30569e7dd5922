"""The curve formatter and writer: their bytes against the standard
library's csv.writer, the row rule, and the refusals."""

import csv
import io
import math

import pytest

from mtcrit.csvout import HERMITE_STRIDE, write_csv

# inf, nan, a signed zero, a subnormal-scale value and a large power of two
# pass through the row template as they are
FIRST = [0.0, 1.0 / 3.0, 1e-300, math.inf, 2.0**60, -0.0, 7.0]
CELLS = [1.0, -0.0, math.pi, math.nan, 5.0, 1e-300, -math.inf]


def _expected(header, first, block, stride):
    """The bytes csv.writer writes for the header and the kept rows of
    `first` and `block`, each cell formatted with %.17g."""
    kept = list(range(0, len(first), stride))
    if kept[-1] != len(first) - 1:
        kept.append(len(first) - 1)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for i in kept:
        writer.writerow(["%.17g" % c[i] for c in [first] + block])
    return buf.getvalue().encode()


@pytest.mark.parametrize("stride", [1, HERMITE_STRIDE])
@pytest.mark.parametrize("n_paths,width", [(1, 1), (1, 3), (4, 1), (4, 2)])
def test_each_file_holds_the_bytes_of_csv_writer(tmp_path, stride, n_paths, width):
    header = ["r%"] + [f"c{j}" for j in range(width)]  # a "%" passes through as it is
    blocks = [[[v * (1 + p + 4 * j) for v in CELLS] for j in range(width)]
              for p in range(n_paths)]
    paths = [tmp_path / f"f{p}.csv" for p in range(n_paths)]
    write_csv(str(tmp_path), [p.name for p in paths], header,
              [FIRST] + [c for b in blocks for c in b], stride=stride)
    for path, block in zip(paths, blocks):
        assert path.read_bytes() == _expected(header, FIRST, block, stride)


@pytest.mark.parametrize("n,nodes", [
    (1, [0]), (2, [0, 1]), (6, [0, 5]), (8, [0, 5, 7]), (11, [0, 5, 10]), (12, [0, 5, 10, 11]),
])
def test_stride_keeps_every_fifth_node_and_the_last(tmp_path, n, nodes):
    path = tmp_path / "c.csv"
    write_csv(str(tmp_path), [path.name], ["i", "half"], [range(n), [0.5 * i for i in range(n)]],
              stride=HERMITE_STRIDE)
    rows = path.read_text().splitlines()
    assert rows == ["i,half"] + [f"{i},{0.5 * i:.17g}" for i in nodes]


def test_columns_of_unequal_length_are_refused(tmp_path):
    # zip would stop at the shortest column and drop the last rows unsaid
    with pytest.raises(ValueError, match=r"columns differ in length: \[3, 2\]"):
        write_csv(str(tmp_path), ["c.csv"], ["x", "y"], [[0.0, 1.0, 2.0], [0.0, 1.0]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("header", [["x"], ["x", "y", "z"]])
def test_header_of_another_width_is_refused(tmp_path, header):
    message = {1: "header has 1 names; it needs at least 2",
               3: "2 columns are not one shared column and a block of 2 for each of 1 files"}
    with pytest.raises(ValueError, match=message[len(header)]):
        write_csv(str(tmp_path), ["c.csv"], header, [[0.0, 1.0], [2.0, 3.0]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("header,columns,message", [
    (["r", "u"], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0]],
     r"columns differ in length: \[3, 3, 2\]"),
    (["r", "u"], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],
     "2 columns are not one shared column and a block of 1 for each of 2 files"),
    (["r"], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]],
     "header has 1 names; it needs at least 2"),
], ids=["length", "paths", "header"])
def test_grid_writer_refuses_before_writing(tmp_path, header, columns, message):
    # a ladder of two files on a common grid: no file is written when either
    # would be refused
    with pytest.raises(ValueError, match=message):
        write_csv(str(tmp_path), ["a.csv", "b.csv"], header, columns)
    assert list(tmp_path.iterdir()) == []

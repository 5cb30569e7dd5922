"""The curve writers: their refusals, the row rule, and the bytes of a
ladder on a common grid."""

import math

import pytest

from mtcrit.csvout import HERMITE_STRIDE, write_csv, write_csv_on_grid


def test_columns_of_unequal_length_are_refused(tmp_path):
    # zip would stop at the shortest column and drop the last rows unsaid
    with pytest.raises(ValueError, match=r"columns differ in length: \[3, 2\]"):
        write_csv(str(tmp_path / "c.csv"), ["x", "y"], [[0.0, 1.0, 2.0], [0.0, 1.0]])


@pytest.mark.parametrize("header", [["x"], ["x", "y", "z"]])
def test_header_of_another_width_is_refused(tmp_path, header):
    with pytest.raises(ValueError, match=f"header has {len(header)} names for 2 columns"):
        write_csv(str(tmp_path / "c.csv"), header, [[0.0, 1.0], [2.0, 3.0]])


@pytest.mark.parametrize("n,nodes", [
    (1, [0]), (2, [0, 1]), (6, [0, 5]), (8, [0, 5, 7]), (11, [0, 5, 10]), (12, [0, 5, 10, 11]),
])
def test_stride_keeps_every_fifth_node_and_the_last(tmp_path, n, nodes):
    path = tmp_path / "c.csv"
    write_csv(str(path), ["i", "half"], [range(n), [0.5 * i for i in range(n)]],
              stride=HERMITE_STRIDE)
    rows = path.read_text().splitlines()
    assert rows == ["i,half"] + [f"{i},{0.5 * i:.17g}" for i in nodes]


def test_grid_writer_writes_the_bytes_of_write_csv(tmp_path):
    # inf and nan cells pass through the grid's row template as they are
    grid = [0.0, 1.0 / 3.0, 1e-300, math.inf, 2.0**60]
    columns = [[1.0, -0.0, math.pi, math.nan, 5.0], [0.1, 0.2, 0.3, 0.4, -1e300]]
    paths = [tmp_path / f"g{i}.csv" for i in range(len(columns))]
    write_csv_on_grid([str(p) for p in paths], ["r", "u"], grid, columns)
    for path, column in zip(paths, columns):
        write_csv(str(tmp_path / "ref.csv"), ["r", "u"], [grid, column])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("header,columns,message", [
    (["r", "u"], [[0.0, 1.0, 2.0], [0.0, 1.0]], r"columns differ in length: \[3, 2\]"),
    (["r", "u"], [[0.0, 1.0, 2.0]], "2 paths for 1 columns"),
    (["r"], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], "header has 1 names for 2 columns"),
], ids=["length", "paths", "header"])
def test_grid_writer_refuses_before_writing(tmp_path, header, columns, message):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    with pytest.raises(ValueError, match=message):
        write_csv_on_grid([str(p) for p in paths], header, [0.0, 0.5, 1.0], columns)
    assert not any(p.exists() for p in paths)

"""The curve writer: its refusals and its row rule."""

import pytest

from mtcrit.csvout import HERMITE_STRIDE, write_csv


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

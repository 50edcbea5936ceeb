"""The block CSV writer against the row-by-row writer it replaced.

``reference_write`` is that writer: ``csv.writer`` over cells formatted one at
a time as ``"" if isnan else f"{v:.17g}"``. ``write_csv_columns`` must give the
same bytes, and a file it writes must read back bit for bit. A column may
also be passed as the cells ``_csv_cells`` formatted from it, which must not
change a byte.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riimpute.cli import (
    _CSV_CHUNK_ROWS,
    CliRunRecord,
    _csv_cells,
    read_csv_columns,
    write_csv_columns,
)

RECORD = CliRunRecord(command="riimpute impute in.csv", seed=3, version="0", input_digest="none")


def reference_write(path, header, columns, record):
    length = len(next(iter(columns.values())))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for line in record.header_lines():
            handle.write(f"# {line}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for i in range(length):
            writer.writerow(["" if np.isnan(v) else f"{v:.17g}"
                             for v in (columns[name][i] for name in header)])


def assert_same_bytes(tmp_path, header, columns, as_cells=()):
    """The writer's bytes are the reference's, with the ``as_cells`` columns passed as cells."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    given = {name: _csv_cells(column) if name in as_cells else column
             for name, column in columns.items()}
    write_csv_columns(new, header, given, RECORD)
    reference_write(old, header, columns, RECORD)
    assert new.read_bytes() == old.read_bytes()


EDGE_VALUES = np.array([np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 1e-300, 2.0, -7.0, 1e16, 123456789.0,
                        0.1, 1 / 3, np.nan, 2.5e-8])


def test_edge_values_match_reference(tmp_path):
    columns = {"a": EDGE_VALUES, "b": EDGE_VALUES[::-1].copy(), "c": np.full(16, np.nan)}
    assert_same_bytes(tmp_path, ["a", "b", "c"], columns)
    assert_same_bytes(tmp_path, ["c", "a"], columns)  # header order, not dict order


def test_cells_are_the_formatted_values():
    assert _csv_cells(EDGE_VALUES) == ["" if np.isnan(v) else f"{v:.17g}" for v in EDGE_VALUES]
    assert _csv_cells(np.empty(0)) == []


def test_cells_give_the_bytes_of_the_array(tmp_path):
    columns = {"a": EDGE_VALUES, "b": EDGE_VALUES[::-1].copy(), "c": np.full(16, np.nan)}
    for as_cells in (["a"], ["b", "c"], ["a", "b", "c"]):
        assert_same_bytes(tmp_path, ["a", "b", "c"], columns, as_cells)


def test_single_column_nan_row_is_quoted_empty_field(tmp_path):
    columns = {"v": np.array([1.0, np.nan, -0.0, np.nan])}
    assert_same_bytes(tmp_path, ["v"], columns)
    assert_same_bytes(tmp_path, ["v"], columns, as_cells=["v"])
    write_csv_columns(tmp_path / "one.csv", ["v"], columns, RECORD)
    body = (tmp_path / "one.csv").read_text(encoding="utf-8").splitlines()[4:]
    assert body == ["v", "1", '""', "-0", '""']


def test_header_is_quoted_like_csv_writer(tmp_path):
    columns = {'a,b': np.array([1.0, np.nan]), 'say "x"': np.array([np.nan, 2.0])}
    assert_same_bytes(tmp_path, ['a,b', 'say "x"'], columns)


@pytest.mark.parametrize("n_columns", [1, 3])
def test_zero_rows_match_reference(tmp_path, n_columns):
    header = [f"x{j}" for j in range(n_columns)]
    assert_same_bytes(tmp_path, header, {name: np.empty(0) for name in header})


@pytest.mark.parametrize("length", [_CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
def test_chunk_boundaries_match_reference(tmp_path, length):
    gen = np.random.default_rng(length)
    x = gen.normal(size=length)
    x[gen.random(length) < 0.3] = np.nan
    columns = {"x": x, "y": gen.normal(size=length).round(3)}
    assert_same_bytes(tmp_path, ["x", "y"], columns)
    assert_same_bytes(tmp_path, ["x", "y"], columns, as_cells=["y"])
    assert_same_bytes(tmp_path, ["x"], columns)
    assert_same_bytes(tmp_path, ["x"], columns, as_cells=["x"])


floats = st.floats(allow_nan=True, allow_infinity=False, width=64)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.lists(st.tuples(*[floats] * k), min_size=0, max_size=40)
        .map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), k)),
        st.lists(st.booleans(), min_size=k, max_size=k),
    )
))
def test_random_tables_match_reference(tmp_path_factory, case):
    # each column is passed as an array or as its cells, mixed at random
    table, as_cells = case
    header = [f"c{j}" for j in range(table.shape[1])]
    columns = {name: table[:, j].copy() for j, name in enumerate(header)}
    cells = [name for name, flag in zip(header, as_cells) if flag]
    assert_same_bytes(tmp_path_factory.mktemp("w"), header, columns, cells)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=64),
                          st.floats(allow_nan=False, allow_infinity=False, width=64)),
                min_size=1, max_size=40))
def test_finite_values_round_trip_bit_for_bit(tmp_path_factory, rows):
    table = np.array(rows, dtype=float)
    columns = {"x": table[:, 0].copy(), "y": table[:, 1].copy()}
    path = tmp_path_factory.mktemp("rt") / "rt.csv"
    write_csv_columns(path, ["x", "y"], columns, RECORD)
    header, back = read_csv_columns(path)
    assert header == ["x", "y"]
    for name in header:
        assert back[name].tobytes() == columns[name].tobytes()

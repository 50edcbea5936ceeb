"""The block CSV writer against the row-by-row writer it replaced.

``reference_write`` is that writer: ``csv.writer`` over cells formatted one at
a time as ``"" if isnan else f"{v:.17g}"``. ``write_csv_columns`` must give the
same bytes, and a file it writes must read back bit for bit. A column may
also be passed as the cells ``_csv_cells`` formatted from it, which must not
change a byte. The cells' numpy formatter must give the text of ``'%.17g' %``
for every value, including the ties, powers of ten and range edges where
digit-by-digit arithmetic goes wrong first.
"""

import csv
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riimpute.cli import (
    _CELL_BYTES,
    _CSV_CHUNK_ROWS,
    CliRunRecord,
    _csv_cells,
    read_csv_columns,
    write_csv_columns,
)

RECORD = CliRunRecord(command="riimpute impute in.csv", seed=3, version="0", input_sha256="none")


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


def cell_texts(cells):
    """The text of each cell: its bytes without the NUL bytes it leaves unused."""
    return [bytes(cell[cell != 0]).decode("ascii") for cell in cells]


def assert_cells_match_percent_format(values):
    """``_csv_cells`` gives each value's ``'%.17g' %`` text (NaN: none), one line per value."""
    values = np.asarray(values, dtype=float)
    expected = "".join(("" if math.isnan(v) else "%.17g" % v) + "\n" for v in values.tolist())
    cells = _csv_cells(values)
    assert cells.shape == (len(values), _CELL_BYTES)
    lines = np.concatenate([cells, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    # a cell holding a newline or missing text would put a line out of place
    assert lines[lines != 0].tobytes().decode("ascii") == expected


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
    assert cell_texts(_csv_cells(EDGE_VALUES)) == ["" if np.isnan(v) else f"{v:.17g}"
                                                   for v in EDGE_VALUES]
    assert _csv_cells(np.empty(0)).shape == (0, _CELL_BYTES)


def test_log_uniform_values_match_percent_format():
    # 10**6 magnitudes spread evenly in log over the fixed range, both signs
    gen = np.random.default_rng(2024)
    n = 10**6
    values = np.exp(gen.uniform(math.log(1e-4), math.log(1e16), n)) * gen.choice([-1.0, 1.0], n)
    assert_cells_match_percent_format(values)


def test_ties_round_half_to_even():
    # j / 2**17 for odd j has 17 binary fraction digits, so from 1 to 10 its
    # decimal expansion has 18 significant digits ending in 5: a tie at 17
    # digits, which %.17g rounds to the even 17th digit
    values = np.arange(1, 10 * 2**17, 2) / 2.0**17
    assert_cells_match_percent_format(values)
    assert_cells_match_percent_format(-values)
    # the ties broke both ways
    ties = values[values >= 1][:1000].tolist()
    assert {Decimal("%.17g" % v) > Decimal(v) for v in ties} == {True, False}


@pytest.mark.parametrize("exponent", range(-4, 16))
def test_ties_at_every_exponent(exponent):
    # j / 2**(17 - X) for odd j in [10**X, 10**(X + 1)) has 18 significant digits ending in 5
    shift = 17 - exponent
    low = math.ceil(Fraction(10) ** exponent * 2**shift)
    high = min(math.ceil(Fraction(10) ** (exponent + 1) * 2**shift), 2**53)  # j exact as a double
    odd = np.linspace(low + 1, high - 2, 4001).astype(np.int64) | 1
    values = odd / 2.0**shift
    assert np.all((values >= 10.0**exponent) & (values < 10.0 ** (exponent + 1)))
    assert_cells_match_percent_format(np.concatenate([values, -values]))


def _neighbours(values, steps=3):
    """``values`` and the ``steps`` doubles either side of each."""
    out = [values]
    down = up = values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def test_powers_of_ten_and_range_edges():
    # 1e-4 and 1e16 bound the fixed range: their neighbours fall either side of it
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    values = _neighbours(powers)
    assert_cells_match_percent_format(np.concatenate([values, -values]))
    edges = _neighbours(np.array([1e-4, 1e16]), steps=1)
    assert_cells_match_percent_format(np.concatenate([edges, -edges]))
    assert cell_texts(_csv_cells(edges[:2])) == ["0.0001", "10000000000000000"]


def test_no_value_below_a_power_of_ten_rounds_up_to_it():
    # the formatter takes the exponent before rounding to 17 digits; that is
    # right because no double just below a power of ten rounds up to it
    exponents = range(-3, 17)
    below = np.nextafter(np.array([float(f"1e{k}") for k in exponents]), 0.0)
    for k, value in zip(exponents, below.tolist()):
        assert f"{value:.16e}".endswith(f"e{k - 1:+03d}")
    assert_cells_match_percent_format(below)


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


FALLBACK_VALUES = np.array([0.0, -0.0, 5e-324, -2.5e-310, 9.99e-5, -3e-9, 1e16, -2.5e17,
                            1.7976931348623157e308])


@pytest.mark.parametrize("length", [_CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                                    2 * _CSV_CHUNK_ROWS + 1])
def test_chunk_boundaries_match_reference(tmp_path, length):
    gen = np.random.default_rng(length)
    x = gen.normal(size=length)
    x[gen.random(length) < 0.3] = np.nan
    # fixed-range and fallback cells mixed, with fallback cells either side of each block edge
    z = gen.normal(size=length) * 10.0 ** gen.integers(-4, 16, length)
    picks = gen.random(length) < 0.2
    picks[np.minimum([_CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, length - 1], length - 1)] = True
    z[picks] = gen.choice(FALLBACK_VALUES, picks.sum())
    columns = {"x": x, "y": gen.normal(size=length).round(3), "z": z}
    assert_same_bytes(tmp_path, ["x", "y"], columns)
    assert_same_bytes(tmp_path, ["x", "y"], columns, as_cells=["y"])
    assert_same_bytes(tmp_path, ["x"], columns)
    assert_same_bytes(tmp_path, ["x"], columns, as_cells=["x"])
    assert_same_bytes(tmp_path, ["z", "x", "y"], columns)
    assert_same_bytes(tmp_path, ["z", "x", "y"], columns, as_cells=["z"])
    assert_same_bytes(tmp_path, ["z"], columns)


def test_writer_formats_block_by_block(tmp_path):
    n = 100_000
    gen = np.random.default_rng(31)
    columns = {name: gen.normal(size=n) for name in ("a", "b", "c")}
    tracemalloc.start()
    try:
        write_csv_columns(tmp_path / "big.csv", ["a", "b", "c"], columns, RECORD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the cells of one whole column are 2.4 MB; one block of rows and its text about 1 MB
    assert peak < 3e6
    header, back = read_csv_columns(tmp_path / "big.csv")
    assert all(back[name].tobytes() == columns[name].tobytes() for name in header)


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

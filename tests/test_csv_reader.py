"""``read_csv_columns`` on generated files: values and the line an error names.

The generator writes a random finite table with comment lines, blank lines,
padded cells and quoted cells (some spanning several physical lines) between
and within its rows, and records the physical line each row ends on. The
reader must return the table's floats bit for bit, and when one cell is
corrupted its message must name the recorded line. A table with no rows is
refused as having no data rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riimpute.cli import CliInputError, read_csv_columns

STYLES = {
    "plain": "{}",
    "padded": "  {} ",
    "quoted": '"{}"',
    "multi-line": '"\n {}\n"',
}
FILLERS = ["# comment", "#,1,2", ""]
BAD_CELLS = {"zz": "non-numeric", "1.2.3": "non-numeric", "inf": "non-finite",
             "-NaN": "non-finite"}


@st.composite
def tables(draw):
    """A table as ``(header, rows, newline)``; a row is ``(fillers, cells)``.

    Each cell is ``(value, text, style)``: ``value`` is the float the reader
    must return (None for a missing cell), ``text`` its spelling.
    """
    k = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    # a lone unquoted empty cell would be a blank line, so one column quotes it
    missing = ["NA", ""] if k > 1 else ["NA"]
    cell = st.one_of(
        finite.map(lambda v: (v, repr(v))),
        st.sampled_from(missing).map(lambda text: (None, text)),
    ).flatmap(lambda pair: st.sampled_from(sorted(STYLES)).map(lambda style: (*pair, style)))
    fillers = st.lists(st.sampled_from(FILLERS), max_size=2)
    rows = draw(st.lists(st.tuples(fillers, st.lists(cell, min_size=k, max_size=k)),
                         max_size=25))
    return [f"c{j}" for j in range(k)], rows, draw(st.sampled_from(["\n", "\r\n"]))


def render(header, rows, newline, bad=None):
    """The file's text and the physical line each row ends on.

    ``bad = (i, j, text)`` spells cell ``j`` of row ``i`` as ``text``.
    """
    text = newline.join(["# leading comment", "", ",".join(header)]) + newline
    ends = []
    for i, (fillers, cells) in enumerate(rows):
        text += "".join(filler + newline for filler in fillers)
        spelled = []
        for j, (_, cell, style) in enumerate(cells):
            if bad is not None and bad[:2] == (i, j):
                cell = bad[2]
            spelled.append(STYLES[style].format(cell))
        text += ",".join(spelled)
        ends.append(text.count("\n") + 1)
        text += newline
    return text, ends


@settings(max_examples=80, deadline=None)
@given(tables(), st.data())
def test_reader_values_and_error_lines(tmp_path_factory, table, data):
    header, rows, newline = table
    path = tmp_path_factory.mktemp("rd") / "in.csv"
    text, ends = render(header, rows, newline)
    path.write_bytes(text.encode())
    if not rows:
        with pytest.raises(CliInputError) as excinfo:
            read_csv_columns(path)
        assert str(excinfo.value) == f"{path}: no data rows"
        return
    got_header, columns = read_csv_columns(path)
    assert got_header == header
    for j, name in enumerate(header):
        expected = np.array([np.nan if cells[j][0] is None else cells[j][0]
                             for _, cells in rows], dtype=float)
        assert columns[name].tobytes() == expected.tobytes()

    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(header) - 1))
    bad = data.draw(st.sampled_from(sorted(BAD_CELLS)))
    text, _ = render(header, rows, newline, bad=(i, j, bad))
    path.write_bytes(text.encode())
    with pytest.raises(CliInputError) as excinfo:
        read_csv_columns(path)
    assert str(excinfo.value) == f"{path}:{ends[i]}: {BAD_CELLS[bad]} value {bad!r}"


def test_cell_over_the_csv_field_limit_names_its_line(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("x,y\n1,2\n3," + "4" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(CliInputError) as excinfo:
        read_csv_columns(path)
    assert str(excinfo.value) == f"{path}:3: field larger than field limit (131072)"

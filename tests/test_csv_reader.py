"""``read_csv_columns`` on generated files: values and the line an error names.

The generator writes a random finite table with comment lines, blank lines,
padded cells and quoted cells (some spanning several physical lines) between
and within its rows, and records the physical line each row ends on. The
reader must return the table's floats bit for bit, and when one cell is
corrupted its message must name the recorded line. A table with no rows is
refused as having no data rows.
"""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_reader_oracle
from riimpute import cli
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
    # a header cell too, with no quote in the file
    path.write_text("x," + "y" * 200_000 + "\n1,2\n", encoding="utf-8")
    assert _outcome(read_csv_columns, path) == f"{path}:1: field larger than field limit (131072)"


# ---------------------------------------------------------------------------
# the block reader against the per-cell reader it replaced

def _outcome(read, path):
    """The header and each column's bytes, or the message of the fault."""
    try:
        header, columns = read(path)
    except CliInputError as exc:
        return str(exc)
    return header, [columns[name].tobytes() for name in header]


# cells float() reads: missing, padded, with underscores, and (in a quarter of
# the files) cells numpy's bytes cast refuses, which send their block to the
# reference rule: padding str.strip removes and bytes.strip keeps, Unicode digits
ODD_CELLS = ["", "NA", " NA ", "\t", "1_0"]
REFUSED_CELLS = ["\x1cNA", "١٢٣", "\xa02.5", "\u30003", "3\x1f"]
FAULTS = ["zz", "inf", "nan", "1.2.3", "1\0", "-", "4" * 131_073]


@st.composite
def csv_files(draw):
    """A file's bytes and where its line that is not UTF-8 starts (or None).

    A header of 1-3 names (rarely repeated), up to 30 rows of numbers in
    several spellings and paddings and of odd cells, comment and blank lines
    between them (and whitespace lines for k = 1), \\n, \\r\\n or lone \\r
    line ends. A quarter of the files have quoted cells (with commas, quotes
    and line ends inside), an eighth a comment with a NUL byte, and half of
    them one fault: a faulty cell, a NUL byte, a cell over the csv field
    limit, or a row with a field too many or too few. A quarter of the files
    get a line that is not UTF-8, inserted at a line start outside quotes.
    """
    k = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["a", " b ", "c", "d\xa0"]),
                          min_size=k, max_size=k, unique=True))
    if draw(st.integers(0, 9)) == 0:
        names[-1] = names[0].strip()
    number = st.floats(allow_nan=False, allow_infinity=False, width=64).flatmap(
        lambda v: st.sampled_from([repr(v), "%.17g" % v, "%.15g" % v]))
    odd = ODD_CELLS + REFUSED_CELLS * (draw(st.integers(0, 3)) == 0)
    pads = ["{}", "{}", " {} ", "\t{}"]
    if draw(st.integers(0, 3)) == 0:
        pads += ['"{}"', '"\n{}\r\n"', '"{}"""', '"{},"']
    cell = st.tuples(st.one_of(number, number, st.sampled_from(odd)),
                     st.sampled_from(pads)).map(lambda pair: pair[1].format(pair[0]))
    rows = draw(st.lists(st.lists(cell, min_size=k, max_size=k), max_size=30))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "extra", "short"]))
        if kind == "cell":
            rows[i][draw(st.integers(0, k - 1))] = draw(st.sampled_from(FAULTS))
        elif kind == "extra":
            rows[i].append("1")
        else:
            rows[i].pop()
    lines = [draw(st.sampled_from(["# comment", ""]))] if draw(st.booleans()) else []
    lines.append(",".join(names))
    # a whitespace line is a row of one field: one missing cell when k = 1
    fillers = ["# c, 1", "", "#"] + ["  "] * (k == 1) + ["# \0"] * (draw(st.integers(0, 7)) == 0)
    for row in rows:
        lines += draw(st.lists(st.sampled_from(fillers), max_size=1))
        lines.append(",".join(row))
    text = b"".join(line.encode() + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
                    for line in lines)
    if draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    bad = None
    if draw(st.integers(0, 3)) == 0:
        starts = [0] + [i + 1 for i, byte in enumerate(text)
                        if (byte == 10 or (byte == 13 and text[i + 1:i + 2] != b"\n"))
                        and text[:i].count(b'"') % 2 == 0]
        bad = draw(st.sampled_from(starts))
        end = b"\r" if bad and text[bad - 1:bad] == b"\r" else b"\n"
        text = text[:bad] + draw(st.sampled_from([b"\xff", b"1,\xe2\x82", b"# \xc3("])) + end + text[bad:]
    return text, bad


@settings(max_examples=400, deadline=None)
@given(csv_files(), st.sampled_from([1, 2, 3, 7, 64, 4096, 1 << 18]))
def test_block_reader_matches_the_per_cell_reader(tmp_path_factory, file, block_bytes):
    text, bad = file
    if len(text) > 100_000:
        block_bytes = max(block_bytes, 4096)  # keep files with a long cell quick
    path = tmp_path_factory.mktemp("oracle") / "in.csv"
    path.write_bytes(text)
    with patch.object(cli, "_READ_BYTES", block_bytes):
        got = _outcome(read_csv_columns, path)
    expected = _outcome(csv_reader_oracle.read_csv_columns, path)
    if bad is not None:
        # the one permitted difference: a fault before the line that is not
        # UTF-8 is reported, even where the per-cell reader's 8 KB decode
        # chunk reached that line first
        path.write_bytes(text[:bad])
        earlier = _outcome(csv_reader_oracle.read_csv_columns, path)
        if isinstance(earlier, str) and not earlier.endswith((": empty file", ": no data rows")):
            assert expected == earlier or "not valid UTF-8" in expected
            expected = earlier
        else:
            assert "not valid UTF-8" in expected
    assert got == expected


PLAIN_ROWS = "".join(f"{i * 0.1:.17g},{'NA' if i % 3 else ''},  {i}e-3 {end}#c\n\n"
                     for i, end in zip(range(40), ["\n", "\r\n", "\r"] * 14))


@pytest.mark.parametrize("text, block_bytes, n, walked", [
    ("# c\r\nx, y ,z\r\n" + PLAIN_ROWS, 64, 40, []),
    # with 1-byte reads a block is one line (lone \r line ends join the next)
    ("x, y ,z\n" + PLAIN_ROWS + '1,"2\n",1_0\n', 1, 41, [["1", "2\n", "1_0"]]),
], ids=["plain", "quoted-at-the-end"])
def test_clean_blocks_take_no_per_cell_walk(tmp_path, text, block_bytes, n, walked):
    """Clean blocks are converted in numpy; the reference rule reads only the
    rows from the block of the file's first quote on (a walk would give the
    same values, only slower)."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    rows = []
    reference = cli._ColumnReader._row
    with patch.object(cli, "_READ_BYTES", block_bytes), \
            patch.object(cli._ColumnReader, "_row",
                         lambda self, line, row: rows.append(row) or reference(self, line, row)):
        got = _outcome(read_csv_columns, path)
    assert got == _outcome(csv_reader_oracle.read_csv_columns, path)
    assert len(got[1][0]) == 8 * n
    assert [row for row in rows if row and not row[0].startswith("#")] == walked


def test_a_fault_before_a_byte_that_is_not_utf8_is_reported_first(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"y,z\n1,zz\n2,3\n\xff\n")
    assert _outcome(csv_reader_oracle.read_csv_columns, path) == (
        f"{path}: not valid UTF-8 (byte 0xff)")
    assert _outcome(read_csv_columns, path) == f"{path}:2: non-numeric value 'zz'"
    # and so after the file's first quote, where csv.reader reads every line
    path.write_bytes(b'y,z\n"1",2\n3,zz\n\xff\n')
    assert _outcome(read_csv_columns, path) == f"{path}:3: non-numeric value 'zz'"
    path.write_bytes(b'y,z\n"1",2\n3,4\n\xff\n')
    assert _outcome(read_csv_columns, path) == f"{path}: not valid UTF-8 (byte 0xff)"


def test_a_path_that_cannot_be_opened_is_an_input_error(tmp_path):
    # the commands hash their inputs first, so only a library call gets here
    assert _outcome(read_csv_columns, tmp_path / "absent.csv").startswith(
        f"cannot read {tmp_path / 'absent.csv'}: [Errno 2]")


def test_reader_memory_stays_near_8_bytes_per_cell(tmp_path):
    """The read holds each column's floats (8 bytes a cell, grown like a
    list) and a fixed allowance for one block's work arrays."""
    n = 200_000
    rng = np.random.default_rng(3)
    columns = {"a": rng.normal(size=n), "b": rng.normal(size=n) * 1e3, "c": rng.normal(size=n)}
    columns["a"][rng.random(n) < 0.3] = np.nan
    path = tmp_path / "big.csv"
    cli.write_csv_columns(path, list(columns), columns, cli.CliRunRecord("c", 1, "0", "none"))
    allowance = 4 * 2**20
    for read in (read_csv_columns, csv_reader_oracle.read_csv_columns):
        tracemalloc.start()
        try:
            header, back = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back["b"].tobytes() == columns["b"].tobytes()
        assert peak <= 8 * 3 * n + allowance, (read.__module__, peak)

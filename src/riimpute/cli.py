"""Command line front end.

Three subcommands: ``impute`` completes a CSV with a chosen method, ``simulate``
runs a Monte Carlo scenario and writes the results table, ``density`` writes
kernel density curves for plotting elsewhere.

Exit codes: 0 on success, 2 for unusable input (parse failures, a file with no
data rows, missing or repeated columns, too few rows, an input that cannot be
read or an output that cannot be written), 3 for statistical
failure (any other library error: rank deficiency, degenerate samples, too
many failed replications). ``impute`` computes every estimate before it writes
its first file, so a failure leaves no output. Output files are byte-identical
across runs with the same command line and seed; each carries comment lines
citing the command, seed, package version and an input content digest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
from array import array
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    RiImputeError,
    TooFewRows,
)
from .imputation import IncompleteDataset, RiConfig, complete_case, mar_impute, ri_impute
from .pooling import fit_analysis, rubin_pool, single_fit_estimate
from .rng import RngStream, _is_seed, mix_stream_id
from .simulation import (
    BETA_SETTINGS,
    NONRESPONSE_SETTINGS,
    _scenario_keys,
    builtin_scenario,
    density_summary,
    format_result_table,
    parse_scenario_file,
    run_scenario,
)

SEED_ENV_VAR = "RIIMPUTE_SEED"
DEFAULT_SEED = 54321

_INPUT_ERRORS = (InvalidParameter, DimensionMismatch, TooFewRows)


class CliInputError(RiImputeError):
    """Unusable command input (exit code 2)."""


@dataclass(frozen=True)
class CliRunRecord:
    """Provenance of one command invocation, cited in every output file.

    Every field is deterministic (no timestamp), so outputs stay
    byte-identical across reruns.
    """

    command: str
    seed: int
    version: str
    input_sha256: str

    def header_lines(self) -> tuple[str, ...]:
        return (
            f"command: {self.command}",
            f"seed: {self.seed}",
            f"version: riimpute {self.version}",
            f"input-sha256: {self.input_sha256}",
        )


def _make_record(argv: list[str], seed: int, input_paths: list[Path]) -> CliRunRecord:
    digest = hashlib.sha256()
    for path in input_paths:
        try:
            with path.open("rb") as handle:
                while chunk := handle.read(_READ_BYTES):
                    digest.update(chunk)
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc}") from exc
    return CliRunRecord(
        command="riimpute " + " ".join(argv),
        seed=seed,
        version=__version__,
        input_sha256=digest.hexdigest() if input_paths else "none",
    )


def _resolve_seed(value: int | None) -> int:
    """``--seed``, else ``RIIMPUTE_SEED``, else the default; a seed must fit in 64 unsigned bits."""
    source = "--seed"
    if value is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return DEFAULT_SEED
        source = SEED_ENV_VAR
        try:
            value = int(env)
        except ValueError as exc:
            raise CliInputError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if not _is_seed(value):
        raise CliInputError(f"{source} must be an integer in [0, 2**64), got {value}")
    return value


# ---------------------------------------------------------------------------
# CSV handling: comma separated, one header row, '.' decimal separator, UTF-8.
# Missing cells read as empty field or literal NA and written as empty fields;
# cells that parse to a non-finite float (inf, nan, ...) are rejected in the
# columns a command converts (every column for impute, --column for density).
# Cells are written with the bytes of %.17g, so a written file reads back bit
# for bit: numpy forms the 17 digits of every value with 1e-4 <= |v| < 1e16
# (the range %.17g writes without an exponent), and Python's '%.17g' % formats
# the rest (±0.0, subnormals, |v| < 1e-4 or >= 1e16). The reader makes one pass
# in blocks of whole lines and holds 8 bytes per converted cell. The first
# fault in file order raises, naming the physical line its row ends on:
# comment, blank and multi-line quoted lines count. A file with a header but no
# data rows is refused after the pass.

# the reader takes the file in blocks of whole lines of about this many bytes,
# and the input digest hashes it in chunks of this many
_READ_BYTES = 1 << 18
# a block with a wider cell is read by the reference rule, row by row
_MAX_CELL_BYTES = 64


def _line_blocks(handle):
    """The file's bytes as blocks of whole lines, about ``_READ_BYTES`` each.

    A block ends after a newline, or after a carriage return whose next byte
    is known, so no block splits a \\r\\n; only the last block may end
    without a line end. This is where the reader checks UTF-8: of a block
    that is not UTF-8, the whole lines before its first bad byte are yielded
    and then the ``UnicodeDecodeError`` is raised, so a fault in those lines
    is reported first.
    """
    pending = []
    while True:
        data = handle.read(_READ_BYTES)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut or not data:  # the end of the file ends the last block
            pending.append(data[:cut])
            block = b"".join(pending)
            pending = []
            if not block.isascii():
                try:
                    block.decode()
                except UnicodeDecodeError as exc:
                    end = exc.start
                    yield block[:max(block.rfind(b"\n", 0, end), block.rfind(b"\r", 0, end)) + 1]
                    raise
            if block:
                yield block
        if not data:
            return
        pending.append(data[cut:])


def _line_spans(buf: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each physical line of the block ``buf[:size]`` starts and where
    its line end (\\n, \\r\\n or a lone \\r) or the block's end is; ``buf``
    carries at least one zero byte past ``size``."""
    breaks = np.flatnonzero((buf == 10) | (buf == 13))
    # the \\n of a \\r\\n ends no line of its own
    crlf = (buf[breaks] == 10) & (buf[breaks - 1] == 13)
    ends = breaks[~crlf] if crlf.any() else breaks
    starts = np.concatenate(([0], ends + 1 + ((buf[ends] == 13) & (buf[ends + 1] == 10))))
    if starts[-1] < size:  # the last line has no line end
        return starts, np.append(ends, size)
    return starts[:-1], ends


def _cell_values(cells: np.ndarray) -> np.ndarray | None:
    """The float of each cell of a 1-D ``S`` array (NaN for an empty or ``NA``
    cell), or None if a cell is no finite number or numpy's cast refuses it.

    numpy casts a string with CPython's correctly rounded parser, so an
    accepted cell has the bits ``float`` gives it.
    """
    cells = np.char.strip(cells)
    missing = (cells == b"") | (cells == b"NA")
    cells[missing] = b"0"
    try:
        values = cells.astype(np.float64)
    except ValueError:
        return None
    values[missing] = math.nan
    return values if (np.isfinite(values) | missing).all() else None


class _ColumnReader:
    """The state of one pass over a CSV file: its header, the columns it
    converts (all for ``wanted`` None, else those named in ``wanted``), and
    the physical lines and data rows read so far."""

    def __init__(self, path: Path, wanted: set[str] | None) -> None:
        self.path = path
        self.wanted = wanted
        self.header: list[str] | None = None
        # the header indices of the converted columns, and their floats
        self.selected: list[int] = []
        self.columns: list[array] = []
        self.lines = 0
        self.rows = 0

    def read(self, handle) -> None:
        blocks = _line_blocks(handle)
        for block in blocks:
            if b'"' in block:
                # a quoted cell may hold commas and line ends, and may span blocks
                self._walk(itertools.chain([block], blocks))
                return
            if b"\0" in block or not self._bulk(block):
                self._walk([block])

    def _bulk(self, block: bytes) -> bool:
        """Read a block without quotes or NUL bytes in numpy and count its
        lines; False, with nothing taken, if the block needs the reference
        rule: a fault, a cell numpy's cast refuses, or a cell over
        ``_MAX_CELL_BYTES``."""
        buf = np.frombuffer(block + bytes(_MAX_CELL_BYTES), np.uint8)
        starts, ends = _line_spans(buf, len(block))
        lines = len(ends)
        kept = (ends > starts) & (buf[starts] != ord("#"))
        starts, ends = starts[kept], ends[kept]
        header = self.header
        if header is None:
            if not len(starts):
                self.lines += lines
                return True
            header = block[starts[0]:ends[0]].decode().split(",")
            if max(map(len, header)) > csv.field_size_limit():
                return False
            starts, ends = starts[1:], ends[1:]
        k = len(header)
        commas = np.flatnonzero(buf == ord(","))
        first = np.searchsorted(commas, starts)
        if (np.searchsorted(commas, ends) - first != k - 1).any():
            return False
        inner = commas[first[:, None] + np.arange(k - 1)]
        values = []
        for j in range(k):
            cell_starts = starts if j == 0 else inner[:, j - 1] + 1
            width = (ends if j == k - 1 else inner[:, j]) - cell_starts
            longest = max(int(width.max(initial=0)), 1)
            if longest > _MAX_CELL_BYTES:
                return False
            if self.wanted is not None and header[j].strip() not in self.wanted:
                continue  # a column not converted has only its widths checked
            # each cell's bytes from its start, those past its end cleared by
            # row w of a mask table whose row w keeps the first w bytes
            cells = np.lib.stride_tricks.sliding_window_view(buf, longest)[cell_starts]
            cells &= (np.tri(longest + 1, longest, -1, np.uint8) * np.uint8(255))[width]
            column = _cell_values(cells.view(f"S{longest}")[:, 0])
            if column is None:
                return False
            values.append(column)
        if self.header is None:
            self._set_header(header)
        for column, part in zip(self.columns, values):
            column.frombytes(part.view(np.uint8))
        self.rows += len(starts)
        self.lines += lines
        return True

    def _walk(self, blocks) -> None:
        """Read ``blocks``, which start after the physical lines read so far,
        by the reference rule, row by row of ``csv.reader``, and count their
        lines; ``csv.reader`` is the only tokenizer for quoted and multi-line
        cells."""
        reader = csv.reader(itertools.chain.from_iterable(
            io.StringIO(block.decode(), newline="") for block in blocks))
        try:
            for row in reader:
                self._row(self.lines + reader.line_num, row)
        except csv.Error as exc:  # such as a cell over the csv module's field size limit
            raise CliInputError(f"{self.path}:{self.lines + reader.line_num}: {exc}") from exc
        self.lines += reader.line_num

    def _set_header(self, row: list[str]) -> None:
        header = [name.strip() for name in row]
        if len(set(header)) != len(header):
            raise CliInputError(f"{self.path}: duplicate column names in header")
        self.header = header
        self.selected = [j for j, name in enumerate(header)
                         if self.wanted is None or name in self.wanted]
        self.columns = [array("d") for _ in self.selected]

    def _row(self, line: int, row: list[str]) -> None:
        """The reference rule for one row of ``csv.reader``: skip blank and
        comment rows, take the first other row as the header, then check the
        field count, strip each converted cell, read "" and NA as missing and
        ``float`` the rest, which must be finite. It raises at the row's first
        fault."""
        if not row or row[0].startswith("#"):
            return
        if self.header is None:
            self._set_header(row)
            return
        if len(row) != len(self.header):
            raise CliInputError(
                f"{self.path}:{line}: expected {len(self.header)} fields, got {len(row)}"
            )
        self.rows += 1
        for column, j in zip(self.columns, self.selected):
            cell = row[j].strip()
            if cell == "" or cell == "NA":
                column.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise CliInputError(f"{self.path}:{line}: non-numeric value {cell!r}") from exc
            if not math.isfinite(value):
                raise CliInputError(f"{self.path}:{line}: non-finite value {cell!r}")
            column.append(value)


def read_csv_columns(
    path: Path, columns: list[str] | None = None
) -> tuple[list[str], dict[str, np.ndarray]]:
    """The header and the named ``columns`` of a CSV file (all of them for
    None), each a contiguous float64 array; a name not in the header is left
    out, for the caller to report.

    Only the named columns are converted, so only their cells must be
    numbers; every cell of every row is still held to the structural rules:
    UTF-8, the field count, and the csv module's field size limit. Blocks of
    whole lines without a quote are split at their line ends and commas in
    numpy, and each converted column's cells are cast by one string cast.
    Where this finds a fault, a cell numpy refuses (Unicode digits, say) or
    a cell over ``_MAX_CELL_BYTES`` in any column, the block is read again by
    the reference rule (``_ColumnReader._row``), which names the first fault.
    From the first quote on, every row goes through ``csv.reader`` and the
    reference rule.
    """
    table = _ColumnReader(path, None if columns is None else set(columns))
    try:
        with open(path, "rb") as handle:
            table.read(handle)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(
            f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})"
        ) from exc
    if table.header is None:
        raise CliInputError(f"{path}: empty file")
    if not table.rows:
        raise CliInputError(f"{path}: no data rows")
    return table.header, {table.header[j]: np.frombuffer(column)
                          for j, column in zip(table.selected, table.columns)}


@contextlib.contextmanager
def _writing(path: Path):
    """``path`` opened for writing UTF-8 text; a file that cannot be opened or
    written is unusable input (exit code 2), like one that cannot be read."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


# rows formatted and written at a time: bounds the bytes held at once to a few hundred kB
_CSV_CHUNK_ROWS = 4096

# A formatted cell is _CELL_BYTES bytes: its text, with NUL bytes in the places
# it leaves unused, wherever they fall (the writer drops every NUL). The longest
# %.17g text is 24 bytes: '-1.7976931348623157e+308'.
_CELL_BYTES = 24
# a cell as three little-endian words: text byte i is bits 8i to 8i + 7 of word i // 8
_WORD = np.dtype("<u8")
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)

# 10**k for k = -5 ... 22 (index k + 5), each the double nearest to it. From
# 1e-4 to 1e-1 that double lies above the power, so a >= _POW10[k + 5] holds
# exactly when a >= 10**k; from 1e0 on the powers are exact, and so is
# Dekker's split of each into two 26-bit halves.
_POW10 = np.array([float(f"1e{k}") for k in range(-5, 23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# floor(log10(2**(e - 1))) for the frexp exponents e of 1e-4 <= a < 1e16:
# a in [2**(e - 1), 2**e) has floor(log10(a)) equal to it or one more
_EXP_MIN = -13
_EXP10 = np.array([math.floor((e - 1) * math.log10(2)) for e in range(_EXP_MIN, 55)])
# the ASCII digits of 0 ... 99, then of 0 ... 9999, as the low bytes of a word
_DIGITS2 = ((np.arange(100, dtype=_WORD) // 10 + 48)
            | ((np.arange(100, dtype=_WORD) % 10 + 48) << _U8))
_DIGITS4 = (_DIGITS2[:, None] | (_DIGITS2 << np.uint64(16))).ravel()
_ZEROS8 = np.frombuffer(b"00000000", _WORD)[0]
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=_WORD)  # the n low bytes
# bytes 1 on of the cell of a value below 1: "0." and -X - 1 zeros (index X + 4; none for X >= 0)
_LEADING = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-x - 1), "little") if x < 0 else 0
                     for x in range(-4, 16)], dtype=_WORD)


def _text_bytes(words: np.ndarray) -> np.ndarray:
    """Bytes up to the highest nonzero byte of each word (0 for 0), from the
    bit length frexp gives; no byte exceeds 9, so rounding to float cannot
    carry into the next byte."""
    return (np.frexp(words.astype(float))[1] + 7) >> 3


def _fixed_cells(v: np.ndarray) -> np.ndarray:
    """(len(v), 3) words: the ``%.17g`` text of each value with 1e-4 <= |v| < 1e16.

    With X = floor(log10|v|), the 17 digits are those of the integer
    D = round-half-even(|v| * 10**(16 - X)), which is exact: Dekker's
    two-product gives |v| * 10**(16 - X) = hi + lo exactly, and hi >= 1e16 >
    2**53 is an even integer, so hi + rint(lo) rounds the sum half to even.
    D never rounds up to 10**17, which would raise the exponent: the largest
    double below a power of ten lies at least 2**-54 of it below, more than
    half a unit of the 17th digit. The text is the first X + 1 digits, a
    point and the rest without their trailing zeros (no point if none is
    left); below 1 it is "0.", -X - 1 zeros and the digits without their
    trailing zeros.
    """
    a = np.abs(v)
    x = _EXP10[np.frexp(a)[1] - _EXP_MIN]
    x += a >= _POW10[x + 6]
    k = 21 - x  # the index of 10**(16 - x)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the 17 digits as words: digits 0-7, 8-15 and 16
    top = d // 1_000_000_000
    low = d - top * 1_000_000_000
    mid = low // 10
    top4, mid4 = top // 10000, mid // 10000
    w0 = _DIGITS4[top4] | (_DIGITS4[top - top4 * 10000] << _U32)
    w1 = _DIGITS4[mid4] | (_DIGITS4[mid - mid4 * 10000] << _U32)
    w2 = (low - mid * 10 + 48).astype(_WORD)
    # the X + 1 integer digits (none below 1) stay whole; X <= 15, so digit 16 is a fraction digit
    n_int = x + 1
    int0 = _LOW_BYTES[np.clip(n_int, 0, 8)]
    int1 = _LOW_BYTES[np.clip(n_int - 8, 0, 8)]
    g0, g1 = w0 & int0, w1 & int1
    f0, f1 = w0 ^ g0, w1 ^ g1
    # the digits end at the last nonzero fraction digit, or with the integer
    # digits: a '0' digit XOR '0' is 0, a cleared integer byte XOR '0' is not
    used1 = _text_bytes(f1 ^ _ZEROS8)
    used = np.where(w2 != 48, 17, np.where(used1 != 0, 8 + used1, _text_bytes(f0 ^ _ZEROS8)))
    f0 &= _LOW_BYTES[np.minimum(used, 8)]
    f1 &= _LOW_BYTES[np.clip(used - 8, 0, 8)]
    f2 = w2 * (used == 17)
    # byte 0 is the sign; the integer digits go one byte up, the fraction 2
    # bytes up ("d." before it) or, below 1, 3 - X bytes up ("0.0..." before it)
    up = (np.maximum(3 - x, 2) << 3).astype(_WORD)
    down = np.uint64(64) - up
    cells = np.empty((len(a), 3), _WORD)
    cells[:, 0] = (g0 << _U8) | (f0 << up) | _LEADING[x + 4] | ((v < 0) * np.uint64(ord("-")))
    cells[:, 1] = (g1 << _U8) | (g0 >> _U56) | (f1 << up) | (f0 >> down)
    cells[:, 2] = (g1 >> _U56) | (f2 << up) | (f1 >> down)
    # the point after the integer digits, where a fraction is left
    rows = np.flatnonzero((x >= 0) & (used > n_int))
    cells.view(np.uint8).reshape(-1)[rows * _CELL_BYTES + x[rows] + 2] = ord(".")
    return cells


def _format_cells(values: np.ndarray) -> np.ndarray:
    """(len(values), _CELL_BYTES) uint8: each value's ``%.17g`` text, NaN as no text.

    Values outside the fixed range (±0.0, subnormals, |v| < 1e-4 or >= 1e16)
    take Python's ``'%.17g' %``.
    """
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e16)
    if fixed.all():
        return _fixed_cells(values).view(np.uint8)
    cells = np.zeros((len(values), _CELL_BYTES), np.uint8)
    rows = np.flatnonzero(fixed)
    cells[rows] = _fixed_cells(values[rows]).view(np.uint8)
    rows = np.flatnonzero(~fixed & ~np.isnan(values))
    if len(rows):
        text = np.frombuffer((("%.17g\n" * len(rows)) % tuple(values[rows].tolist())).encode(),
                             np.uint8)
        newline = text == ord("\n")
        lengths = np.diff(np.flatnonzero(newline), prepend=-1) - 1
        other = np.zeros((len(rows), _CELL_BYTES), np.uint8)
        other[np.arange(_CELL_BYTES) < lengths[:, None]] = text[~newline]
        cells[rows] = other
    return cells


def _csv_cells(column) -> np.ndarray:
    """One column's cells, formatted a block at a time so the work arrays stay small."""
    values = np.asarray(column, dtype=float)
    cells = np.empty((len(values), _CELL_BYTES), np.uint8)
    for start in range(0, len(values), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        cells[start:stop] = _format_cells(values[start:stop])
    return cells


def write_csv_columns(
    path: Path, header: list[str], columns: dict[str, np.ndarray], record: CliRunRecord
) -> None:
    """Write ``columns`` in ``header`` order, cells as ``%.17g`` and NaN as empty.

    numpy writes the digits of every value with 1e-4 <= |v| < 1e16, the range
    that ``%.17g`` writes without an exponent; Python's ``'%.17g' %`` writes
    the rest (±0.0, subnormals, |v| < 1e-4 or >= 1e16). A column is an array
    of values, or the cells ``_csv_cells`` made of it (a 2-D uint8 array), so
    a caller writing one column to several files formats it once. Each block
    of ``_CSV_CHUNK_ROWS`` rows is laid out as fixed-width cells, each followed
    by "," or a newline, and written without the NUL bytes the cells leave
    unused. The bytes are those ``csv.writer`` gives row by row (numeric
    fields need no quoting, and a row of one empty field is written ``""``).
    """
    ordered = [np.asarray(columns[name]) for name in header]
    length = len(ordered[0])
    block = np.empty((min(length, _CSV_CHUNK_ROWS), len(header), _CELL_BYTES + 1), np.uint8)
    block[:, :, -1] = ord(",")
    block[:, -1, -1] = ord("\n")
    with _writing(path) as handle:
        for line in record.header_lines():
            handle.write(f"# {line}\n")
        csv.writer(handle, lineterminator="\n").writerow(header)
        for start in range(0, length, _CSV_CHUNK_ROWS):
            rows = block[:min(length - start, _CSV_CHUNK_ROWS)]
            for j, column in enumerate(ordered):
                chunk = column[start:start + _CSV_CHUNK_ROWS]
                if chunk.ndim == 1:
                    chunk = _format_cells(chunk.astype(float, copy=False))
                rows[:, j, :-1] = chunk
            if len(header) == 1:
                rows[~rows[:, 0, :-1].any(axis=1), 0, :2] = ord('"')
            handle.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


def _require_columns(header: list[str], wanted: list[str], path: Path) -> None:
    missing = [name for name in wanted if name not in header]
    if missing:
        raise CliInputError(f"{path}: missing columns {missing}; available: {header}")


# ---------------------------------------------------------------------------
# impute


def _repeated(names: list[str]) -> list[str]:
    return sorted({name for name in names if names.count(name) > 1})


def _name_list(text: str, option: str) -> list[str]:
    """Column names of a comma separated option; a name given twice is unusable input."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if repeated := _repeated(names):
        raise CliInputError(f"{option} names {', '.join(repeated)} more than once")
    return names


def _cmd_impute(args: argparse.Namespace, argv: list[str]) -> int:
    path = Path(args.input_csv)
    seed = _resolve_seed(args.seed)
    # the counts are checked for every method, before any file is read
    config = RiConfig(iterations=args.iterations, num_imputations=args.m,
                      seed=mix_stream_id(seed, "cli-ri"))
    record = _make_record(argv, seed, [path])
    header, data = read_csv_columns(path)
    covariate_names = _name_list(args.covariates, "--covariates")
    if args.target in covariate_names:
        raise CliInputError(f"--covariates must not name the target {args.target!r}")
    _require_columns(header, [args.target, *covariate_names], path)

    target = data[args.target]
    if covariate_names:
        covariates = np.column_stack([data[name] for name in covariate_names])
    else:
        covariates = np.empty((len(target), 0))
    # with no covariates the imputation model is intercept-only
    dataset = IncompleteDataset(target, covariates, target_name=args.target,
                                covariate_names=tuple(covariate_names))

    nonresponse_columns = None
    if args.nonresponse_covariates:
        wanted = _name_list(args.nonresponse_covariates, "--nonresponse-covariates")
        bad = [name for name in wanted if name not in covariate_names]
        if bad:
            raise CliInputError(
                f"--nonresponse-covariates must be a subset of --covariates; unknown: {bad}"
            )
        nonresponse_columns = tuple(covariate_names.index(name) for name in wanted)

    # every estimate is computed before the first file is written, so a
    # failed fit leaves no output behind
    pooled = None
    if args.method == "cc":
        keep_covariates, keep_target = complete_case(dataset)
        if covariate_names:
            pooled = single_fit_estimate(fit_analysis(keep_covariates, keep_target))
        keep = dataset.observed_mask
        outputs = [("cc", {name: data[name][keep] for name in header})]
    else:
        rng = RngStream(seed, mix_stream_id("cli-impute"))
        if args.method == "mar":
            completions = mar_impute(dataset, config.num_imputations, rng)
        else:
            completions = ri_impute(dataset, config, nonresponse_columns=nonresponse_columns)
        if covariate_names and len(completions) >= 2:
            fits = [fit_analysis(covariates, completed) for completed in completions]
            pooled = rubin_pool(fits, len(fits))
        outputs = _imputed_files(header, data, args.target, completions)

    for suffix, out_cols in outputs:
        out_path = Path(f"{args.output_prefix}_{suffix}.csv")
        write_csv_columns(out_path, header, out_cols, record)
        print(f"wrote {out_path}", file=sys.stderr)
    if pooled is not None:
        _write_pooled(args, ["intercept", *covariate_names], pooled, record)
    elif covariate_names:
        # one completed dataset has no between-imputation variance to pool
        print("note: -m 1 writes no pooled JSON; pooling needs at least 2 imputations",
              file=sys.stderr)
    return 0


def _imputed_files(header: list[str], data: dict[str, np.ndarray], target: str,
                   completions: list[np.ndarray]):
    """Yield each completed file's suffix and columns, as cells.

    The files differ only in the target's missing cells, so every other
    column and the observed target cells are formatted once. The one target
    column of cells is refilled at the missing rows for each file, so each
    file must be written before the next is taken.
    """
    shared = {name: _csv_cells(data[name]) for name in header if name != target}
    target_cells = _csv_cells(data[target])
    missing = np.isnan(data[target])
    for k, completed in enumerate(completions, start=1):
        target_cells[missing] = _csv_cells(completed[missing])
        yield f"imp{k}", {**shared, target: target_cells}


def _write_pooled(args: argparse.Namespace, names: list[str], pooled, record: CliRunRecord) -> None:
    analysis = [
        {
            "coefficient": name,
            "estimate": float(pooled.q_bar[j]),
            "se": float(np.sqrt(pooled.t[j])),
            "ci_low": float(pooled.ci_low[j]),
            "ci_high": float(pooled.ci_high[j]),
            "df": (None if np.isinf(pooled.df[j]) else float(pooled.df[j])),
        }
        for j, name in enumerate(names)
    ]
    payload = {"run": asdict(record), "method": args.method, "analysis": analysis}
    out_path = Path(f"{args.output_prefix}_pooled.json")
    with _writing(out_path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _resolve_seed(args.seed)
    if args.scenario_file:
        path = Path(args.scenario_file)
        record = _make_record(argv, seed, [path])
        config = parse_scenario_file(path)
        # seed precedence: --seed, then the file's seed, then RIIMPUTE_SEED or the default
        if args.seed is not None or "seed" not in _scenario_keys(path):
            config = replace(config, master_seed=seed)
        record = replace(record, seed=config.master_seed)
    else:
        record = _make_record(argv, seed, [])
        config = builtin_scenario(
            args.scenario,
            beta_set=args.beta,
            n=args.n,
            replications=args.replications,
            master_seed=seed,
            m=args.m,
            iterations=args.iterations,
        )

    result = run_scenario(config, n_jobs=args.jobs)
    psi = config.psi
    header_lines = record.header_lines() + (
        f"mechanism: {config.mechanism_label}",
        f"beta: {config.beta[0]:g}, {config.beta[1]:g}, {config.beta[2]:g}",
        f"psi: {psi.psi0:g}, {psi.psi1:g}, {', '.join(f'{v:g}' for v in psi.psi_z)}",
        f"n: {config.n}  replications: {config.replications}  m: {config.m}  "
        f"iterations: {config.iterations}",
    )
    table = format_result_table([result], header_lines)
    with _writing(Path(args.output)) as handle:
        handle.write(table)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# density


def _cmd_density(args: argparse.Namespace, argv: list[str]) -> int:
    paths = [Path(p) for p in args.input_csv]
    # the labels are checked before any file is read; a repeated label would
    # give two curves one group
    labels = _name_list(args.labels, "--labels") if args.labels else [p.stem for p in paths]
    if not args.labels and (repeated := _repeated(labels)):
        raise CliInputError(f"input files share the default label {', '.join(repeated)}; "
                            "name each one with --labels")
    if len(labels) != len(paths):
        raise CliInputError("need exactly one label per input file")
    ref_path = Path(args.only_missing_from) if args.only_missing_from else None
    record = _make_record(argv, _resolve_seed(args.seed), paths + ([ref_path] if ref_path else []))

    row_mask = None
    if ref_path is not None:
        ref_header, ref_data = read_csv_columns(ref_path, [args.column])
        _require_columns(ref_header, [args.column], ref_path)
        row_mask = np.isnan(ref_data[args.column])

    curves = []
    for path, label in zip(paths, labels):
        header, data = read_csv_columns(path, [args.column])
        _require_columns(header, [args.column], path)
        values = data[args.column]
        if row_mask is not None:
            if len(row_mask) != len(values):
                raise CliInputError("--only-missing-from file must have the same row count")
            values = values[row_mask]
        values = values[~np.isnan(values)]
        curves.append(density_summary(values, group_label=label))

    out_path = Path(args.output)
    with _writing(out_path) as handle:
        for line in record.header_lines():
            handle.write(f"# {line}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "density", "group"])
        for curve in curves:
            for x, d in zip(curve.grid, curve.observed_density):
                writer.writerow([f"{x:.17g}", f"{d:.17g}", curve.group_label])
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riimpute",
        description="Impute a single incomplete variable, with or without assuming "
        "an ignorable missingness mechanism, and run Monte Carlo evaluations.",
    )
    parser.add_argument("--version", action="version", version=f"riimpute {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_imp = sub.add_parser("impute", help="complete an incomplete CSV column")
    p_imp.add_argument("input_csv")
    p_imp.add_argument("--target", required=True, help="name of the incomplete column")
    p_imp.add_argument("--covariates", default="", help="comma separated covariate columns")
    p_imp.add_argument(
        "--nonresponse-covariates",
        default="",
        help="covariate subset for the selection model (default: all covariates); "
        "prefer covariates related to the response process but not near-proxies "
        "of the target",
    )
    p_imp.add_argument("--method", choices=("ri", "mar", "cc"), default="ri")
    p_imp.add_argument("-m", type=int, default=5, help="number of imputations")
    p_imp.add_argument("--iterations", type=int, default=10)
    p_imp.add_argument("--seed", type=int, default=None)
    p_imp.add_argument("--output-prefix", required=True)
    p_imp.set_defaults(func=_cmd_impute)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=sorted(NONRESPONSE_SETTINGS))
    group.add_argument("--scenario-file")
    p_sim.add_argument("--beta", choices=tuple(BETA_SETTINGS), default="strong")
    p_sim.add_argument("-n", type=int, default=1000)
    p_sim.add_argument("--replications", type=int, default=200)
    p_sim.add_argument("-m", type=int, default=5)
    p_sim.add_argument("--iterations", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="forked worker processes for the replications (>= 1)")
    p_sim.add_argument("--output", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_den = sub.add_parser("density", help="write kernel density curves per input file")
    p_den.add_argument("input_csv", nargs="+")
    p_den.add_argument("--column", required=True)
    p_den.add_argument("--labels", default="", help="comma separated group labels")
    p_den.add_argument("--only-missing-from",
                       help="CSV whose missing target rows select the rows to summarise")
    p_den.add_argument("--seed", type=int, default=None)
    p_den.add_argument("--output", required=True)
    p_den.set_defaults(func=_cmd_density)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RiImputeError as exc:
        # every other library error is a statistical failure
        print(f"statistical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

"""The per-cell CSV reader that ``riimpute.cli.read_csv_columns`` replaced.

Not a test module (no ``test_`` prefix): ``tests/test_csv_reader.py`` imports
it and checks that the block reader returns the same header, the same column
bits and the same error message. It reads the file through ``csv.reader``,
holds every row to the header's field count, and handles every cell of the
named columns (all of them for ``columns=None``) in Python: strip, "" or NA
as missing, ``float``, and the value must be finite. One difference is
permitted: this reader decodes UTF-8 in 8 KB chunks of the text stream, so a
byte that is not UTF-8 in the same chunk as an earlier faulty row is reported
instead of that row; the block reader reports the earlier fault.
"""

import csv
import math
from array import array
from pathlib import Path

import numpy as np

from riimpute.cli import CliInputError


def read_csv_columns(
    path: Path, columns: list[str] | None = None
) -> tuple[list[str], dict[str, np.ndarray]]:
    header = None
    rows = 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                if header is None:
                    header = [name.strip() for name in row]
                    if len(set(header)) != len(header):
                        raise CliInputError(f"{path}: duplicate column names in header")
                    selected = [j for j, name in enumerate(header)
                                if columns is None or name in columns]
                    values = [array("d") for _ in selected]
                    continue
                if len(row) != len(header):
                    raise CliInputError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                rows += 1
                for column, j in zip(values, selected):
                    cell = row[j].strip()
                    if cell == "" or cell == "NA":
                        column.append(math.nan)
                        continue
                    try:
                        value = float(cell)
                    except ValueError as exc:
                        raise CliInputError(
                            f"{path}:{reader.line_num}: non-numeric value {cell!r}"
                        ) from exc
                    if not math.isfinite(value):
                        raise CliInputError(f"{path}:{reader.line_num}: non-finite value {cell!r}")
                    column.append(value)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # such as a cell over the csv module's field size limit
        raise CliInputError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(
            f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})"
        ) from exc
    if header is None:
        raise CliInputError(f"{path}: empty file")
    if not rows:
        raise CliInputError(f"{path}: no data rows")
    return header, {header[j]: np.frombuffer(column) for j, column in zip(selected, values)}

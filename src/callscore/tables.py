"""The run's csv tables: `write_csv`, their writer, which `ingest.write_cdr`
shares a row writer with, and `read_columns`, the reader of the labels, loans
and scores files."""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

from .errors import DataError

_WRITE_CHUNK = 1 << 13
_PAD = 0xFF  # fills the byte tables the writers build rows from; UTF-8 never uses it
_CSV_QUOTED = re.compile('[,"\r\n]')  # the characters for which the csv module quotes a field


def write_csv(path: str | Path, header: tuple, columns: list) -> None:
    """Write equal-length columns as the csv module's writer writes their rows:
    UTF-8, QUOTE_MINIMAL, each row ending in CRLF.

    A column is an array of integers, written as `str` writes them, or of
    floats, written as `format(x, ".2f")`; a 2-D array is that many columns.
    A pair (texts, index) is the column `texts[index]` of strs, and any other
    sequence a column of its strs. With no columns, the header is written alone.
    """
    columns = [c if isinstance(c, (np.ndarray, tuple)) else (c, np.arange(len(c))) for c in columns]
    # (table of texts, index) for a text column, (None, values) for a number column
    tables = [(_text_table([t + "," for t in csv_fields(c[0])]), c[1]) if isinstance(c, tuple) else (None, c)
              for c in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(csv_fields(header)) + "\r\n").encode())
        _write_rows(fh, len(tables[0][1]) if tables else 0, lambda rows: [
            _number_text(values[rows]) if table is None else table[values[rows]] for table, values in tables],
            b"\r\n")


def _write_rows(fh, n: int, row_tables, end: bytes) -> None:
    """Write `n` rows, `_WRITE_CHUNK` at a time, which bounds the memory their tables take.

    `row_tables(rows)` gives the byte tables of the rows in slice `rows`, in
    column order: one row of bytes per row, padded with 0xff, a byte UTF-8
    never uses. Each value ends with a comma, and the last one of each row,
    the table's last byte column, gives way to `end`.
    """
    for lo in range(0, n, _WRITE_CHUNK):
        tables = [t.reshape(len(t), -1) for t in row_tables(slice(lo, lo + _WRITE_CHUNK))]
        tables[-1] = tables[-1][:, :-1]
        tables.append(np.broadcast_to(np.frombuffer(end, np.uint8), (len(tables[0]), len(end))))
        text = np.hstack(tables)
        fh.write(text[text != _PAD].tobytes())


def _text_table(texts: list) -> np.ndarray:
    """The UTF-8 bytes of each text as one row, right-aligned to the longest."""
    joined = "".join(texts)
    if joined.isascii():
        size = np.fromiter(map(len, texts), np.int64, len(texts))
        data = joined.encode("ascii")
    else:
        encoded = [t.encode() for t in texts]
        size = np.fromiter(map(len, encoded), np.int64, len(encoded))
        data = b"".join(encoded)
    width = int(size.max(initial=0))
    table = np.full((len(texts), width), _PAD, np.uint8)
    table[np.arange(width) >= width - size[:, None]] = np.frombuffer(data, np.uint8)
    return table


def csv_fields(texts) -> list:
    """The texts as the csv module writes fields under QUOTE_MINIMAL: quoted,
    with quotes doubled, when they hold a comma, a quote or a line break."""
    texts = list(texts)
    if not _CSV_QUOTED.search("".join(texts)):
        return texts
    return [f'"{t.replace(chr(34), chr(34) * 2)}"' if _CSV_QUOTED.search(t) else t for t in texts]


def _number_text(values: np.ndarray) -> np.ndarray:
    """The rows of an integer or float array as `write_csv` writes them."""
    if values.dtype.kind not in "biuf":
        raise TypeError(f"a csv column of {values.dtype} is neither integers nor floats")
    text = _money_text(values.ravel()) if values.dtype.kind == "f" else _decimal_text(values.ravel())
    return text.reshape(len(values), -1)


def _digits(magnitude: np.ndarray) -> np.ndarray:
    """The decimal digits of each non-negative int64, right-aligned, leading zeros as padding."""
    power = 10 ** np.arange(len(str(magnitude.max(initial=0))) - 1, -1, -1, dtype=np.int64)
    digits = (magnitude[:, None] // power % 10).astype(np.uint8) + np.uint8(ord("0"))
    digits[:, :-1][magnitude[:, None] < power[:-1]] = _PAD
    return digits


def _decimal_text(values: np.ndarray) -> np.ndarray:
    """Each integer as str() writes it, then a comma, one padded row per value."""
    values = values.astype(np.int64)
    sign = np.where(values < 0, ord("-"), _PAD).astype(np.uint8)
    return np.hstack([sign[:, None], _digits(np.abs(values)), np.full((len(values), 1), ord(","), np.uint8)])


def _money_text(values: np.ndarray) -> np.ndarray:
    """Each float as format(x, ".2f") writes it, then a comma, one padded row per value.

    A value on the cent grid, x == rint(100 x) / 100 with |x| < 2**46, is
    written from its whole cents: there a double lies within half a cent of
    the cents it rounds from, so that is what format prints. The sign comes
    from the sign bit, as format gives -0.0 one. Other values, nan and inf
    among them, go through format one at a time.
    """
    x = values.astype(np.float64)
    grid = (np.abs(x) < 2.0 ** 46) & (np.rint(x * 100) / 100 == x)
    cents = np.abs(np.rint(np.where(grid, x, 0.0) * 100)).astype(np.int64)
    sign = np.where(np.signbit(x), ord("-"), _PAD).astype(np.uint8)
    text = np.hstack([sign[:, None], _digits(cents // 100), np.full((len(x), 1), ord("."), np.uint8),
                      (cents[:, None] // [10, 1] % 10).astype(np.uint8) + np.uint8(ord("0")),
                      np.full((len(x), 1), ord(","), np.uint8)])
    off = np.flatnonzero(~grid)
    if off.size:
        other = _text_table([format(v, ".2f") + "," for v in x[off].tolist()])
        width = max(text.shape[1], other.shape[1])
        text, other = (np.pad(t, ((0, 0), (width - t.shape[1], 0)), constant_values=_PAD) for t in (text, other))
        text[off] = other
    return text


def read_columns(path: Path, names: tuple, what: str) -> tuple[dict, np.ndarray]:
    """The named columns of a csv file as object arrays of text, and each row's line number."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not set(names) <= set(header):
            raise DataError(f"{path} is not a {what} file")
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
            rows.append(row)
            lines.append(reader.line_num)
    table = np.array(rows, dtype=object).reshape(len(rows), len(header))
    return {name: table[:, header.index(name)] for name in names}, np.array(lines, dtype=np.int64)


def parse_column(path: Path, name: str, texts: np.ndarray, lines: np.ndarray, dtype) -> np.ndarray:
    """`texts` converted to `dtype`; a data error names the first line whose value does not convert."""
    try:
        return texts.astype(dtype)
    except (ValueError, OverflowError):
        for text, line in zip(texts.tolist(), lines.tolist()):
            try:
                np.array([text], dtype=object).astype(dtype)
            except (ValueError, OverflowError):
                raise DataError(f"{path}:{line}: bad {name} value {text!r}") from None
        raise

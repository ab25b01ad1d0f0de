"""The column reader of the csv tables that a run writes: labels, loans and scores."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DataError


def read_columns(path: Path, names: tuple, what: str) -> tuple[dict, np.ndarray]:
    """The named columns of a csv file as object arrays of text, and each row's line number."""
    with open(path, newline="") as fh:
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

"""Dataset ingestion from headered delimiter-separated text.

Input contract: UTF-8, one header row, '.' decimal separator, every cell
numeric and finite.  A cell is what ``csv`` reads (quoting honoured),
stripped of the whitespace ``str.strip`` removes and parsed by ``float``,
so exponents and ``_`` separators are accepted and ``nan``, ``inf`` and
overflow are not.  Violations raise IngestError naming the file and, for
a bad row or cell, the offending line and column.  Columns other than the
target (and any explicitly dropped columns) become features in file order,
so the k-th remaining column is feature k in every report.

Each row is parsed and checked in one ``map`` over its cells; only a row
that fails is walked again cell by cell, to name its first bad cell.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset, normalize_columns
from .errors import ConfigError, IngestError


def _utf8_lines(handle, path: Path):
    """The lines of a text handle; a byte that is not UTF-8 raises
    IngestError naming the file (decoding runs ahead of the csv line
    count, so no line number is given)."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _check_delimiter(delimiter: str) -> None:
    """The delimiters ``csv`` can split on as meant: one character that is
    neither its quote character nor a line break."""
    if len(delimiter) != 1:
        raise ConfigError(f"the delimiter must be one character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise ConfigError(f"the delimiter {delimiter!r} cannot separate fields: "
                          f"csv reads it as a quote or a line break")


def _parse_cells(row: list[str], header: list[str], path: Path,
                 line_no: int) -> list[float]:
    """One row's cells, stripped and parsed one at a time; the first bad
    cell raises IngestError naming its line and column."""
    parsed = []
    for pos, cell in enumerate(row):
        text = cell.strip()
        if text == "":
            raise IngestError(
                f"{path}: line {line_no}, column {header[pos]!r}: "
                f"missing value"
            )
        try:
            value = float(text)
        except ValueError:
            raise IngestError(
                f"{path}: line {line_no}, column {header[pos]!r}: "
                f"non-numeric cell {text!r}"
            ) from None
        if not np.isfinite(value):
            raise IngestError(
                f"{path}: line {line_no}, column {header[pos]!r}: "
                f"non-finite value {text!r}"
            )
        parsed.append(value)
    return parsed


def ingest_csv(
    path: str | Path,
    target_column: str,
    normalize: str = "none",
    delimiter: str = ",",
    drop_columns: Sequence[str] = (),
) -> Dataset:
    """Read a numeric table and split it into features and target."""
    _check_delimiter(delimiter)
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(_utf8_lines(handle, path), delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected a header row") from None
        header = [name.strip() for name in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise IngestError(f"{path}: duplicate header column(s) {dupes}")
        if target_column not in header:
            raise ConfigError(f"target column {target_column!r} not in header")
        missing = [c for c in drop_columns if c not in header]
        if missing:
            raise ConfigError(f"drop column(s) {missing} not in header")
        excluded = set(drop_columns) | {target_column}
        feature_names = [h for h in header if h not in excluded]
        target_pos = header.index(target_column)
        feature_pos = [header.index(h) for h in feature_names]

        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate blank trailing lines
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: line {line_no} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            try:
                parsed = list(map(float, row))
            except ValueError:
                parsed = None
            if parsed is None or not all(map(math.isfinite, parsed)):
                # the slow walk finds the first bad cell, or accepts the
                # cells that only ``str.strip`` cleans, such as '\x1c1'
                parsed = _parse_cells(row, header, path, line_no)
            rows.append(parsed)

    if not rows:
        raise IngestError(f"{path}: no data rows after the header")
    table = np.array(rows, dtype=float)
    del rows
    # a row-major take: a column-major feature array would sum its
    # columns in another order and change the last bits of the report
    features = normalize_columns(np.take(table, feature_pos, axis=1), normalize)
    return Dataset(
        features=features,
        target=table[:, target_pos],
        labels=tuple(feature_names),
        target_label=target_column,
    )


def write_dataset_csv(dataset: Dataset, path: str | Path, delimiter: str = ",") -> None:
    """Serialize a dataset so that re-ingestion is bit-identical.

    Floats are written with repr(), the shortest representation that parses
    back to the same double.
    """
    _check_delimiter(delimiter)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(list(dataset.labels) + [dataset.target_label])
        for i in range(dataset.n_rows):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(repr(float(dataset.target[i])))
            writer.writerow(row)

"""Dataset ingestion from headered delimiter-separated text.

Input contract: UTF-8, with or without a leading byte-order mark, one
header row, '.' decimal separator, every cell numeric and finite.  A cell
is what ``csv`` reads (quoting honoured), stripped of the whitespace
``str.strip`` removes and parsed by ``float``, so exponents and ``_``
separators are accepted and ``nan``, ``inf`` and overflow are not.
Violations raise IngestError naming the file and, for a bad row or cell,
the offending line and column; a cell longer than ``csv``'s field limit
is named by the line it is on.  Columns other than the target (and any
explicitly dropped columns) become features in file order, so the k-th
remaining column is feature k in every report.

The input is read once, and both tiers parse text views of those bytes,
so ``_ingest`` returns the sha256 of exactly the bytes it parsed (the
digest ``pipeline.run_pipeline`` reports).  One ``np.loadtxt`` call parses
the body in C, with no quote character and no comments: it strips the same
whitespace as ``str.strip``, takes only ASCII and converts through the
correctly rounded routine ``float`` ends in, so a table it reads with the
header's width, at least one row and only finite values is bit for bit the
table the row walk gives.  It declines the rest: quotes, ``_`` separators,
non-ASCII digits, whitespace-only lines, ragged rows, empty cells, ``nan``,
``inf``, overflow, bytes that are not UTF-8, an empty body and a line
longer than ``csv``'s field limit; line ends of every kind are split by
the text view's own line reading, before either tier.  The row walk reads
a declined table from the start and alone decides what is accepted and
which error is raised.  It parses and checks each row in one ``map`` over
its cells, which keeps quoted exports (they always take the walk) fast;
only a row that fails is walked cell by cell, to name its first bad cell.
On the benchmark's 1213 x 123 table the C parse takes traced ingest from
about 0.11 to 0.06 s, 1.4 to 2.5 million cells per second.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset, normalize_columns
from .errors import ConfigError, IngestError


def _read_bytes(path: Path) -> bytes:
    """The input's bytes, in one read; IngestError naming the file when
    they cannot be read."""
    try:
        return path.read_bytes()
    except OSError as exc:
        # an input that cannot be opened or read is bad input, not a failed write
        raise IngestError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def _text(data: bytes) -> io.TextIOWrapper:
    """The input's bytes as the text ``csv`` reads: UTF-8 with a leading
    byte-order mark dropped (spreadsheets' "CSV UTF-8" writes one), and
    ``csv``'s ``newline=""``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


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


def _records(reader, path: Path):
    """The records of a ``csv`` reader; a cell longer than ``csv``'s field
    limit raises IngestError naming the physical line it is on."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_header(records, path: Path) -> list[str]:
    """The header row, each name stripped."""
    try:
        header = next(records)
    except StopIteration:
        raise IngestError(f"{path}: empty file, expected a header row") from None
    return [name.strip() for name in header]


def _short_lines(lines):
    """``lines``, until one is longer than ``csv``'s field limit: a
    ValueError, so that the row walk decides whether a cell is."""
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit:
            raise ValueError("a line longer than csv's field limit")
        yield line


def _load_body(lines, delimiter: str, width: int) -> np.ndarray | None:
    """The body in one C parse: an (n, width) table of finite floats with
    n >= 1, or None where the parse declines and the row walk decides."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            table = np.loadtxt(_short_lines(lines), delimiter=delimiter,
                               comments=None, dtype=float, ndmin=2)
        except (ValueError, IngestError):
            return None
    if table.shape[1] != width or len(table) == 0 or not np.isfinite(table).all():
        return None
    return table


def _walk_rows(data: bytes, path: Path, delimiter: str,
               header: list[str]) -> np.ndarray:
    """The body of the input's bytes read row by row through ``csv``; the
    first bad row or cell in file order raises IngestError naming the line
    its record starts on."""
    with _text(data) as handle:
        reader = csv.reader(_utf8_lines(handle, path), delimiter=delimiter)
        records = _records(reader, path)
        _read_header(records, path)
        rows = []
        next_line = reader.line_num + 1
        for row in records:
            line_no, next_line = next_line, reader.line_num + 1
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
    return np.array(rows, dtype=float)


def ingest_csv(
    path: str | Path,
    target_column: str,
    normalize: str = "none",
    delimiter: str = ",",
    drop_columns: Sequence[str] = (),
) -> Dataset:
    """Read a numeric table and split it into features and target.

    Raises:
        IngestError: the file is missing, cannot be opened or read, or is
            not a well-formed numeric table.
        ConfigError: the delimiter, the target or a drop column is invalid,
            or no column is left for the features.
    """
    return _ingest(path, target_column, normalize, delimiter, drop_columns)[0]


def _ingest(path: str | Path, target_column: str, normalize: str = "none",
            delimiter: str = ",", drop_columns: Sequence[str] = ()
            ) -> tuple[Dataset, str]:
    """``ingest_csv``, and the sha256 of the bytes it read and parsed."""
    _check_delimiter(delimiter)
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    data = _read_bytes(path)
    with _text(data) as handle:
        lines = _utf8_lines(handle, path)
        header = _read_header(_records(csv.reader(lines, delimiter=delimiter), path),
                              path)
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise IngestError(f"{path}: duplicate header column(s) {dupes}")
        if target_column not in header:
            raise ConfigError(f"target column {target_column!r} not in header")
        missing = [c for c in drop_columns if c not in header]
        if missing:
            raise ConfigError(f"drop column(s) {missing} not in header")
        table = _load_body(lines, delimiter, len(header))
    if table is None:
        table = _walk_rows(data, path, delimiter, header)
    digest = hashlib.sha256(data).hexdigest()
    del data  # freed before the feature copies below; no later stage holds it

    excluded = set(drop_columns) | {target_column}
    feature_names = [h for h in header if h not in excluded]
    target_pos = header.index(target_column)
    feature_pos = [header.index(h) for h in feature_names]
    # a row-major take: a column-major feature array would sum its
    # columns in another order and change the last bits of the report
    features = normalize_columns(np.take(table, feature_pos, axis=1), normalize)
    return Dataset(
        features=features,
        target=table[:, target_pos],
        labels=tuple(feature_names),
        target_label=target_column,
    ), digest


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

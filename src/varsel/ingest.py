"""Dataset ingestion from headered delimiter-separated text.

Input contract: UTF-8, one header row, '.' decimal separator, every cell
numeric and finite.  A cell is what ``csv`` reads (quoting honoured),
stripped of the whitespace ``str.strip`` removes and parsed by ``float``,
so exponents and ``_`` separators are accepted and ``nan``, ``inf`` and
overflow are not.  Violations raise IngestError naming the file and, for
a bad row or cell, the offending line and column.  Columns other than the
target (and any explicitly dropped columns) become features in file order,
so the k-th remaining column is feature k in every report.

The body is read in two tiers.  One ``np.loadtxt`` call parses it in C,
with no quote character and no comments: it strips the same whitespace as
``str.strip``, takes only ASCII and converts through the correctly rounded
routine ``float`` ends in, so a table it reads with the header's width, at
least one row and only finite values is bit for bit the table the row walk
gives.  It declines the rest: quotes, ``_`` separators, non-ASCII digits,
whitespace-only lines, ragged rows, empty cells, ``nan``, ``inf``,
overflow, bytes that are not UTF-8 and an empty body; line ends of every
kind are split by the file's own line reading, before either tier.  A
declined table is read again from the start by the row walk, which alone
decides what is accepted and which error is raised.  It parses and checks
each row in one ``map`` over its cells, which keeps quoted exports (they
always take the walk) fast; only a row that fails is walked cell by cell,
to name its first bad cell.  On the benchmark's 1213 x 123 table the C
parse takes traced ingest from about 0.11 to 0.06 s, 1.4 to 2.5 million
cells per second.

``_ingest`` is ``ingest_csv`` with each read of the input passed through
the caller's wrapper, so the caller can hash the bytes parsed in the pass
that parses them (``pipeline.run_pipeline`` does).  A read that parsed to
the end must then find nothing more, or the file changed while it was
read; the first read of a declined table is read to its end, so that the
two reads cover the same bytes.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset, normalize_columns
from .errors import ConfigError, IngestError


@contextmanager
def _opened(path: Path, wrap):
    """``path`` open as UTF-8 text with ``csv``'s ``newline=""``, read
    through ``wrap(raw)`` when ``wrap`` is given: the text handle and the
    unbuffered binary file under it."""
    raw = path.open("rb", buffering=0)
    if wrap is not None:
        raw = wrap(raw)
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8",
                          newline="") as handle:
        yield handle, raw


def _drain(raw) -> bool:
    """Read ``raw`` to its end; whether anything was left.  It reads in
    1 MiB blocks: freeing a block that large lifts glibc's mmap threshold,
    so the later stages' large temporaries reuse heap pages (in a loop of
    1213 x 30 rank-and-select runs, 64 KiB blocks took 1674 minor page
    faults a run, these 1)."""
    left = False
    while raw.read(1 << 20):
        left = True
    return left


def _check_unchanged(raw, path: Path) -> None:
    """After a parse that read to the end: bytes found now were appended
    while the file was read, and no parse saw them."""
    if _drain(raw):
        raise IngestError(f"{path}: the file changed while it was read")


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


def _read_header(reader, path: Path) -> list[str]:
    """The header row, each name stripped."""
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(f"{path}: empty file, expected a header row") from None
    return [name.strip() for name in header]


def _load_body(lines, delimiter: str, width: int) -> np.ndarray | None:
    """The body in one C parse: an (n, width) table of finite floats with
    n >= 1, or None where the parse declines and the row walk decides.
    ``np.loadtxt`` leaves the file open, so the caller can read on."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            table = np.loadtxt(lines, delimiter=delimiter, comments=None,
                               dtype=float, ndmin=2)
        except (ValueError, IngestError):
            return None
    if table.shape[1] != width or len(table) == 0 or not np.isfinite(table).all():
        return None
    return table


def _walk_rows(path: Path, delimiter: str, header: list[str],
               wrap) -> np.ndarray:
    """The body read row by row through ``csv``; the first bad row or cell
    in file order raises IngestError naming the line its record starts on."""
    with _opened(path, wrap) as (handle, raw):
        reader = csv.reader(_utf8_lines(handle, path), delimiter=delimiter)
        _read_header(reader, path)
        rows = []
        next_line = reader.line_num + 1
        for row in reader:
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
        _check_unchanged(raw, path)
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
        IngestError: the file is missing, cannot be opened or read, changed
            while it was read, or is not a well-formed numeric table.
        ConfigError: the delimiter, the target or a drop column is invalid.
    """
    return _ingest(path, target_column, normalize, delimiter, drop_columns)


def _ingest(path: str | Path, target_column: str, normalize: str = "none",
            delimiter: str = ",", drop_columns: Sequence[str] = (),
            wrap=None) -> Dataset:
    """``ingest_csv``, reading the input through ``wrap(raw)``, an
    ``io.RawIOBase`` over the file opened unbuffered, when ``wrap`` is
    given: once for a table the C parse reads, and again for one the row
    walk reads again.  The first read of a declined table is read to its
    end."""
    _check_delimiter(delimiter)
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    try:
        with _opened(path, wrap) as (handle, raw):
            lines = _utf8_lines(handle, path)
            header = _read_header(csv.reader(lines, delimiter=delimiter), path)
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
                _drain(raw)
            else:
                _check_unchanged(raw, path)
        if table is None:
            table = _walk_rows(path, delimiter, header, wrap)
    except OSError as exc:
        # an input that cannot be opened or read is bad input, not a failed write
        raise IngestError(f"{path}: cannot read ({exc.strerror or exc})") from exc

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

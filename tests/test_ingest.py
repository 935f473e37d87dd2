"""CSV ingestion: validation errors, normalization, round-trips."""

import codecs
import csv
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import varsel.ingest as ingest_module
from oracles import loop_ingest_csv
from varsel import ConfigError, IngestError, ingest_csv, make_dataset, write_dataset_csv

# one-character delimiters that csv reads as a quote or a line break
UNSPLITTABLE = pytest.mark.parametrize(
    "delimiter", ['"', "\n", "\r"], ids=["quote", "newline", "carriage-return"])


# whitespace that float() and str.strip both remove, and the separators
# \x1c-\x1f that only str.strip removes
FLOAT_SPACE = " \t\x0b\x0c\x85\xa0\u2003\u3000"
STRIP_SPACE = FLOAT_SPACE + "\x1c\x1d\x1e\x1f"
# cells float() or the walk treat specially, among them a full-width and an
# Arabic-Indic 1, which float() reads and the one-call C parse declines, and
# quoted cells with a line break inside, which float() strips: the record
# then spans two physical lines, and a later bad row's line number shows it
ODD_CELLS = ["1_0", "nan", "-inf", "inf", "1e999", "-1e999", "", "   ", "\x1c",
             "abc", "0x10", "1.5.2", '"2.5"', '" 3 "', '"1,5"', '""', "+.5", "1E5",
             "\uff11", "\u0661", '"1\n"', '"\r\n-2.5"']


@st.composite
def rows(draw, n_cells, max_odd, pad, delimiter):
    """A line of ``n_cells`` repr floats, up to ``max_odd`` of them replaced
    by odd cells, each cell between two draws of ``pad``."""
    odd = draw(st.sets(st.integers(0, max(n_cells - 1, 0)), max_size=max_odd))
    cells = [draw(st.sampled_from(ODD_CELLS)) if k in odd
             else repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
             for k in range(n_cells)]
    return delimiter.join(draw(pad) + cell + draw(pad) for cell in cells)


@st.composite
def tables(draw):
    """(file text, target, drop columns, normalize mode, delimiter): the
    target and the dropped columns anywhere, names and cells padded with
    whitespace that float() strips or with some that only str.strip does,
    blank lines, now and then a ragged row, the delimiter and the line end
    drawn from several, and now and then a leading byte-order mark."""
    width = draw(st.integers(1, 5))
    header = [f"c{k}" for k in range(width)]
    target = draw(st.sampled_from(header))
    others = [h for h in header if h != target]
    drop = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    space = draw(st.sampled_from([FLOAT_SPACE, STRIP_SPACE])).replace(delimiter, "")
    pad = st.text(alphabet=space, max_size=2)
    lines = [delimiter.join(draw(pad) + h for h in header)]
    max_odd = draw(st.sampled_from([0, 1, width]))
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["full"] * 18 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append("")
        else:
            n_cells = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append(draw(rows(n_cells, max_odd, pad, delimiter)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    mode = draw(st.sampled_from(["none", "zscore", "minmax"]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return bom + end.join(lines) + end, target, drop, mode, delimiter


def outcome(ingest, path, target, drop, mode, delimiter=","):
    """The dataset's bytes and layout, or the exception's type and message
    (any exception: the suite turns numpy's overflow warnings into errors,
    which a z-score of floats near 1e308 raises)."""
    try:
        ds = ingest(path, target, normalize=mode, delimiter=delimiter,
                    drop_columns=drop)
    except Exception as exc:
        return type(exc), str(exc)
    return (ds.features.tobytes(), ds.features.shape, ds.features.flags.c_contiguous,
            ds.target.tobytes(), ds.target.flags.c_contiguous, ds.labels,
            ds.target_label)


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_ingest_matches_the_per_cell_loop(tmp_path_factory, table):
    text, target, drop, mode, delimiter = table
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (outcome(ingest_csv, path, target, drop, mode, delimiter)
            == outcome(loop_ingest_csv, path, target, drop, mode, delimiter))


@pytest.fixture
def walks(monkeypatch):
    """The calls ingest_csv makes to its row walk, one per declined table."""
    calls = []
    walk = ingest_module._walk_rows

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(ingest_module, "_walk_rows", counted)
    return calls


# (table, row walks): one table per reason the C parse declines a body, which
# the walk then reads; '\r' line ends are split by the file's own line
# reading, so the C parse reads them as it reads '\n'
DECLINED = {
    "quoted-cell": ('a,b,y\n1,2,3\n"1,5",5,6\n7,8,9\n', 1),
    "underscore": ("a,b,y\n1,2,3\n1_0,5,6\n7,8,9\n", 1),
    "cr-line-ends": ("a,b,y\r1,2,3\r4,5,6\r7,8,9\r", 0),
    "full-width-digit": ("a,b,y\n1,2,3\n\uff14,5,6\n7,8,9\n", 1),
    "whitespace-line": ("a,b,y\n1,2,3\n  \n7,8,9\n", 1),
    "nan-cell": ("a,b,y\n1,2,3\nnan,5,6\n7,8,9\n", 1),
    "short-rows": ("a,b,y\n1,2\n4,5\n7,8\n", 1),
    "header-only": ("a,b,y\n", 1),
    "one-column-header-only": ("y\n", 1),
}


@pytest.mark.parametrize("mode", ["none", "zscore"])
@pytest.mark.parametrize("case", DECLINED)
def test_declined_tables_match_the_per_cell_loop(tmp_path, recwarn, walks, case, mode):
    text, n_walks = DECLINED[case]
    path = tmp_path / "declined.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (outcome(ingest_csv, path, "y", [], mode)
            == outcome(loop_ingest_csv, path, "y", [], mode))
    assert len(walks) == n_walks
    assert not recwarn.list  # loadtxt's "no data" warning stays inside


def test_first_error_in_file_order_wins(tmp_path, walks):
    # a bad cell on line 3, then a byte that is not UTF-8 past the decoder's
    # first chunk: the C parse stops at one of them, the walk names the cell
    lines = [b"a,b,y", b"1,2,3", b"4,oops,6"] + [b"%d,%d,%d" % (i, i * i, i + 3)
                                                  for i in range(2500)]
    lines[2000] = b"\xe9" + lines[2000]
    path = tmp_path / "late-latin1.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    got = outcome(ingest_csv, path, "y", [], "none")
    assert got == outcome(loop_ingest_csv, path, "y", [], "none")
    assert got == (IngestError, f"{path}: line 3, column 'b': non-numeric cell 'oops'")
    assert len(walks) == 1


@pytest.mark.parametrize("header", ["y,a,b", "a,y,b"],
                         ids=["target-first", "feature-first"])
@pytest.mark.parametrize("cell", ["3", '"3"'], ids=["c-parse", "row-walk"])
def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path, header, cell):
    # spreadsheets' "CSV UTF-8" exports start with one; the digest is still
    # that of the bytes read, the mark included
    text = f"{header}\n{cell},1,2\n6,4,5\n10,7,8\n".encode("utf-8")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    got = outcome(ingest_csv, marked, "y", [], "none")
    assert got == outcome(ingest_csv, plain, "y", [], "none")
    assert got == outcome(loop_ingest_csv, marked, "y", [], "none")
    assert got[5] == ("a", "b")
    digest = ingest_module._ingest(marked, "y")[1]
    assert digest == hashlib.sha256(codecs.BOM_UTF8 + text).hexdigest()


LONG = "0" * csv.field_size_limit()  # with one more character, one too long


@pytest.mark.parametrize("text, line", [
    (f"a,{LONG}b,y\n1,2,3\n4,5,6\n7,8,9\n", 1),
    (f"a,b,y\n1,2,3\n4,{LONG}x,6\n7,8,9\n1,1,2\n", 3),
    # a finite number, which the C parse would read: it declines the line
    (f"a,b,y\n1,2,3\n4,{LONG}1,6\n7,8,9\n1,1,2\n", 3),
    (f'a,b,y\n1,2,3\n4,"\n{LONG}1",6\n7,8,9\n1,1,2\n', 4),
], ids=["header", "text-cell", "numeric-cell", "quoted-cell-second-line"])
def test_a_cell_longer_than_the_field_limit_names_its_line(tmp_path, text, line):
    path = tmp_path / "long.csv"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(ingest_csv, path, "y", [], "none")
    assert got == outcome(loop_ingest_csv, path, "y", [], "none")
    assert got == (IngestError, f"{path}: line {line}: field larger than field limit "
                                f"({csv.field_size_limit()})")


@pytest.mark.parametrize("text, drop", [("y\n1\n2\n3\n", []),
                                        ("a,y\n1,2\n3,4\n5,7\n", ["a"])],
                         ids=["target-only", "all-dropped"])
def test_a_table_with_no_feature_column_is_a_config_error(tmp_path, text, drop):
    path = tmp_path / "narrow.csv"
    path.write_text(text, encoding="utf-8")
    got = outcome(ingest_csv, path, "y", drop, "zscore")
    assert got == outcome(loop_ingest_csv, path, "y", drop, "zscore")
    assert got == (ConfigError, "need at least one feature column, got R=0")


@pytest.fixture(scope="module")
def full_size_table(tmp_path_factory):
    """The benchmark's shape, 1213 rows of 122 features and the target, as
    ``write_dataset_csv`` writes it; columns span ten orders of magnitude."""
    rng = np.random.default_rng(15)
    features = rng.normal(size=(1213, 122)) * 10.0 ** rng.integers(-5, 6, size=122)
    path = tmp_path_factory.mktemp("full") / "full.csv"
    write_dataset_csv(make_dataset(features, rng.normal(size=1213)), path)
    return path


@pytest.mark.parametrize("mode", ["none", "zscore"])
def test_full_size_table_is_read_by_the_c_parse_bit_for_bit(full_size_table, walks, mode):
    assert (outcome(ingest_csv, full_size_table, "target", [], mode)
            == outcome(loop_ingest_csv, full_size_table, "target", [], mode))
    assert not walks


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_three_column_file(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,10\n")
        ds = ingest_csv(path, "y")
        assert ds.n_features == 2
        assert ds.labels == ("a", "b")
        assert ds.n_rows == 3
        np.testing.assert_array_equal(ds.target, [3.0, 6.0, 10.0])
        assert ds.target_label == "y"

    def test_target_position_does_not_matter(self, tmp_path):
        path = write(tmp_path, "y,a,b\n3,1,2\n6,4,5\n10,7,8\n")
        ds = ingest_csv(path, "y")
        assert ds.labels == ("a", "b")
        np.testing.assert_array_equal(ds.features[:, 0], [1.0, 4.0, 7.0])

    def test_blank_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,,6\n7,8,9\n")
        with pytest.raises(IngestError, match=r"line 3.*'b'.*missing"):
            ingest_csv(path, "y")

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,oops,6\n7,8,9\n")
        with pytest.raises(IngestError, match=r"'b'.*non-numeric|non-numeric.*'b'"):
            ingest_csv(path, "y")

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\nnan,4\n5,6\n")
        with pytest.raises(IngestError, match="non-finite"):
            ingest_csv(path, "y")

    def test_accepted_cell_forms(self, tmp_path):
        # quoted, padded (\x1c only str.strip removes), exponent, separator
        path = write(tmp_path, 'a,b,y\n"1.5", 2 ,1e2\n\x1c3\u3000,1_0,-.5\n4,5,6\n')
        ds = ingest_csv(path, "y")
        np.testing.assert_array_equal(ds.features, [[1.5, 2.0], [3.0, 10.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ds.target, [100.0, -0.5, 6.0])

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = write(tmp_path, f"a,b,y\n1,2,3\n4,5,6\n7,{cell},9\n")
        with pytest.raises(IngestError, match=rf"line 4, column 'b': non-finite value '{cell}'"):
            ingest_csv(path, "y")

    def test_duplicate_header_rejected(self, tmp_path):
        path = write(tmp_path, "a,a,y\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_csv(path, "y")

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path, "y")

    # a quoted cell that spans lines: errors name the physical line their
    # record starts on, not the record's number
    @pytest.mark.parametrize("text,message", [
        ('a,"b\nc",y\n1,2,3\n4,oops,6\n',
         "line 4, column 'b\\nc': non-numeric cell 'oops'"),
        ('a,b,y\n1,"2\n",3\n4,oops,6\n',
         "line 4, column 'b': non-numeric cell 'oops'"),
        ('a,b,y\n1,"2\r\n",3\r\n4,5\r\n',
         "line 4 has 2 cells, expected 3"),
        ('a,b,y\n1,2,"3\n\n"\n\n4,oops,6\n',
         "line 6, column 'b': non-numeric cell 'oops'"),
        ('a,b,y\n1,2,3\n"4\n",oops,6\n',
         "line 3, column 'b': non-numeric cell 'oops'"),
    ], ids=["multi-line-header", "multi-line-cell", "ragged-after-cell",
            "blank-lines-after-cell", "bad-cell-in-multi-line-record"])
    def test_errors_name_the_physical_line(self, tmp_path, text, message):
        path = tmp_path / "multi-line.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(IngestError) as raised:
            ingest_csv(path, "y")
        assert str(raised.value) == f"{path}: {message}"

    def test_missing_target_is_config_error(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n")
        with pytest.raises(ConfigError, match="target"):
            ingest_csv(path, "z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            ingest_csv(tmp_path / "absent.csv", "y")

    def test_drop_columns_excluded_from_features(self, tmp_path):
        path = write(tmp_path, "a,b,extra,y\n1,2,9,3\n4,5,9,6\n7,8,9,10\n")
        ds = ingest_csv(path, "y", drop_columns=["extra"])
        assert ds.labels == ("a", "b")
        with pytest.raises(ConfigError, match="drop"):
            ingest_csv(path, "y", drop_columns=["nope"])

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path, "a;b;y\n1;2;3\n4;5;6\n7;8;10\n")
        ds = ingest_csv(path, "y", delimiter=";")
        assert ds.labels == ("a", "b")

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = write(tmp_path, "a;b;y\n1;2;3\n4;5;6\n7;8;10\n")
        with pytest.raises(ConfigError, match="one character"):
            ingest_csv(path, "y", delimiter=delimiter)

    @UNSPLITTABLE
    def test_quote_or_line_break_delimiter_rejected(self, tmp_path, delimiter):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,10\n")
        with pytest.raises(ConfigError, match=re.escape(repr(delimiter))):
            ingest_csv(path, "y", delimiter=delimiter)

    @pytest.mark.parametrize("row", [0, 2000], ids=["header", "late-row"])
    def test_non_utf8_bytes_raise_ingest_error_naming_file(self, tmp_path, row):
        lines = [b"a,b,y"] + [b"%d,%d,%d" % (i, i * i, i + 3) for i in range(2500)]
        lines[row] = b"\xe9" + lines[row]  # Latin-1 e-acute, not UTF-8
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IngestError, match="latin1.csv: not UTF-8"):
            ingest_csv(path, "y")

    @pytest.mark.parametrize("cell", ["2", '"2"'], ids=["c-parse", "row-walk"])
    def test_unreadable_file_raises_ingest_error_naming_file(self, tmp_path,
                                                             monkeypatch, cell):
        # file modes do not stop every user (root reads any file), so the
        # refusal is patched in; a quoted cell sends the body to the row
        # walk, which parses the bytes of the one read and opens nothing
        path = write(tmp_path, f"a,b,y\n1,{cell},3\n4,5,6\n7,8,10\n", name="t.csv")
        real_open, seen = Path.open, []

        def refuse_first(self, *args, **kwargs):
            seen.append(self)
            if len(seen) == 1:
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", refuse_first)
        with pytest.raises(IngestError, match=r"t\.csv: cannot read \(Permission denied\)"):
            ingest_csv(path, "y")
        assert ingest_csv(path, "y").n_rows == 3
        assert seen == [path, path]  # one open an ingest, whichever tier parses

    def test_too_few_rows_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        with pytest.raises(ConfigError, match="R\\+1"):
            ingest_csv(path, "y")

    def test_zscore_normalization(self, tmp_path):
        path = write(tmp_path, "a,y\n1,1\n2,2\n3,3\n4,4\n")
        ds = ingest_csv(path, "y", normalize="zscore")
        assert ds.features[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert ds.features[:, 0].std() == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_array_equal(ds.target, [1, 2, 3, 4])  # target untouched

    def test_minmax_normalization(self, tmp_path):
        path = write(tmp_path, "a,y\n2,1\n4,2\n10,3\n")
        ds = ingest_csv(path, "y", normalize="minmax")
        assert ds.features[:, 0].min() == 0.0
        assert ds.features[:, 0].max() == 1.0

    @pytest.mark.parametrize("mode,value", [
        ("zscore", 1.5e308), ("zscore", 1e200), ("zscore", 1e-200), ("minmax", 1.5e308)])
    def test_column_outside_the_double_range_is_named(self, tmp_path, mode, value):
        rows = [f"{k},{value * (-1) ** k!r},{k * k},{k}" for k in range(6)]
        path = write(tmp_path, "\n".join(["a,b,c,y", *rows]) + "\n")
        with pytest.raises(ConfigError, match=r"normalize feature column\(s\) \[2\]"):
            ingest_csv(path, "y", normalize=mode)


class TestRoundTrip:
    def test_ingest_write_reingest_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = ["f1,f2,f3,target"]
        for _ in range(10):
            lines.append(",".join(repr(float(v)) for v in rng.normal(size=4)))
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds = ingest_csv(path, "target")
        out = tmp_path / "copy.csv"
        write_dataset_csv(ds, out)
        again = ingest_csv(out, "target")
        assert again.labels == ds.labels
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.target, ds.target)
        assert (again.features == ds.features).all()

    @UNSPLITTABLE
    def test_writer_rejects_quote_or_line_break_delimiter(self, tmp_path, delimiter):
        ds = make_dataset(np.eye(3)[:, :2], [1.0, 2.0, 3.0])
        out = tmp_path / "copy.csv"
        with pytest.raises(ConfigError, match=re.escape(repr(delimiter))):
            write_dataset_csv(ds, out, delimiter=delimiter)
        assert not out.exists()

    def test_round_trip_after_normalization(self, tmp_path):
        rng = np.random.default_rng(6)
        lines = ["f1,f2,y"]
        for _ in range(8):
            lines.append(",".join(repr(float(v)) for v in rng.normal(size=3)))
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds = ingest_csv(path, "y", normalize="zscore")
        out = tmp_path / "norm.csv"
        write_dataset_csv(ds, out)
        again = ingest_csv(out, "y", normalize="none")
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.target, ds.target)

"""Manifest and patch-file loading, validation and round-trips."""

import bz2
import contextlib
import csv
import gzip
import lzma
import sys
import tracemalloc

import numpy as np
import pytest

from slidescreen import ingest
from slidescreen.features import FEATURE_HEADER, read_features_csv
from slidescreen.ingest import (
    MALIGNANT,
    MANIFEST_HEADER,
    MAX_COORDINATE,
    NORMAL,
    PATCH_DTYPE,
    PATCH_HEADER,
    _SCAN_BYTES,
    MalformedRow,
    MissingFile,
    _load_patches_rows,
    load_manifest,
    load_patches,
    load_slide,
    longest_fast_line,
    parse_label,
    write_manifest,
    write_patches,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def make_patch_file(path, rows):
    lines = ["x,y,prob_malignant"] + [f"{x},{y},{p}" for x, y, p in rows]
    return write(path, "\n".join(lines) + "\n")


# table -> (reader, header, the data row of a slide with id {}); every
# manifest row names a.csv, which the tests using this make
TABLES = {
    "patches": (load_patches, PATCH_HEADER, "1,2,0.5"),
    "manifest": (load_manifest, MANIFEST_HEADER, "{},malignant,a.csv"),
    "features": (read_features_csv, FEATURE_HEADER, "{},normal," + ",".join(["0.5"] * 18)),
}


def test_manifest_two_rows(tmp_path):
    make_patch_file(tmp_path / "s1.csv", [(0, 0, 0.9)])
    make_patch_file(tmp_path / "s2.csv", [(0, 0, 0.1)])
    manifest = load_manifest(write(
        tmp_path / "m.csv",
        "slide_id,label,predictions_path\ns1,malignant,s1.csv\ns2,normal,s2.csv\n",
    ))
    assert len(manifest) == 2
    assert manifest[0].slide_id == "s1"
    assert manifest[0].label == MALIGNANT
    assert manifest[1].label == NORMAL


@pytest.mark.parametrize("table", ["manifest", "features"])
@pytest.mark.parametrize("second_id, error, message", [
    ("s1", MalformedRow, ":3: duplicate slide_id 's1'"),
    (" s1 ", MalformedRow, ":3: duplicate slide_id 's1'"),
    ("", MalformedRow, ":3: empty slide_id"),
    (" \t", MalformedRow, ":3: empty slide_id"),
    ('"s\r2"', MalformedRow, ":3: slide_id 's\\r2' holds a carriage return"),
], ids=["duplicate", "padded-duplicate", "empty", "blank", "carriage-return"])
def test_slide_id_rule(tmp_path, table, second_id, error, message):
    """Ids are stripped, must not be empty or hold a carriage return, and
    must be unique; each error names the file and line."""
    load, header, row = TABLES[table]
    make_patch_file(tmp_path / "a.csv", [])
    path = write(tmp_path / "t.csv", "\n".join(
        [",".join(header), row.format("s1"), row.format(second_id)]) + "\n")
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value) == f"{path}{message}"


def test_manifest_header_only(tmp_path):
    manifest = load_manifest(write(tmp_path / "m.csv", "slide_id,label,predictions_path\n"))
    assert len(manifest) == 0


def test_manifest_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_manifest(tmp_path / "nope.csv")


def test_manifest_missing_prediction_file(tmp_path):
    path = write(tmp_path / "m.csv",
                 "slide_id,label,predictions_path\ns1,malignant,gone.csv\n")
    with pytest.raises(MissingFile):
        load_manifest(path)


@pytest.mark.parametrize("cell", ["", "  "], ids=["empty", "blank"])
def test_manifest_empty_predictions_path_reports_line(tmp_path, cell):
    """An empty path would name the manifest's own directory: a missing
    file there, where the manifest names no file."""
    make_patch_file(tmp_path / "a.csv", [])
    path = write(tmp_path / "m.csv",
                 f"slide_id,label,predictions_path\ns1,malignant,a.csv\ns2,normal,{cell}\n")
    with pytest.raises(MalformedRow, match=r"m\.csv:3: empty predictions_path$"):
        load_manifest(path)


def test_manifest_bad_label_reports_line(tmp_path):
    make_patch_file(tmp_path / "a.csv", [])
    path = write(
        tmp_path / "m.csv",
        "slide_id,label,predictions_path\ns1,malignant,a.csv\ns2,benign,a.csv\n",
    )
    with pytest.raises(MalformedRow) as err:
        load_manifest(path)
    assert err.value.line_no == 3


def test_error_names_the_physical_line_after_a_multiline_cell(tmp_path):
    """A quoted id that spans lines 2 and 3 puts the next row on line 4."""
    make_patch_file(tmp_path / "a.csv", [])
    path = write(tmp_path / "m.csv", 'slide_id,label,predictions_path\n'
                 '"s\n1",malignant,a.csv\ns2,nrmal,a.csv\n')
    with pytest.raises(MalformedRow, match=r"m\.csv:4: unknown label 'nrmal'"):
        load_manifest(path)


def test_manifest_labels_case_insensitive(tmp_path):
    make_patch_file(tmp_path / "a.csv", [])
    manifest = load_manifest(write(
        tmp_path / "m.csv",
        "slide_id,label,predictions_path\ns1,Malignant,a.csv\n",
    ))
    assert manifest[0].label == MALIGNANT


def test_crlf_accepted(tmp_path):
    make_patch_file(tmp_path / "a.csv", [(1, 2, 0.5)])
    path = tmp_path / "m.csv"
    path.write_bytes(b"slide_id,label,predictions_path\r\ns1,normal,a.csv\r\n")
    manifest = load_manifest(path)
    assert len(manifest) == 1
    slide = load_slide(manifest[0])
    assert slide.patches.tolist() == [(1, 2, 0.5)]


def test_load_slide_three_rows(tmp_path):
    make_patch_file(tmp_path / "a.csv", [(0, 0, 0.9), (100, 0, 0.4), (0, 100, 1.0)])
    make_patch_file(tmp_path / "dummy.csv", [])
    manifest = load_manifest(write(
        tmp_path / "m.csv", "slide_id,label,predictions_path\ns1,malignant,a.csv\n"
    ))
    slide = load_slide(manifest[0])
    assert len(slide.patches) == 3
    assert slide.patches.dtype == PATCH_DTYPE
    assert slide.patches[0].tolist() == (0, 0, 0.9)
    assert slide.patches["prob_malignant"][2] == 1.0  # order preserved


def test_probability_out_of_range(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [(0, 0, 1.2)])
    with pytest.raises(MalformedRow, match=r":2: prob_malignant 1\.2 outside \[0, 1\]$") as err:
        load_patches(path)
    assert err.value.line_no == 2


def test_probability_nan_rejected(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [(0, 0, "nan")])
    with pytest.raises(MalformedRow, match=r":2: prob_malignant nan outside \[0, 1\]$"):
        load_patches(path)


def test_empty_patch_file(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [])
    patches = load_patches(path)
    assert len(patches) == 0
    assert patches.dtype == PATCH_DTYPE


def test_negative_coordinate_rejected(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [(-100, 0, 0.5)])
    with pytest.raises(MalformedRow):
        load_patches(path)


def test_oversized_coordinate_rejected(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [(0, 0, 0.5), (2**63, 0, 0.5)])
    with pytest.raises(MalformedRow) as err:
        load_patches(path)
    assert err.value.line_no == 3


def test_coordinate_limit_is_inclusive(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [(MAX_COORDINATE, 0, 0.5)])
    assert load_patches(path).tolist() == [(MAX_COORDINATE, 0, 0.5)]
    path = make_patch_file(tmp_path / "b.csv", [(0, 0, 0.5), (0, MAX_COORDINATE, 0.5),
                                                (0, MAX_COORDINATE + 1, 0.5)])
    with pytest.raises(MalformedRow) as err:
        load_patches(path)
    assert err.value.line_no == 4


def test_late_nan_reports_its_line_after_blank_crlf_lines(tmp_path):
    lines = ["x,y,prob_malignant"] + [f"{i},0,0.5" for i in range(500)]
    lines += ["", "", "7,7,nan", "8,8,0.5"]
    path = tmp_path / "a.csv"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    with pytest.raises(MalformedRow) as err:
        load_patches(path)
    assert err.value.line_no == 504
    assert str(err.value) == f"{path}:504: prob_malignant nan outside [0, 1]"


@pytest.mark.parametrize("line", ["#1,2,0.5", "# a comment"])
def test_hash_line_is_a_row_not_a_comment(tmp_path, line):
    path = write(tmp_path / "a.csv", f"x,y,prob_malignant\n1,2,0.5\n{line}\n")
    with pytest.raises(MalformedRow) as err:
        load_patches(path)
    assert err.value.line_no == 3


def test_large_slide_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    patches = np.zeros(10_000, dtype=PATCH_DTYPE)
    patches["x"] = rng.integers(0, 10**6, patches.size)
    patches["y"] = rng.integers(0, 10**6, patches.size)
    patches["prob_malignant"] = rng.random(patches.size)
    patches["prob_malignant"][:3] = [0.0, 1.0, 0.5]
    path = tmp_path / "out.csv"
    write_patches(patches, path)
    assert load_patches(path).tobytes() == patches.tobytes()
    assert _load_patches_rows(path).tobytes() == patches.tobytes()


@pytest.mark.parametrize("load, text", [
    (load_patches, b"x,y,prob_malignant\n0,0,0.5\n1,\xff,0.5\n"),
    (load_manifest, b"slide_id,label,predictions_path\r\ns1,n\xe9rmal,a.csv\r\n"),
])
def test_non_utf8_byte_reports_its_line(tmp_path, load, text):
    path = tmp_path / "a.csv"
    path.write_bytes(text)
    with pytest.raises(MalformedRow) as err:
        load(path)
    assert err.value.line_no == text.count(b"\n")
    assert "is not UTF-8" in str(err.value)


@pytest.mark.parametrize("load", [load_patches, load_manifest])
@pytest.mark.parametrize("line_no", [1, 3])
def test_csv_error_is_malformed_row(tmp_path, load, line_no):
    """A quote that opens a cell and never closes makes the cell run past
    the csv module's field size limit: a MalformedRow at its line."""
    header = ",".join(PATCH_HEADER if load is load_patches else MANIFEST_HEADER)
    lines = [header, "", ""]  # a blank line counts, though it is skipped
    lines[line_no - 1] = '"' + "7" * 200_000
    path = write(tmp_path / "a.csv", "\n".join(lines) + "\n")
    with pytest.raises(MalformedRow) as err:
        load(path)
    assert err.value.line_no == line_no
    assert "field larger than field limit" in str(err.value)


def test_wrong_column_count(tmp_path):
    path = write(tmp_path / "a.csv", "x,y,prob_malignant\n1,2\n")
    with pytest.raises(MalformedRow) as err:
        load_patches(path)
    assert err.value.line_no == 2


@pytest.mark.parametrize("table", TABLES)
def test_bad_header(tmp_path, table):
    """A header matches with its cells stripped and lower-cased; a bad one
    is reported on line 1 with the header expected."""
    load, header, row = TABLES[table]
    make_patch_file(tmp_path / "a.csv", [])
    data_row = row.format("s1") + "\n"
    path = write(tmp_path / "t.csv", " , ".join(header).upper() + "\n" + data_row)
    assert len(load(path)) == 1
    write(path, ",".join(header[:-1]) + ",p\n" + data_row)
    with pytest.raises(MalformedRow) as err:
        load(path)
    assert err.value.line_no == 1
    assert str(err.value).endswith(f"expected {','.join(header)}")


def test_slide_round_trip(tmp_path):
    patches = np.array(
        [(x * 100, 0, p) for x, p in enumerate([0.0, 0.123456789012345, 1.0, 0.5])],
        dtype=PATCH_DTYPE,
    )
    path = tmp_path / "out.csv"
    write_patches(patches, path)
    np.testing.assert_array_equal(load_patches(path), patches)


def test_manifest_round_trip(tmp_path):
    make_patch_file(tmp_path / "a.csv", [])
    make_patch_file(tmp_path / "b.csv", [])
    write_manifest([("s1", MALIGNANT, "a.csv"), ("s2", NORMAL, "b.csv")],
                   tmp_path / "m.csv")
    manifest = load_manifest(tmp_path / "m.csv")
    assert [(e.slide_id, e.label) for e in manifest] == [
        ("s1", MALIGNANT), ("s2", NORMAL)
    ]


def fast_path_outcome(path):
    """What load_patches makes of a patch file, the array bytes or the
    error's class, message and line, after checking that the row parser
    makes the same of it."""
    def outcome(load):
        try:
            return load(path).tobytes()
        except MalformedRow as exc:
            return type(exc), str(exc), exc.line_no

    fast = outcome(load_patches)
    assert fast == outcome(_load_patches_rows)
    return fast


@pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "lone-cr"])
def test_fast_path_line_ends(tmp_path, eol):
    path = tmp_path / "a.csv"
    lines = [b"x,y,prob_malignant", b"1,2,0.5", b"", b"3,4,0.25"]
    path.write_bytes(eol.join(lines) + eol)
    assert fast_path_outcome(path) == np.array([(1, 2, 0.5), (3, 4, 0.25)],
                                               dtype=PATCH_DTYPE).tobytes()
    path.write_bytes(eol.join(lines + [b"5,6,nan"]) + eol)
    assert fast_path_outcome(path)[2] == 5


def test_fast_path_header_cell_spanning_two_lines(tmp_path):
    """A quoted header cell may hold the line break: the header is then
    lines 1 and 2, and the first row is line 3."""
    path = write(tmp_path / "a.csv", 'x,y,"prob_malignant\n"\n1,2,0.5\n')
    assert fast_path_outcome(path) == np.array([(1, 2, 0.5)], dtype=PATCH_DTYPE).tobytes()
    write(path, 'x,y,"prob_malignant\n"\n1,2,1.5\n')
    assert fast_path_outcome(path)[2] == 3
    write(path, 'x,y,"prob_\nmalignant"\n1,2,0.5\n')
    assert fast_path_outcome(path)[2] == 1


@pytest.mark.parametrize("header", ["\rx,y,prob_malignant", "x\r,y,prob_malignant",
                                    "x,y,prob_malignant\r\r", "x,y,prob_malignant\r "])
def test_fast_path_carriage_return_in_the_header_line(tmp_path, header):
    """csv and numpy both end a line at a lone carriage return, so the
    header's first physical line may be several lines."""
    path = write(tmp_path / "a.csv", header + "\n1,2,0.5\n")
    fast_path_outcome(path)


@pytest.mark.parametrize("blank", [1, _SCAN_BYTES], ids=["short", "past-prefix"])
def test_fast_path_blank_body(tmp_path, blank):
    """A body of only blank lines is an empty slide, and a row after more
    blank lines than the prefix the fast path looks at is still read."""
    path = write(tmp_path / "a.csv", "x,y,prob_malignant\n" + "\r\n" * blank)
    assert fast_path_outcome(path) == b""
    write(path, "x,y,prob_malignant\n" + "\n" * blank + "1,2,0.5\n")
    assert fast_path_outcome(path) == np.array([(1, 2, 0.5)], dtype=PATCH_DTYPE).tobytes()
    write(path, "x,y,prob_malignant\n" + "\n" * blank + "1,2,-0.5\n")
    assert fast_path_outcome(path)[2] == blank + 2


@pytest.mark.parametrize("rows_before", [1, _SCAN_BYTES // 9 - 200],
                         ids=["first-block", "across-blocks"])
@pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
def test_fast_path_leaves_long_lines_to_the_row_parser(tmp_path, monkeypatch,
                                                       rows_before, extra):
    """numpy reads a line of longest_fast_line() bytes; the row parser reads
    a longer one, where a cell might pass int()'s digit limit or csv's field
    limit, also when the line straddles two blocks of the newline scan."""
    long_row = "0" * (longest_fast_line() + extra - len("1,2,0.5")) + "1,2,0.5"
    path = write(tmp_path / "a.csv",
                 "x,y,prob_malignant\n" + "3,4,0.25\n" * rows_before + long_row + "\n")
    parsed = []
    monkeypatch.setattr(ingest, "_load_patches_rows",
                        lambda p: parsed.append(p) or _load_patches_rows(p))
    assert load_patches(path).tolist() == [(3, 4, 0.25)] * rows_before + [(1, 2, 0.5)]
    assert len(parsed) == extra


@contextlib.contextmanager
def limits(int_digits, csv_field):
    """Python's int digit limit and csv's field size limit set for a block."""
    saved = sys.get_int_max_str_digits(), csv.field_size_limit()
    sys.set_int_max_str_digits(int_digits)
    csv.field_size_limit(csv_field)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved[0])
        csv.field_size_limit(saved[1])


needs_int_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                           reason="no int digit limit before Python 3.10.7")


@needs_int_digit_limit
def test_longest_fast_line_is_the_smaller_limit_when_called():
    with limits(4300, 131072):
        assert longest_fast_line() == 4300
    with limits(640, 131072):
        assert longest_fast_line() == 640
    with limits(0, 131072):  # 0: no int digit limit
        assert longest_fast_line() == 131072
    with limits(4300, 1000):
        assert longest_fast_line() == 1000


@needs_int_digit_limit
def test_fast_path_follows_a_lowered_int_digit_limit(tmp_path):
    """A 1 007-byte line whose x has 1 001 digits: past a digit limit of 640
    it is the row parser's MalformedRow, at the default limit a patch."""
    path = write(tmp_path / "a.csv", "x,y,prob_malignant\n1,2,0.25\n" + "0" * 1000 + "1,3,0.5\n")
    with limits(640, 131072):
        assert fast_path_outcome(path) == (
            MalformedRow, f"{path}:3: bad coordinates ['{'0' * 1000}1', '3']", 3)
    with limits(4300, 131072):
        assert fast_path_outcome(path) == np.array([(1, 2, 0.25), (1, 3, 0.5)],
                                                   dtype=PATCH_DTYPE).tobytes()


def test_fast_path_non_utf8_byte_far_into_the_file(tmp_path):
    """A bad byte past numpy's first read chunk names its line."""
    rows = [(i, i, 0.5) for i in range(20_000)]
    path = make_patch_file(tmp_path / "a.csv", rows)
    path.write_bytes(path.read_bytes() + b"7,\xff,0.5\n")
    kind, message, line_no = fast_path_outcome(path)
    assert kind is MalformedRow and line_no == len(rows) + 2
    assert "is not UTF-8" in message


@pytest.mark.parametrize("suffix, compress", [
    (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
    (".lzma", lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE)),
])
def test_fast_path_compressed_suffix(tmp_path, suffix, compress):
    """np.loadtxt would decompress a file with such a suffix; the patch
    CSV contract is plain UTF-8 text under any name."""
    text = b"x,y,prob_malignant\n1,2,0.5\n"
    path = tmp_path / f"s.csv{suffix}"
    path.write_bytes(text)
    assert fast_path_outcome(path) == np.array([(1, 2, 0.5)], dtype=PATCH_DTYPE).tobytes()
    path.write_bytes(compress(text))
    assert fast_path_outcome(path)[0] is MalformedRow


@pytest.mark.parametrize("name", ["gone.csv", "."])
def test_fast_path_missing_file_or_directory(tmp_path, name):
    with pytest.raises(MissingFile):
        load_patches(tmp_path / name)


def test_load_patches_peak_memory_is_about_the_file_size(tmp_path):
    """numpy reads the file in chunks: a 10 000-row parse holds little
    more than the array it returns, not the file's text and copies of it."""
    rng = np.random.default_rng(4)
    patches = np.zeros(10_000, dtype=PATCH_DTYPE)
    patches["x"] = rng.integers(0, 10**5, patches.size)
    patches["y"] = rng.integers(0, 10**5, patches.size)
    patches["prob_malignant"] = rng.random(patches.size)
    path = tmp_path / "a.csv"
    write_patches(patches, path)
    tracemalloc.start()
    try:
        loaded = load_patches(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.tobytes() == patches.tobytes()
    assert peak < 2 * path.stat().st_size


def test_parse_label_rejects_unknown():
    with pytest.raises(ValueError):
        parse_label("benign")

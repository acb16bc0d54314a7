"""Manifest and patch-file loading, validation and round-trips."""

import numpy as np
import pytest

from slidescreen.ingest import (
    MALIGNANT,
    MAX_COORDINATE,
    NORMAL,
    PATCH_DTYPE,
    DuplicateSlideId,
    MalformedRow,
    MissingFile,
    ProbabilityOutOfRange,
    _load_patches_rows,
    load_manifest,
    load_patches,
    load_slide,
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


def test_manifest_two_rows(tmp_path):
    make_patch_file(tmp_path / "s1.csv", [(0, 0, 0.9)])
    make_patch_file(tmp_path / "s2.csv", [(0, 0, 0.1)])
    manifest = load_manifest(write(
        tmp_path / "m.csv",
        "slide_id,label,predictions_path\ns1,malignant,s1.csv\ns2,normal,s2.csv\n",
    ))
    assert len(manifest) == 2
    assert manifest.entries[0].slide_id == "s1"
    assert manifest.entries[0].label == MALIGNANT
    assert manifest.entries[1].label == NORMAL


def test_manifest_duplicate_slide_id(tmp_path):
    make_patch_file(tmp_path / "a.csv", [])
    make_patch_file(tmp_path / "b.csv", [])
    path = write(
        tmp_path / "m.csv",
        "slide_id,label,predictions_path\ns1,malignant,a.csv\ns1,normal,b.csv\n",
    )
    with pytest.raises(DuplicateSlideId):
        load_manifest(path)


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


def test_manifest_bad_label_reports_line(tmp_path):
    make_patch_file(tmp_path / "a.csv", [])
    path = write(
        tmp_path / "m.csv",
        "slide_id,label,predictions_path\ns1,malignant,a.csv\ns2,benign,a.csv\n",
    )
    with pytest.raises(MalformedRow) as err:
        load_manifest(path)
    assert err.value.line_no == 3


def test_manifest_labels_case_insensitive(tmp_path):
    make_patch_file(tmp_path / "a.csv", [])
    manifest = load_manifest(write(
        tmp_path / "m.csv",
        "slide_id,label,predictions_path\ns1,Malignant,a.csv\n",
    ))
    assert manifest.entries[0].label == MALIGNANT


def test_crlf_accepted(tmp_path):
    make_patch_file(tmp_path / "a.csv", [(1, 2, 0.5)])
    path = tmp_path / "m.csv"
    path.write_bytes(b"slide_id,label,predictions_path\r\ns1,normal,a.csv\r\n")
    manifest = load_manifest(path)
    assert len(manifest) == 1
    slide = load_slide(manifest.entries[0])
    assert slide.patches.tolist() == [(1, 2, 0.5)]


def test_load_slide_three_rows(tmp_path):
    make_patch_file(tmp_path / "a.csv", [(0, 0, 0.9), (100, 0, 0.4), (0, 100, 1.0)])
    make_patch_file(tmp_path / "dummy.csv", [])
    manifest = load_manifest(write(
        tmp_path / "m.csv", "slide_id,label,predictions_path\ns1,malignant,a.csv\n"
    ))
    slide = load_slide(manifest.entries[0])
    assert len(slide.patches) == 3
    assert slide.patches.dtype == PATCH_DTYPE
    assert slide.patches[0].tolist() == (0, 0, 0.9)
    assert slide.patches["prob_malignant"][2] == 1.0  # order preserved


def test_probability_out_of_range(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [(0, 0, 1.2)])
    with pytest.raises(ProbabilityOutOfRange) as err:
        load_patches(path)
    assert err.value.line_no == 2


def test_probability_nan_rejected(tmp_path):
    path = make_patch_file(tmp_path / "a.csv", [(0, 0, "nan")])
    with pytest.raises(ProbabilityOutOfRange):
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
    with pytest.raises(ProbabilityOutOfRange) as err:
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


def test_wrong_column_count(tmp_path):
    path = write(tmp_path / "a.csv", "x,y,prob_malignant\n1,2\n")
    with pytest.raises(MalformedRow) as err:
        load_patches(path)
    assert err.value.line_no == 2


def test_bad_header(tmp_path):
    path = write(tmp_path / "a.csv", "x,y,p\n1,2,0.5\n")
    with pytest.raises(MalformedRow) as err:
        load_patches(path)
    assert err.value.line_no == 1


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
    assert [(e.slide_id, e.label) for e in manifest.entries] == [
        ("s1", MALIGNANT), ("s2", NORMAL)
    ]


def test_parse_label_rejects_unknown():
    with pytest.raises(ValueError):
        parse_label("benign")

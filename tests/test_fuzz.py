"""Byte-mutation fuzz of every kind of input file through ``cli.main``.

A valid model file, patch CSV, manifest and feature CSV each get one byte
edit: a bit flip, a deleted or duplicated span, a truncation, or an
inserted ``nan``, ``1e309``, ``,``, carriage return, NUL or run of digits,
or a run of spaces or digits longer than the ``csv`` field limit or
Python's int digit limit, which a patch CSV's long-line rule must catch.
Whatever the edit, the command exits 0, 2 or 3 (never with a traceback):
a non-zero exit leaves exactly one stderr line and no output file, and an
exit 0 leaves stderr empty and no non-finite number in any output. A
feature CSV that still reads as a valid table may also exit 1 (too few
slides of a class left to cross-validate, say): a pipeline failure is
about the data, not its bytes.
"""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slidescreen import cli, features, ingest

# the last two pass csv's 131 072-character field limit and Python's
# 4 300-digit int limit
INSERTS = [b"nan", b"1e309", b",", b"\r", b"\x00", b"9" * 30, b" " * 131_073, b"9" * 4_301]
OPERATIONS = ["flip", "delete", "truncate", "duplicate", "insert"]
TARGETS = ["model", "patches", "manifest", "features"]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A 10-slide dataset, its feature CSV and a model trained for 2 epochs."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(root / "data"), "--seed", "3",
                         "--slides-per-label", "5", "--grid", "6"]) == 0
        assert cli.main(["extract", "--manifest", str(root / "data" / "manifest.csv"),
                         "--out", str(root / "features.csv")]) == 0
        assert cli.main(["train", "--features", str(root / "features.csv"), "--seed", "3",
                         "--epochs", "2", "--out", str(root / "model.bin")]) == 0
    return root


def mutate(data: bytes, operation: str, position, length: int, bit: int,
           insert: bytes) -> bytes:
    """data with one edit at position: a byte offset, or a float in [0, 1)
    giving the offset as a share of the length."""
    if isinstance(position, float):
        position = int(position * len(data))
    position = min(position, len(data))
    if operation == "flip":
        position = min(position, len(data) - 1)
        return data[:position] + bytes([data[position] ^ 1 << bit]) + data[position + 1:]
    if operation == "delete":
        return data[:position] + data[position + length:]
    if operation == "truncate":
        return data[:position]
    if operation == "duplicate":
        return data[:position + length] + data[position:]
    return data[:position] + insert + data[position:]


def assert_finite_outputs(target: str, stdout: str, out):
    """No number a successful command wrote is NaN or infinite."""
    if target in ("model", "patches"):
        label, p = stdout.split()
        assert label in ingest.LABEL_NAMES.values() and math.isfinite(float(p))
    elif target == "manifest":
        features.read_features_csv(out)  # refuses a non-finite value
    else:
        def numbers(doc):
            if isinstance(doc, dict):
                doc = list(doc.values())
            if isinstance(doc, list):
                return [v for item in doc for v in numbers(item)]
            return [doc] if isinstance(doc, float) else []
        assert all(map(math.isfinite, numbers(json.loads((out / "report.json").read_text()))))
        with open(out / "report.csv", encoding="utf-8", newline="") as fh:
            cells = [cell for row in list(csv.reader(fh))[1:] for cell in row[1:]]
        assert all(cell == "" or math.isfinite(float(cell)) for cell in cells)


@settings(max_examples=100, deadline=None)
# a long run at the start of a mid-file patch row makes a line longer than
# load_patches gives numpy, so the row parser reads the file
@example(target="patches", operation="insert", position=0.5, length=1, bit=0,
         insert=INSERTS[-2])
@example(target="patches", operation="insert", position=0.5, length=1, bit=0,
         insert=INSERTS[-1])
@given(st.sampled_from(TARGETS), st.sampled_from(OPERATIONS),
       # near the start (a model file's text header) or anywhere
       st.integers(0, 400) | st.floats(0.0, 1.0, exclude_max=True),
       st.integers(1, 16), st.integers(0, 7), st.sampled_from(INSERTS))
def test_any_byte_edit_exits_cleanly(valid, tmp_path_factory, target, operation, position,
                                     length, bit, insert):
    case = tmp_path_factory.mktemp("case")
    data = valid / "data"
    source = {"model": valid / "model.bin", "patches": data / "malignant_000.csv",
              "manifest": data / "manifest.csv", "features": valid / "features.csv"}[target]
    # a manifest's relative paths resolve against its own directory
    edited = (data if target == "manifest" else case) / f"edited-{case.name}{source.suffix}"
    edited.write_bytes(mutate(source.read_bytes(), operation, position, length, bit, insert))
    out = case / "out"
    argv = {
        "model": ["predict", "--model", edited, "--slide", data / "normal_005.csv"],
        "patches": ["predict", "--model", valid / "model.bin", "--slide", edited],
        "manifest": ["extract", "--manifest", edited, "--out", out],
        "features": ["cv", "--features", edited, "--model", "widedeep", "--k", 2,
                     "--seed", 1, "--epochs", 2, "--out", out],
    }[target]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(arg) for arg in argv])
    if code == 1:  # a pipeline failure, so the edited feature CSV must be valid
        assert target == "features", stderr.getvalue()
        features.read_features_csv(edited)
    else:
        assert code in (0, 2, 3), stderr.getvalue()
    edited.unlink()
    if code:
        assert len(stderr.getvalue().splitlines()) == 1 and stderr.getvalue().endswith("\n")
        assert not out.exists()
    else:
        assert stderr.getvalue() == ""
        assert_finite_outputs(target, stdout.getvalue(), out)

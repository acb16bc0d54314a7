"""Loading, validation and persistence of slide manifests and patch predictions.

File contracts:
  manifest CSV: header ``slide_id,label,predictions_path``,
    label in {malignant, normal} (case-insensitive), path relative to the
    manifest file or absolute.
  patch CSV: header ``x,y,prob_malignant``, x/y decimal integers (patch
    center coordinates in pixels), prob_malignant decimal in [0, 1].
All files UTF-8 (other bytes are a MalformedRow); LF and CRLF line endings
are both accepted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

NORMAL = 0
MALIGNANT = 1

LABEL_NAMES = {NORMAL: "normal", MALIGNANT: "malignant"}

# Classification threshold for a single patch: ties go to malignant so a
# screening pipeline never drops a 50% call, and the probability histogram
# starts at 0.50.
MALIGNANT_THRESHOLD = 0.5

MANIFEST_HEADER = ("slide_id", "label", "predictions_path")
PATCH_HEADER = ("x", "y", "prob_malignant")

# One record per patch: center coordinates (pixels) and malignancy score.
PATCH_DTYPE = np.dtype([("x", np.int64), ("y", np.int64),
                        ("prob_malignant", np.float64)])
# Coordinates beyond 2**53 would lose precision as float64 distances.
MAX_COORDINATE = 2**53


class IngestError(Exception):
    """Base class for dataset loading problems."""


class MissingFile(IngestError):
    def __init__(self, path):
        super().__init__(f"file not found: {path}")
        self.path = Path(path)


class MalformedRow(IngestError):
    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = Path(path)
        self.line_no = line_no


class ProbabilityOutOfRange(IngestError):
    def __init__(self, path, line_no: int, value: float):
        super().__init__(
            f"{path}:{line_no}: prob_malignant {value!r} outside [0, 1]"
        )
        self.path = Path(path)
        self.line_no = line_no
        self.value = value


class DuplicateSlideId(IngestError):
    def __init__(self, slide_id: str):
        super().__init__(f"duplicate slide_id {slide_id!r}")
        self.slide_id = slide_id


@dataclass(frozen=True)
class SlideRecord:
    """A slide's identifier, ground-truth label and patch predictions
    (a PATCH_DTYPE array, one record per patch in file order)."""

    slide_id: str
    label: int
    patches: np.ndarray


@dataclass(frozen=True)
class ManifestEntry:
    slide_id: str
    label: int
    predictions_path: Path


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def parse_label(token: str) -> int:
    name = token.strip().lower()
    if name == "malignant":
        return MALIGNANT
    if name == "normal":
        return NORMAL
    raise ValueError(f"unknown label {token!r}")


def read_text(path) -> str:
    """Return the text of a UTF-8 file.

    Raises MissingFile, and MalformedRow at the line of the first byte
    that is not UTF-8.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(path)
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(path, data.count(b"\n", 0, exc.start) + 1,
                           f"byte 0x{data[exc.start]:02x} at offset {exc.start} "
                           "is not UTF-8") from None


def _open_csv(path: Path, expected_header: Sequence[str]) -> io.StringIO:
    """A CSV file's text, positioned after its header row, which is checked."""
    stream = io.StringIO(read_text(path), newline="")
    try:
        header = next(csv.reader(stream))
    except StopIteration:
        raise MalformedRow(path, 1, "missing header row") from None
    got = tuple(cell.strip().lower() for cell in header)
    if got != tuple(expected_header):
        raise MalformedRow(
            path, 1, f"bad header {header!r}, expected {','.join(expected_header)}"
        )
    return stream


def _read_rows(path: Path, expected_header: Sequence[str]):
    """Yield (line_no, row) for each data row after checking the header."""
    reader = csv.reader(_open_csv(path, expected_header))
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue  # tolerate trailing blank line
        yield line_no, row


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest CSV into a DatasetManifest, preserving file order.

    Relative prediction paths are resolved against the manifest directory.
    Raises MissingFile if the manifest or any referenced prediction file
    does not exist, DuplicateSlideId on repeated ids, MalformedRow on
    anything unparsable.
    """
    path = Path(path)
    base = path.parent
    entries = []
    seen: set[str] = set()
    for line_no, row in _read_rows(path, MANIFEST_HEADER):
        if len(row) != 3:
            raise MalformedRow(path, line_no, f"expected 3 columns, got {len(row)}")
        slide_id = row[0].strip()
        if not slide_id:
            raise MalformedRow(path, line_no, "empty slide_id")
        try:
            label = parse_label(row[1])
        except ValueError as exc:
            raise MalformedRow(path, line_no, str(exc)) from None
        if slide_id in seen:
            raise DuplicateSlideId(slide_id)
        seen.add(slide_id)
        pred_path = Path(row[2].strip())
        if not pred_path.is_absolute():
            pred_path = base / pred_path
        if not pred_path.is_file():
            raise MissingFile(pred_path)
        entries.append(ManifestEntry(slide_id, label, pred_path))
    return DatasetManifest(tuple(entries))


def load_patches(path) -> np.ndarray:
    """Parse a patch prediction CSV into a PATCH_DTYPE array; row order is
    preserved.

    A cell is accepted iff Python's int (x, y) or float (prob_malignant)
    accepts it after CSV unquoting. numpy's C reader parses the body, and
    the columns are range-checked in numpy; a file that reader refuses or
    that fails a check is parsed again row by row, which accepts it or
    raises the error with its line number. So the fast reader changes
    neither what is accepted nor what an error says.

    Raises MissingFile, MalformedRow (header, column count, a cell that
    is not a number, negative or too large coordinates, bytes that are
    not UTF-8) and ProbabilityOutOfRange (NaN included).
    """
    path = Path(path)
    body = _open_csv(path, PATCH_HEADER).read()
    if not body.strip():  # loadtxt warns on a body with no data
        return _load_patches_rows(path)
    try:
        patches = np.loadtxt(io.StringIO(body), delimiter=",", dtype=PATCH_DTYPE,
                             ndmin=1, comments=None)
    except ValueError:
        return _load_patches_rows(path)
    x, y, prob = patches["x"], patches["y"], patches["prob_malignant"]
    if ((x >= 0) & (x <= MAX_COORDINATE) & (y >= 0) & (y <= MAX_COORDINATE)
            & (prob >= 0.0) & (prob <= 1.0)).all():  # also rejects NaN
        return patches
    return _load_patches_rows(path)


def _load_patches_rows(path: Path) -> np.ndarray:
    """The row parser behind load_patches: the reference for what is
    accepted, and the only path that raises on a data row."""
    patches = []
    for line_no, row in _read_rows(path, PATCH_HEADER):
        if len(row) != 3:
            raise MalformedRow(path, line_no, f"expected 3 columns, got {len(row)}")
        try:
            x = int(row[0])
            y = int(row[1])
        except ValueError:
            raise MalformedRow(path, line_no, f"bad coordinates {row[:2]!r}") from None
        if x < 0 or y < 0:
            raise MalformedRow(path, line_no, f"negative coordinates ({x}, {y})")
        if x > MAX_COORDINATE or y > MAX_COORDINATE:
            raise MalformedRow(path, line_no, f"coordinates ({x}, {y}) too large")
        try:
            prob = float(row[2])
        except ValueError:
            raise MalformedRow(path, line_no, f"bad probability {row[2]!r}") from None
        if not 0.0 <= prob <= 1.0:  # also rejects NaN
            raise ProbabilityOutOfRange(path, line_no, prob)
        patches.append((x, y, prob))
    return np.array(patches, dtype=PATCH_DTYPE)


def load_slide(entry: ManifestEntry) -> SlideRecord:
    return SlideRecord(entry.slide_id, entry.label, load_patches(entry.predictions_path))


def write_patches(patches: np.ndarray, path) -> None:
    """Write a PATCH_DTYPE array as a patch CSV; probabilities use repr so
    re-parsing is exact."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PATCH_HEADER)
        for x, y, prob in patches.tolist():  # Python ints and floats
            writer.writerow([x, y, repr(prob)])


def write_manifest(rows: Iterable[tuple[str, int, str]], path) -> None:
    """Write a manifest CSV from (slide_id, label, predictions_path) rows."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for slide_id, label, pred_path in rows:
            writer.writerow([slide_id, LABEL_NAMES[label], pred_path])

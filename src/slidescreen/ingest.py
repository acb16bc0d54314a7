"""Loading, validation and persistence of slide manifests and patch
predictions, and the CSV reader and writer behind every table with a
header row that the package reads or writes.

File contracts:
  manifest CSV: header ``slide_id,label,predictions_path``,
    label in {malignant, normal} (case-insensitive), path relative to the
    manifest file or absolute.
  patch CSV: header ``x,y,prob_malignant``, x/y decimal integers (patch
    center coordinates in pixels), prob_malignant decimal in [0, 1].
A header matches with its cells stripped and lower-cased. A slide_id is
stripped, must not be empty or hold a carriage return, and must be unique
within its table.
All files UTF-8 (other bytes are a MalformedRow); LF and CRLF line endings
are both accepted; files are written with LF, numbers as their Python repr,
and a cell holding a carriage return is refused. Every output file of the
package is written by replace_file.
"""

from __future__ import annotations

import copyreg
import csv
import io
import os
import sys
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
_SCAN_BYTES = 1 << 16  # load_patches reads the header, and scans for long lines, in blocks


class IngestError(Exception):
    """Base class for dataset loading problems."""

    def __reduce__(self):  # unpickle (from a worker) without calling __init__
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class MissingFile(IngestError):
    def __init__(self, path):
        super().__init__(f"file not found: {path}")
        self.path = Path(path)


class MalformedRow(IngestError):
    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = Path(path)
        self.line_no = line_no


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


def parse_label(token: str) -> int:
    name = token.strip().lower()
    if name == "malignant":
        return MALIGNANT
    if name == "normal":
        return NORMAL
    raise ValueError(f"unknown label {token!r}")


def _open_csv(path, expected_header: Sequence[str]):
    """A csv reader of a UTF-8 file, positioned after its header row, which
    is checked. Raises MissingFile, and MalformedRow at the line of the
    first byte that is not UTF-8."""
    file = Path(path)
    if not file.is_file():
        raise MissingFile(file)
    data = file.read_bytes()
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    except UnicodeDecodeError as exc:
        raise MalformedRow(file, data.count(b"\n", 0, exc.start) + 1,
                           f"byte 0x{data[exc.start]:02x} at offset {exc.start} "
                           "is not UTF-8") from None
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow(path, 1, "missing header row") from None
    except csv.Error as exc:  # a quoted cell past csv's field size limit, say
        raise MalformedRow(path, 1, str(exc)) from None
    got = tuple(cell.strip().lower() for cell in header)
    if got != tuple(expected_header):
        raise MalformedRow(
            path, 1, f"bad header {header!r}, expected {','.join(expected_header)}"
        )
    return reader


def read_rows(path, header: Sequence[str]):
    """Yield (line_no, row) for each data row of a CSV table after checking
    its header; line_no is the physical line where the row starts. Blank
    lines are skipped; a row without one cell per column raises MalformedRow."""
    reader = _open_csv(path, header)
    start = reader.line_num + 1  # a quoted cell, in the header too, may span lines
    try:
        for row in reader:
            line_no, start = start, reader.line_num + 1
            if not row:
                continue  # tolerate trailing blank line
            if len(row) != len(header):
                raise MalformedRow(path, line_no,
                                   f"expected {len(header)} columns, got {len(row)}")
            yield line_no, row
    except csv.Error as exc:
        raise MalformedRow(path, reader.line_num, str(exc)) from None


def read_slide_rows(path, header: Sequence[str]):
    """read_rows of a table whose first two columns are slide_id and label:
    yields (line_no, slide_id, label, row) with the id stripped.

    Raises MalformedRow on an empty id, an id with a carriage return, a
    bad label or an id seen before.
    """
    seen: set[str] = set()
    for line_no, row in read_rows(path, header):
        slide_id = row[0].strip()
        if not slide_id:
            raise MalformedRow(path, line_no, "empty slide_id")
        if "\r" in slide_id:  # write_table refuses it too
            raise MalformedRow(path, line_no, f"slide_id {slide_id!r} holds a carriage return")
        try:
            label = parse_label(row[1])
        except ValueError as exc:
            raise MalformedRow(path, line_no, str(exc)) from None
        if slide_id in seen:
            raise MalformedRow(path, line_no, f"duplicate slide_id {slide_id!r}")
        seen.add(slide_id)
        yield line_no, slide_id, label, row


def load_manifest(path) -> tuple[ManifestEntry, ...]:
    """Parse a manifest CSV into its entries, preserving file order.

    Relative prediction paths are resolved against the manifest directory.
    Raises MissingFile if the manifest or any referenced prediction file
    does not exist, MalformedRow on repeated ids and anything unparsable.
    """
    path = Path(path)
    entries = []
    for line_no, slide_id, label, row in read_slide_rows(path, MANIFEST_HEADER):
        if not row[2].strip():  # else it would name the manifest's directory
            raise MalformedRow(path, line_no, "empty predictions_path")
        pred_path = path.parent / row[2].strip()  # an absolute path replaces the base
        if not pred_path.is_file():
            raise MissingFile(pred_path)
        entries.append(ManifestEntry(slide_id, label, pred_path))
    return tuple(entries)


def longest_fast_line() -> int:
    """The longest line load_patches gives numpy: no cell of it can pass
    int()'s digit limit (0 for none; none before Python 3.10.7) or csv's
    field size limit, as they stand now."""
    fields = csv.field_size_limit()
    return min(getattr(sys, "get_int_max_str_digits", int)() or fields, fields)


def load_patches(path) -> np.ndarray:
    """Parse a patch prediction CSV into a PATCH_DTYPE array; row order is
    preserved.

    A cell is accepted iff Python's int (x, y) or float (prob_malignant)
    accepts it after CSV unquoting. np.loadtxt reads the file in chunks
    after a one-line header, and the columns are range-checked in numpy;
    a file it cannot read so (a compressed suffix, a blank body, a header
    not on one plain line, a line longer than longest_fast_line() bytes) or
    that fails a check is parsed row by row, so the fast reader changes
    neither what is accepted nor what an error says.

    Raises MissingFile and MalformedRow (header, column count, a cell that
    is not a number, negative or too large coordinates, a probability
    outside [0, 1] or NaN, bytes that are not UTF-8).
    """
    path = Path(path)
    # np.loadtxt would decompress a file with one of these suffixes
    if not path.is_file() or path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        return _load_patches_rows(path)
    longest = longest_fast_line()
    with open(path, "rb") as fh:
        head, _, body = fh.read(_SCAN_BYTES).partition(b"\n")
        # a quote, a bad byte or a carriage return inside a cell fails the match
        cells = head.decode("utf-8", "replace").split(",")
        fast = bool(body.strip()) and tuple(c.strip().lower() for c in cells) == PATCH_HEADER
        fh.seek(0)
        last = -1  # index of the last newline, from this block's start
        while fast and (block := fh.read(_SCAN_BYTES)):
            while (nl := block.rfind(b"\n", max(last + 1, 0), last + longest + 2)) >= 0:
                last = nl  # the last newline among the next longest + 1 bytes
            fast, last = len(block) - 1 - last <= longest, last - len(block)
    if not fast:
        return _load_patches_rows(path)  # loadtxt warns on a blank body
    try:  # numpy reads a path in chunks, but a file object a line at a time
        patches = np.loadtxt(path, delimiter=",", dtype=PATCH_DTYPE, ndmin=1,
                             comments=None, skiprows=1, encoding="utf-8")
    except ValueError:  # UnicodeDecodeError is one
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
    for line_no, row in read_rows(path, PATCH_HEADER):
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
            raise MalformedRow(path, line_no, f"prob_malignant {prob!r} outside [0, 1]")
        patches.append((x, y, prob))
    return np.array(patches, dtype=PATCH_DTYPE)


def load_slide(entry: ManifestEntry) -> SlideRecord:
    return SlideRecord(entry.slide_id, entry.label, load_patches(entry.predictions_path))


def replace_file(path, parts: Iterable) -> None:
    """Write parts in order (a str as UTF-8, bytes or a contiguous array as
    they are) to a new file beside path, then rename it over path. A write
    that fails or is interrupted leaves the previous file as it was and no
    partial file behind; a symlink at path is replaced, not written through."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV table from its columns (one per header name, all of one
    length), UTF-8 with LF line ends: a 1-D numpy array's cells are the repr
    of its numbers, another column's the str of its items. A carriage return
    in a cell raises ValueError: csv.writer leaves it unquoted before 3.13."""
    # a list's repr joins its items' reprs with ", ", which no number's repr holds
    cells = [repr(col.tolist())[1:-1].split(", ") if isinstance(col, np.ndarray) and len(col)
             else list(map(str, col)) for col in columns]
    rows = [header, *zip(*cells)]
    text = "\n".join(map(",".join, rows)) + "\n"
    if "\r" in text:
        cell = next(c for col in (header, *cells) for c in col if "\r" in c)
        raise ValueError(f"cell {cell!r} holds a carriage return")
    # the cells are joined in C unless one holds a quote, comma or newline,
    # which csv.writer quotes, as it does a lone empty cell
    quote = (len(header) < 2 or '"' in text or text.count("\n") != len(rows)
             or text.count(",") != len(rows) * (len(header) - 1))
    if quote:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        text = buffer.getvalue()
    replace_file(path, [text])


def write_patches(patches: np.ndarray, path) -> None:
    """Write a PATCH_DTYPE array as a patch CSV; probabilities use repr so
    re-parsing is exact."""
    write_table(path, PATCH_HEADER, [patches[name] for name in PATCH_HEADER])


def write_manifest(rows: Iterable[tuple[str, int, str]], path) -> None:
    """Write a manifest CSV from (slide_id, label, predictions_path) rows."""
    ids, labels, paths = tuple(zip(*rows)) or ((), (), ())
    write_table(path, MANIFEST_HEADER, [ids, [LABEL_NAMES[label] for label in labels], paths])

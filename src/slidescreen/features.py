"""Slide-level feature extraction from patch predictions.

Four feature families, 18 scalars total, in this column order:
  MTR   malignant tissue ratio (1)
  MPH   10-bin histogram of malignant-patch probabilities over [0.50, 1.00]
  LSRL  slope and intercept of the least-squares line through the histogram
  MCC   connected-component counts at five radii, normalized by malignant
        patch count (5)

A slide's features are one (18,) float64 row and a set of slides is an
(n, 18) matrix; the slices below are the only place that layout is
defined. A degenerate slide (no patches, or no malignant-classified
patches) maps to the all-zero row: no malignant evidence.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import (
    LABEL_NAMES,
    MALIGNANT_THRESHOLD,
    DuplicateSlideId,
    MalformedRow,
    MissingFile,
    SlideRecord,
    parse_label,
)

# Bin edges as decimal literals so parsed probabilities compare exactly
# against them; last bin is closed so prob = 1.0 is counted.
HISTOGRAM_EDGES = np.array(
    [0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]
)
N_BINS = 10

# Radii are the Euclidean distances from a patch center to 1..5 patches
# away on a 100-px patch grid (100*sqrt(2) rounded up, then multiples).
MCC_RADII = (142.0, 283.0, 425.0, 566.0, 708.0)

# Column slices of a feature row: the wide input (MTR) and the three deep
# branches (MPH, LSRL, MCC).
MTR = slice(0, 1)
MPH = slice(1, 1 + N_BINS)
LSRL = slice(MPH.stop, MPH.stop + 2)
MCC = slice(LSRL.stop, LSRL.stop + len(MCC_RADII))
N_FEATURES = MCC.stop  # 18

FEATURE_NAMES = (
    ["mtr"]
    + [f"mph_{i}" for i in range(N_BINS)]
    + ["lsrl_m", "lsrl_b"]
    + [f"mcc_{int(d)}" for d in MCC_RADII]
)


class RegressionLine(NamedTuple):
    m: float
    b: float


def malignant_tissue_ratio(slide: SlideRecord) -> float:
    """Fraction of tissue patches classified malignant; 0 for an empty slide."""
    probs = slide.patches["prob_malignant"]
    if probs.size == 0:
        return 0.0
    return float(np.count_nonzero(probs >= MALIGNANT_THRESHOLD) / probs.size)


def malignant_probability_histogram(slide: SlideRecord) -> np.ndarray:
    """10-bin histogram of malignant-patch probabilities, 5% per bin.

    Bin k covers [0.50 + 0.05k, 0.55 + 0.05k), except the last bin which is
    closed at 1.00. Counts are normalized by the total number of tissue
    patches, so sum(bins) equals the malignant tissue ratio.
    """
    probs = slide.patches["prob_malignant"]
    if probs.size == 0:
        return np.zeros(N_BINS)
    malignant = probs[probs >= MALIGNANT_THRESHOLD]
    idx = np.searchsorted(HISTOGRAM_EDGES, malignant, side="right") - 1
    counts = np.bincount(idx, minlength=N_BINS)
    return counts / probs.size


def least_squares_regression_line(hist: Sequence[float]) -> RegressionLine:
    """Fit y = m*x + b to the histogram points (x_i = bin index 0..9).

    Standard normal-equation solution; with fixed distinct abscissas the
    denominator N*sum(x^2) - (sum x)^2 = 825 is constant and nonzero, so
    the minimizer is unique.
    """
    ys = np.asarray(hist, dtype=float)
    if ys.shape != (N_BINS,):
        raise ValueError(f"expected {N_BINS} histogram bins, got {ys.shape}")
    xs = np.arange(N_BINS, dtype=float)
    n = float(N_BINS)
    sx = xs.sum()
    sxx = float(xs @ xs)
    sy = float(ys.sum())
    sxy = float(xs @ ys)
    denom = n * sxx - sx * sx  # 825
    m = (n * sxy - sx * sy) / denom
    b = (sxx * sy - sx * sxy) / denom
    return RegressionLine(m, b)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


def connected_components(points: Sequence, d: float) -> list[list]:
    """Partition points into chain-linked clusters.

    Two points share a component iff a chain of points connects them with
    consecutive Euclidean distances <= d. Implemented with spatial hashing
    into d-sized cells plus union-find, so only the 3x3 cell neighborhood
    of each point is scanned; expected near-linear time versus the
    quadratic scan of the naive algorithm.
    """
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    coords = np.asarray(points, dtype=float).reshape(-1, 2)
    n = coords.shape[0]
    uf = _UnionFind(n)
    cells: dict[tuple[int, int], list[int]] = {}
    d2 = d * d
    cell_idx = np.floor(coords / d).astype(np.int64)
    for i in range(n):
        cx, cy = int(cell_idx[i, 0]), int(cell_idx[i, 1])
        xi, yi = coords[i]
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for j in cells.get((nx, ny), ()):
                    dx = xi - coords[j, 0]
                    dy = yi - coords[j, 1]
                    if dx * dx + dy * dy <= d2:
                        uf.union(i, j)
        cells.setdefault((cx, cy), []).append(i)
    groups: dict[int, list] = {}  # insertion order: first member's order
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(points[i])
    return list(groups.values())


def mcc_profile(slide: SlideRecord, radii: Sequence[float] = MCC_RADII) -> np.ndarray:
    """Connected-component count per radius over malignant patch centers,
    divided by the malignant patch count; all zeros when none exist."""
    patches = slide.patches[slide.patches["prob_malignant"] >= MALIGNANT_THRESHOLD]
    n = patches.size
    if n == 0:
        return np.zeros(len(radii))
    centers = np.column_stack((patches["x"], patches["y"]))
    return np.array(
        [len(connected_components(centers, d)) / n for d in radii]
    )


def extract_features(slide: SlideRecord) -> np.ndarray:
    """The slide's (18,) feature row, laid out by the column slices."""
    row = np.empty(N_FEATURES)
    hist = malignant_probability_histogram(slide)
    row[MTR] = malignant_tissue_ratio(slide)
    row[MPH] = hist
    row[LSRL] = least_squares_regression_line(hist)
    row[MCC] = mcc_profile(slide)
    return row


def write_features_csv(rows, path) -> None:
    """Write (slide_id, label, feature row) rows; 17 significant digits
    so values survive a round-trip exactly."""
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slide_id", "label"] + FEATURE_NAMES)
        for slide_id, label, row in rows:
            writer.writerow([slide_id, LABEL_NAMES[label]]
                            + [repr(v) for v in row.tolist()])


def read_features_csv(path) -> list[tuple[str, int, np.ndarray]]:
    """Parse a feature CSV into (slide_id, label, feature row) triples.

    Raises MissingFile, MalformedRow on a bad header, column count, label
    or value (NaN and infinities included), and DuplicateSlideId.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(path)
    expected = ["slide_id", "label"] + FEATURE_NAMES
    rows = []
    seen: set[str] = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise MalformedRow(path, 1, "bad feature CSV header")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise MalformedRow(path, line_no, f"expected {len(expected)} columns")
            try:
                label = parse_label(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise MalformedRow(path, line_no, str(exc)) from None
            if not all(map(math.isfinite, values)):
                raise MalformedRow(path, line_no, "non-finite feature value")
            if row[0] in seen:
                raise DuplicateSlideId(row[0])
            seen.add(row[0])
            rows.append((row[0], label, np.array(values)))
    return rows

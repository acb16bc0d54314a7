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

MCC comes from one vectorized pass per slide: the neighbour pairs of the
malignant patch centers are enumerated once, in numpy blocks, at the
largest radius, and each block is linked into the component labels of
every radius its pairs reach; no radius is scanned on its own.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import (
    LABEL_NAMES,
    MALIGNANT_THRESHOLD,
    DuplicateSlideId,
    MalformedRow,
    SlideRecord,
    parse_label,
    read_text,
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


# Pairs enumerated per block: the pair arrays of one block are the only
# allocation that grows with the number of neighbour pairs.
PAIR_BLOCK = 1 << 12

# Forward cell offsets as (column step, row step): the point's own cell
# (partners later in sort order only) and four of its eight neighbours, so
# every pair of points in adjacent cells is visited exactly once.
_FORWARD_CELLS = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _cell_ranks(values: np.ndarray, side: float) -> np.ndarray:
    """Grid cell of each value, with the occupied cells renumbered in
    order and every gap between them shortened to one empty cell: adjacent
    cells stay adjacent, the others stay apart, and no rank exceeds 2n, so
    cell keys fit in int64 whatever the coordinates."""
    cells = np.floor(values / side)
    order = np.argsort(cells)
    steps = np.minimum(np.diff(cells[order]), 2).astype(np.int64)
    ranks = np.empty(values.shape, dtype=np.int64)
    ranks[order] = np.concatenate(([0], np.cumsum(steps)))
    return ranks


def _roots(labels: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Root label of each point in ``idx``; compresses their paths."""
    r = labels[idx]
    while True:
        up = labels[r]
        if (up == r).all():
            break
        r = up
    labels[idx] = r
    return r


def _link(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the components of every pair (a[k], b[k]): hook the larger
    root onto the smaller one, so a label never exceeds its point's index
    and every root is its component's first point."""
    while a.size:
        ra, rb = _roots(labels, a), _roots(labels, b)
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(labels, np.maximum(ra, rb), np.minimum(ra, rb))


def _component_labels(points, radii: Sequence[float]) -> np.ndarray:
    """Chain-linkage labels of n points at every radius, one row per
    radius: row k maps each point to the index of the first point of its
    component at radius radii[k].

    The neighbour pairs are enumerated once, for the largest radius: the
    points are hashed into cells of that side and sorted by cell, and each
    point is paired with the points of its own cell that follow it and of
    four neighbouring cells. The pairs come in blocks; the pairs of a block
    that are no longer than a radius join components in that radius's
    labels, so each radius links exactly its own pairs (single linkage,
    Gower & Ross 1969). Squared lengths are compared in float64, so a
    pair exactly at a radius is linked.
    Raises ValueError unless every radius is positive (infinity links
    every pair) and every coordinate finite.
    """
    radii = [float(r) for r in radii]
    for r in radii:
        if not r > 0:
            raise ValueError(f"radius must be positive, got {r}")
    coords = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(coords).all():
        raise ValueError("point coordinates must be finite")
    n = coords.shape[0]
    if n == 0 or not radii:
        return np.zeros((len(radii), n), dtype=np.int64)
    side = max(radii)
    col = _cell_ranks(coords[:, 0], side)
    row = _cell_ranks(coords[:, 1], side) + 1  # a row step never wraps
    width = int(row.max()) + 2
    key = col * width + row
    order = np.argsort(key)
    key = key[order]
    xs, ys = coords[order, 0], coords[order, 1]

    # pair segments: source point i, cell offset c -> partners lo..lo+cnt
    steps = [dcol * width + drow for dcol, drow in _FORWARD_CELLS]
    target = (key[:, None] + steps).ravel()
    lo = np.searchsorted(key, target, side="left")
    lo[::len(_FORWARD_CELLS)] = np.arange(1, n + 1)  # own cell: later points only
    counts = np.searchsorted(key, target, side="right") - lo
    ends = np.cumsum(counts)
    # blocks of whole segments, cut where the running pair count crosses a
    # multiple of PAIR_BLOCK: a block holds at most PAIR_BLOCK pairs plus
    # one segment, itself at most one cell's points
    cuts = np.searchsorted(ends, np.arange(PAIR_BLOCK, ends[-1], PAIR_BLOCK),
                           side="right")
    edges = [0, *cuts.tolist(), counts.size]
    # the label arrays of all radii end to end: entry k*n + p is point p at
    # radius k, and no pair links two radii
    flat = np.arange(len(radii) * n)
    bounds = np.array([r * r for r in radii])[:, None]
    for s0, s1 in zip(edges, edges[1:]):
        if s0 == s1:  # a segment spanning several multiples
            continue
        cnt = counts[s0:s1]
        # partner of a pair = its segment's lo + its place in the segment
        i = np.repeat(np.arange(s0, s1) // len(_FORWARD_CELLS), cnt)
        j = np.repeat(lo[s0:s1] - ends[s0:s1] + cnt, cnt)
        j += np.arange(ends[s0] - cnt[0], ends[s1 - 1])
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        k, pair = np.nonzero(dx * dx + dy * dy <= bounds)
        _link(flat, order[i[pair]] + k * n, order[j[pair]] + k * n)
    _roots(flat, np.arange(flat.size))
    return flat.reshape(len(radii), n) % n


def component_counts(centers, radii: Sequence[float]) -> list[int]:
    """Number of chain-linked components of the (n, 2) ``centers`` at each
    radius, from one neighbour-pair pass."""
    labels = _component_labels(centers, radii)
    return (labels == np.arange(labels.shape[1])).sum(axis=1).tolist()


def connected_components(points: Sequence, d: float) -> list[list]:
    """Partition points into chain-linked clusters.

    Two points share a component iff a chain of points connects them with
    consecutive Euclidean distances <= d. Groups come in the order of their
    first member and hold the caller's points in input order; the labels
    come from the engine behind ``component_counts``, at the one radius.
    """
    (labels,) = _component_labels(points, [d])
    groups: dict[int, list] = {}  # insertion order: first member's order
    for i, root in enumerate(labels.tolist()):
        groups.setdefault(root, []).append(points[i])
    return list(groups.values())


def mcc_profile(slide: SlideRecord, radii: Sequence[float] = MCC_RADII) -> np.ndarray:
    """Connected-component count per radius over malignant patch centers,
    divided by the malignant patch count; all zeros when none exist."""
    patches = slide.patches[slide.patches["prob_malignant"] >= MALIGNANT_THRESHOLD]
    n = patches.size
    if n == 0:
        return np.zeros(len(radii))
    centers = np.column_stack((patches["x"], patches["y"]))
    return np.array(component_counts(centers, radii)) / n


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

    Raises MissingFile, MalformedRow on bytes that are not UTF-8, a bad
    header, column count, label or value (NaN and infinities included),
    and DuplicateSlideId.
    """
    path = Path(path)
    expected = ["slide_id", "label"] + FEATURE_NAMES
    rows = []
    seen: set[str] = set()
    with io.StringIO(read_text(path), newline="") as fh:
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

"""Synthetic slide datasets with controllable tumor geometry.

Malignant slides get 1..n compact high-confidence blobs of
malignant-classified patches; normal slides get only sparse low-confidence
false positives. Patch centers sit on a 100-px grid, so an 8-connected
blob is a single component at the smallest clustering radius (142 px >=
100*sqrt(2)). Generation is per-slide seeded: the same config always
yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import (
    LABEL_NAMES,
    MALIGNANT,
    NORMAL,
    PATCH_DTYPE,
    SlideRecord,
    write_manifest,
    write_patches,
)

PATCH_SPACING = 100  # px between adjacent patch centers
NOISE_CONFIDENCE = (2.0, 2.0)  # beta parameters of a normal slide's false positives


@dataclass(frozen=True)
class SynthConfig:
    n_slides_per_label: int = 100
    grid_extent: int = 20  # patches per side
    blob_count_range: tuple[int, int] = (1, 3)
    blob_radius_range: tuple[float, float] = (2.0, 5.0)  # in patch units
    noise_rate: float = 0.02  # false-positive rate on normal slides
    # beta parameters of tumor patches' confidence; these and NOISE_CONFIDENCE
    # are rescaled into [0.5, 1.0] so the drawn patches really are malignant
    malignant_confidence: tuple[float, float] = (8.0, 2.0)
    seed: int = 0

    def validate(self) -> None:
        if self.n_slides_per_label < 1:
            raise ValueError("n_slides_per_label must be >= 1")
        if self.grid_extent < 1:
            raise ValueError("grid_extent must be >= 1")
        lo, hi = self.blob_count_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad blob_count_range {self.blob_count_range}")
        rlo, rhi = self.blob_radius_range
        if not (0 < rlo <= rhi):
            raise ValueError(f"bad blob_radius_range {self.blob_radius_range}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError(f"noise_rate {self.noise_rate} outside [0, 1]")
        a, b = self.malignant_confidence
        if a <= 0 or b <= 0:
            raise ValueError("beta parameters must be positive")


def _slide_rng(cfg: SynthConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))


def _confidence(rng: np.random.Generator, params: tuple[float, float],
                size: int) -> np.ndarray:
    # beta in (0, 1) rescaled to (0.5, 1.0): always on the malignant side
    return 0.5 + 0.5 * rng.beta(params[0], params[1], size=size)


def _generate_slide(cfg: SynthConfig, label: int, index: int) -> SlideRecord:
    rng = _slide_rng(cfg, index)
    extent = cfg.grid_extent
    rows, cols = np.meshgrid(np.arange(extent), np.arange(extent), indexing="ij")
    rows = rows.ravel()
    cols = cols.ravel()
    n = rows.size
    # background tissue: confidently normal
    probs = 0.5 * rng.beta(2.0, 5.0, size=n)
    if label == MALIGNANT:
        malignant_mask = np.zeros(n, dtype=bool)
        lo, hi = cfg.blob_count_range
        for _ in range(int(rng.integers(lo, hi + 1))):
            cr = rng.integers(0, extent)
            cc = rng.integers(0, extent)
            radius = rng.uniform(*cfg.blob_radius_range)
            malignant_mask |= (rows - cr) ** 2 + (cols - cc) ** 2 <= radius ** 2
    else:
        malignant_mask = rng.random(n) < cfg.noise_rate
    n_mal = int(np.count_nonzero(malignant_mask))
    if n_mal:
        params = cfg.malignant_confidence if label == MALIGNANT else NOISE_CONFIDENCE
        probs[malignant_mask] = _confidence(rng, params, n_mal)
    patches = np.empty(n, dtype=PATCH_DTYPE)
    patches["x"] = cols * PATCH_SPACING
    patches["y"] = rows * PATCH_SPACING
    patches["prob_malignant"] = probs
    return SlideRecord(f"{LABEL_NAMES[label]}_{index:03d}", label, patches)


def generate_dataset(cfg: SynthConfig) -> list[SlideRecord]:
    """All malignant slides first, then all normal slides; slide index i
    always maps to the same record for a given config."""
    cfg.validate()
    records = []
    for i in range(cfg.n_slides_per_label):
        records.append(_generate_slide(cfg, MALIGNANT, i))
    for i in range(cfg.n_slides_per_label):
        records.append(_generate_slide(cfg, NORMAL, cfg.n_slides_per_label + i))
    return records


def write_dataset(records: list[SlideRecord], out_dir) -> Path:
    """Write one patch CSV per slide plus the manifest; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for record in records:
        filename = f"{record.slide_id}.csv"
        write_patches(record.patches, out_dir / filename)
        manifest_rows.append((record.slide_id, record.label, filename))
    manifest_path = out_dir / "manifest.csv"
    write_manifest(manifest_rows, manifest_path)
    return manifest_path

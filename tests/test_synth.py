"""Synthetic dataset generator: geometry, confidence profiles, determinism."""

import numpy as np
import pytest

from slidescreen.features import LSRL, MPH, extract_features, mcc_profile
from slidescreen.ingest import MALIGNANT, NORMAL, load_manifest, load_slide
from slidescreen.synth import (
    SynthConfig,
    generate_dataset,
    write_dataset,
)


def test_slide_counts_and_ids():
    cfg = SynthConfig(n_slides_per_label=4, seed=1)
    records = generate_dataset(cfg)
    assert len(records) == 8
    labels = [r.label for r in records]
    assert labels == [MALIGNANT] * 4 + [NORMAL] * 4
    assert len({r.slide_id for r in records}) == 8


def test_patch_centers_on_grid():
    cfg = SynthConfig(n_slides_per_label=1, grid_extent=5, seed=2)
    for record in generate_dataset(cfg):
        assert len(record.patches) == 25
        assert (record.patches["x"] % 100 == 0).all()
        assert (record.patches["y"] % 100 == 0).all()
        probs = record.patches["prob_malignant"]
        assert ((0.0 <= probs) & (probs <= 1.0)).all()


def test_single_blob_is_one_component_at_smallest_radius():
    # radius fixed at 2 cells, one blob, no background noise: the blob is
    # 8-connected on the grid, so the count at 142 px is 1/(blob size)
    cfg = SynthConfig(n_slides_per_label=6, blob_count_range=(1, 1),
                      blob_radius_range=(2.0, 2.0), noise_rate=0.0, seed=3)
    for record in generate_dataset(cfg):
        if record.label != MALIGNANT:
            continue
        n_malignant = np.count_nonzero(record.patches["prob_malignant"] >= 0.5)
        assert n_malignant > 0
        profile = mcc_profile(record.patches)
        assert profile[0] == 1.0 / n_malignant


def test_normal_slide_without_noise_is_all_zero():
    cfg = SynthConfig(n_slides_per_label=3, noise_rate=0.0, seed=4)
    for record in generate_dataset(cfg):
        if record.label != NORMAL:
            continue
        assert (record.patches["prob_malignant"] < 0.5).all()
        np.testing.assert_array_equal(extract_features(record.patches), np.zeros(18))


def test_malignant_patches_really_classified_malignant():
    cfg = SynthConfig(n_slides_per_label=5, seed=5)
    for record in generate_dataset(cfg):
        if record.label == MALIGNANT:
            assert (record.patches["prob_malignant"] >= 0.5).any()


def test_same_seed_byte_identical_files(tmp_path):
    cfg = SynthConfig(n_slides_per_label=3, seed=6)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_dataset(generate_dataset(cfg), dir_a)
    write_dataset(generate_dataset(cfg), dir_b)
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b
    assert len(files_a) == 2 * 3 + 1  # per-slide CSVs plus the manifest
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_written_dataset_loads_back(tmp_path):
    cfg = SynthConfig(n_slides_per_label=2, seed=7)
    records = generate_dataset(cfg)
    manifest_path = write_dataset(records, tmp_path)
    manifest = load_manifest(manifest_path)
    loaded = [load_slide(e) for e in manifest]
    assert [(r.slide_id, r.label) for r in loaded] == \
        [(r.slide_id, r.label) for r in records]
    for got, want in zip(loaded, records):
        np.testing.assert_array_equal(got.patches, want.patches)


def test_mtr_separation_between_classes():
    # class means must be far apart relative to the uncertainty of the
    # measured separation (3-sigma over 100 slides per class)
    cfg = SynthConfig(n_slides_per_label=100, seed=8)
    records = generate_dataset(cfg)
    mtr = {MALIGNANT: [], NORMAL: []}
    for record in records:
        probs = record.patches["prob_malignant"]
        mtr[record.label].append(np.count_nonzero(probs >= 0.5) / probs.size)
    mal = np.array(mtr[MALIGNANT])
    nor = np.array(mtr[NORMAL])
    assert mal.mean() > nor.mean()
    pooled_var = (mal.var(ddof=1) + nor.var(ddof=1)) / 2.0
    stderr = np.sqrt(pooled_var * (1 / mal.size + 1 / nor.size))
    assert mal.mean() - nor.mean() > 3.0 * stderr


def test_histogram_confidence_contrast():
    # malignant slides concentrate malignant-patch mass in high bins,
    # normal slides in lower bins (mean histograms, bin-index centroid)
    cfg = SynthConfig(n_slides_per_label=60, seed=9)
    records = generate_dataset(cfg)
    mean_hist = {MALIGNANT: np.zeros(10), NORMAL: np.zeros(10)}
    counts = {MALIGNANT: 0, NORMAL: 0}
    for record in records:
        mph = extract_features(record.patches)[MPH]
        if mph.sum() == 0:
            continue
        mean_hist[record.label] += mph / mph.sum()
        counts[record.label] += 1
    centroid = {}
    for label in (MALIGNANT, NORMAL):
        hist = mean_hist[label] / counts[label]
        centroid[label] = (np.arange(10) * hist).sum() / hist.sum()
    assert centroid[MALIGNANT] > centroid[NORMAL] + 1.0
    # and the malignant regression slope is steeper, as in the mean
    # histograms of real slides
    slopes = {MALIGNANT: [], NORMAL: []}
    for record in records:
        slopes[record.label].append(extract_features(record.patches)[LSRL][0])
    assert np.mean(slopes[MALIGNANT]) > np.mean(slopes[NORMAL])


@pytest.mark.parametrize("field,value", [
    ("n_slides_per_label", 0),
    ("grid_extent", 0),
    ("blob_count_range", (0, 2)),
    ("blob_count_range", (3, 1)),
    ("blob_radius_range", (0.0, 2.0)),
    ("noise_rate", 1.5),
    ("noise_rate", -0.1),
    ("malignant_confidence", (0.0, 2.0)),
])
def test_invalid_configs_rejected(field, value):
    """The message names the field; malignant_confidence's calls its
    values beta parameters."""
    cfg = SynthConfig(**{field: value})
    name = "beta parameters" if field == "malignant_confidence" else field
    with pytest.raises(ValueError, match=name):
        cfg.validate()

"""Feature extraction: values against independent oracles, plus the
geometric and algebraic invariants of the four feature families."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slidescreen
from slidescreen import features
from slidescreen.features import (
    FEATURE_NAMES,
    LSRL,
    MCC,
    MCC_RADII,
    MPH,
    MTR,
    N_FEATURES,
    _component_labels,
    component_counts,
    extract_features,
    least_squares_regression_line,
    malignant_probability_histogram,
    malignant_tissue_ratio,
    mcc_profile,
    read_features_csv,
    write_features_csv,
)
from slidescreen.ingest import (
    MALIGNANT,
    NORMAL,
    PATCH_DTYPE,
    MalformedRow,
)

from oracles import (
    as_partition,
    grid_refine_line,
    labels_as_partition,
    line_sse,
    naive_components,
)


def slide(probs, coords=None):
    """A slide's PATCH_DTYPE array."""
    if coords is None:
        coords = [(100 * i, 0) for i in range(len(probs))]
    return np.array([(x, y, p) for (x, y), p in zip(coords, probs)], dtype=PATCH_DTYPE)


class TestMalignantTissueRatio:
    def test_all_malignant(self):
        assert malignant_tissue_ratio(slide([0.9] * 100)) == 1.0

    def test_none_malignant(self):
        assert malignant_tissue_ratio(slide([0.1] * 100)) == 0.0

    def test_mixed_counts(self):
        assert malignant_tissue_ratio(slide([0.9, 0.6, 0.4, 0.2])) == 0.5

    def test_threshold_is_inclusive(self):
        assert malignant_tissue_ratio(slide([0.5])) == 1.0

    def test_empty_slide(self):
        assert malignant_tissue_ratio(slide([])) == 0.0


class TestHistogram:
    def test_prob_one_lands_in_last_bin(self):
        h = malignant_probability_histogram(slide([1.0] * 10))
        assert h[9] == 1.0
        assert h[:9].sum() == 0.0

    def test_hand_binned_example(self):
        h = malignant_probability_histogram(slide([0.50, 0.52, 0.60, 0.40]))
        expected = np.zeros(10)
        expected[0] = 0.5
        expected[2] = 0.25
        np.testing.assert_array_equal(h, expected)

    def test_empty_slide(self):
        np.testing.assert_array_equal(malignant_probability_histogram(slide([])),
                                      np.zeros(10))

    def test_decimal_boundaries_bin_exactly(self):
        # every multiple of 0.05 must open its own bin, despite float parse
        for k in range(10):
            p = (50 + 5 * k) / 100
            h = malignant_probability_histogram(slide([p]))
            assert h[k] == 1.0, (p, k)

    def test_mass_equals_mtr(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            probs = rng.random(rng.integers(1, 60))
            s = slide(list(probs))
            total = malignant_probability_histogram(s).sum()
            assert total == pytest.approx(malignant_tissue_ratio(s), abs=1e-12)


class TestRegressionLine:
    def test_flat_histogram(self):
        line = least_squares_regression_line([0.3] * 10)
        assert line.m == pytest.approx(0.0, abs=1e-12)
        assert line.b == pytest.approx(0.3, abs=1e-12)

    def test_exact_linear_data(self):
        line = least_squares_regression_line([0.01 * i for i in range(10)])
        assert line.m == pytest.approx(0.01, abs=1e-12)
        assert line.b == pytest.approx(0.0, abs=1e-12)

    def test_frozen_fixture_matches_grid_oracle(self):
        # expected values computed once with oracles.grid_refine_line
        bins = [0.4, 0.1, 0, 0, 0, 0, 0, 0, 0, 0.02]
        line = least_squares_regression_line(bins)
        assert line.m == pytest.approx(-0.024969696969696968, abs=1e-12)
        assert line.b == pytest.approx(0.16436363636363638, abs=1e-12)
        # grid search resolves (m, b) only to ~1e-8: below that, SSE
        # differences fall under float64 resolution
        om, ob = grid_refine_line(bins)
        assert line.m == pytest.approx(om, abs=1e-7)
        assert line.b == pytest.approx(ob, abs=1e-7)

    def test_perturbation_never_improves_sse(self):
        rng = np.random.default_rng(99)
        eps = 1e-3
        for _ in range(100):
            bins = rng.random(10)
            m, b = least_squares_regression_line(bins)
            base = line_sse(bins, m, b)
            for dm, db in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
                assert line_sse(bins, m + dm, b + db) >= base

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError):
            least_squares_regression_line([0.1] * 9)


def partition(pts, d):
    """The components of pts at radius d, from the labels behind
    component_counts."""
    (labels,) = _component_labels(pts, [d])
    return labels_as_partition(pts, labels)


class TestConnectedComponents:
    def test_single_point(self):
        assert _component_labels([(3.0, 4.0)], [142]).tolist() == [[0]]

    def test_diagonal_within_radius(self):
        assert len(partition([(0, 0), (100, 100)], 142)) == 1

    def test_diagonal_beyond_radius(self):
        assert len(partition([(0, 0), (100, 100)], 141)) == 2

    def test_empty_input(self):
        assert _component_labels([], [142]).shape == (1, 0)

    def test_chain_linking(self):
        # a-b and b-c are close, a-c is not: still one component
        pts = [(0, 0), (140, 0), (280, 0)]
        assert len(partition(pts, 142)) == 1

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        pts = [tuple(p) for p in rng.uniform(0, 1500, size=(120, 2))]
        comps = partition(pts, 283)
        flat = [p for c in comps for p in c]
        assert sorted(flat) == sorted(pts)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 120))
            pts = [tuple(p) for p in rng.uniform(0, 2000, size=(n, 2))]
            for d in MCC_RADII:
                assert partition(pts, d) == as_partition(naive_components(pts, d))

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = [tuple(p) for p in rng.uniform(0, 2000, size=(80, 2))]
            counts = [len(partition(pts, d)) for d in MCC_RADII]
            assert counts == sorted(counts, reverse=True)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            _component_labels([(0, 0)], [0])

    @pytest.mark.parametrize("radius", [float("nan"), 0.0, -1.0])
    def test_rejects_radius_that_is_not_positive(self, radius):
        with pytest.raises(ValueError):
            _component_labels([(0, 0), (1, 1)], [radius])
        with pytest.raises(ValueError):
            component_counts([(0, 0), (1, 1)], [142.0, radius])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_coordinate_that_is_not_finite(self, bad):
        with pytest.raises(ValueError):
            _component_labels([(0, 0), (bad, 1)], [142.0])
        with pytest.raises(ValueError):
            component_counts([(0, 0), (1, bad)], MCC_RADII)

    def test_infinite_radius_links_every_point(self):
        pts = [(0, 0), (10**6, 0), (-5, 3e9)]
        assert _component_labels(pts, [float("inf")]).tolist() == [[0, 0, 0]]
        assert component_counts(pts, [1.0, float("inf")]) == [3, 1]


class TestComponentCounts:
    def test_radii_in_any_order(self):
        pts = [(0, 0), (300, 0), (900, 0), (900, 500)]
        assert component_counts(pts, (708.0, 142.0, 425.0)) == [1, 4, 3]

    def test_pair_exactly_at_a_radius_links(self):
        pts = [(0, 0), (300, 400)]  # 500 px apart
        assert component_counts(pts, (499.0, 500.0, 708.0)) == [2, 1, 1]
        assert len(partition(pts, 500.0)) == 1

    def test_no_points_or_no_radii(self):
        assert component_counts(np.empty((0, 2)), MCC_RADII) == [0] * 5
        assert component_counts([(0, 0)], []) == []

    def test_cell_numbers_beyond_int64(self):
        # 2**53 / 1e-4 cells from the origin: more than int64 holds
        pts = [(0.0, 0.0), (2.0**53, 0.0), (2.0**53, 5e-5), (2.0**53, 2e-4)]
        assert component_counts(pts, [1e-4]) == [3]

    def test_cell_larger_than_a_pair_block(self, monkeypatch):
        # 30 coincident points, so the first one's own-cell segment spans
        # several blocks, plus one point just out of reach at 142 px
        monkeypatch.setattr(features, "PAIR_BLOCK", 8)
        pts = [(5.0, 5.0)] * 30 + [(147.5, 5.0)]
        assert component_counts(pts, (142.0, 283.0)) == [2, 1]


class TestMccProfile:
    def test_single_malignant_patch(self):
        np.testing.assert_array_equal(mcc_profile(slide([0.9])), np.ones(5))

    def test_two_patches_500px_apart(self):
        s = slide([0.9, 0.9], coords=[(0, 0), (500, 0)])
        np.testing.assert_array_equal(mcc_profile(s),
                                      [1.0, 1.0, 1.0, 0.5, 0.5])

    def test_no_malignant_patches(self):
        np.testing.assert_array_equal(mcc_profile(slide([0.2, 0.3])), np.zeros(5))

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        coords = [(int(x), int(y)) for x, y in rng.integers(0, 3000, size=(40, 2))]
        probs = list(rng.uniform(0.5, 1.0, size=40))
        base = mcc_profile(slide(probs, coords))
        shifted = [(x + 7777, y + 123) for x, y in coords]
        np.testing.assert_array_equal(base, mcc_profile(slide(probs, shifted)))

    def test_translation_to_large_coordinates(self):
        # ingest accepts coordinates up to 2**53; cell keys must not
        # overflow there
        rng = np.random.default_rng(9)
        coords = [(int(x) * 50, int(y) * 50) for x, y in rng.integers(0, 40, size=(80, 2))]
        probs = [0.9] * 80
        base = mcc_profile(slide(probs, coords))
        assert len(set(base)) > 1  # the radii disagree: a real check
        shifted = [(x + 2**52, y + 2**52) for x, y in coords]
        np.testing.assert_array_equal(base, mcc_profile(slide(probs, shifted)))


def test_extraction_never_imports_scipy():
    # the package is numpy-only; scipy alone would add tens of MiB of RSS
    # to every extract run
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import slidescreen.cli\n"
        "from slidescreen.features import extract_features\n"
        "from slidescreen.ingest import PATCH_DTYPE\n"
        "patches = np.array([(0, 0, 0.9), (100, 0, 0.8), (900, 0, 0.7)], dtype=PATCH_DTYPE)\n"
        "extract_features(patches)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(slidescreen.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


class TestExtractFeatures:
    def test_empty_slide_is_all_zero(self):
        np.testing.assert_array_equal(extract_features(slide([])), np.zeros(18))

    def test_all_malignant_uniform_slide(self):
        # 3x3 grid of patches, all prob 0.97: mtr 1, all mass in bin 9,
        # one cluster at every radius
        coords = [(100 * c, 100 * r) for r in range(3) for c in range(3)]
        row = extract_features(slide([0.97] * 9, coords))
        assert row[MTR].tolist() == [1.0]
        assert row[MPH][9] == 1.0
        np.testing.assert_array_equal(row[MCC], np.full(5, 1 / 9))
        line = least_squares_regression_line(row[MPH])
        assert tuple(row[LSRL]) == line

    def test_composition_matches_parts(self):
        rng = np.random.default_rng(12)
        coords = [(int(x) * 100, int(y) * 100)
                  for x, y in rng.integers(0, 15, size=(60, 2))]
        probs = list(rng.random(60))
        s = slide(probs, coords)
        row = extract_features(s)
        assert row[MTR].tolist() == [malignant_tissue_ratio(s)]
        np.testing.assert_array_equal(row[MPH], malignant_probability_histogram(s))
        assert tuple(row[LSRL]) == least_squares_regression_line(row[MPH])
        np.testing.assert_array_equal(row[MCC], mcc_profile(s))

    def test_row_width_and_column_slices(self):
        row = extract_features(slide([0.9, 0.1]))
        assert row.shape == (N_FEATURES,) == (18,)
        assert row.dtype == np.float64
        # the slices tile the row in order: MTR, MPH, LSRL, MCC
        assert [(c.start, c.stop) for c in (MTR, MPH, LSRL, MCC)] == \
            [(0, 1), (1, 11), (11, 13), (13, 18)]
        for columns, prefix in ((MTR, "mtr"), (MPH, "mph_"), (LSRL, "lsrl_"),
                                (MCC, "mcc_")):
            assert all(name.startswith(prefix) for name in FEATURE_NAMES[columns])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(44)
        coords = [(int(x), int(y)) for x, y in rng.integers(0, 2000, size=(50, 2))]
        probs = list(rng.random(50))
        s = slide(probs, coords)
        perm = rng.permutation(50)
        np.testing.assert_array_equal(extract_features(s), extract_features(s[perm]))


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    rows = []
    for i in range(4):
        coords = [(int(x) * 100, int(y) * 100)
                  for x, y in rng.integers(0, 10, size=(30, 2))]
        rows.append((f"s{i}", MALIGNANT if i % 2 else NORMAL,
                     extract_features(slide(list(rng.random(30)), coords))))
    path = tmp_path / "features.csv"
    write_features_csv(rows, path)
    loaded = read_features_csv(path)
    assert [(sid, lab) for sid, lab, _ in loaded] == [(sid, lab) for sid, lab, _ in rows]
    for (_, _, row_in), (_, _, row_out) in zip(rows, loaded):
        np.testing.assert_array_equal(row_in, row_out)


def _features_csv(path, rows):
    header = ",".join(["slide_id", "label"] + FEATURE_NAMES)
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_features_csv_non_finite_rejected(tmp_path, cell):
    good = "s1,normal," + ",".join(["0.0"] * 18)
    bad = "s2,malignant," + ",".join(["0.5"] * 5 + [cell] + ["0.5"] * 12)
    with pytest.raises(MalformedRow) as err:
        read_features_csv(_features_csv(tmp_path / "f.csv", [good, bad]))
    assert err.value.line_no == 3


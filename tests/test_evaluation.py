"""Fold assignment, metric formulas, rank AUC and the CV driver."""

import concurrent.futures
import json
import math

import numpy as np
import pytest

from slidescreen import evaluation
from slidescreen.evaluation import (
    ConfusionMatrix,
    LabeledExample,
    MetricSet,
    compute_metrics,
    confusion_matrix,
    cross_validate,
    mean_metrics,
    report_doc,
    roc_auc,
    stratified_kfold,
    write_report,
)
from slidescreen.features import MTR, N_FEATURES
from slidescreen.ingest import MALIGNANT, NORMAL

from oracles import pairwise_auc


def make_items(n_malignant, n_normal):
    return ([(f"m{i}", MALIGNANT) for i in range(n_malignant)]
            + [(f"n{i}", NORMAL) for i in range(n_normal)])


class TestStratifiedKfold:
    def test_paper_sized_dataset(self):
        fa = stratified_kfold(make_items(174, 158), 5, seed=0)
        sizes = sorted((len(f) for f in fa.folds), reverse=True)
        assert sizes == [67, 67, 66, 66, 66]
        for fold in fa.folds:
            n_mal = sum(1 for s in fold if s.startswith("m"))
            assert n_mal in (34, 35)
            assert abs(n_mal - 174 / 5) < 1.0
            assert abs((len(fold) - n_mal) - 158 / 5) < 1.0

    def test_small_two_fold(self):
        fa = stratified_kfold(make_items(3, 3), 2, seed=1)
        for fold in fa.folds:
            n_mal = sum(1 for s in fold if s.startswith("m"))
            assert abs(n_mal - 1.5) < 1.0  # 1 or 2 per fold

    def test_partition_property(self):
        items = make_items(20, 30)
        fa = stratified_kfold(items, 5, seed=3)
        everything = [s for fold in fa.folds for s in fold]
        assert sorted(everything) == sorted(sid for sid, _ in items)
        assert len(set(everything)) == len(everything)

    def test_deterministic_and_seed_sensitive(self):
        items = make_items(20, 20)
        assert stratified_kfold(items, 4, 7) == stratified_kfold(items, 4, 7)
        assert stratified_kfold(items, 4, 7) != stratified_kfold(items, 4, 8)

    def test_too_few_examples(self):
        with pytest.raises(ValueError,
                           match=r"^malignant has 2 slides, need at least 3 \(one per fold\)$"):
            stratified_kfold(make_items(2, 10), 3, seed=0)

    @pytest.mark.parametrize("n_malignant, n_normal, absent", [
        (6, 0, "normal"), (0, 6, "malignant"), (0, 0, "malignant"),
    ], ids=["no-normal", "no-malignant", "no-slides"])
    def test_absent_class_rejected(self, n_malignant, n_normal, absent):
        """A class with no slides fails like one with too few, naming the
        class; malignant is checked first."""
        with pytest.raises(ValueError,
                           match=rf"^{absent} has 0 slides, need at least 3 \(one per fold\)$"):
            stratified_kfold(make_items(n_malignant, n_normal), 3, seed=0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="^unknown label 2$"):
            stratified_kfold(make_items(5, 5) + [("x", 2)], 3, seed=0)

    def test_malignant_dealt_before_normal(self):
        """Malignant ids, in input order, are shuffled and dealt round-robin
        first, then the normal ids from where the pointer stopped, whatever
        the order of the input."""
        items = make_items(4, 5)[::-1]
        rng = np.random.default_rng(11)
        dealt = []
        for label in (MALIGNANT, NORMAL):
            ids = [sid for sid, lab in items if lab == label]
            dealt += [ids[i] for i in rng.permutation(len(ids))]
        assert stratified_kfold(items, 3, seed=11).folds == \
            tuple(tuple(dealt[f::3]) for f in range(3))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(make_items(5, 5), 1, seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold([("a", 0), ("a", 1), ("b", 0), ("b", 1)], 2, 0)


class TestMetrics:
    def test_paper_fold_one_f1(self):
        # precision 89.74, sensitivity 100 -> F1 94.59
        f1 = 2 * 89.74 * 100.0 / (89.74 + 100.0)
        assert f1 == pytest.approx(94.59, abs=0.01)

    def test_perfect_classifier(self):
        m = compute_metrics(ConfusionMatrix(tp=5, tn=5, fp=0, fn=0))
        assert (m.accuracy, m.sensitivity, m.precision, m.f1) == (100, 100, 100, 100)

    def test_hand_counted_matrix(self):
        m = compute_metrics(ConfusionMatrix(tp=3, fn=1, fp=1, tn=5))
        assert (m.accuracy, m.sensitivity, m.precision, m.f1) == (80, 75, 75, 75)

    def test_count_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tp, tn, fp, fn = (int(v) for v in rng.integers(1, 30, size=4))
            base = compute_metrics(ConfusionMatrix(tp, tn, fp, fn))
            scaled = compute_metrics(ConfusionMatrix(7 * tp, 7 * tn, 7 * fp, 7 * fn))
            for field in ("accuracy", "sensitivity", "precision", "f1"):
                assert getattr(base, field) == pytest.approx(
                    getattr(scaled, field), abs=1e-12)

    def test_zero_denominators_are_nan(self):
        no_pos = compute_metrics(ConfusionMatrix(tp=0, tn=4, fp=0, fn=0))
        assert math.isnan(no_pos.sensitivity)
        assert math.isnan(no_pos.precision)
        assert math.isnan(no_pos.f1)
        assert no_pos.accuracy == 100.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="^confusion matrix is empty$"):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_nan_excluded_from_average(self):
        a = MetricSet(90.0, math.nan, 80.0, math.nan, 0.9)
        b = MetricSet(70.0, 50.0, 60.0, math.nan, 0.7)
        avg = mean_metrics([a, b])
        assert avg.accuracy == 80.0
        assert avg.sensitivity == 50.0
        assert avg.precision == 70.0
        assert math.isnan(avg.f1)
        assert avg.auc == pytest.approx(0.8)

    def test_confusion_matrix_builder(self):
        cm = confusion_matrix([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 1, 1)
        assert cm.total == 5


class TestRocAuc:
    def test_enumerated_example(self):
        scores = [0.9, 0.8, 0.7, 0.3]
        labels = [MALIGNANT, NORMAL, MALIGNANT, NORMAL]
        assert roc_auc(scores, labels) == 0.75

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.4] * 6, [1, 1, 1, 0, 0, 0]) == 0.5

    def test_matches_pairwise_enumeration_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            # quantized scores produce plenty of deliberate ties
            scores = rng.integers(0, 6, size=n) / 5.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pairwise_auc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(3 * scores) + 7, labels) == base

    def test_label_reversal_complements(self):
        rng = np.random.default_rng(7)
        scores = rng.random(25)  # continuous: no ties
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[1] = 0, 1
        assert roc_auc(scores, 1 - labels) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="^AUC needs scores from both classes$"):
            roc_auc([0.1, 0.2], [1, 1])


def row_with_mtr(mtr):
    row = np.zeros(N_FEATURES)
    row[MTR] = mtr
    return row


class MtrThresholdClassifier:
    """Deterministic trainless classifier: score = the slide's mtr."""

    def fit(self, X, labels, seed=0):
        return self

    def predict_proba(self, X):
        return X[:, MTR].ravel()


class OverflowingClassifier(MtrThresholdClassifier):
    """Scores every slide with an mtr above 0.5 as inf - inf = NaN, with
    numpy's overflow and invalid-value warnings on the way."""

    def predict_proba(self, X):
        big = np.where(X[:, MTR] > 0.5, 1e308, 0.0) * 10
        return big - big + X[:, MTR]


def mtr_dataset(n_per_class=12):
    rng = np.random.default_rng(11)
    examples = []
    for i in range(n_per_class):
        examples.append(LabeledExample(
            f"m{i}", row_with_mtr(float(rng.uniform(0.6, 0.95))), MALIGNANT))
        examples.append(LabeledExample(
            f"n{i}", row_with_mtr(float(rng.uniform(0.05, 0.4))), NORMAL))
    return examples


class TestCrossValidate:
    def test_every_slide_evaluated_exactly_once(self):
        examples = mtr_dataset()
        report = cross_validate(examples, MtrThresholdClassifier, 4, seed=2)
        evaluated = [s for fold in report.fold_slide_ids for s in fold]
        assert sorted(evaluated) == sorted(e.slide_id for e in examples)
        assert sum(f.confusion.total for f in report.folds) == len(examples)

    def test_separable_scores_ace_every_fold(self):
        report = cross_validate(mtr_dataset(), MtrThresholdClassifier, 4, seed=2)
        for fold in report.folds:
            assert fold.metrics.accuracy == 100.0
            assert fold.metrics.auc == 1.0
        assert report.average.accuracy == 100.0

    def test_deterministic_reports(self):
        a = cross_validate(mtr_dataset(), MtrThresholdClassifier, 3, seed=5)
        b = cross_validate(mtr_dataset(), MtrThresholdClassifier, 3, seed=5)
        assert a == b

    def test_parallel_folds_match_serial(self):
        a = cross_validate(mtr_dataset(), MtrThresholdClassifier, 3, seed=5)
        b = cross_validate(mtr_dataset(), MtrThresholdClassifier, 3, seed=5, jobs=2)
        assert a == b

    def test_pool_never_outnumbers_the_items(self, monkeypatch):
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        # parallel_map imports the pool class when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert evaluation.parallel_map(abs, [-3, 2, -1], jobs=8) == [3, 2, 1]
        assert evaluation.parallel_map(abs, [-5], jobs=8) == [5]
        assert evaluation.parallel_map(abs, [], jobs=8) == []
        assert started == [3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_score_is_pipeline_failure(self, jobs):
        """A NaN score would count as normal and reach the AUC; it fails
        the run instead, naming the classifier and the fold, and numpy's
        warnings stay quiet (tier-1 turns a RuntimeWarning into an error)."""
        with pytest.raises(ValueError, match="^OverflowingClassifier fold 1: non-finite score$"):
            cross_validate(mtr_dataset(), OverflowingClassifier, 3, seed=5, jobs=jobs)

    def test_average_is_mean_of_folds(self):
        report = cross_validate(mtr_dataset(), MtrThresholdClassifier, 4, seed=9)
        assert report.average == mean_metrics([f.metrics for f in report.folds])


def write_cv_report(report, stem):
    """The pair that cv writes: one row per fold plus the average row."""
    rows = [(str(f.fold), f.metrics) for f in report.folds] + [("average", report.average)]
    write_report(stem, "fold", rows, report_doc(report))


class TestReportExport:
    def test_csv_shape(self, tmp_path):
        report = cross_validate(mtr_dataset(), MtrThresholdClassifier, 4, seed=2)
        write_cv_report(report, tmp_path / "report")
        lines = (tmp_path / "report.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "fold,accuracy,sensitivity,precision,f1,auc"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("average,")
        assert lines[1] == "1,100.00,100.00,100.00,100.00,1.00"

    def test_json_has_confusions_and_full_precision(self, tmp_path):
        report = cross_validate(mtr_dataset(), MtrThresholdClassifier, 4, seed=2)
        write_cv_report(report, tmp_path / "report")
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert len(doc["folds"]) == 4
        fold = doc["folds"][0]
        assert set(fold["confusion"]) == {"tp", "tn", "fp", "fn"}
        assert fold["metrics"]["accuracy"] == 100.0
        assert doc["average"]["auc"] == 1.0

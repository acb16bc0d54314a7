"""Stratified cross-validation, confusion-matrix metrics and ROC-AUC.

Metrics are reported in percent (accuracy, sensitivity, precision, F1)
plus AUC in [0, 1], with the malignant class as positive. Zero-denominator
metrics are undefined: they come back as NaN and are excluded from fold
averages rather than silently counted as zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .ingest import LABEL_NAMES, MALIGNANT, NORMAL, replace_file, write_table
from .seeding import derive_seed


@dataclass(frozen=True)
class LabeledExample:
    slide_id: str
    features: np.ndarray  # the slide's (18,) feature row
    label: int


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    sensitivity: float
    precision: float
    f1: float
    auc: float = math.nan


METRIC_NAMES = tuple(f.name for f in fields(MetricSet))


@dataclass(frozen=True)
class FoldAssignment:
    folds: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FoldResult:
    fold: int  # 1-based, matching the report rows
    confusion: ConfusionMatrix
    metrics: MetricSet


@dataclass(frozen=True)
class EvaluationReport:
    folds: tuple[FoldResult, ...]
    average: MetricSet
    fold_slide_ids: tuple[tuple[str, ...], ...]


def stratified_kfold(items: Sequence[tuple[str, int]], k: int,
                     seed: int) -> FoldAssignment:
    """Partition (slide_id, label) pairs into K label-stratified folds.

    Each class, malignant then normal, is shuffled by the seed and dealt
    round-robin; the dealing pointer continues across classes so fold
    sizes stay within one of each other as well. Every class needs at
    least k slides, so every fold holds both classes.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    ids = [sid for sid, _ in items]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate slide ids")
    unknown = {lab for _, lab in items} - set(LABEL_NAMES)
    if unknown:
        raise ValueError(f"unknown label {min(unknown)!r}")
    rng = np.random.default_rng(seed)
    folds: list[list[str]] = [[] for _ in range(k)]
    pointer = 0
    for label in (MALIGNANT, NORMAL):
        members = [sid for sid, lab in items if lab == label]
        if len(members) < k:
            raise ValueError(f"{LABEL_NAMES[label]} has {len(members)} slides, "
                             f"need at least {k} (one per fold)")
        for idx in rng.permutation(len(members)):
            folds[pointer % k].append(members[idx])
            pointer += 1
    return FoldAssignment(tuple(tuple(f) for f in folds))


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    pos = y_true == MALIGNANT
    pred_pos = y_pred == MALIGNANT
    return ConfusionMatrix(
        tp=int(np.count_nonzero(pos & pred_pos)),
        tn=int(np.count_nonzero(~pos & ~pred_pos)),
        fp=int(np.count_nonzero(~pos & pred_pos)),
        fn=int(np.count_nonzero(pos & ~pred_pos)),
    )


def f1_score(precision: float, sensitivity: float) -> float:
    """Harmonic mean of precision and sensitivity (both in percent);
    NaN when either input is undefined or both are zero."""
    if math.isnan(precision) or math.isnan(sensitivity) \
            or precision + sensitivity == 0:
        return math.nan
    return 2.0 * precision * sensitivity / (precision + sensitivity)


def compute_metrics(cm: ConfusionMatrix) -> MetricSet:
    """Accuracy, sensitivity, precision and F1 in percent (AUC left NaN)."""
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    accuracy = 100.0 * (cm.tp + cm.tn) / cm.total
    sensitivity = 100.0 * cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else math.nan
    precision = 100.0 * cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else math.nan
    return MetricSet(accuracy, sensitivity, precision,
                     f1_score(precision, sensitivity))


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based AUC: P(score_pos > score_neg) + 0.5 * P(tie).

    Uses doubled mid-ranks so every intermediate quantity is an integer;
    the result is exactly equal to exhaustive pairwise enumeration.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = labels == MALIGNANT
    n_pos = int(np.count_nonzero(pos))
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs scores from both classes")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    rank2 = np.empty(scores.size, dtype=np.int64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        rank2[order[i:j + 1]] = i + j + 2  # doubled mid-rank of the tie group
        i = j + 1
    u2 = int(rank2[pos].sum()) - n_pos * (n_pos + 1)
    return u2 / (2 * n_pos * n_neg)


def mean_metrics(metric_sets: Sequence[MetricSet]) -> MetricSet:
    """Arithmetic mean per metric, skipping NaN (undefined) entries."""

    def _mean(values):
        defined = [v for v in values if not math.isnan(v)]
        return sum(defined) / len(defined) if defined else math.nan

    return MetricSet(*(_mean([getattr(m, name) for m in metric_sets])
                       for name in METRIC_NAMES))


def parallel_map(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """fn applied to every item, results in input order; in up to jobs
    worker processes, never more than there are items (a forking pool
    starts all its workers at once), so fn and the items must pickle.
    A worker that dies without raising, say from a signal, raises ValueError."""
    workers = min(jobs, len(items))
    if workers > 1:  # serial runs never load the pool
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        except BrokenExecutor as exc:  # a BrokenProcessPool
            raise ValueError(f"a worker process died: {exc}") from None
    return [fn(item) for item in items]


def _run_fold(task):
    factory, X_train, y_train, X_test, fold_seed, fold = task
    clf = factory()
    clf.fit(X_train, y_train, seed=fold_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.asarray(clf.predict_proba(X_test), dtype=float)
    if not np.isfinite(scores).all():  # a NaN would count as normal and reach the AUC
        raise ValueError(f"{type(clf).__name__} fold {fold}: non-finite score")
    return scores


def cross_validate_each(examples: Sequence[LabeledExample],
                        factories: Mapping[str, Callable[[], object]],
                        k: int, seed: int, jobs: int = 1) -> dict[str, EvaluationReport]:
    """cross_validate of every factory under one fold assignment, keyed
    like factories. All (factory, fold) tasks, in factory order then fold
    order, share one pool of up to jobs workers."""
    assignment = stratified_kfold([(e.slide_id, e.label) for e in examples],
                                  k, seed)
    X = np.array([e.features for e in examples], dtype=float)
    y = np.array([e.label for e in examples], dtype=int)
    row_of = {e.slide_id: i for i, e in enumerate(examples)}
    splits, fold_labels = [], []
    for i, fold_ids in enumerate(assignment.folds):
        train = np.array([row_of[s] for j, fold in enumerate(assignment.folds)
                          if j != i for s in fold], dtype=int)
        test = np.array([row_of[s] for s in fold_ids], dtype=int)
        splits.append((X[train], y[train], X[test], derive_seed(seed, f"fold-{i}"),
                       i + 1))
        fold_labels.append(y[test])
    tasks = [(factory, *split) for factory in factories.values() for split in splits]
    scores = iter(parallel_map(_run_fold, tasks, jobs))
    reports = {}
    for name in factories:
        folds = []
        for i, y_true in enumerate(fold_labels):
            fold_scores = next(scores)
            y_pred = np.where(fold_scores >= 0.5, MALIGNANT, NORMAL)
            cm = confusion_matrix(y_true, y_pred)
            metrics = replace(compute_metrics(cm), auc=roc_auc(fold_scores, y_true))
            folds.append(FoldResult(i + 1, cm, metrics))
        average = mean_metrics([f.metrics for f in folds])
        reports[name] = EvaluationReport(tuple(folds), average, assignment.folds)
    return reports


def cross_validate(examples: Sequence[LabeledExample],
                   factory: Callable[[], object],
                   k: int, seed: int, jobs: int = 1) -> EvaluationReport:
    """Train on K-1 folds, score the held-out fold, repeat for every fold.

    The factory builds a fresh classifier per fold; each fold trains with
    its own seed derived from the master seed, so results are identical
    whether folds run serially or in parallel.
    """
    return cross_validate_each(examples, {"": factory}, k, seed, jobs)[""]


def write_metrics_csv(key: str, rows: Sequence[tuple[str, MetricSet]],
                      path) -> None:
    """Two-decimal CSV: a header of key and the metric names, then one row
    per (name, metrics) pair; an undefined metric is an empty cell."""
    cells = [[name] + ["" if math.isnan(v) else f"{v:.2f}" for v in astuple(m)]
             for name, m in rows]
    write_table(path, (key,) + METRIC_NAMES,
                list(zip(*cells)) or [()] * (1 + len(METRIC_NAMES)))


def write_report_csv(report: EvaluationReport, path) -> None:
    """One row per fold plus the average row."""
    write_metrics_csv("fold", [(str(fold.fold), fold.metrics) for fold in report.folds]
                      + [("average", report.average)], path)


def _metrics_doc(m: MetricSet) -> dict:
    return {name: (None if math.isnan(value) else value)
            for name, value in asdict(m).items()}


def report_doc(report: EvaluationReport) -> dict:
    return {
        "folds": [
            {
                "fold": fold.fold,
                "confusion": {"tp": fold.confusion.tp, "tn": fold.confusion.tn,
                              "fp": fold.confusion.fp, "fn": fold.confusion.fn},
                "metrics": _metrics_doc(fold.metrics),
                "slide_ids": list(report.fold_slide_ids[fold.fold - 1]),
            }
            for fold in report.folds
        ],
        "average": _metrics_doc(report.average),
    }


def write_json(doc, path) -> None:
    """Indented JSON with sorted keys and a final newline."""
    replace_file(path, [json.dumps(doc, indent=1, sort_keys=True), "\n"])


def write_report_json(report: EvaluationReport, path) -> None:
    """Full-precision JSON report including the confusion matrices."""
    write_json(report_doc(report), path)

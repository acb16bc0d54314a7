"""The five classifier kinds, and the comparison of all of them under
identical folds.

Every kind takes the (n, 18) feature matrix and has the same
fit/predict_proba surface, so it plugs into cross_validate unchanged.
The two neural kinds, the wide-and-deep model and the ANN, are netcore's
one network classifier, each with its own spec and input routing. The
baselines' hyperparameters follow common defaults and are constructor
arguments:

  KNN  k=5, Euclidean distance, distance ties broken by smaller training
       index, vote ties resolved to malignant
  SVM  linear, hinge loss via the Pegasos stochastic subgradient method,
       lambda=1e-4, 20 epochs, unregularized bias; probability via
       logistic squashing of the margin
  RF   100 trees, Gini impurity, bootstrap sampling, 4 features per
       split, grown to purity; probability = fraction of malignant votes
  ANN  two hidden layers of 300 ReLU on the whole 18-wide row, trained by
       the same engine and config as the wide-and-deep model
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evaluation import (
    EvaluationReport,
    LabeledExample,
    cross_validate,
    report_doc,
    write_json,
    write_metrics_csv,
)
from .features import N_FEATURES
from .ingest import MALIGNANT, NORMAL
from .netcore import (
    BranchSpec,
    GraphSpec,
    NetClassifier,
    NotFitted,  # re-exported: every classifier kind raises it before fit
    TrainConfig,
    require_both_classes,
)
from .widedeep import WideDeepClassifier


class KnnClassifier:
    """k-nearest neighbors; fitting memorizes the training set verbatim."""

    def __init__(self, k: int = 5):
        self.k = k
        self.X: np.ndarray | None = None
        self.y: np.ndarray | None = None

    def fit(self, X, labels: Sequence[int], seed: int = 0):
        if len(X) == 0:
            raise ValueError("KNN needs at least one training example")
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(labels, dtype=int)
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.X is None:
            raise NotFitted("KNN queried before fit")
        Q = np.asarray(X, dtype=float)
        k = min(self.k, self.X.shape[0])
        out = np.empty(Q.shape[0])
        for i, q in enumerate(Q):
            d2 = ((self.X - q) ** 2).sum(axis=1)
            # stable sort keeps the smaller training index on distance ties
            nearest = np.argsort(d2, kind="stable")[:k]
            out[i] = np.count_nonzero(self.y[nearest] == MALIGNANT) / k
        return out


class LinearSvmClassifier:
    """Linear SVM trained with the Pegasos stochastic subgradient method."""

    def __init__(self, lam: float = 1e-4, epochs: int = 20):
        self.lam = lam
        self.epochs = epochs
        self.w: np.ndarray | None = None
        self.b = 0.0

    def fit(self, X, labels: Sequence[int], seed: int = 0):
        labels = np.asarray(labels, dtype=int)
        require_both_classes(labels)
        X = np.asarray(X, dtype=float)
        y = np.where(labels == MALIGNANT, 1.0, -1.0)
        rng = np.random.default_rng(seed)
        w = np.zeros(X.shape[1])
        b = 0.0
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(X.shape[0]):
                t += 1
                eta = 1.0 / (self.lam * t)
                if y[i] * (X[i] @ w + b) < 1.0:
                    w = (1.0 - eta * self.lam) * w + eta * y[i] * X[i]
                    b += eta * y[i]  # bias stays unregularized
                else:
                    w = (1.0 - eta * self.lam) * w
        self.w, self.b = w, b
        return self

    def margin(self, X) -> np.ndarray:
        if self.w is None:
            raise NotFitted("SVM queried before fit")
        return np.asarray(X, dtype=float) @ self.w + self.b

    def predict_proba(self, X) -> np.ndarray:
        m = self.margin(X)
        # overflow-safe logistic squashing of the signed margin
        out = np.empty_like(m)
        pos = m >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
        e = np.exp(m[~pos])
        out[~pos] = e / (1.0 + e)
        return out


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    vote: int = NORMAL


def _gini(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    p = np.count_nonzero(y == MALIGNANT) / y.size
    return 2.0 * p * (1.0 - p)


def _majority(y: np.ndarray) -> int:
    n_mal = np.count_nonzero(y == MALIGNANT)
    # vote ties go to malignant, matching the screening tie rule
    return MALIGNANT if 2 * n_mal >= y.size else NORMAL


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
               n_split_features: int) -> _TreeNode:
    node_gini = _gini(y)
    if node_gini == 0.0:
        return _TreeNode(vote=int(y[0]) if y.size else NORMAL)
    features = rng.choice(X.shape[1], size=n_split_features, replace=False)
    best = None  # (weighted_gini, feature, threshold)
    for f in features:
        values = np.unique(X[:, f])
        if values.size < 2:
            continue
        for thr in (values[:-1] + values[1:]) / 2.0:
            left = X[:, f] < thr
            wg = (np.count_nonzero(left) * _gini(y[left])
                  + np.count_nonzero(~left) * _gini(y[~left])) / y.size
            if best is None or wg < best[0]:
                best = (wg, int(f), float(thr))
    if best is None or best[0] >= node_gini:
        # impure but unsplittable on the sampled features
        return _TreeNode(vote=_majority(y))
    _, f, thr = best
    left = X[:, f] < thr
    node = _TreeNode(feature=f, threshold=thr)
    node.left = _grow_tree(X[left], y[left], rng, n_split_features)
    node.right = _grow_tree(X[~left], y[~left], rng, n_split_features)
    return node


def _tree_vote(node: _TreeNode, x: np.ndarray) -> int:
    while node.left is not None:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.vote


class RandomForestClassifier:
    """Bagged Gini decision trees grown to purity.

    Each tree gets its own generator derived from the fit seed by tree
    index, so the forest is identical no matter how trees are scheduled.
    """

    def __init__(self, n_trees: int = 100, n_split_features: int = 4):
        self.n_trees = n_trees
        self.n_split_features = n_split_features
        self.trees: list[_TreeNode] | None = None

    def fit(self, X, labels: Sequence[int], seed: int = 0):
        labels = np.asarray(labels, dtype=int)
        require_both_classes(labels)
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        m = min(self.n_split_features, X.shape[1])
        self.trees = []
        for i in range(self.n_trees):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            boot = rng.integers(0, n, size=n)
            self.trees.append(_grow_tree(X[boot], labels[boot], rng, m))
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.trees is None:
            raise NotFitted("random forest queried before fit")
        votes = np.array(
            [[_tree_vote(tree, x) for tree in self.trees] for x in X], dtype=float
        )
        return votes.mean(axis=1)


def _whole_row(X) -> dict[str, np.ndarray]:
    return {"features": X}


class AnnClassifier(NetClassifier):
    """Plain feed-forward network on the whole 18-wide feature row."""

    def __init__(self, config: TrainConfig, hidden: tuple[int, ...] = (300, 300)):
        spec = GraphSpec(branches=(BranchSpec("features", N_FEATURES),),
                         head_hidden=tuple(hidden))
        super().__init__(config, spec, _whole_row)


CLASSIFIER_KINDS = ("widedeep", "ann", "svm", "rf", "knn")


def make_classifier(kind: str, config: TrainConfig):
    if kind == "widedeep":
        return WideDeepClassifier(config)
    if kind == "ann":
        return AnnClassifier(config)
    if kind == "svm":
        return LinearSvmClassifier()
    if kind == "rf":
        return RandomForestClassifier()
    if kind == "knn":
        return KnnClassifier()
    raise ValueError(f"unknown classifier kind {kind!r}")


def classifier_factory(kind: str, config: TrainConfig) -> Callable[[], object]:
    """A picklable zero-argument factory of fresh `kind` classifiers, for
    process-parallel folds."""
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return functools.partial(make_classifier, kind, config)


def run_comparison(examples: Sequence[LabeledExample], k: int, seed: int,
                   config: TrainConfig,
                   kinds: Sequence[str] = CLASSIFIER_KINDS,
                   jobs: int = 1) -> dict[str, EvaluationReport]:
    """Cross-validate every classifier under the identical fold assignment
    (same dataset, K and seed); returns reports keyed by classifier kind."""
    return {
        kind: cross_validate(examples, classifier_factory(kind, config),
                             k, seed, jobs=jobs)
        for kind in kinds
    }


def write_comparison_csv(reports: dict[str, EvaluationReport], path) -> None:
    """One row per classifier with its fold-averaged metrics."""
    write_metrics_csv("model", [(kind, report.average)
                                for kind, report in reports.items()], path)


def write_comparison_json(reports: dict[str, EvaluationReport], path) -> None:
    write_json({kind: report_doc(report) for kind, report in reports.items()}, path)

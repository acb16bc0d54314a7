"""The five classifier kinds, which `compare` cross-validates under
identical folds.

Every kind takes the (n, 18) feature matrix and has the same
fit/predict_proba surface, so it plugs into cross_validate_each unchanged.
The two neural kinds, the wide-and-deep model and the ANN, are netcore's
one network classifier, each with its own spec and input routing. The
baselines' hyperparameters follow common defaults, each a module
constant that no caller sets:

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

from .features import N_FEATURES
from .ingest import MALIGNANT, NORMAL
from .netcore import (
    BranchSpec,
    GraphSpec,
    NetClassifier,
    TrainConfig,
    require_both_classes,
)
from .widedeep import HIDDEN_WIDTH, WideDeepClassifier

KNN_NEIGHBOURS = 5
SVM_LAMBDA = 1e-4  # Pegasos regularization strength
SVM_EPOCHS = 20
RF_TREES = 100
RF_SPLIT_FEATURES = 4  # features drawn as candidates at each split
ANN_SPEC = GraphSpec(branches=(BranchSpec("features", N_FEATURES),),
                     head_hidden=(HIDDEN_WIDTH, HIDDEN_WIDTH))  # the wide-and-deep width


class KnnClassifier:
    """k-nearest neighbors; fitting memorizes the training set verbatim."""

    X: np.ndarray | None = None
    y: np.ndarray | None = None

    def fit(self, X, labels: Sequence[int], seed: int = 0):
        if len(X) == 0:
            raise ValueError("KNN needs at least one training example")
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(labels, dtype=int)
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.X is None:
            raise ValueError("KNN queried before fit")
        Q = np.asarray(X, dtype=float)
        k = min(KNN_NEIGHBOURS, self.X.shape[0])
        out = np.empty(Q.shape[0])
        for i, q in enumerate(Q):
            d2 = ((self.X - q) ** 2).sum(axis=1)
            # stable sort keeps the smaller training index on distance ties
            nearest = np.argsort(d2, kind="stable")[:k]
            out[i] = np.count_nonzero(self.y[nearest] == MALIGNANT) / k
        return out


class LinearSvmClassifier:
    """Linear SVM trained with the Pegasos stochastic subgradient method."""

    def __init__(self):
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
        for _ in range(SVM_EPOCHS):
            for i in rng.permutation(X.shape[0]):
                t += 1
                eta = 1.0 / (SVM_LAMBDA * t)
                if y[i] * (X[i] @ w + b) < 1.0:
                    w = (1.0 - eta * SVM_LAMBDA) * w + eta * y[i] * X[i]
                    b += eta * y[i]  # bias stays unregularized
                else:
                    w = (1.0 - eta * SVM_LAMBDA) * w
        self.w, self.b = w, b
        return self

    def margin(self, X) -> np.ndarray:
        if self.w is None:
            raise ValueError("SVM queried before fit")
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


def _gini(n_mal: int, n: int) -> float:
    """Gini impurity of n labels of which n_mal are malignant."""
    if n == 0:
        return 0.0
    p = n_mal / n
    return 2.0 * p * (1.0 - p)


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
               n_split_features: int) -> _TreeNode:
    """Grow a tree to purity. A node splits at the midpoint between two
    adjacent distinct values of a sampled feature (rows with x < midpoint
    go left) with the lowest weighted Gini impurity, the first in feature
    draw order, then threshold order, on a tie; it stays a leaf when no
    split lowers the node's impurity. All midpoints of all sampled
    features are scored at once, with _gini's float operations."""
    n = y.size
    malignant = y == MALIGNANT
    n_mal_node = np.count_nonzero(malignant)
    node_gini = _gini(n_mal_node, n)
    if node_gini == 0.0:
        return _TreeNode(vote=int(y[0]) if n else NORMAL)
    features = rng.choice(X.shape[1], size=n_split_features, replace=False)
    # column j: sampled feature j sorted; row i: the midpoint after row i
    order = np.argsort(X[:, features], axis=0, kind="stable")
    values = X[order, features]
    n_mal = np.cumsum(malignant[order], axis=0)
    low, high = values[:-1], values[1:]
    distinct = low != high
    with np.errstate(over="ignore"):
        thresholds = (low + high) / 2.0
    n_left = np.arange(1, n)[:, None]
    mal_left = n_mal[:-1]
    n_right = n - n_left
    mal_right = n_mal[-1] - mal_left
    p_left = mal_left / n_left
    p_right = mal_right / n_right
    weighted = (n_left * (2.0 * p_left * (1.0 - p_left))
                + n_right * (2.0 * p_right * (1.0 - p_right))) / n
    weighted = np.where(distinct, weighted, np.inf)
    # x < midpoint holds for the rows up to the lower value, unless the
    # midpoint of two adjacent doubles rounded down onto it (or the sum
    # overflowed): count those rows exactly
    for i, j in zip(*np.nonzero(distinct & ((thresholds <= low) | (thresholds > high)))):
        left = int(np.searchsorted(values[:, j], thresholds[i, j], side="left"))
        mal = int(n_mal[left - 1, j]) if left else 0
        weighted[i, j] = (left * _gini(mal, left)
                          + (n - left) * _gini(int(n_mal[-1, j]) - mal, n - left)) / n
    best = int(np.argmin(weighted.T))  # the first minimum in feature, then threshold order
    j, i = divmod(best, n - 1)
    if not weighted[i, j] < node_gini:
        # impure but unsplittable on the sampled features: the majority
        # votes, and ties go to malignant, matching the screening tie rule
        return _TreeNode(vote=MALIGNANT if 2 * n_mal_node >= n else NORMAL)
    feature, threshold = int(features[j]), float(thresholds[i, j])
    left = X[:, feature] < threshold
    node = _TreeNode(feature=feature, threshold=threshold)
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

    trees: list[_TreeNode] | None = None

    def fit(self, X, labels: Sequence[int], seed: int = 0):
        labels = np.asarray(labels, dtype=int)
        require_both_classes(labels)
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        m = min(RF_SPLIT_FEATURES, X.shape[1])
        self.trees = []
        for i in range(RF_TREES):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            boot = rng.integers(0, n, size=n)
            self.trees.append(_grow_tree(X[boot], labels[boot], rng, m))
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.trees is None:
            raise ValueError("random forest queried before fit")
        votes = np.array(
            [[_tree_vote(tree, x) for tree in self.trees] for x in X], dtype=float
        )
        return votes.mean(axis=1)


def _whole_row(X) -> dict[str, np.ndarray]:
    return {"features": X}


class AnnClassifier(NetClassifier):
    """Plain feed-forward network on the whole 18-wide feature row."""

    def __init__(self, config: TrainConfig):
        super().__init__(config, ANN_SPEC, _whole_row)


# kind -> class, in compare's default row order
CLASSIFIERS = {
    "widedeep": WideDeepClassifier,
    "ann": AnnClassifier,
    "svm": LinearSvmClassifier,
    "rf": RandomForestClassifier,
    "knn": KnnClassifier,
}
CLASSIFIER_KINDS = tuple(CLASSIFIERS)


def classifier_factory(kind: str, config: TrainConfig) -> Callable[[], object]:
    """A picklable zero-argument factory of fresh `kind` classifiers, for
    process-parallel folds."""
    if kind not in CLASSIFIERS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    cls = CLASSIFIERS[kind]
    return functools.partial(cls, config) if issubclass(cls, NetClassifier) else cls

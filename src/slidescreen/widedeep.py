"""The wide-and-deep slide classifier over (n, 18) feature matrices.

Three deep branches (histogram 10-wide, regression line 2-wide,
component profile 5-wide) and the wide branch, the raw 1-wide malignant
tissue ratio, concatenated (width 901) into a head and a 2-way softmax.
Each deep branch and the head have two hidden layers of the paper's
HIDDEN_WIDTH = 300 ReLU units. Each network input is a column slice of
the matrix. WideDeepClassifier is netcore's one network classifier with
this spec and that routing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .features import LSRL, MCC, MPH, MTR, N_FEATURES
from .ingest import MALIGNANT, NORMAL
from .netcore import (
    BranchSpec,
    GraphSpec,
    NetClassifier,
    NetworkGraph,
    TrainConfig,
    forward,
    init_network,
)

WIDEDEEP_TAG = "widedeep-v1"

INPUT_MPH = "mph"
INPUT_LSRL = "lsrl"
INPUT_MCC = "mcc"
INPUT_MTR = "mtr"

# network input -> its column slice of the feature matrix
INPUT_COLUMNS = {INPUT_MPH: MPH, INPUT_LSRL: LSRL, INPUT_MCC: MCC, INPUT_MTR: MTR}

HIDDEN_WIDTH = 300  # units in every hidden layer, branches and head


def _width(name: str) -> int:
    return INPUT_COLUMNS[name].stop - INPUT_COLUMNS[name].start


def widedeep_spec() -> GraphSpec:
    return GraphSpec(
        branches=tuple(BranchSpec(name, _width(name), (HIDDEN_WIDTH, HIDDEN_WIDTH))
                       for name in (INPUT_MPH, INPUT_LSRL, INPUT_MCC))
        + (BranchSpec(INPUT_MTR, _width(INPUT_MTR)),),
        head_hidden=(HIDDEN_WIDTH, HIDDEN_WIDTH),
    )


def build_widedeep(seed: int) -> NetworkGraph:
    return init_network(widedeep_spec(), seed)


def features_to_inputs(features) -> dict[str, np.ndarray]:
    """Route the column slices of an (n, 18) feature matrix (or a
    sequence of 18-wide rows) to the named network inputs."""
    X = np.asarray(features, dtype=float).reshape(-1, N_FEATURES)
    return {name: np.ascontiguousarray(X[:, columns])
            for name, columns in INPUT_COLUMNS.items()}


def predict_proba(net: NetworkGraph, features) -> np.ndarray:
    """p(malignant) per slide."""
    return forward(net, features_to_inputs(features))[:, MALIGNANT]


def predict_slide(net: NetworkGraph, row: np.ndarray) -> tuple[int, float]:
    """Label and p(malignant) of one feature row; a tie at 0.5 resolves
    to malignant."""
    p = float(predict_proba(net, row)[0])
    return (MALIGNANT if p >= 0.5 else NORMAL), p


class WideDeepClassifier(NetClassifier):
    """The wide-and-deep network as a fit/predict_proba classifier."""

    def __init__(self, config: TrainConfig):
        super().__init__(config, widedeep_spec(), features_to_inputs)


def train_widedeep(features, labels: Sequence[int], config: TrainConfig) -> NetworkGraph:
    return WideDeepClassifier(config).fit(features, labels, config.seed).net

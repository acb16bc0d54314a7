"""Property tests: fast paths against the oracles in oracles.py on inputs
drawn by hypothesis. Example counts stay small so the suite stays quick;
the fixed-seed sweeps in the other modules cover volume."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slidescreen.evaluation import roc_auc
from slidescreen.features import (
    MCC_RADII,
    N_BINS,
    component_counts,
    connected_components,
    least_squares_regression_line,
)

from oracles import as_partition, grid_refine_line, naive_components, pairwise_auc

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# Integer coordinates and radii keep every distance comparison exact, so
# the squared-distance test of the fast path and math.dist of the oracle
# cannot disagree by rounding.
points = st.lists(st.tuples(st.integers(0, 1500), st.integers(0, 1500)), max_size=60)


@PROPERTY_SETTINGS
@given(points, st.integers(1, 800))
def test_components_partition_matches_naive_oracle(pts, d):
    assert as_partition(connected_components(pts, float(d))) == \
        as_partition(naive_components(pts, float(d)))


# Multiples of 50 px, duplicates allowed, put pair lengths close to every
# radius and on both sides of it: 500 px between 425 and 566, 100*sqrt(2)
# just under 142, 150 px just over.
grid_points = st.lists(st.tuples(st.integers(0, 30).map(lambda v: 50 * v),
                                 st.integers(0, 30).map(lambda v: 50 * v)), max_size=80)


@PROPERTY_SETTINGS
@given(grid_points)
def test_component_counts_match_naive_oracle_at_every_radius(pts):
    assert component_counts(pts, MCC_RADII) == \
        [len(naive_components(pts, r)) for r in MCC_RADII]


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]),
                          st.integers(0, 1)), min_size=2, max_size=40))
def test_auc_matches_pairwise_enumeration(scored):
    scores, labels = zip(*scored)
    assume(0 < sum(labels) < len(labels))
    assert roc_auc(scores, labels) == pairwise_auc(scores, labels)


@PROPERTY_SETTINGS
@given(st.lists(st.floats(0.0, 1.0), min_size=N_BINS, max_size=N_BINS))
def test_regression_line_matches_grid_oracle(bins):
    m, b = least_squares_regression_line(bins)
    # the grid search resolves (m, b) to ~1e-8 (see test_features)
    om, ob = grid_refine_line(bins)
    assert m == pytest.approx(om, abs=1e-7)
    assert b == pytest.approx(ob, abs=1e-7)
    # and the closed form through the centered abscissa
    xs = np.arange(N_BINS) - (N_BINS - 1) / 2
    ys = np.asarray(bins)
    assert m == pytest.approx(float(xs @ (ys - ys.mean()) / (xs @ xs)), abs=1e-12)


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
from slidescreen.ingest import (
    MalformedRow,
    ProbabilityOutOfRange,
    _load_patches_rows,
    load_patches,
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


# Patch files: plain rows with a few odd lines put among them. An odd line
# holds a cell or a layout where numpy's C reader and Python's int/float
# (after CSV unquoting) might disagree; the plain rows around it let the
# fast reader take the file whole when that one line passes.
ODD_COORDINATES = [
    str(2**53 - 1), str(2**53), str(2**53 + 1), str(2**63 - 1), str(2**63),
    str(10**20), "-1", "-0", "+7", " 7 ", "7\t", "1_000", '"5"', "1.0", "1e3",
    "0x10", "#1", "", " ", "nan", "\uff15",
]
ODD_PROBABILITIES = [
    "nan", "-nan", "inf", "-inf", "1e400", "1e-400", "-0.0", "+0.5", " 0.5 ",
    "0.2_5", '"0.5"', "1.5", "-0.1", ".5", "5e-1", "", "0x1p-1", "0.5,",
]
ODD_LINES = (
    [f"{c},3,0.5" for c in ODD_COORDINATES] + [f"3,{c},0.5" for c in ODD_COORDINATES]
    + [f"3,3,{p}" for p in ODD_PROBABILITIES]
    + ["", "  ", "\t", "# note", "#1,2,0.5", "1,2", "1,2,0.5,", "1,2,0.5,0.5", "\r"]
)
plain_rows = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                       st.floats(0.0, 1.0)).map(lambda r: f"{r[0]},{r[1]},{r[2]!r}")
odd_lines = st.sampled_from(ODD_LINES) | st.tuples(
    st.sampled_from(ODD_COORDINATES), st.sampled_from(ODD_COORDINATES),
    st.sampled_from(ODD_PROBABILITIES)).map(",".join)


def patch_file_outcomes(path, lines, eol, final_eol=True):
    """What load_patches and the row parser each make of one patch file:
    the array bytes, or the error's class, message and line number."""
    text = eol.join(["x,y,prob_malignant"] + lines) + (eol if final_eol else "")
    path.write_bytes(text.encode("utf-8"))

    def outcome(load):
        try:
            return load(path).tobytes()
        except (MalformedRow, ProbabilityOutOfRange) as exc:
            return type(exc), str(exc), exc.line_no

    return outcome(load_patches), outcome(_load_patches_rows)


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("line", ODD_LINES)
def test_each_odd_line_matches_row_parser(tmp_path, line, eol):
    fast, rows = patch_file_outcomes(tmp_path / "slide.csv",
                                     ["1,2,0.25", line, "4,5,0.75"], eol)
    assert fast == rows


@settings(max_examples=200, deadline=None)
@given(st.lists(plain_rows, max_size=10),
       st.lists(st.tuples(st.integers(0, 10), odd_lines), max_size=3),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_patch_reader_matches_row_parser(tmp_path_factory, lines, odd, eol, final_eol):
    for position, line in odd:
        lines.insert(position, line)
    fast, rows = patch_file_outcomes(tmp_path_factory.mktemp("patches") / "slide.csv",
                                     lines, eol, final_eol)
    assert fast == rows

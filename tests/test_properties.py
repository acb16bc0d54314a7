"""Property tests: fast paths against the oracles in oracles.py on inputs
drawn by hypothesis. Example counts stay small so the suite stays quick;
the fixed-seed sweeps in the other modules cover volume."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slidescreen import cli
from slidescreen.baselines import _grow_tree
from slidescreen.evaluation import roc_auc
from slidescreen.features import (
    MCC_RADII,
    N_BINS,
    N_FEATURES,
    _component_labels,
    component_counts,
    least_squares_regression_line,
    read_features_csv,
    write_features_csv,
)
from slidescreen.ingest import (
    MALIGNANT,
    NORMAL,
    MalformedRow,
    _load_patches_rows,
    load_manifest,
    load_patches,
    write_manifest,
    write_table,
)

from oracles import (
    as_partition,
    csv_writer_table,
    grid_refine_line,
    labels_as_partition,
    naive_components,
    naive_grow_tree,
    pairwise_auc,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# Integer coordinates and radii keep every distance comparison exact, so
# the squared-distance test of the fast path and math.dist of the oracle
# cannot disagree by rounding.
points = st.lists(st.tuples(st.integers(0, 1500), st.integers(0, 1500)), max_size=60)


@PROPERTY_SETTINGS
@given(points, st.integers(1, 800))
def test_components_partition_matches_naive_oracle(pts, d):
    (labels,) = _component_labels(pts, [float(d)])
    assert labels_as_partition(pts, labels) == as_partition(naive_components(pts, float(d)))


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


# Feature values for tree growing: runs of adjacent doubles, whose
# midpoint rounds onto the lower one, signed zeros, subnormals and the
# smallest normal among ordinary values; drawn from a short list, so ties
# are heavy. Any float up to 1e300 (subnormals included) joins them; no
# pair sum overflows.
ADJACENT = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
            np.nextafter(np.nextafter(1.0, 2.0), 2.0)]
TREE_VALUES = ADJACENT + [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                          -0.5, 2.0, 1e300, -1e300]
tree_value = st.sampled_from(TREE_VALUES) | st.floats(-1e300, 1e300)


def tree_shape(node):
    """A _TreeNode as the oracle's nested tuples."""
    if node.left is None:
        return ("leaf", node.vote)
    return (node.feature, node.threshold.hex(), tree_shape(node.left),
            tree_shape(node.right))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 24), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_tree_matches_naive_grower(data, n, d, seed):
    X = np.array(data.draw(st.lists(st.lists(tree_value, min_size=d, max_size=d),
                                    min_size=n, max_size=n)), dtype=float).reshape(n, d)
    for column in data.draw(st.sets(st.integers(0, d - 1))):
        X[:, column] = X[0, column]  # constant columns
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    m = data.draw(st.integers(1, d))
    fast_rng, naive_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert tree_shape(_grow_tree(X, y, fast_rng, m)) == \
        naive_grow_tree(X, y, naive_rng, m, positive=MALIGNANT, negative=NORMAL)
    assert fast_rng.bit_generator.state == naive_rng.bit_generator.state


@pytest.mark.parametrize("low", [1.0, 5e-324, -1.0, 0.0])
def test_two_row_split_between_adjacent_doubles(low):
    """The midpoint of two adjacent doubles rounds onto one of them, so
    x < midpoint may hold for neither row; the fast grower counts it."""
    for rows in ([[low], [np.nextafter(low, 2.0)]],
                 [[low], [low], [np.nextafter(low, 2.0)], [np.nextafter(low, 2.0)]]):
        X = np.array(rows)
        for y in ([NORMAL] * (len(X) // 2) + [MALIGNANT] * (len(X) // 2),
                  [MALIGNANT] * (len(X) // 2) + [NORMAL] * (len(X) // 2)):
            y = np.array(y)
            fast_rng, naive_rng = np.random.default_rng(0), np.random.default_rng(0)
            assert tree_shape(_grow_tree(X, y, fast_rng, 1)) == \
                naive_grow_tree(X, y, naive_rng, 1, positive=MALIGNANT, negative=NORMAL)


# Patch files: plain rows with a few odd lines put among them. An odd line
# holds a cell or a layout where numpy's C reader and Python's int/float
# (after CSV unquoting) might disagree; the plain rows around it let the
# fast reader take the file whole when that one line passes.
ODD_COORDINATES = [
    str(2**53 - 1), str(2**53), str(2**53 + 1), str(2**63 - 1), str(2**63),
    str(10**20), "-1", "-0", "+7", " 7 ", "7\t", "1_000", '"5"', "1.0", "1e3",
    "0x10", "#1", "", " ", "nan", "\uff15",
    # past csv's field size limit, and past int()'s digit limit, after a valid row
    " " * 200_000 + "1", "0" * 5000 + "1",
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
        except MalformedRow as exc:
            return type(exc), str(exc), exc.line_no

    return outcome(load_patches), outcome(_load_patches_rows)


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("line", ODD_LINES,
                         ids=lambda line: f"{line[:2]}...{line[-6:]}" if len(line) > 99 else None)
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


# Slide ids stripped and non-empty, as the readers give them back, with
# the characters CSV must quote and the carriage return it cannot.
slide_ids = st.text(st.characters(blacklist_categories=("Cs",))
                    | st.sampled_from([",", '"', "\n", "\r", " "]), min_size=1, max_size=12
                    ).filter(lambda s: s and s == s.strip())
slide_tables = st.lists(st.tuples(slide_ids, st.sampled_from([MALIGNANT, NORMAL])),
                        max_size=8, unique_by=lambda r: r[0])


@PROPERTY_SETTINGS
@given(slide_tables, st.data())
def test_tables_round_trip(tmp_path_factory, table, data):
    """write_features_csv then read_features_csv gives back the ids, labels
    and bit-equal float64 rows; write_manifest then load_manifest the ids
    and labels. An id holding a carriage return is refused before either
    file is opened."""
    tmp = tmp_path_factory.mktemp("tables")
    rows = [(sid, label, np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=N_FEATURES, max_size=N_FEATURES))))
            for sid, label in table]
    if any("\r" in sid for sid, _ in table):
        with pytest.raises(ValueError, match="holds a carriage return"):
            write_features_csv(rows, tmp / "features.csv")
        with pytest.raises(ValueError, match="holds a carriage return"):
            write_manifest([(sid, label, "a.csv") for sid, label in table], tmp / "manifest.csv")
        assert not any(tmp.iterdir())
        return
    write_features_csv(rows, tmp / "features.csv")
    back = read_features_csv(tmp / "features.csv")
    assert [(sid, label) for sid, label, _ in back] == table
    for (_, _, want), (_, _, got) in zip(rows, back):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    (tmp / "a.csv").write_text("x,y,prob_malignant\n", encoding="utf-8")
    write_manifest([(sid, label, "a.csv") for sid, label in table], tmp / "manifest.csv")
    assert [(e.slide_id, e.label) for e in load_manifest(tmp / "manifest.csv")] == table


# Table cells: floats at repr's switch points (1e-4 and 1e16 change its
# notation), signed zeros, subnormals and non-finite values; int64
# extremes; and text that is plain or holds what CSV must quote (a quote,
# a comma, a newline), including the empty cell csv.writer quotes when it
# is the only one in its row.
FLOAT_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4,
               9.999999999999999e-05, 1e-5, 1e16, 9999999999999998.0, 1e22,
               1.7976931348623157e308, math.nan, math.inf, -math.inf]
INT_CELLS = [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 1]
text_cells = (st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='\r\n,"'),
                      max_size=4)
              | st.text(st.sampled_from([",", '"', "\n", " ", "a"]), max_size=4))


def table_column(n):
    """A column of n cells: float64, int64 or text."""
    return (st.lists(st.sampled_from(FLOAT_CELLS) | st.floats(), min_size=n, max_size=n)
            .map(lambda v: np.array(v, dtype=np.float64))
            | st.lists(st.sampled_from(INT_CELLS) | st.integers(-2**63, 2**63 - 1),
                       min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
            | st.lists(text_cells, min_size=n, max_size=n))


def assert_writes_like_csv_writer(tmp, header, columns):
    write_table(tmp / "columns.csv", header, columns)
    csv_writer_table(tmp / "rows.csv", header, zip(*[
        col.tolist() if isinstance(col, np.ndarray) else col for col in columns]))
    assert (tmp / "columns.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 3))
def test_write_table_matches_csv_writer(tmp_path_factory, data, n_cols, n_rows):
    """write_table writes the bytes that csv.writer writes from the same
    cells as Python numbers and strings, in empty, one-row and longer
    tables, on the joined and on the quoted path."""
    header = data.draw(st.lists(text_cells, min_size=n_cols, max_size=n_cols))
    columns = [data.draw(table_column(n_rows)) for _ in range(n_cols)]
    assert_writes_like_csv_writer(tmp_path_factory.mktemp("table"), header, columns)


@pytest.mark.parametrize("cell", ["1,2", 'say "hi"', "two\nlines", "", "plain"])
@pytest.mark.parametrize("n_cols", [1, 2])
def test_write_table_quotes_each_cell_like_csv_writer(tmp_path, cell, n_cols):
    """Each kind of cell that needs quoting, among plain cells, and the
    lone empty cell of a one-column table."""
    columns = [[cell, "x"], np.array([0.5, -1.0])][:n_cols]
    assert_writes_like_csv_writer(tmp_path, ["id", "value"][:n_cols], columns)


def test_write_table_refuses_carriage_return(tmp_path):
    for header, columns in ((["id"], [["a\rb"]]), (["i\rd"], [["a"]])):
        with pytest.raises(ValueError, match="holds a carriage return"):
            write_table(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()


# Heatmap cells: probabilities at repr's notation switch points, or NaN
# for a grid cell without a patch.
heat_cells = (st.sampled_from([math.nan, 0.0, 1.0, 5e-324, 1e-5, 1e-4, 9.999999999999999e-05])
              | st.floats(0.0, 1.0))


@PROPERTY_SETTINGS
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(heat_cells, min_size=width, max_size=width), min_size=1, max_size=5)))
@example([[math.nan, 0.5, math.nan], [math.nan] * 3, [1e-5, math.nan, 1e-4]])
def test_heatmap_grid_matches_per_cell_repr(tmp_path_factory, grid):
    """heatmap writes each grid cell as its repr and an empty cell as
    nothing, NaN at row starts and ends and whole NaN rows included; the
    grid spans the patches' bounding box."""
    tmp = tmp_path_factory.mktemp("heatmap")
    patches = [(c * 100, r * 100, v) for r, line in enumerate(grid)
               for c, v in enumerate(line) if not math.isnan(v)]
    (tmp / "s.csv").write_text("x,y,prob_malignant\n" + "".join(
        f"{x},{y},{v!r}\n" for x, y, v in patches), encoding="utf-8")
    assert cli.main(["heatmap", "--slide", str(tmp / "s.csv"), "--out", str(tmp / "g.csv")]) == 0
    expected = ""
    if patches:
        rows = [y // 100 for _, y, _ in patches]
        cols = [x // 100 for x, _, _ in patches]
        expected = "".join(
            ",".join("" if math.isnan(v) else repr(v)
                     for v in line[min(cols):max(cols) + 1]) + "\n"
            for line in grid[min(rows):max(rows) + 1])
    assert (tmp / "g.csv").read_text(encoding="utf-8") == expected

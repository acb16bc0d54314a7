"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success).

Every expected value is either a fixed reference value, a hand-derivable
quantity, or computed by an independent oracle from ``oracles.py``;
nothing is calibrated against the implementation.
"""

import os
import time

import numpy as np
import pytest

from slidescreen import synth
from slidescreen.baselines import run_comparison
from slidescreen.cli import main as cli_main
from slidescreen.evaluation import (
    LabeledExample,
    MetricSet,
    f1_score,
    mean_metrics,
    roc_auc,
    stratified_kfold,
)
from slidescreen.features import (
    _component_labels,
    extract_features,
    least_squares_regression_line,
)
from slidescreen.ingest import MALIGNANT
from slidescreen.netcore import TrainConfig, init_network, loss_and_gradients

from oracles import (
    as_partition,
    finite_difference_gradients,
    labels_as_partition,
    line_sse,
    max_relative_error,
    naive_components,
    pairwise_auc,
)

# reference per-fold validation rows: accuracy, sensitivity, precision,
# f1, auc (percent except auc)
REFERENCE_FOLDS = (
    (93.93, 100.00, 89.74, 94.59, 0.93),
    (93.93, 97.29, 92.30, 94.73, 0.93),
    (95.45, 100.00, 90.32, 94.91, 0.96),
    (93.93, 100.00, 87.09, 93.10, 0.94),
    (93.93, 97.05, 91.66, 94.28, 0.93),
)
REFERENCE_AVERAGE = (94.24, 98.87, 90.23, 94.33, 0.94)

MCC_RADII = (142.0, 283.0, 425.0, 566.0, 708.0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


@pytest.fixture(scope="module")
def default_synthetic_examples():
    cfg = synth.SynthConfig(n_slides_per_label=100, seed=20240501)
    records = synth.generate_dataset(cfg)
    return [LabeledExample(r.slide_id, extract_features(r.patches), r.label)
            for r in records]


@pytest.fixture(scope="module")
def comparison_reports(default_synthetic_examples):
    """One 5-fold comparison run shared by criteria 5 and 9: the
    wide-and-deep row is exactly the 5-fold CV of criterion 5. Trained
    bytes do not depend on the worker count at an equal BLAS thread count,
    so with BLAS at one thread per process (as in CI) the 25 fold tasks
    run on every core."""
    config = TrainConfig(epochs=500, learning_rate=1e-3, seed=0)
    jobs = (os.cpu_count() or 1) if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else 1
    return run_comparison(default_synthetic_examples, k=5, seed=20240501,
                          config=config, jobs=jobs)


def test_c1_formula_fidelity_against_reference_table():
    t0 = time.time()
    f1_ok = all(
        abs(f1_score(prec, sens) - f1) <= 0.01
        for _, sens, prec, f1, _ in REFERENCE_FOLDS
    )
    fold_sets = [MetricSet(acc, sens, prec, f1, auc)
                 for acc, sens, prec, f1, auc in REFERENCE_FOLDS]
    avg = mean_metrics(fold_sets)
    got = (avg.accuracy, avg.sensitivity, avg.precision, avg.f1, avg.auc)
    avg_ok = all(abs(g - r) <= 0.01 for g, r in zip(got, REFERENCE_AVERAGE))
    elapsed = time.time() - t0
    ok = f1_ok and avg_ok and elapsed < 1.0
    report("C1 formula fidelity vs reference table", ok,
           f"avg={tuple(round(g, 3) for g in got)}, {elapsed:.2f}s")
    assert f1_ok, "F1 column not reproduced within 0.01"
    assert avg_ok, f"average row {got} != {REFERENCE_AVERAGE} within 0.01"
    assert elapsed < 1.0


def test_c2_connected_components_oracle_equivalence():
    rng = np.random.default_rng(7042)
    t0 = time.time()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        points = [tuple(p) for p in rng.uniform(0.0, 2000.0, size=(n, 2))]
        for d, labels in zip(MCC_RADII, _component_labels(points, MCC_RADII), strict=True):
            fast = labels_as_partition(points, labels)
            slow = as_partition(naive_components(points, d))
            assert fast == slow, f"partition mismatch at n={n}, d={d}"
            checked += 1
    elapsed = time.time() - t0
    ok = checked == 5000 and elapsed < 30.0
    report("C2 connected-components oracle equivalence", ok,
           f"{checked} partitions, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_c3_regression_line_optimality():
    rng = np.random.default_rng(515)
    t0 = time.time()
    eps = 1e-3
    xs = np.arange(10.0)
    worst_rel = 0.0
    for _ in range(500):
        bins = rng.random(10)
        m, b = least_squares_regression_line(bins)
        base = line_sse(bins, m, b)
        for dm, db in ((eps, 0.0), (-eps, 0.0), (0.0, eps), (0.0, -eps)):
            assert line_sse(bins, m + dm, b + db) >= base
        # independent closed form via polynomial least squares
        ref_m, ref_b = np.polyfit(xs, bins, 1)
        rel = float(np.hypot(m - ref_m, b - ref_b)
                    / max(np.hypot(ref_m, ref_b), 1e-12))
        worst_rel = max(worst_rel, rel)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-10 and elapsed < 5.0
    report("C3 regression-line optimality", ok,
           f"max rel err {worst_rel:.2e}, {elapsed:.1f}s")
    assert worst_rel <= 1e-10
    assert elapsed < 5.0


def test_c4_gradient_correctness():
    from slidescreen.netcore import BranchSpec, GraphSpec

    rng = np.random.default_rng(808)
    t0 = time.time()
    spec = GraphSpec(
        branches=(BranchSpec("mph", 10, (8,)), BranchSpec("lsrl", 2, (8,)),
                  BranchSpec("mcc", 5, (8,)), BranchSpec("mtr", 1)),
        head_hidden=(8,),
    )
    # float32 gradients against float64 central differences: the 20 graphs
    # measured at most 3.4e-4, from rounding of entries near the 1e-4 floor
    worst = 0.0
    for trial in range(20):
        net = init_network(spec, 9000 + trial)
        n = int(rng.integers(1, 5))
        inputs = {name: rng.normal(size=(n, width))
                  for name, width in spec.input_widths().items()}
        labels = rng.integers(0, 2, size=n)
        _, analytic = loss_and_gradients(net, inputs, labels)
        numeric = finite_difference_gradients(net, inputs, labels, step=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    report("C4 gradient correctness (20 graphs)", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 30.0


def test_c5_end_to_end_synthetic_screening(comparison_reports):
    t0 = time.time()
    avg = comparison_reports["widedeep"].average
    elapsed = time.time() - t0
    ok = avg.accuracy >= 95.0 and avg.sensitivity >= 95.0
    report("C5 end-to-end synthetic screening", ok,
           f"accuracy {avg.accuracy:.2f}, sensitivity {avg.sensitivity:.2f}")
    assert avg.accuracy >= 95.0
    assert avg.sensitivity >= 95.0
    assert elapsed < 300.0


def test_c6_auc_equals_pairwise_enumeration():
    rng = np.random.default_rng(606)
    t0 = time.time()
    for _ in range(200):
        n = int(rng.integers(2, 51))
        scores = rng.integers(0, 8, size=n) / 7.0  # deliberate ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pairwise_auc(scores, labels)
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    report("C6 AUC equals exhaustive enumeration", ok, f"{elapsed:.1f}s")
    assert elapsed < 5.0


def test_c7_stratification_of_reference_class_sizes():
    t0 = time.time()
    items = ([(f"m{i}", 1) for i in range(174)]
             + [(f"n{i}", 0) for i in range(158)])
    assignment = stratified_kfold(items, 5, seed=13)
    sizes = sorted((len(fold) for fold in assignment.folds), reverse=True)
    sizes_ok = sizes == [67, 67, 66, 66, 66]
    deviation_ok = True
    for fold in assignment.folds:
        n_mal = sum(1 for sid in fold if sid.startswith("m"))
        n_nor = len(fold) - n_mal
        if abs(n_mal - 174 / 5) >= 1.0 or abs(n_nor - 158 / 5) >= 1.0:
            deviation_ok = False
    elapsed = time.time() - t0
    ok = sizes_ok and deviation_ok and elapsed < 1.0
    report("C7 stratification of (158, 174) into 5 folds", ok,
           f"sizes {sizes}")
    assert sizes_ok
    assert deviation_ok
    assert elapsed < 1.0


def test_c8_cli_determinism_including_parallel(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--seed", "31",
                     "--slides-per-label", "6", "--grid", "8"]) == 0
    manifest = str(data / "manifest.csv")

    def run_cv(out, jobs):
        code = cli_main(["cv", "--manifest", manifest, "--model", "widedeep",
                         "--k", "3", "--seed", "31", "--epochs", "10",
                         "--jobs", str(jobs), "--out", str(out)])
        assert code == 0
        return {name: (out / name).read_bytes()
                for name in ("report.csv", "report.json")}

    def run_compare(out, jobs):
        code = cli_main(["compare", "--manifest", manifest, "--k", "3",
                         "--seed", "31", "--epochs", "10",
                         "--jobs", str(jobs), "--out", str(out)])
        assert code == 0
        return {name: (out / name).read_bytes()
                for name in ("comparison.csv", "comparison.json")}

    cv_runs = [run_cv(tmp_path / f"cv{i}", jobs)
               for i, jobs in enumerate((1, 1, 3))]
    cmp_runs = [run_compare(tmp_path / f"cmp{i}", jobs)
                for i, jobs in enumerate((1, 1, 3))]
    cv_ok = cv_runs[0] == cv_runs[1] == cv_runs[2]
    cmp_ok = cmp_runs[0] == cmp_runs[1] == cmp_runs[2]
    report("C8 CLI determinism incl. --jobs > 1", cv_ok and cmp_ok)
    assert cv_ok, "cv reports differ between runs"
    assert cmp_ok, "comparison reports differ between runs"


def test_c9_baseline_sanity_and_table_shape(comparison_reports):
    baseline_acc = {kind: comparison_reports[kind].average.accuracy
                    for kind in ("ann", "svm", "rf", "knn")}
    acc_ok = all(acc >= 85.0 for acc in baseline_acc.values())
    shape_ok = len(comparison_reports) == 5
    for kind, rep in comparison_reports.items():
        avg = rep.average
        for value in (avg.accuracy, avg.sensitivity, avg.precision,
                      avg.f1, avg.auc):
            if not np.isfinite(value):
                shape_ok = False
    detail = ", ".join(f"{k} {v:.1f}" for k, v in baseline_acc.items())
    report("C9 baseline sanity on synthetic data", acc_ok and shape_ok, detail)
    assert acc_ok, baseline_acc
    assert shape_ok, "comparison table has missing entries"

"""The four workloads: set-up, one measured pass, quality and output checks.

Each workload drives slidescreen from outside, through its command line
(``cli.main``, in-process) and its public functions, and puts most of its
work in a different layer; see README.md for why each one exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slidescreen import baselines, cli, evaluation, features, netcore, synth, widedeep
from slidescreen.ingest import MALIGNANT, NORMAL, write_manifest
from slidescreen.seeding import derive_seed

K = 5
CV_EPOCHS = 40
ANN_EPOCHS = 200
SCREEN_TRAIN_EPOCHS = 20
COMPARE_MODELS = ("ann", "svm", "rf", "knn")
ORACLE_MAX_POINTS = 400

# Quality yardstick: only existing SynthConfig knobs. Single small blobs of
# low-confidence patches and rare false positives overlap the two classes,
# so every classifier stays clearly below 100 % (the default config gives
# 100 % for all of them and could not show a loss of quality).
QUALITY_PRESET = dict(blob_count_range=(1, 1), blob_radius_range=(0.3, 1.5),
                      noise_rate=0.01, malignant_confidence=(2.0, 2.0))


class SetupError(Exception):
    pass


def sub_seed(seed: int, role: str) -> int:
    """A seed per generated input, derived from the benchmark seed; the
    ``program`` role is the --seed slidescreen's commands receive. Not
    slidescreen.seeding: the inputs must not change with the program."""
    digest = hashlib.sha256(f"perfbench:{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def run_cli(argv) -> tuple[int, str]:
    """One ``slidescreen`` command in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _setup_cli(argv) -> None:
    code, _ = run_cli(argv)
    if code != 0:
        raise SetupError(f"slidescreen {argv[0]} exited {code} during set-up")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def param_digest(net) -> str:
    h = hashlib.sha256()
    for p in net.parameter_arrays():
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


def read_manifest(path: Path) -> list[tuple[str, int, Path]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [(r["slide_id"], MALIGNANT if r["label"] == "malignant" else NORMAL,
             path.parent / r["predictions_path"]) for r in rows]


def read_feature_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def pairwise_auc(scores, labels) -> float:
    """AUC by enumerating pairs, independent of slidescreen.evaluation."""
    pos = [s for s, y in zip(scores, labels) if y == MALIGNANT]
    neg = [s for s, y in zip(scores, labels) if y != MALIGNANT]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


@dataclass
class Pass:
    ops: int
    failed: int
    digest: str
    latencies_ms: list[float] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)


def _write_quality_features(setup: Path, seed: int) -> None:
    cfg = synth.SynthConfig(n_slides_per_label=100, seed=sub_seed(seed, "quality"),
                            **QUALITY_PRESET)
    manifest = synth.write_dataset(synth.generate_dataset(cfg), setup / "slides")
    _setup_cli(["extract", "--manifest", manifest, "--out", setup / "features.csv"])


def _fold1_training_set(features_csv: Path, seed: int):
    """The training split of cross-validation fold 1, and the seed that
    fold trains with (slidescreen derives it as ``fold-0``)."""
    rows = features.read_features_csv(features_csv)
    held_out = set(evaluation.stratified_kfold(
        [(sid, label) for sid, label, _ in rows], K, sub_seed(seed, "program")).folds[0])
    train = [(fv, label) for sid, label, fv in rows if sid not in held_out]
    fold_seed = derive_seed(sub_seed(seed, "program"), "fold-0")
    return [fv for fv, _ in train], [label for _, label in train], fold_seed


class Extract:
    """``slidescreen extract --jobs 1`` on 50 large slides (grid 100, 10 000
    patches each); a run makes several passes. Four in five are bound by
    ingest: 25 normal slides and 15 malignant slides with one small focus.
    One in five, 10 malignant slides with three big tumours, is bound by
    the MCC feature."""

    name = "extract"
    jobs = 1
    slides = "slides"  # set-up directory of the slides behind features_csv

    def setup(self, setup: Path, seed: int) -> None:
        tumours = synth.SynthConfig(n_slides_per_label=10, grid_extent=100,
                                    blob_count_range=(3, 3), blob_radius_range=(8.0, 10.0),
                                    seed=sub_seed(seed, "extract-tumours"))
        foci = synth.SynthConfig(n_slides_per_label=15, grid_extent=100,
                                 blob_count_range=(1, 1), blob_radius_range=(1.0, 2.0),
                                 seed=sub_seed(seed, "extract-foci"))
        rows = []
        for part, cfg in (("tumours", tumours), ("foci", foci)):
            manifest = synth.write_dataset(synth.generate_dataset(cfg), setup / "slides" / part)
            rows += [(f"{part}-{sid}", label, path.relative_to(setup / "slides"))
                     for sid, label, path in read_manifest(manifest)]
        write_manifest(rows, setup / "slides" / "manifest.csv")

    def run_pass(self, setup: Path, out: Path, seed: int, jobs: int) -> Pass:
        n = len(read_manifest(setup / "slides" / "manifest.csv"))
        code, _ = run_cli(["extract", "--manifest", setup / "slides" / "manifest.csv",
                           "--out", out / "features.csv", "--jobs", jobs])
        if code != 0:
            return Pass(n, n, "")
        return Pass(n, 0, sha256_file(out / "features.csv"))

    def features_csv(self, setup: Path, out: Path) -> Path:
        return out / "features.csv"

    def quality(self, setup: Path, out: Path, seed: int, last: Pass):
        """5-fold KNN accuracy and AUC of the extracted feature rows: a
        features change that loses the class signal shows here."""
        examples = [evaluation.LabeledExample(sid, fv, label) for sid, label, fv
                    in features.read_features_csv(out / "features.csv")]
        report = evaluation.cross_validate(
            examples, baselines.classifier_factory("knn", netcore.TrainConfig()),
            K, sub_seed(seed, "extract-knn"))
        return report.average.accuracy, report.average.auc, {}

    def model_digest(self, setup: Path, seed: int) -> dict:
        return {}


class CvWidedeep:
    """``slidescreen cv --model widedeep --k 5 --jobs 1`` on a precomputed
    200-slide feature CSV of the quality preset: netcore training does
    nearly all the work; ingest and features are bypassed."""

    name = "cv-widedeep"
    jobs = 1
    slides = "slides"

    def setup(self, setup: Path, seed: int) -> None:
        _write_quality_features(setup, seed)

    def run_pass(self, setup: Path, out: Path, seed: int, jobs: int) -> Pass:
        code, _ = run_cli(["cv", "--features", setup / "features.csv", "--model", "widedeep",
                           "--k", K, "--seed", sub_seed(seed, "program"), "--epochs", CV_EPOCHS,
                           "--out", out / "cv", "--jobs", jobs])
        if code != 0:
            return Pass(K, K, "")
        return Pass(K, 0, sha256_file(out / "cv" / "report.json"))

    def features_csv(self, setup: Path, out: Path) -> Path:
        return setup / "features.csv"

    def quality(self, setup: Path, out: Path, seed: int, last: Pass):
        average = json.loads((out / "cv" / "report.json").read_text())["average"]
        return average["accuracy"], average["auc"], {}

    def model_digest(self, setup: Path, seed: int) -> dict:
        fvs, labels, fold_seed = _fold1_training_set(setup / "features.csv", seed)
        net = widedeep.train_widedeep(fvs, labels, netcore.TrainConfig(
            epochs=CV_EPOCHS, seed=fold_seed))
        return {"widedeep_fold1_params": param_digest(net)}


class CompareBaselines(CvWidedeep):
    """``slidescreen compare --models ann svm rf knn --jobs 2`` on the same
    feature CSV: the flat ANN runs the same engine at other shapes, and it
    is the only workload where the baselines and the process pool of
    cross_validate carry weight."""

    name = "compare-baselines"
    jobs = 2

    def run_pass(self, setup: Path, out: Path, seed: int, jobs: int) -> Pass:
        n = K * len(COMPARE_MODELS)
        code, _ = run_cli(["compare", "--features", setup / "features.csv",
                           "--models", *COMPARE_MODELS, "--k", K, "--seed", sub_seed(seed, "program"),
                           "--epochs", ANN_EPOCHS, "--out", out / "compare", "--jobs", jobs])
        if code != 0:
            return Pass(n, n, "")
        return Pass(n, 0, sha256_file(out / "compare" / "comparison.json"))

    def quality(self, setup: Path, out: Path, seed: int, last: Pass):
        doc = json.loads((out / "compare" / "comparison.json").read_text())
        per_model = {kind: {"accuracy_pct": doc[kind]["average"]["accuracy"],
                            "auc": doc[kind]["average"]["auc"]} for kind in COMPARE_MODELS}
        return per_model["ann"]["accuracy_pct"], per_model["ann"]["auc"], per_model

    def model_digest(self, setup: Path, seed: int) -> dict:
        fvs, labels, fold_seed = _fold1_training_set(setup / "features.csv", seed)
        clf = baselines.AnnClassifier(netcore.TrainConfig(epochs=ANN_EPOCHS))
        return {"ann_fold1_params": param_digest(clf.fit(fvs, labels, seed=fold_seed).net)}


class Screen:
    """``slidescreen predict`` once per slide on 40 slides with a model
    trained and saved in set-up: netcore for reads only (load_model plus a
    batch-1 forward), and the only workload that exercises model files."""

    name = "screen"
    jobs = 1
    slides = "train"

    def setup(self, setup: Path, seed: int) -> None:
        train = synth.SynthConfig(n_slides_per_label=20, seed=sub_seed(seed, "screen-train"))
        manifest = synth.write_dataset(synth.generate_dataset(train), setup / "train")
        _setup_cli(["extract", "--manifest", manifest, "--out", setup / "features.csv"])
        _setup_cli(["train", "--features", setup / "features.csv", "--seed", sub_seed(seed, "program"),
                    "--epochs", SCREEN_TRAIN_EPOCHS, "--out", setup / "model.json"])
        slides = synth.SynthConfig(n_slides_per_label=20, seed=sub_seed(seed, "screen-slides"))
        synth.write_dataset(synth.generate_dataset(slides), setup / "slides")

    def run_pass(self, setup: Path, out: Path, seed: int, jobs: int) -> Pass:
        result = Pass(0, 0, "")
        for _, _, path in read_manifest(setup / "slides" / "manifest.csv"):
            t0 = time.perf_counter()
            code, text = run_cli(["predict", "--model", setup / "model.json", "--slide", path])
            result.latencies_ms.append(1e3 * (time.perf_counter() - t0))
            result.ops += 1
            result.failed += code != 0
            result.outputs.append(text.strip() if code == 0 else f"exit {code}")
        result.digest = hashlib.sha256("\n".join(result.outputs).encode()).hexdigest()
        return result

    def features_csv(self, setup: Path, out: Path) -> Path:
        return setup / "features.csv"

    def quality(self, setup: Path, out: Path, seed: int, last: Pass):
        labels = [label for _, label, _ in read_manifest(setup / "slides" / "manifest.csv")]
        calls = [line.split() for line in last.outputs]
        scores = [float(p) for _, p in calls]
        correct = sum((name == "malignant") == (y == MALIGNANT)
                      for (name, _), y in zip(calls, labels))
        return 100.0 * correct / len(labels), pairwise_auc(scores, labels), {}

    def model_digest(self, setup: Path, seed: int) -> dict:
        return {"screen_model_file": sha256_file(setup / "model.json")}


WORKLOADS = {w.name: w for w in (Extract(), CvWidedeep(), CompareBaselines(), Screen())}


def check_feature_rows(path: Path) -> list[str]:
    """Row invariants: sum(mph) == mtr; mcc in (0, 1] and not increasing
    with radius on slides with malignant patches, all zero otherwise."""
    errors = []
    for row in read_feature_rows(path):
        mtr = float(row["mtr"])
        mph = [float(row[f"mph_{i}"]) for i in range(10)]
        mcc = [float(row[f"mcc_{r}"]) for r in (142, 283, 425, 566, 708)]
        values = [mtr, *mph, float(row["lsrl_m"]), float(row["lsrl_b"]), *mcc]
        where = f"{path.name}:{row['slide_id']}"
        if not all(math.isfinite(v) for v in values):
            errors.append(f"{where}: non-finite feature")
        elif abs(sum(mph) - mtr) > 1e-9:
            errors.append(f"{where}: sum(mph) {sum(mph)!r} != mtr {mtr!r}")
        elif mtr > 0 and not (all(0 < c <= 1 for c in mcc)
                              and all(a >= b for a, b in zip(mcc, mcc[1:]))):
            errors.append(f"{where}: mcc {mcc} outside (0, 1] or increasing")
        elif mtr == 0 and any(mcc):
            errors.append(f"{where}: mcc {mcc} nonzero without malignant patches")
    return errors


def check_components_against_oracle(features_path: Path, manifest_path: Path,
                                    tests_dir: Path) -> list[str]:
    """Component counts of three slides against the quadratic oracle in
    tests/oracles.py: those with the most malignant patches, up to
    ORACLE_MAX_POINTS, so the oracle stays cheap and the slides still have
    structure at every radius."""
    sys.path.insert(0, str(tests_dir))
    try:
        from oracles import naive_components
    except ImportError as exc:
        return [f"cannot import tests/oracles.py: {exc}"]
    finally:
        sys.path.remove(str(tests_dir))
    paths = {sid: path for sid, _, path in read_manifest(manifest_path)}
    rows = sorted(read_feature_rows(features_path), key=lambda r: -float(r["mtr"]))
    errors, checked = [], 0
    for row in rows:
        if checked == 3 or float(row["mtr"]) == 0:
            break
        with open(paths[row["slide_id"]], newline="", encoding="utf-8") as fh:
            centers = [(int(p["x"]), int(p["y"])) for p in csv.DictReader(fh)
                       if float(p["prob_malignant"]) >= 0.5]
        if len(centers) > ORACLE_MAX_POINTS:
            continue
        checked += 1
        for r in (142, 283, 425, 566, 708):
            expected = len(naive_components(centers, float(r)))
            got = round(float(row[f"mcc_{r}"]) * len(centers))
            if got != expected:
                errors.append(f"{row['slide_id']}: {got} components at {r} px, "
                              f"oracle says {expected}")
    return errors or ([] if checked else ["no slide small enough for the oracle"])

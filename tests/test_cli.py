"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import slidescreen
from slidescreen import baselines, cli, features, ingest, netcore, widedeep
from slidescreen.baselines import CLASSIFIER_KINDS
from slidescreen.cli import main
from slidescreen.features import extract_features, read_features_csv
from slidescreen.ingest import load_manifest, load_slide

from model_files import split_model_file, version_3_document, write_model_file


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--out", out, "--seed", 5,
               "--slides-per-label", 3, "--grid", 8) == 0
    return out / "manifest.csv"


class TestSynthCommand:
    def test_writes_expected_files(self, dataset):
        files = sorted(p.name for p in dataset.parent.iterdir())
        assert "manifest.csv" in files
        assert len(files) == 2 * 3 + 1

    def test_repeat_seed_identical_bytes(self, tmp_path):
        for d in ("a", "b"):
            assert run("synth", "--out", tmp_path / d, "--seed", 9,
                       "--slides-per-label", 2, "--grid", 6) == 0
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_invalid_noise_rate_is_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--seed", 1,
                   "--noise-rate", "1.5") == 64


class TestExtractCommand:
    def test_rows_match_library_features(self, dataset, tmp_path):
        out = tmp_path / "features.csv"
        assert run("extract", "--manifest", dataset, "--out", out) == 0
        rows = read_features_csv(out)
        manifest = load_manifest(dataset)
        assert len(rows) == len(manifest)
        for entry, (slide_id, label, row) in zip(manifest, rows):
            assert slide_id == entry.slide_id
            np.testing.assert_array_equal(row, extract_features(load_slide(entry).patches))

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert run("extract", "--manifest", tmp_path / "gone.csv",
                   "--out", tmp_path / "f.csv") == 2

    def test_empty_manifest_gives_header_only_csv(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("slide_id,label,predictions_path\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        assert run("extract", "--manifest", manifest, "--out", out) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("slide_id,label,mtr,")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_probability_is_validation_error(self, tmp_path, jobs):
        """Two slides, so that --jobs 2 reads them in two workers."""
        (tmp_path / "s.csv").write_text("x,y,prob_malignant\n0,0,1.2\n",
                                        encoding="utf-8")
        (tmp_path / "t.csv").write_text("x,y,prob_malignant\n0,0,0.5\n",
                                        encoding="utf-8")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "slide_id,label,predictions_path\ns1,malignant,s.csv\ns2,normal,t.csv\n",
            encoding="utf-8")
        assert run("extract", "--manifest", manifest,
                   "--out", tmp_path / "f.csv", "--jobs", jobs) == 3

    def test_parallel_extract_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("extract", "--manifest", dataset, "--out", a) == 0
        assert run("extract", "--manifest", dataset, "--out", b,
                   "--jobs", 2) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCvCommand:
    def test_report_files_written(self, dataset, tmp_path):
        out = tmp_path / "cv"
        assert run("cv", "--manifest", dataset, "--model", "knn", "--k", 3,
                   "--seed", 7, "--out", out) == 0
        lines = (out / "report.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "fold,accuracy,sensitivity,precision,f1,auc"
        assert len(lines) == 1 + 3 + 1
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert len(doc["folds"]) == 3

    def test_repeat_invocation_identical_reports(self, dataset, tmp_path):
        for d in ("r1", "r2"):
            assert run("cv", "--manifest", dataset, "--model", "widedeep",
                       "--k", 3, "--seed", 7, "--epochs", 15,
                       "--out", tmp_path / d) == 0
        for name in ("report.csv", "report.json"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()

    def test_diverged_training_is_pipeline_failure(self, dataset, tmp_path, capsys):
        capsys.readouterr()
        code = run("cv", "--manifest", dataset, "--model", "widedeep",
                   "--k", 3, "--seed", 7, "--epochs", 5, "--lr", 1e300,
                   "--out", tmp_path / "cv")
        assert code == 1
        assert not (tmp_path / "cv").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("slidescreen: pipeline failure:")

    @pytest.mark.parametrize("argv", [["cv", "--model", "knn"],
                                      ["compare", "--models", "svm", "knn"]])
    def test_non_finite_fold_score_is_pipeline_failure(self, dataset, tmp_path, capsys,
                                                        monkeypatch, argv):
        monkeypatch.setattr(baselines.KnnClassifier, "predict_proba",
                            lambda self, X: np.full(len(X), np.nan))
        capsys.readouterr()
        code = run(*argv, "--manifest", dataset, "--k", 3, "--seed", 7,
                   "--out", tmp_path / "out")
        assert code == 1
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.splitlines() == [
            "slidescreen: pipeline failure: KnnClassifier fold 1: non-finite score"]

    def test_features_input_equivalent_to_manifest(self, dataset, tmp_path):
        feats = tmp_path / "features.csv"
        assert run("extract", "--manifest", dataset, "--out", feats) == 0
        assert run("cv", "--features", feats, "--model", "knn", "--k", 3,
                   "--seed", 7, "--out", tmp_path / "via-features") == 0
        assert run("cv", "--manifest", dataset, "--model", "knn", "--k", 3,
                   "--seed", 7, "--out", tmp_path / "via-manifest") == 0
        assert (tmp_path / "via-features" / "report.csv").read_bytes() == \
            (tmp_path / "via-manifest" / "report.csv").read_bytes()


class TestFeatureCsvBoundary:
    """A feature CSV with a non-finite cell, or an empty or repeated slide
    id, is a validation error in every command that reads one."""

    COMMANDS = {
        "cv": ["cv", "--model", "knn", "--k", 3, "--seed", 7, "--out", "out"],
        "compare": ["compare", "--models", "knn", "--k", 3, "--seed", 7,
                    "--out", "out"],
        "train": ["train", "--seed", 7, "--epochs", 2, "--out", "model.json"],
    }
    # defect -> (a cell of line 3 replaced, or None: line 2 repeated with
    # its id padded; what the one stderr line says)
    DEFECTS = {
        "nan": ((4, "nan"), "features.csv:3: non-finite feature value"),
        "duplicate": (None, "duplicate slide_id"),
        "empty-id": ((0, ""), "features.csv:3: empty slide_id"),
        "blank-id": ((0, " \t"), "features.csv:3: empty slide_id"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_rejected_with_exit_3(self, dataset, tmp_path, capsys, command, defect):
        feats = tmp_path / "features.csv"
        assert run("extract", "--manifest", dataset, "--out", feats) == 0
        lines = feats.read_text(encoding="utf-8").splitlines()
        edit, message = self.DEFECTS[defect]
        if edit is None:
            lines.append(" " + lines[1])
        else:
            cells = lines[2].split(",")
            cells[edit[0]] = edit[1]
            lines[2] = ",".join(cells)
        feats.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [tmp_path / a if a in ("out", "model.json") else a
                for a in self.COMMANDS[command]]
        capsys.readouterr()
        assert run(*argv, "--features", feats) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "model.json").exists()


class TestOneClassTable:
    """A feature table that lacks a class is one fault, found before any
    fit: cv of every kind and compare exit 1 with the same stderr line,
    which names the class that has too few slides for --k."""

    # table -> its one stderr line at --k 3
    TABLES = {
        "malignant-only": "normal has 0 slides, need at least 3 (one per fold)",
        "header-only": "malignant has 0 slides, need at least 3 (one per fold)",
    }

    @pytest.fixture()
    def table(self, dataset, tmp_path, request):
        feats = tmp_path / "features.csv"
        assert run("extract", "--manifest", dataset, "--out", feats) == 0
        header, *rows = feats.read_text(encoding="utf-8").splitlines()
        if request.param == "header-only":
            rows = []
        feats.write_text("\n".join([header] + [r for r in rows if ",malignant," in r]) + "\n",
                         encoding="utf-8")
        return feats, request.param

    @pytest.mark.parametrize("table", sorted(TABLES), indirect=True)
    @pytest.mark.parametrize("argv", [*(["cv", "--model", kind] for kind in CLASSIFIER_KINDS),
                                      ["compare"]], ids=" ".join)
    def test_every_kind_fails_alike(self, table, tmp_path, capsys, argv):
        feats, name = table
        capsys.readouterr()
        assert run(*argv, "--features", feats, "--k", 3, "--seed", 7, "--epochs", 2,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines() == \
            [f"slidescreen: pipeline failure: {self.TABLES[name]}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table", sorted(TABLES), indirect=True)
    def test_train_needs_both_classes(self, table, tmp_path, capsys):
        feats, _ = table
        capsys.readouterr()
        assert run("train", "--features", feats, "--seed", 7, "--epochs", 2,
                   "--out", tmp_path / "model.bin") == 1
        assert capsys.readouterr().err.splitlines() == \
            ["slidescreen: pipeline failure: training requires examples of both classes"]
        assert not (tmp_path / "model.bin").exists()


class TestCompareCommand:
    def test_subset_rows(self, dataset, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--manifest", dataset, "--models", "knn", "svm",
                   "--k", 3, "--seed", 7, "--out", out) == 0
        lines = (out / "comparison.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "model,accuracy,sensitivity,precision,f1,auc"
        assert [line.split(",")[0] for line in lines[1:]] == ["knn", "svm"]

    def test_unknown_model_is_usage_error(self, dataset, tmp_path):
        assert run("compare", "--manifest", dataset, "--models", "boosting",
                   "--seed", 7, "--out", tmp_path / "cmp") == 64

    def test_repeated_model_is_usage_error(self, dataset, tmp_path, capsys):
        capsys.readouterr()
        assert run("compare", "--manifest", dataset, "--models", "knn", "svm", "knn",
                   "--seed", 7, "--out", tmp_path / "cmp") == 64
        assert "knn" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


class TestTrainPredict:
    def test_train_then_predict_malignant_slide(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--out", data, "--seed", 21,
                   "--slides-per-label", 8, "--grid", 10) == 0
        model = tmp_path / "model.json"
        assert run("train", "--manifest", data / "manifest.csv", "--seed", 3,
                   "--epochs", 200, "--out", model) == 0
        # a held-out malignant slide from a different generator seed
        held = tmp_path / "held"
        assert run("synth", "--out", held, "--seed", 909,
                   "--slides-per-label", 1, "--grid", 10) == 0
        code = run("predict", "--model", model,
                   "--slide", held / "malignant_000.csv")
        assert code == 0

    def test_predict_output_format(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--out", data, "--seed", 22, "--slides-per-label", 6,
            "--grid", 10)
        model = tmp_path / "model.json"
        run("train", "--manifest", data / "manifest.csv", "--seed", 4,
            "--epochs", 200, "--out", model)
        held = tmp_path / "held"
        run("synth", "--out", held, "--seed", 910, "--slides-per-label", 1,
            "--grid", 10)
        capsys.readouterr()
        assert run("predict", "--model", model,
                   "--slide", held / "malignant_000.csv") == 0
        label, prob = capsys.readouterr().out.split()
        assert label == "malignant"
        assert float(prob) >= 0.5

    def test_corrupt_model_is_io_error(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text("garbage", encoding="utf-8")
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        assert run("predict", "--model", model, "--slide", slide) == 2

    def test_non_finite_probability_is_io_error(self, tmp_path, capsys):
        """A model whose forward pass overflows, here every head parameter
        scaled by 1e30 (finite in the float32 file, but three head layers
        multiply it past float32's 3.4e38), exits 2 naming the model
        instead of calling the slide normal; no numpy warning escapes (the
        suite makes a RuntimeWarning an error)."""
        net = widedeep.build_widedeep(seed=0)
        for layer in net.head:
            layer.weights *= 1e30
            layer.biases *= 1e30
        model = tmp_path / "model.json"
        netcore.save_model(net, model, widedeep.WIDEDEEP_TAG)
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--slide", slide) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"slidescreen: {model}: p(malignant) is nan for {slide}\n"

    def test_version_1_model_is_io_error(self, tmp_path, capsys):
        self.assert_older_version_is_io_error(tmp_path, capsys, 1)

    def test_version_4_float64_model_is_io_error(self, tmp_path, capsys):
        self.assert_older_version_is_io_error(tmp_path, capsys, 4)

    def assert_older_version_is_io_error(self, tmp_path, capsys, version):
        """A model file of an older format version, with the float64
        payload of version 4, exits 2 naming its version."""
        model = tmp_path / "model.json"
        net = widedeep.build_widedeep(seed=0)
        netcore.save_model(net, model, widedeep.WIDEDEEP_TAG)
        header, _ = split_model_file(model)
        header["format_version"] = version
        write_model_file(model, header, net.values.astype("<f8").tobytes())
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--slide", slide) == 2
        err = capsys.readouterr().err
        assert f"version {version}" in err and "slidescreen train" in err

    def test_version_3_document_is_io_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        small = netcore.GraphSpec(branches=(netcore.BranchSpec("mtr", 1, (4,)),),
                                  head_hidden=(4,))
        model.write_text(version_3_document(netcore.init_network(small, 0),
                                            widedeep.WIDEDEEP_TAG), encoding="utf-8")
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--slide", slide) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not a line of UTF-8 JSON" in err[0]

    def test_model_with_other_inputs_is_io_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        netcore.save_model(widedeep.build_widedeep(seed=0), model, widedeep.WIDEDEEP_TAG)
        header, payload = split_model_file(model)
        header["spec"]["branches"][0]["name"] = "histogram"
        write_model_file(model, header, payload)
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--slide", slide) == 2
        err = capsys.readouterr().err
        assert "histogram" in err and "header spec" in err

    @pytest.mark.parametrize("spec,topology,key", [
        (baselines.ANN_SPEC, widedeep.WIDEDEEP_TAG, "spec"),
        (widedeep.widedeep_spec(), "ann-v1", "topology"),
    ], ids=["ann-spec-tagged-widedeep", "widedeep-tagged-other"])
    def test_model_not_saved_as_widedeep_is_io_error(self, tmp_path, capsys, spec, topology,
                                                      key):
        """A valid model file of another spec, or of the wide-and-deep spec
        under another tag, exits 2 with one line naming the key that differs."""
        model = tmp_path / "model.json"
        netcore.save_model(netcore.init_network(spec, 0), model, topology)
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--slide", slide) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"slidescreen: {model}: header {key} ")

    def test_model_without_newline_is_read_in_bounded_memory(self, tmp_path, capsys):
        """Only a bounded prefix of a model file is read for its header: a
        50 MiB file with no newline exits 2 within a 2 MiB traced peak."""
        model = tmp_path / "model.json"
        with open(model, "wb") as fh:
            for _ in range(50):
                fh.write(b"x" * 2**20)
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run("predict", "--model", model, "--slide", slide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 * 2**20
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not a line of UTF-8 JSON" in err[0]

    def test_train_records_loss_summary(self, dataset, tmp_path):
        for name in ("a.json", "b.json"):
            assert run("train", "--manifest", dataset, "--seed", 3, "--epochs", 5,
                       "--out", tmp_path / name) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        loss = split_model_file(tmp_path / "a.json")[0]["meta"]["loss"]
        assert set(loss) == {"first", "last", "min", "min_epoch"}
        assert 1 <= loss["min_epoch"] <= 5
        assert loss["min"] <= min(loss["first"], loss["last"])

    def test_predict_before_model_exists(self, tmp_path):
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        assert run("predict", "--model", tmp_path / "absent.json",
                   "--slide", slide) == 2


class TestHeatmapCommand:
    def test_three_by_three_grid(self, tmp_path):
        slide = tmp_path / "s.csv"
        rows = ["x,y,prob_malignant"]
        for r in range(3):
            for c in range(3):
                rows.append(f"{c * 100},{r * 100},0.{r}{c}1")
        slide.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "grid.csv"
        assert run("heatmap", "--slide", slide, "--out", out) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 3
        assert all(len(line.split(",")) == 3 for line in lines)
        assert lines[0].split(",")[0] == "0.001"

    def test_empty_slide_gives_empty_grid(self, tmp_path):
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n", encoding="utf-8")
        out = tmp_path / "grid.csv"
        assert run("heatmap", "--slide", slide, "--out", out) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_non_aligned_coordinates_snap_to_nearest_cell(self, tmp_path):
        slide = tmp_path / "s.csv"
        slide.write_text(
            "x,y,prob_malignant\n149,51,0.7\n261,49,0.2\n", encoding="utf-8")
        out = tmp_path / "grid.csv"
        assert run("heatmap", "--slide", slide, "--out", out) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        # cells (row 1, col 1) and (row 0, col 3): rows 0..1, cols 1..3
        assert lines == [",,0.2", "0.7,,"]

    def test_blank_cells_for_missing_patches(self, tmp_path):
        slide = tmp_path / "s.csv"
        slide.write_text(
            "x,y,prob_malignant\n0,0,0.9\n200,0,0.1\n", encoding="utf-8")
        out = tmp_path / "grid.csv"
        assert run("heatmap", "--slide", slide, "--out", out) == 0
        assert out.read_text(encoding="utf-8") == "0.9,,0.1\n"

    @pytest.mark.parametrize("far", [10**9, 2**53])
    def test_far_apart_patches_are_validation_error(self, tmp_path, capsys, far):
        slide = tmp_path / "s.csv"
        slide.write_text(f"x,y,prob_malignant\n0,0,0.9\n{far},{far},0.1\n",
                         encoding="utf-8")
        out = tmp_path / "grid.csv"
        capsys.readouterr()
        assert run("heatmap", "--slide", slide, "--out", out) == 3
        side = (far + 50) // 100 + 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{side} x {side} cells" in err[0]
        assert not out.exists()

    def test_rows_are_written_as_they_are_formatted(self, tmp_path):
        """Two patches at opposite corners: a 2 000 x 1 000 grid of empty
        cells, written without holding more than about the grid itself."""
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n99900,199900,0.1\n",
                         encoding="utf-8")
        out = tmp_path / "grid.csv"
        grid_nbytes = 2000 * 1000 * 8
        tracemalloc.start()
        try:
            assert run("heatmap", "--slide", slide, "--out", out) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * grid_nbytes
        lines = out.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 2001 and lines[-1] == ""
        assert lines[0] == "0.9" + "," * 999 and lines[-2] == "," * 999 + "0.1"

    def test_grid_at_the_cell_limit_is_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_HEATMAP_CELLS", 6)
        slide = tmp_path / "s.csv"
        out = tmp_path / "grid.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n200,100,0.1\n",
                         encoding="utf-8")
        assert run("heatmap", "--slide", slide, "--out", out) == 0
        assert out.read_text(encoding="utf-8") == "0.9,,\n,,0.1\n"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n200,200,0.1\n",
                         encoding="utf-8")
        assert run("heatmap", "--slide", slide, "--out", out) == 3


@pytest.mark.parametrize("argv", [
    ["cv", "--k", 1], ["compare", "--k", 1], ["extract", "--jobs", 0],
    ["cv", "--jobs", 0], ["compare", "--jobs", 0], ["train", "--jobs", 0],
], ids=lambda argv: f"{argv[0]}-{argv[1].lstrip('-')}{argv[2]}")
def test_count_below_minimum_is_usage_error(dataset, tmp_path, argv):
    seed = [] if argv[0] == "extract" else ["--seed", 7]
    assert run(*argv, "--manifest", dataset, *seed, "--out", tmp_path / "out") == 64
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["extract-manifest", "extract-slide", "predict",
                                     "heatmap", "cv-features"])
def test_non_utf8_input_is_validation_error(dataset, tmp_path, capsys, command):
    slide = tmp_path / "s.csv"
    slide.write_bytes(b"x,y,prob_malignant\n0,0,0.9\n\xff,0,0.1\n")
    if command == "extract-manifest":
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"slide_id,label,predictions_path\ns1,malign\xe9nt,s.csv\n")
        argv = ["extract", "--manifest", manifest, "--out", tmp_path / "out"]
    elif command == "extract-slide":
        manifest = tmp_path / "m.csv"
        manifest.write_text("slide_id,label,predictions_path\ns1,malignant,s.csv\n",
                            encoding="utf-8")
        argv = ["extract", "--manifest", manifest, "--out", tmp_path / "out"]
    elif command == "predict":
        model = tmp_path / "model.json"
        netcore.save_model(widedeep.build_widedeep(seed=0), model, widedeep.WIDEDEEP_TAG)
        argv = ["predict", "--model", model, "--slide", slide]
    elif command == "heatmap":
        argv = ["heatmap", "--slide", slide, "--out", tmp_path / "out"]
    else:
        feats = tmp_path / "features.csv"
        assert run("extract", "--manifest", dataset, "--out", feats) == 0
        feats.write_bytes(feats.read_bytes().replace(b"normal", b"norm\xe1l", 1))
        argv = ["cv", "--features", feats, "--model", "knn", "--k", 3, "--seed", 7,
                "--out", tmp_path / "out"]
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "is not UTF-8" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["extract", "heatmap", "cv", "compare", "train",
                                     "train-onto-directory"])
def test_unusable_out_is_io_error_before_any_work(dataset, tmp_path, capsys,
                                                  monkeypatch, command):
    """An --out that cannot be written exits 2 with one stderr line, and
    before any input is read or any epoch runs."""
    taken = tmp_path / "f.csv"
    taken.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
    argv = {
        "extract": ["extract", "--manifest", dataset, "--out", taken / "x"],
        "heatmap": ["heatmap", "--slide", taken, "--out", taken / "x"],
        "cv": ["cv", "--manifest", dataset, "--model", "widedeep", "--k", 3,
               "--seed", 7, "--out", taken],
        "compare": ["compare", "--manifest", dataset, "--k", 3, "--seed", 7,
                    "--out", taken],
        "train": ["train", "--manifest", dataset, "--seed", 7,
                  "--out", tmp_path / "nodir" / "m.json"],
        "train-onto-directory": ["train", "--manifest", dataset, "--seed", 7,
                                 "--out", tmp_path],
    }[command]

    def tripwire(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for module, name in ((netcore, "train"), (ingest, "load_manifest"),
                         (ingest, "load_patches"), (features, "read_features_csv")):
        monkeypatch.setattr(module, name, tripwire)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("slidescreen: ")
    assert taken.read_text(encoding="utf-8") == "x,y,prob_malignant\n0,0,0.9\n"


@pytest.mark.parametrize("command", ["extract", "synth-patches", "synth-manifest", "cv",
                                     "compare", "cv-new-out", "compare-new-out", "heatmap"])
def test_full_disk_keeps_previous_output(dataset, tmp_path, capsys, full_disk, command):
    """A disk that fills during a write over a good output (in a patch CSV
    or in the manifest for synth, in the .json file of cv's and compare's
    pair once the new .csv file is written): the run exits 2 with one
    stderr line, and every file is as it was, with no temporary file
    beside it. cv and compare rerun at another --k, so that both files of
    the pair would change, over the first run's files or into a new --out
    directory, which the failed run removes with the parent it made."""
    out, new, table = tmp_path / "out", tmp_path / "new", noisy_table(dataset, tmp_path)
    out.mkdir()
    kind, target = command.split("-")[0], new / "out" if command.endswith("new-out") else out
    argv = {
        "extract": ["extract", "--manifest", dataset, "--out", out / "features.csv"],
        "synth": ["synth", "--out", out, "--seed", 5, "--slides-per-label", 3, "--grid", 8],
        "cv": pair_argv("cv", table, 3, out),
        "compare": pair_argv("compare", table, 3, out),
        "heatmap": ["heatmap", "--slide", load_manifest(dataset)[0].predictions_path,
                    "--out", out / "grid.csv"],
    }[kind]
    assert run(*argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    room = sum(len(data) for name, data in before.items() if name != "manifest.csv") \
        if command == "synth-manifest" else 0  # what the files before the failing one take
    if kind in ("cv", "compare"):  # the rerun's pair, written into a directory of its own
        argv = pair_argv(kind, table, 2, tmp_path / "probe")
        assert run(*argv) == 0
        pair = {p.name: p.read_bytes() for p in (tmp_path / "probe").iterdir()}
        assert all(pair[name] != before[name] for name in before)
        room = len(next(data for name, data in pair.items() if name.endswith(".csv")))
        argv[-1] = target
    full_disk(target, room + 10)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "No space left" in err[0]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not new.exists()


def noisy_table(dataset, tmp_path):
    """The dataset's feature table with the labels of its first malignant
    and first normal slide swapped, so that no classifier scores 100 % and
    the reports differ with --k."""
    table = tmp_path / "features.csv"
    assert run("extract", "--manifest", dataset, "--out", table) == 0
    text = table.read_text(encoding="utf-8").replace(",malignant,", ",swapped,", 1)
    text = text.replace(",normal,", ",malignant,", 1).replace(",swapped,", ",normal,")
    table.write_text(text, encoding="utf-8")
    return table


def pair_argv(command, table, k, out):
    """A cv or compare run of the feature table into the directory out."""
    models = ["--model", "knn"] if command == "cv" else ["--models", "svm", "knn"]
    return [command, "--features", table, *models, "--k", k, "--seed", 7, "--out", out]


def test_no_command_is_usage_error():
    assert main([]) == 64


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 64


# Argument lists whose parse ends the command early: with help, or with a
# usage error raised by the top-level parser or by the subcommand's.
EARLY_EXITS = [
    ["--help"],
    ["predict", "--help"],
    ["compare", "--help"],
    ["frobnicate"],
    ["predict", "--model", "m.bin"],
    ["compare", "--features", "f.csv", "--seed", "1", "--out", "o", "--jobs", "0"],
    ["predict", "--model", "m.bin", "--slide", "s.csv", "--unknown"],
]


@pytest.mark.parametrize("argv", EARLY_EXITS, ids=" ".join)
def test_parse_output_matches_full_parser(argv, capsys, monkeypatch):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        full_code = exc.code
    full = capsys.readouterr()
    built = []
    build_parser = cli.build_parser

    def recording_build_parser(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    assert main(argv) == full_code
    assert capsys.readouterr() == full
    assert built == [argv[0] if argv[0] in cli.COMMANDS else None]


@pytest.mark.parametrize("command", ["predict", "extract"])
def test_serial_commands_never_import_unused_modules(dataset, tmp_path, command):
    """predict and a serial extract load neither the baselines, nor the
    synthetic-data generator, nor a process pool: each costs start-up
    time in every call."""
    if command == "predict":
        model = tmp_path / "model.bin"
        netcore.save_model(widedeep.build_widedeep(seed=0), model, widedeep.WIDEDEEP_TAG)
        argv = ["predict", "--model", model,
                "--slide", load_manifest(dataset)[0].predictions_path]
    else:
        argv = ["extract", "--manifest", dataset, "--out", tmp_path / "f.csv", "--jobs", 1]
    code = (
        "import sys\n"
        "from slidescreen.cli import main\n"
        f"assert main({[str(a) for a in argv]!r}) == 0\n"
        "unused = {'slidescreen.baselines', 'slidescreen.synth', 'multiprocessing'}\n"
        "print(sorted(unused & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(slidescreen.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["extract", "cv", "compare"])
def test_worker_error_exits_like_a_serial_one(tmp_path, capsys, command):
    """A malformed slide read in a pool worker exits 3 with the serial
    run's one stderr line, not with a traceback of a broken pool."""
    (tmp_path / "good.csv").write_text("x,y,prob_malignant\n0,0,0.5\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,prob_malignant\n0,0,0.5\n1.5,2,0.25\n", encoding="utf-8")
    manifest = tmp_path / "m.csv"
    manifest.write_text("slide_id,label,predictions_path\n"
                        "s1,malignant,good.csv\ns2,normal,bad.csv\n", encoding="utf-8")
    argv = {"extract": ["extract", "--out", tmp_path / "f.csv"],
            "cv": ["cv", "--model", "knn", "--k", 2, "--seed", 7, "--out", tmp_path / "out"],
            "compare": ["compare", "--models", "knn", "--k", 2, "--seed", 7,
                        "--out", tmp_path / "out"]}[command]
    for jobs in (1, 2):
        capsys.readouterr()
        assert run(*argv, "--manifest", manifest, "--jobs", jobs) == 3
        assert capsys.readouterr().err == \
            f"slidescreen: validation error: {bad}:3: bad coordinates ['1.5', '2']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["extract", "cv", "compare"])
def test_dead_worker_exits_like_a_failed_run(dataset, tmp_path, capsys, monkeypatch,
                                             command):
    """A pool worker that dies without raising (here by os._exit in a forked
    worker) exits 1 with one stderr line, not a traceback of a broken pool."""
    monkeypatch.setattr(features, "extract_features", lambda patches: os._exit(9))
    argv = {"extract": ["extract", "--out", tmp_path / "f.csv"],
            "cv": ["cv", "--model", "knn", "--k", 2, "--seed", 7, "--out", tmp_path / "out"],
            "compare": ["compare", "--models", "knn", "--k", 2, "--seed", 7,
                        "--out", tmp_path / "out"]}[command]
    capsys.readouterr()
    assert run(*argv, "--manifest", dataset, "--jobs", 2) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("slidescreen: pipeline failure: a worker process died: ")
    assert not (tmp_path / "out").exists() and not (tmp_path / "f.csv").exists()


# One instance of every error class of the package, then of the faults that
# it raises as a ValueError or a MalformedRow, keyed by class or fault, each
# with the exit code that main gives it, or None where it cannot reach main.
ERRORS = {
    "UsageError": (cli.UsageError("--models names knn more than once"), 64),
    "GridTooLarge": (cli.GridTooLarge("s.csv: heatmap grid of 9 x 9 cells exceeds 4 cells"), 3),
    "IngestError": (ingest.IngestError("s.csv: unreadable"), 3),
    "MissingFile": (ingest.MissingFile("gone.csv"), 2),
    "MalformedRow": (ingest.MalformedRow("s.csv", 3, "bad coordinates ['1.5', '2']"), 3),
    "ModelFormatError": (netcore.ModelFormatError("m.bin: not a valid model file"), 2),
    "ProbabilityOutOfRange": (
        ingest.MalformedRow("s.csv", 2, "prob_malignant 1.5 outside [0, 1]"), 3),
    "DuplicateSlideId": (ingest.MalformedRow("m.csv", 3, "duplicate slide_id 's1'"), 3),
    "EmptyDataset": (ValueError("training set is empty"), 1),
    "SingleClassDataset": (ValueError("training requires examples of both classes"), 1),
    "TrainingDiverged": (ValueError("loss is nan at epoch 3"), 1),
    "NotFitted": (ValueError("KNN queried before fit"), 1),
    "TooFewExamples": (ValueError("normal has 2 slides, need at least 3 (one per fold)"), 1),
    "SingleClassScores": (ValueError("AUC needs scores from both classes"), 1),
    "EmptyEvaluation": (ValueError("confusion matrix is empty"), 1),
    "NonFiniteScores": (ValueError("AnnClassifier fold 2: non-finite score"), 1),
    "WorkerDied": (ValueError("a worker process died: terminated abruptly"), 1),
    "InvalidTopology": (ValueError("graph has no inputs"), None),  # only code-built specs reach it
    "ShapeMismatch": (ValueError("inputs disagree on batch size"), None),  # predict checks widths
    "InvalidConfig": (ValueError("grid_extent must be >= 1"), None),  # synth raises a UsageError
}


def test_error_table_holds_every_error_class():
    """A new error class of the package fails here until it is in ERRORS,
    with the exit code main gives it."""
    found = set()
    for info in pkgutil.iter_modules(slidescreen.__path__):
        module = importlib.import_module(f"slidescreen.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == module.__name__)
    assert {type(ERRORS[cls.__name__][0]) for cls in found} == found
    assert {type(error) for error, _ in ERRORS.values()} == found | {ValueError}


@pytest.mark.parametrize("error,code", [
    pytest.param(error, code, id=f"{name}-{code}")
    for name, (error, code) in ERRORS.items() if code is not None])
def test_main_gives_each_error_class_its_exit_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_heatmap", fail)
    assert run("heatmap", "--slide", "s.csv", "--out", "grid.csv") == code
    kind = {64: "usage error: ", 3: "validation error: ", 2: "", 1: "pipeline failure: "}
    assert capsys.readouterr().err == f"slidescreen: {kind[code]}{error}\n"


@pytest.mark.parametrize("error", [error for error, _ in ERRORS.values()], ids=list(ERRORS))
def test_error_survives_pickling(error):
    """A worker of the process pool sends its error back pickled."""
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))

"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from slidescreen import cli, netcore, widedeep
from slidescreen.cli import main
from slidescreen.features import extract_features, read_features_csv
from slidescreen.ingest import load_manifest, load_slide


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
        assert len(rows) == len(manifest.entries)
        for entry, (slide_id, label, row) in zip(manifest.entries, rows):
            assert slide_id == entry.slide_id
            np.testing.assert_array_equal(row, extract_features(load_slide(entry)))

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

    def test_bad_probability_is_validation_error(self, tmp_path):
        (tmp_path / "s.csv").write_text("x,y,prob_malignant\n0,0,1.2\n",
                                        encoding="utf-8")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "slide_id,label,predictions_path\ns1,malignant,s.csv\n",
            encoding="utf-8")
        assert run("extract", "--manifest", manifest,
                   "--out", tmp_path / "f.csv") == 3

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
    """A feature CSV with a non-finite cell or a repeated slide id is a
    validation error in every command that reads one."""

    COMMANDS = {
        "cv": ["cv", "--model", "knn", "--k", 3, "--seed", 7, "--out", "out"],
        "compare": ["compare", "--models", "knn", "--k", 3, "--seed", 7,
                    "--out", "out"],
        "train": ["train", "--seed", 7, "--epochs", 2, "--out", "model.json"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("defect", ["nan", "duplicate"])
    def test_rejected_with_exit_3(self, dataset, tmp_path, command, defect):
        feats = tmp_path / "features.csv"
        assert run("extract", "--manifest", dataset, "--out", feats) == 0
        lines = feats.read_text(encoding="utf-8").splitlines()
        if defect == "nan":
            cells = lines[2].split(",")
            cells[4] = "nan"
            lines[2] = ",".join(cells)
        else:
            lines.append(lines[1])
        feats.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [tmp_path / a if a in ("out", "model.json") else a
                for a in self.COMMANDS[command]]
        assert run(*argv, "--features", feats) == 3
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "model.json").exists()


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

    def test_version_1_model_is_io_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        netcore.save_model(widedeep.build_widedeep(seed=0), model, widedeep.WIDEDEEP_TAG)
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["format_version"] = 1
        model.write_text(json.dumps(doc), encoding="utf-8")
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--slide", slide) == 2
        err = capsys.readouterr().err
        assert "version 1" in err and "slidescreen train" in err

    def test_model_with_other_inputs_is_io_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        netcore.save_model(widedeep.build_widedeep(seed=0), model, widedeep.WIDEDEEP_TAG)
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["spec"]["branches"][0]["name"] = "histogram"
        model.write_text(json.dumps(doc), encoding="utf-8")
        slide = tmp_path / "s.csv"
        slide.write_text("x,y,prob_malignant\n0,0,0.9\n", encoding="utf-8")
        capsys.readouterr()
        assert run("predict", "--model", model, "--slide", slide) == 2
        err = capsys.readouterr().err
        assert "histogram" in err and "wide-and-deep inputs" in err

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


def test_no_command_is_usage_error():
    assert main([]) == 64


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 64

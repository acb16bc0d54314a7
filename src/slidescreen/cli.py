"""Command-line front end for the screening pipeline.

Exit codes: 0 success, 1 classification-pipeline failure, 2 I/O error,
3 validation error, 64 usage error. An error's class decides its code:
main catches a few base classes, and each new error subclasses one.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

# only the commands that use baselines, evaluation and synth import them
from . import features, ingest, netcore, widedeep

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_USAGE = 64

GRID_SPACING = 100  # px; heatmap cells snap to the nearest grid cell
# 4x the ~4 M cells of a 200 000-px slide at GRID_SPACING
MAX_HEATMAP_CELLS = 2**24
DEFAULT_FOLDS = 5  # --k of cv and compare


class UsageError(Exception):
    pass


class GridTooLarge(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low; argparse reports the
    ValueError of a non-integer as an invalid `integer` value."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def _add_dataset_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--manifest", type=Path, help="manifest CSV of slides")
    group.add_argument("--features", type=Path, help="precomputed feature CSV")
    sub.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="parallel workers (default 1)")


def _add_train_args(sub):
    sub.add_argument("--seed", type=int, required=True,
                     help="master seed; all randomness derives from it")
    sub.add_argument("--epochs", type=int, default=netcore.TrainConfig.epochs)
    sub.add_argument("--lr", type=float, default=netcore.TrainConfig.learning_rate)


def _add_synth(p):
    from .synth import SynthConfig
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--slides-per-label", type=int, default=SynthConfig.n_slides_per_label)
    p.add_argument("--grid", type=int, default=SynthConfig.grid_extent, help="patches per side")
    p.add_argument("--blobs", type=int, nargs=2, default=SynthConfig.blob_count_range,
                   metavar=("MIN", "MAX"))
    p.add_argument("--blob-radius", type=float, nargs=2,
                   default=SynthConfig.blob_radius_range, metavar=("MIN", "MAX"))
    p.add_argument("--noise-rate", type=float, default=SynthConfig.noise_rate)
    p.set_defaults(func=cmd_synth)


def _add_extract(p):
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="feature CSV path")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_extract)


def _add_cv(p):
    from . import baselines
    _add_dataset_args(p)
    p.add_argument("--model", choices=baselines.CLASSIFIER_KINDS,
                   default="widedeep")
    p.add_argument("--k", type=_int_at_least(2), default=DEFAULT_FOLDS)
    _add_train_args(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_cv)


def _add_compare(p):
    from . import baselines
    _add_dataset_args(p)
    p.add_argument("--models", nargs="+", choices=baselines.CLASSIFIER_KINDS,
                   default=list(baselines.CLASSIFIER_KINDS))
    p.add_argument("--k", type=_int_at_least(2), default=DEFAULT_FOLDS)
    _add_train_args(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_compare)


def _add_train(p):
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--out", type=Path, required=True, help="model file path")
    p.set_defaults(func=cmd_train)


def _add_predict(p):
    p.add_argument("--model", type=Path, required=True, help="model file")
    p.add_argument("--slide", type=Path, required=True, help="patch CSV")
    p.set_defaults(func=cmd_predict)


def _add_heatmap(p):
    p.add_argument("--slide", type=Path, required=True, help="patch CSV")
    p.add_argument("--out", type=Path, required=True, help="grid CSV path")
    p.set_defaults(func=cmd_heatmap)


# name -> (help, adds the subcommand's arguments), in the order of --help
COMMANDS = {
    "synth": ("generate a synthetic dataset", _add_synth),
    "extract": ("compute per-slide feature vectors", _add_extract),
    "cv": ("stratified K-fold cross-validation", _add_cv),
    "compare": ("cross-validate all classifiers", _add_compare),
    "train": ("train the wide-and-deep model", _add_train),
    "predict": ("classify one slide with a trained model", _add_predict),
    "heatmap": ("export a probability grid for a slide", _add_heatmap),
}


def build_parser(command: str | None = None) -> _Parser:
    """The command-line parser. Given a command, only that subcommand is
    built, for argument lists that start with it: every message a parse
    of such a list prints is the same as from the full parser, whose
    usage line, listing every command, it keeps."""
    parser = _Parser(prog="slidescreen",
                     description="slide-level cancer screening pipeline")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in COMMANDS.items():
        if command in (None, name):
            add_arguments(subs.add_parser(name, help=help_text))
    return parser


def cmd_synth(args) -> int:
    from . import synth
    cfg = synth.SynthConfig(
        n_slides_per_label=args.slides_per_label,
        grid_extent=args.grid,
        blob_count_range=tuple(args.blobs),
        blob_radius_range=tuple(args.blob_radius),
        noise_rate=args.noise_rate,
        seed=args.seed,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    manifest_path = synth.write_dataset(synth.generate_dataset(cfg), args.out)
    print(f"wrote {2 * cfg.n_slides_per_label} slides to {manifest_path}")
    return EXIT_OK


def _extract_entry(entry: ingest.ManifestEntry):
    slide = ingest.load_slide(entry)
    return slide.slide_id, slide.label, features.extract_features(slide.patches)


def _extract_all(manifest_path: Path, jobs: int):
    from . import evaluation
    return evaluation.parallel_map(_extract_entry, ingest.load_manifest(manifest_path), jobs)


def _check_out_file(path: Path) -> None:
    """Fail before any work if --out cannot be written as a file: its
    parent must be an existing directory and it must not be one."""
    if not path.parent.is_dir():
        raise NotADirectoryError(f"--out {path}: {path.parent} is not an existing directory")
    if path.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")


@contextlib.contextmanager
def _out_dir(path: Path):
    """Create the --out directory, and any missing parent, before any work;
    if the command then fails, each directory created here is removed
    again while still empty."""
    created = [p for p in (path, *path.parents) if not p.exists()]  # innermost first
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        with contextlib.suppress(OSError):
            for directory in created:
                directory.rmdir()
        raise


def cmd_extract(args) -> int:
    _check_out_file(args.out)
    rows = _extract_all(args.manifest, args.jobs)
    features.write_features_csv(rows, args.out)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return EXIT_OK


def _load_examples(args) -> list[evaluation.LabeledExample]:
    from . import evaluation
    if args.features is not None:
        rows = features.read_features_csv(args.features)
    else:
        rows = _extract_all(args.manifest, args.jobs)
    return [evaluation.LabeledExample(slide_id, row, label)
            for slide_id, label, row in rows]


def _train_config(args) -> netcore.TrainConfig:
    try:
        return netcore.TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                                   seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cross_validate(args, config: netcore.TrainConfig, kinds) -> dict:
    """The report of every classifier kind, keyed by kind, under one fold
    assignment of the dataset, with every (kind, fold) task in one pool."""
    from . import baselines, evaluation
    factories = {kind: baselines.classifier_factory(kind, config) for kind in kinds}
    return evaluation.cross_validate_each(_load_examples(args), factories, args.k,
                                          args.seed, jobs=args.jobs)


def cmd_cv(args) -> int:
    from . import evaluation
    config = _train_config(args)
    with _out_dir(args.out):
        report = _cross_validate(args, config, [args.model])[args.model]
        rows = [(str(f.fold), f.metrics) for f in report.folds] + [("average", report.average)]
        evaluation.write_report(args.out / "report", "fold", rows, evaluation.report_doc(report))
    print(f"wrote {args.out / 'report.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import evaluation
    repeated = sorted({m for m in args.models if args.models.count(m) > 1})
    if repeated:
        raise UsageError(f"--models names {', '.join(repeated)} more than once")
    config = _train_config(args)
    with _out_dir(args.out):
        reports = _cross_validate(args, config, args.models)
        evaluation.write_report(args.out / "comparison", "model",
                                [(kind, r.average) for kind, r in reports.items()],
                                {kind: evaluation.report_doc(r) for kind, r in reports.items()})
    print(f"wrote {args.out / 'comparison.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _train_config(args)
    _check_out_file(args.out)
    examples = _load_examples(args)
    clf = widedeep.WideDeepClassifier(config).fit([e.features for e in examples],
                                                  [e.label for e in examples], config.seed)
    meta = {"seed": args.seed, "epochs": args.epochs, "learning_rate": args.lr,
            "n_training_slides": len(examples), "loss": clf.loss_summary}
    netcore.save_model(clf.net, args.out, widedeep.WIDEDEEP_TAG, meta)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    net, _ = netcore.load_model(args.model, widedeep.WIDEDEEP_TAG, widedeep.widedeep_spec())
    row = features.extract_features(ingest.load_patches(args.slide))
    with np.errstate(over="ignore", invalid="ignore"):
        label, p = widedeep.predict_slide(net, row)
    if not math.isfinite(p):
        raise netcore.ModelFormatError(f"{args.model}: p(malignant) is {p} for {args.slide}")
    print(f"{ingest.LABEL_NAMES[label]} {p:.9f}")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    _check_out_file(args.out)
    patches = ingest.load_patches(args.slide)
    grid = np.empty((0, 0))
    if patches.size:
        # snap each patch center to its nearest grid cell; on collision the
        # highest probability wins (fmax ignores the NaN of empty cells)
        rows = (patches["y"] + GRID_SPACING // 2) // GRID_SPACING
        cols = (patches["x"] + GRID_SPACING // 2) // GRID_SPACING
        rows -= rows.min()
        cols -= cols.min()
        shape = (int(rows.max()) + 1, int(cols.max()) + 1)
        if shape[0] * shape[1] > MAX_HEATMAP_CELLS:
            raise GridTooLarge(
                f"{args.slide}: heatmap grid of {shape[0]} x {shape[1]} cells "
                f"exceeds {MAX_HEATMAP_CELLS} cells")
        grid = np.full(shape, np.nan)
        np.fmax.at(grid, (rows, cols), patches["prob_malignant"])
    lines = (",".join("" if math.isnan(v) else repr(v) for v in row.tolist()) + "\n"
             for row in grid)  # a row at a time: memory stays near the grid's own
    ingest.replace_files({args.out: lines})
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"slidescreen: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ingest.MissingFile, OSError, netcore.ModelFormatError) as exc:
        print(f"slidescreen: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ingest.IngestError, GridTooLarge) as exc:
        print(f"slidescreen: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # every pipeline failure is one
        print(f"slidescreen: pipeline failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())

"""Span recording around slidescreen's public entry points, from outside.

A Tracer swaps the function objects named in TARGETS for timing wrappers,
in every loaded ``slidescreen`` module that holds them (``from .netcore
import train`` leaves a second binding in widedeep and baselines), and on
the classes that own traced methods. Only the benchmark process is
affected; ``uninstall`` puts the originals back. Spans stay in memory.

A target the package no longer has is skipped, so a refactor that renames
an entry point reads as zero work in that layer instead of a crash.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

# (span name, module, attribute); "Class.method" attributes wrap a method.
TARGETS = (
    ("synth.generate_dataset", "synth", "generate_dataset"),
    ("synth.write_dataset", "synth", "write_dataset"),
    ("ingest.load_manifest", "ingest", "load_manifest"),
    ("ingest.load_slide", "ingest", "load_slide"),
    ("ingest.load_patches", "ingest", "load_patches"),
    ("features.extract_features", "features", "extract_features"),
    ("features.mtr", "features", "malignant_tissue_ratio"),
    ("features.mph", "features", "malignant_probability_histogram"),
    ("features.lsrl", "features", "least_squares_regression_line"),
    ("features.mcc", "features", "mcc_profile"),
    ("features.connected_components", "features", "connected_components"),
    ("features.write_csv", "features", "write_features_csv"),
    ("features.read_csv", "features", "read_features_csv"),
    ("netcore.train", "netcore", "train"),
    ("netcore.loss_and_gradients", "netcore", "loss_and_gradients"),
    ("netcore.forward", "netcore", "forward"),
    ("netcore.load_model", "netcore", "load_model"),
    ("netcore.save_model", "netcore", "save_model"),
    ("widedeep.features_to_inputs", "widedeep", "features_to_inputs"),
    ("widedeep.train", "widedeep", "train_widedeep"),
    ("widedeep.predict_proba", "widedeep", "predict_proba"),
    ("widedeep.predict_slide", "widedeep", "predict_slide"),
    ("widedeep.fit", "widedeep", "WideDeepClassifier.fit"),
    ("widedeep.predict", "widedeep", "WideDeepClassifier.predict_proba"),
    ("evaluation.stratified_kfold", "evaluation", "stratified_kfold"),
    ("evaluation.cross_validate", "evaluation", "cross_validate"),
    ("evaluation.roc_auc", "evaluation", "roc_auc"),
    ("evaluation.write_report", "evaluation", "write_report_csv"),
    ("evaluation.write_report", "evaluation", "write_report_json"),
    ("baselines.run_comparison", "baselines", "run_comparison"),
    ("baselines.ann.fit", "baselines", "AnnClassifier.fit"),
    ("baselines.ann.predict", "baselines", "AnnClassifier.predict_proba"),
    ("baselines.svm.fit", "baselines", "LinearSvmClassifier.fit"),
    ("baselines.svm.predict", "baselines", "LinearSvmClassifier.predict_proba"),
    ("baselines.rf.fit", "baselines", "RandomForestClassifier.fit"),
    ("baselines.rf.predict", "baselines", "RandomForestClassifier.predict_proba"),
    ("baselines.knn.fit", "baselines", "KnnClassifier.fit"),
    ("baselines.knn.predict", "baselines", "KnnClassifier.predict_proba"),
    ("baselines.write_comparison", "baselines", "write_comparison_csv"),
    ("baselines.write_comparison", "baselines", "write_comparison_json"),
)


def dense_flops(net, n_rows: int) -> int:
    """FLOPs of one full-batch epoch, computed from the layer shapes: per
    dense layer a forward product and two backward products (weight
    gradient and input gradient), each 2*n*in*out."""
    return sum(6 * n_rows * w.shape[0] * w.shape[1]
               for w in net.parameter_arrays() if w.ndim == 2)


def _attrs(name: str, args, result) -> dict | None:
    """Counts recorded at the boundary where the work happens."""
    if name == "ingest.load_patches":
        return {"patches": len(result), "bytes": os.path.getsize(args[0])}
    if name == "features.connected_components":
        return {"radius": int(args[1]), "points": len(args[0]),
                "components": len(result)}
    if name == "netcore.loss_and_gradients":
        n_rows = len(next(iter(args[1].values())))
        return {"flops": dense_flops(args[0], n_rows)}
    if name in ("netcore.load_model", "netcore.save_model"):
        return {"bytes": os.path.getsize(args[0] if name == "netcore.load_model"
                                         else args[1])}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            try:
                span.attrs = _attrs(name, args, result)
            except (TypeError, IndexError, StopIteration, AttributeError, OSError):
                span.attrs = None  # an entry point whose signature changed
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("slidescreen.") and m is not None]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(f"slidescreen.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method or attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._swap(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)

    def _swap(self, owner, attr: str, value) -> None:
        self._swapped.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)


LAYERS = ("ingest", "features", "netcore", "widedeep", "evaluation", "baselines")


class SpanView:
    """The spans that began inside some time windows (the traced passes)."""

    def __init__(self, tracer: Tracer, windows: list[tuple[float, float]]):
        self.wall = sum(end - start for start, end in windows)
        self.index = [i for i, s in enumerate(tracer.spans)
                      if any(a <= s.start and s.end <= b for a, b in windows)]
        self.spans = tracer.spans
        child_time = {i: 0.0 for i in self.index}
        for i in self.index:
            parent = self.spans[i].parent
            if parent in child_time:
                child_time[parent] += self.spans[i].duration
        self.self_time = {i: self.spans[i].duration - child_time[i]
                          for i in self.index}

    def named(self, name: str) -> list[Span]:
        return [self.spans[i] for i in self.index if self.spans[i].name == name]

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def pct(self, seconds: float) -> float:
        return 100.0 * seconds / self.wall if self.wall else 0.0

    def total(self, name: str, key: str) -> int:
        return sum(s.attrs[key] for s in self.named(name) if s.attrs)

    def layer_self(self, layer: str) -> float:
        return sum(t for i, t in self.self_time.items()
                   if self.spans[i].name.split(".")[0] == layer)

    def coverage_pct(self) -> float:
        return self.pct(sum(self.spans[i].duration for i in self.index
                            if self.spans[i].parent == -1))


MCC_RADII = (142, 283, 425, 566, 708)  # px, the paper's five radii
CLASSIFIERS = ("ann", "svm", "rf", "knn")
FIT_SPANS = ("widedeep.fit",) + tuple(f"baselines.{k}.fit" for k in CLASSIFIERS)


def per_layer(view: SpanView, first: SpanView) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes in ``view``; counts come from
    ``first``, one pass, so they repeat exactly. Busy time is given as a
    share of the traced pass wall time, so a layer a workload leaves idle
    reads 0 % rather than an absolute time of zero."""
    m: dict[str, tuple[float, str]] = {}

    def share(metric: str, span: str) -> None:
        m[metric] = (view.pct(view.busy(span)), "%")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_pct"] = (view.pct(view.layer_self(layer)), "%")

    share("ingest.load_manifest_pct", "ingest.load_manifest")
    share("ingest.load_patches_pct", "ingest.load_patches")
    m["ingest.patches"] = (first.total("ingest.load_patches", "patches"), "count")
    m["ingest.mb_read"] = (first.total("ingest.load_patches", "bytes") / 2**20, "MiB")
    m["ingest.patches_per_s"] = (ratio(view.total("ingest.load_patches", "patches"),
                                       view.busy("ingest.load_patches")), "1/s")

    for key in ("mtr", "mph", "lsrl", "mcc", "write_csv", "read_csv"):
        share(f"features.{key}_pct", f"features.{key}")
    m["features.slides"] = (len(first.named("features.extract_features")), "count")
    calls = [s for s in view.named("features.connected_components") if s.attrs]
    first_calls = [s for s in first.named("features.connected_components") if s.attrs]
    for r in MCC_RADII:
        busy = sum(s.duration for s in calls if s.attrs["radius"] == r)
        m[f"features.components_pct.r{r}"] = (view.pct(busy), "%")
        m[f"features.components.r{r}"] = (
            sum(s.attrs["components"] for s in first_calls if s.attrs["radius"] == r),
            "count")
    m["features.malignant_patches"] = (
        sum(s.attrs["points"] for s in first_calls if s.attrs["radius"] == MCC_RADII[0]),
        "count")

    train = view.busy("netcore.train")
    steps = view.named("netcore.loss_and_gradients")
    step_time = sum(s.duration for s in steps)
    flops = sum(s.attrs["flops"] for s in steps if s.attrs)
    m["netcore.epochs"] = (len(first.named("netcore.loss_and_gradients")), "count")
    m["netcore.epochs_per_s"] = (ratio(len(steps), train), "1/s")
    m["netcore.flops_per_epoch"] = (ratio(flops, len(steps)), "FLOP")
    m["netcore.gflops"] = (ratio(flops, train) / 1e9, "GFLOP/s")
    m["netcore.loss_and_gradients_pct"] = (100.0 * ratio(step_time, train), "%")
    m["netcore.optimizer_pct"] = (100.0 * ratio(train - step_time, train), "%")
    m["netcore.forward_calls"] = (len(first.named("netcore.forward")), "count")
    share("netcore.load_model_pct", "netcore.load_model")
    m["netcore.load_model_mb_per_s"] = (ratio(view.total("netcore.load_model", "bytes") / 2**20,
                                              view.busy("netcore.load_model")), "MiB/s")

    for key in ("features_to_inputs", "train", "predict_proba"):
        share(f"widedeep.{key}_pct", f"widedeep.{key}")

    m["evaluation.folds"] = (sum(len(first.named(n)) for n in FIT_SPANS), "count")
    for key in ("cross_validate", "stratified_kfold", "roc_auc"):
        share(f"evaluation.{key}_pct", f"evaluation.{key}")

    for kind in CLASSIFIERS:
        share(f"baselines.{kind}.fit_pct", f"baselines.{kind}.fit")
        share(f"baselines.{kind}.predict_pct", f"baselines.{kind}.predict")
    return m

#!/usr/bin/env python3
"""slidescreen benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload extract --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all

Each workload is set up SETUP_REPEATS times (setup_s is the median), then
measured for --seconds in a fresh child process, so peak_rss_mb is the
measured phase's own. --trace 0 prints the end-to-end metrics; --trace 1
wraps the package's entry points and prints the per-layer metrics. The
last line of stdout is one JSON object; the exit code is 1 when an output
check fails and 2 when the checkout has no slidescreen sources.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("extract", "cv-widedeep", "compare-baselines", "screen")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170  # one run, set-up included, must end well within 180 s
PROBE_EPOCHS = 10
PROBE_ROWS = 160  # training rows of one fold of 200 slides at k=5


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 100, ordered[-1]
    return round(100 * (len(ordered) - 10) / len(ordered)), ordered[-11]


def distribution(samples: list[float]) -> dict:
    q, value = tail(samples)
    return {"n": len(samples), "p50": statistics.median(samples), f"p{q}": value}


def netcore_probe(spans) -> dict:
    """Epoch split and gemm ceiling of the engine at the wide-and-deep
    training shape (PROBE_ROWS rows), measured from outside."""
    import numpy as np

    from slidescreen import netcore, widedeep

    rng = np.random.default_rng(0)
    net = widedeep.build_widedeep(seed=0)
    inputs = {name: rng.random((PROBE_ROWS, width))
              for name, width in net.spec.input_widths().items()}
    labels = np.arange(PROBE_ROWS) % 2
    probe = spans.Tracer()
    probe.install()
    try:
        netcore.train(net, inputs, labels, netcore.TrainConfig(epochs=PROBE_EPOCHS))
    finally:
        probe.uninstall()
    epoch_s = sum(s.duration for s in probe.spans if s.name == "netcore.train") / PROBE_EPOCHS
    step_s = sum(s.duration for s in probe.spans
                 if s.name == "netcore.loss_and_gradients") / PROBE_EPOCHS

    def best_of(fn, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    forward_s = best_of(lambda: netcore.forward(net, inputs))
    weights = [w for w in net.parameter_arrays() if w.ndim == 2]
    operands = [(rng.random((PROBE_ROWS, w.shape[1])), rng.random((PROBE_ROWS, w.shape[0])), w)
                for w in weights]

    def gemms():
        for a, d, w in operands:
            a @ w.T
            d.T @ a
            d @ w

    gemm_s = best_of(gemms)
    return {
        "netcore.probe_epoch_ms": (1e3 * epoch_s, "ms"),
        "netcore.probe_loss_and_gradients_ms": (1e3 * step_s, "ms"),
        "netcore.probe_forward_ms": (1e3 * forward_s, "ms"),
        "netcore.probe_backward_ms": (1e3 * (step_s - forward_s), "ms"),
        "netcore.probe_optimizer_ms": (1e3 * (epoch_s - step_s), "ms"),
        "netcore.gemm_gflops": (spans.dense_flops(net, PROBE_ROWS) / gemm_s / 1e9, "GFLOP/s"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Child process: timed passes, then quality, output checks and digests."""
    import spans
    import workloads

    w = workloads.WORKLOADS[name]
    setup, out = WORK / name / "setup", WORK / name / "out"
    tracer = spans.Tracer() if trace else None

    def one_pass(jobs):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        result = w.run_pass(setup, out, seed, jobs)
        return result, (t0, time.perf_counter())

    if tracer:
        tracer.install()
    # Passes run back to back until the next one would end nearer past
    # --seconds than the last one ended before it (at least one pass).
    passes, windows = [], []
    begin = time.perf_counter()
    while not windows or (windows[-1][1] - begin
                          < seconds - statistics.mean(b - a for a, b in windows) / 2):
        result, window = one_pass(w.jobs)
        passes.append(result)
        windows.append(window)
    detail = windows
    if tracer and w.jobs > 1:
        # Spans of pool workers stay in the workers: take fold detail from
        # one more pass at --jobs 1.
        result, window = one_pass(1)
        passes.append(result)
        detail = [window]
    if tracer:
        tracer.uninstall()

    walls = [b - a for a, b in windows]
    errors = []
    if any(p.failed for p in passes):
        errors.append("a slidescreen command exited nonzero")
    if len({p.digest for p in passes}) != 1:
        errors.append("passes of one run produced different outputs")
    accuracy = auc = 0.0
    per_model = {}
    if not passes[-1].failed:
        accuracy, auc, per_model = w.quality(setup, out, seed, passes[-1])
        features_csv = w.features_csv(setup, out)
        errors += workloads.check_feature_rows(features_csv)
        errors += workloads.check_components_against_oracle(
            features_csv, setup / w.slides / "manifest.csv", ROOT / "tests")
    digests = {"pass_output": passes[-1].digest,
               "features_csv": workloads.sha256_file(w.features_csv(setup, out))
               if not passes[-1].failed else "",
               **w.model_digest(setup, seed)}

    info = {"passes": len(passes), "pass_wall_s": walls, "digests": digests,
            "quality": per_model}
    if passes[-1].latencies_ms:
        info["call_ms"] = distribution([x for p in passes[:len(windows)]
                                        for x in p.latencies_ms])
    if tracer:
        view, first = spans.SpanView(tracer, detail), spans.SpanView(tracer, detail[:1])
        metrics = spans.per_layer(view, first)
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
        metrics["trace.coverage_pct"] = (spans.SpanView(tracer, windows).coverage_pct(), "%")
        fold_busy = sum(view.busy(n) for n in spans.FIT_SPANS) + sum(
            view.busy(n) for n in ("widedeep.predict", *(f"baselines.{k}.predict"
                                                         for k in spans.CLASSIFIERS)))
        metrics["evaluation.parallel_efficiency"] = (
            fold_busy / len(detail) / (w.jobs * statistics.median(walls)), "ratio")
        for kind in spans.CLASSIFIERS:
            metrics[f"baselines.{kind}.accuracy_pct"] = (
                per_model.get(kind, {}).get("accuracy_pct", 0.0), "%")
        metrics.update(netcore_probe(spans))
        slide_ms = [1e3 * (a.duration + b.duration) for a, b in
                    zip(view.named("ingest.load_slide"), view.named("features.extract_features"))]
        if slide_ms:
            info["slide_ms"] = distribution(slide_ms)
    else:
        # ru_maxrss of this process would include the parent's peak, which
        # the kernel carries across exec; VmHWM is this process's own.
        status = Path("/proc/self/status").read_text().splitlines()
        own_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        rss_kib = max(own_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "peak_rss_mb": (rss_kib / 1024, "MiB"),
                   "accuracy_pct": (accuracy, "%"),
                   "auc": (auc, "ratio")}
    return {"metrics": metrics, "errors": errors, "info": info,
            "attempted": sum(p.ops for p in passes),
            "failed": sum(p.failed for p in passes)}


def code_digest() -> str:
    """Identity of the program and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def run_metadata(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "blas": blas, "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit(), "code_sha256": code_digest()}


def check_digest_history(name: str, seed: int, code: str, digests: dict) -> list[str]:
    """Digests of an earlier run of the same code, workload and seed must
    match this run's."""
    path = WORK / "digests.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{name}:{seed}:{code}"
    earlier = history.setdefault(key, digests)
    path.write_text(json.dumps(history, indent=1, sort_keys=True))
    return [f"digest {k} differs from an earlier run of the same code and seed"
            for k in digests if earlier.get(k) != digests[k]]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    started = time.perf_counter()
    w = workloads.WORKLOADS[name]
    shutil.rmtree(WORK / name, ignore_errors=True)
    setup = WORK / name / "setup"
    tracer = spans.Tracer() if trace else None
    setup_s, setup_windows = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(setup, ignore_errors=True)
        setup.mkdir(parents=True)
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            w.setup(setup, seed)
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.uninstall()
        setup_s.append(t1 - t0)
        setup_windows.append((t0, t1))

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True,
        timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    if child.returncode != 0:
        raise RuntimeError(f"measurement of {name} exited {child.returncode}")
    result = json.loads(child.stdout.splitlines()[-1])
    meta = run_metadata(name, seed, seconds, trace)
    result["errors"] += check_digest_history(name, seed, meta["code_sha256"],
                                             result["info"]["digests"])
    metrics = result["metrics"]
    if trace:
        views = [spans.SpanView(tracer, [window]) for window in setup_windows]
        for metric, span in (("synth.generate_s", "synth.generate_dataset"),
                             ("synth.write_s", "synth.write_dataset")):
            metrics[metric] = (statistics.median(v.busy(span) for v in views), "s")
        save_s = sum(v.busy("netcore.save_model") for v in views)
        saved = sum(v.total("netcore.save_model", "bytes") for v in views)
        metrics["netcore.save_model_mb_per_s"] = (saved / 2**20 / save_s if save_s else 0.0,
                                                  "MiB/s")
    else:
        metrics["setup_s"] = (statistics.median(setup_s), "s")
    result["info"]["setup_s"] = setup_s
    result["meta"] = meta
    return result


def report(name: str, result: dict) -> None:
    print(f"== {name}")
    for metric, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {metric:40s} {value:14.6g} {unit}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")
    print("info " + json.dumps({**result["meta"], **result["info"]}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "slidescreen" / "__init__.py").is_file():
        print(f"perfbench: no slidescreen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.measure:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    for result in results.values():
        if set(result["metrics"]) != expected:
            result["errors"].append("metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(result['metrics']) ^ expected)}")
    for name, result in results.items():
        report(name, result)

    def value(v):
        return {"value": v[0], "unit": v[1]}

    if len(results) == 1:
        metrics = {m: value(v) for m, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{name}.{m}": value(v) for name, result in results.items()
                   for m, v in result["metrics"].items()}
    correct = all(not r["errors"] and not r["failed"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

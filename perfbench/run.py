#!/usr/bin/env python3
"""pada-lab benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload loo-pada --seed 1 --seconds 20 --trace 0

Workloads are `loo-pada`, `loo-cls` and `predict` (see workloads.py).
The seed fixes the synthetic corpus, the training seed and the request
order. One process, single-threaded: the program's thread pool and BLAS
are pinned to one thread before numpy loads.

With --trace 0 the run sets up three times, then times operations (one
leave-one-out grid, or one request) for about --seconds, and reports the
end-to-end metrics. Every timed span sits between two samples of a fixed
reference loop, which scale it to one host speed (see REF_MS). With --trace 1 it sets up once under the tracer,
then alternates untraced and traced passes over the same operations and
reports per-layer metrics from the set-up and the first traced pass,
plus the tracing overhead. Either way the last line of standard output
is one JSON object: correct, attempted, failed and metrics. Reports and
spans are written under .perfbench/ in the working directory.
"""

import os

THREAD_ENV = {
    "PADA_LAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3

# Gated end-to-end metrics, present on every workload. The times are at a
# fixed host speed: each timed span is divided by the reference loop's
# time beside it and multiplied by REF_MS. setup_s is the median of
# SETUP_REPEATS imports of the program, each in a fresh interpreter, plus
# the median of as many set-ups; op_norm_ms is the median operation, a
# grid on loo-*, a request on predict. The raw times are in the report.
END_TO_END = {
    "setup_s": "s",
    "op_norm_ms": "ms",
    "peak_rss_mb": "MB",
}

# A shared 2-vCPU host switches between a fast and a ~1.5x slower mode
# for seconds to minutes at a time, so raw medians of runs minutes apart
# spread by up to 45%. The program and the reference loop slow down alike,
# so their ratio holds still. REF_MS is the loop's time in the fast mode
# of that host (x86_64, Python 3.11, numpy 2.4 on OpenBLAS, one thread).
REF_MS = 1.5


def reference_s(units: int) -> float:
    """One reference sample: the median time of `units` loops. The loop
    does the program's three kinds of work in about equal time: numpy
    calls on tiny arrays with dict updates, mid-sized matrix products, and
    plain Python arithmetic. It is benchmark code, so no change to the
    program moves it."""
    import numpy as np

    rng = np.random.default_rng(0)
    tiny, tiny_w = rng.standard_normal((2, 64)), rng.standard_normal((64, 64))
    mid, mid_w = rng.standard_normal((64, 128)), rng.standard_normal((128, 128))
    times = []
    for _ in range(units):
        start = time.perf_counter()
        acc, counts = 0.0, {}
        for i in range(100):
            acc += float(np.tanh(tiny @ tiny_w).sum())
            counts[i % 7] = counts.get(i % 7, 0) + i
            acc += sum(counts.values()) * 1e-9
        for _ in range(10):
            acc += float(np.tanh(mid @ mid_w).sum())
        n = 0
        for i in range(8000):
            n += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="pada-lab benchmark")
    ap.add_argument("--workload", required=True, choices=("loo-pada", "loo-cls", "predict"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program(src: Path) -> float:
    """Put the checkout's sources first on the path and import them;
    returns the import time in seconds."""
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import pada_lab

    import_s = time.perf_counter() - start
    if Path(pada_lab.__file__).resolve().parent != (src / "pada_lab").resolve():
        raise ImportError(f"pada_lab imported from {pada_lab.__file__}, not from {src}")
    return import_s


FRESH_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy; from pada_lab import baselines, corpus, harness, training; "
    "print(time.perf_counter() - start)"
)


def fresh_import_s(src: Path) -> float:
    """The program's import time in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", FRESH_IMPORT, str(src)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def host_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_op(wl, state):
    try:
        return wl.op(state)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        return wl.failed_op(state)


def run_pass(wl, state, n_ops, tally):
    """The first n_ops operations of the workload; returns their summed time."""
    state["ops"] = 0
    total = 0.0
    for _ in range(n_ops):
        outcome = run_op(wl, state)
        tally(outcome)
        total += outcome.seconds
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "pada_lab" / "__init__.py").is_file():
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    import_s = import_program(src)

    from layers import EXACT_COUNTS, LAYERS, PACKAGE, PER_LAYER, layer_metrics
    from tracer import Tracer, to_json
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work_dir = root / ".perfbench" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)

    totals = {"attempted": 0, "failed": 0}
    errors: list[str] = []

    def tally(outcome):
        totals["attempted"] += outcome.attempted
        totals["failed"] += outcome.failed
        errors.extend(outcome.errors)

    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "params": wl.params(), "host": host_info(),
              "import_s": import_s}

    if args.trace == 0:
        refs = [reference_s(3)]

        def normalized(seconds):
            """seconds at the host speed where the reference loop takes
            REF_MS, by the reference samples before and after them. The
            sample after a longer span is larger, at about 5% of it."""
            refs.append(reference_s(min(60, max(3, round(seconds / 0.03)))))
            return seconds * REF_MS / 1000 / ((refs[-2] + refs[-1]) / 2)

        import_times, import_norm = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(fresh_import_s(src))
            import_norm.append(normalized(import_times[-1]))
        setup_times, setup_norm = [], []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = wl.setup(args.seed, work_dir / f"setup-{i}")
            setup_times.append(time.perf_counter() - start)
            setup_norm.append(normalized(setup_times[-1]))
        durations, op_norm = [], []
        start = time.perf_counter()
        while len(durations) < wl.min_ops(state) or (
            time.perf_counter() - start + durations[-1] <= args.seconds
        ):
            outcome = run_op(wl, state)
            tally(outcome)
            durations.append(outcome.seconds)
            norm = normalized(outcome.seconds)
            if outcome.seconds > 0:
                op_norm.append(norm)
        ok = [d for d in durations if d > 0]
        metrics = {
            "setup_s": statistics.median(import_norm) + statistics.median(setup_norm),
            # no op: correct is false
            "op_norm_ms": statistics.median(op_norm) * 1000 if op_norm else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        report["setup_raw_s"] = statistics.median(import_times) + statistics.median(setup_times)
        report["import_repeats_s"] = import_times
        report["setup_repeats_s"] = setup_times
        report["op_s"] = durations
        report["ref_s"] = refs
        report["op_p50_ms"] = statistics.median(ok) * 1000 if ok else None
        report["ref_p50_ms"] = statistics.median(refs) * 1000
        report.update(wl.report(state, ok))
    else:
        setup_tracer = Tracer()
        with setup_tracer.installed(LAYERS, PACKAGE), setup_tracer.span("setup"):
            state = wl.setup(args.seed, work_dir / "setup-0")
        untraced, traced, pass_tracers = [], [], []
        start = time.perf_counter()
        while not traced or (
            time.perf_counter() - start + untraced[-1] + traced[-1] <= args.seconds
        ):
            untraced.append(run_pass(wl, state, wl.ops_per_pass, tally))
            tracer = Tracer()
            with tracer.installed(LAYERS, PACKAGE), tracer.span("pass"):
                traced.append(run_pass(wl, state, wl.ops_per_pass, tally))
            pass_tracers.append(tracer)
        metrics = layer_metrics(setup_tracer.spans, pass_tracers[0].spans)
        base = statistics.median(untraced)
        metrics["trace.overhead_share"] = (statistics.median(traced) - base) / base if base else 0.0
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        report["counts"] = {k: metrics[k] for k in EXACT_COUNTS}
        pass_counts = [
            {k: v for k, v in layer_metrics(t.spans).items() if k in EXACT_COUNTS}
            for t in pass_tracers
        ]
        if any(c != pass_counts[0] for c in pass_counts):
            errors.append("exact counts differ between traced passes of one run")
        report["pass_s"] = {"untraced": untraced, "traced": traced}
        with open(work_dir / "trace.json", "w") as f:
            json.dump({"setup": to_json(setup_tracer.spans),
                       "passes": [to_json(t.spans) for t in pass_tracers]}, f)

    errors.extend(wl.consistent(state))
    report["failed_share"] = totals["failed"] / totals["attempted"] if totals["attempted"] else 1.0
    report["errors"] = errors[:20]
    report["metrics"] = metrics
    with open(work_dir / "report.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print(f"{wl.name} seed={args.seed} trace={args.trace} host={json.dumps(report['host'])}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    extras = {k: v for k, v in report.items()
              if k not in ("host", "metrics", "params", "errors")}
    print("report " + json.dumps(extras, sort_keys=True))
    for e in errors[:20]:
        print(f"error: {e}")
    result = {
        "correct": totals["failed"] == 0 and not errors and totals["attempted"] > 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

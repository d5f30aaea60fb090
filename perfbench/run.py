"""Benchmark of the dvarimax estimator: fit throughput and time per fit.

Run from the root of a checkout (see perfbench/README.md):

    python3 perfbench/run.py --workload estimate-tall --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: the next call starts only
after the previous one returns.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
calls on the same input and reports per-layer metrics from the spans.  The
last line of standard output is one JSON object; the lines before it give
the machine facts and failure reasons.  Spans and details are written to
``perfbench/out/``.  The exit code is nonzero when an output check fails.
"""
from __future__ import annotations

import os
import sys

# One BLAS thread: the fits are small and single-caller, and on a 2-vCPU
# VM two threads spread estimate-wide wider (29-50% over 5 same-input
# calls, against 4-33% with one).  Set before numpy is imported, and
# inherited by the set-up probes.
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import INIT_SPAN, PROVIDER_SPAN, Tracer, per_fit  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 3
UNIT_NORM_TOL = 1e-10


def import_package():
    """Import dvarimax from this checkout's sources, never from elsewhere."""
    if not (SRC / "dvarimax" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dvarimax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dvarimax
    if Path(dvarimax.__file__).resolve().parent != SRC / "dvarimax":
        sys.exit(f"perfbench: imported dvarimax from {dvarimax.__file__}, "
                 f"not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count numpy's OpenBLAS reports, or None if it cannot be read."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# Set-up, timed loop, checks
# ---------------------------------------------------------------------------

def prepare(workload, seed: int) -> list:
    """Generate the workload's inputs and run one untimed warm-up fit."""
    inputs = workload.make_inputs(seed)
    workload.warm_up(inputs)
    return inputs


def measure_setup(workload, seed: int) -> float:
    """Median time from process start to the first timed call, over fresh
    processes that import, generate the inputs and warm up, then report."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload.name, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit("perfbench: set-up probe failed")
    return statistics.median(samples)


def output_problem(fit) -> str:
    """Why a fit that did not fail returned an unacceptable estimate, or ''.
    A fit whose estimate could not be observed is counted as unchecked."""
    if fit.failed or fit.lambda_hat is None:
        return ""
    if not np.all(np.isfinite(fit.lambda_hat)):
        return "non-finite lambda_hat"
    norm = np.linalg.norm(fit.lambda_hat, 2)
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        return f"lambda_hat operator norm {norm!r} is not 1"
    return ""


def check_reference(workload) -> tuple[list, list]:
    """Fit the fixed reference set; return (errors, problems)."""
    fits = [fit for item in workload.reference_inputs()
            for fit in workload.call(item, 0)]
    errors = [fit.error for fit in fits]
    problems = [p for p in map(output_problem, fits) if p]
    problems += [f"reference fit failed: {fit.failure}" for fit in fits if fit.failed]
    reference = json.loads(REFERENCE.read_text())
    expected = reference["errors"].get(workload.name)
    if expected is None or len(expected) != len(errors):
        problems.append("no committed reference errors for this workload")
    else:
        tol = reference["relative_tolerance"]
        problems += [f"reference error {got!r} differs from {want!r}"
                     for got, want in zip(errors, expected)
                     if not abs(got - want) <= tol * abs(want)]
    return errors, problems


def timed_loop(workload, inputs, seconds: float) -> list:
    """Closed loop of calls until ``seconds`` have passed; returns the fits."""
    fits = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        fits += workload.call(inputs[i % len(inputs)], i)
        i += 1
    return fits


def traced_loop(workload, inputs, seconds: float, tracer):
    """Alternate untraced and traced calls on the same input and rng tag,
    swapping which goes first, until ``seconds`` have passed.  Returns the
    two lists of calls, each a list of fits; traced call i has fit id i."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        i = len(plain)
        item = inputs[i % len(inputs)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.append(workload.call(
                        item, i, around=lambda: tracer.fit(i, workload.span)))
            else:
                plain.append(workload.call(item, i))
    return plain, traced


def same_output(a, b) -> bool:
    if a.lambda_hat is None or b.lambda_hat is None:
        return a.lambda_hat is b.lambda_hat and a.failure == b.failure
    return (a.lambda_hat.shape == b.lambda_hat.shape
            and a.lambda_hat.tobytes() == b.lambda_hat.tobytes())


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(fits, setup_s: float, reference_errors) -> dict:
    ok = [fit for fit in fits if not fit.failed]
    seconds = sum(fit.seconds for fit in fits)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "fits_per_s": (len(ok) / seconds, "1/s"),
        "fit_ms_p50": (1e3 * median(fit.seconds for fit in ok), "ms"),
        "error_median": (median(reference_errors), "1"),
        "ok_frac": (len(ok) / len(fits), "ratio"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


PER_LAYER_UNITS = {
    "rotation.pgd_solve_ms": "ms",
    "rotation.us_per_iter": "us",
    "rotation.iters": "count",
    "rotation.converged_frac": "ratio",
    "rotation.symmetric_orthogonalize_ms": "ms",
    "rotation.deflate_self_ms": "ms",
    "initialization.init_ms": "ms",
    "initialization.calls": "count",
    "spectral.eigendecompose_ms": "ms",
    "spectral.corrected_decomposition_ms": "ms",
    "estimator.loading_from_rotation_ms": "ms",
    "estimator.self_ms": "ms",
    "model.generate_dataset_ms": "ms",
    "evaluate.signed_permutation_error_ms": "ms",
    "evaluate.run_experiment_self_ms": "ms",
    "trace_overhead_frac": "ratio",
}


def layer_row(fits: list, spans: dict) -> dict:
    """Per-layer values per fit of one traced call that made ``fits``;
    ``spans`` maps a span name to (count, total seconds, self seconds)
    within the call."""
    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / len(fits)

    def total_ms(*names):
        return 1e3 * sum(spans.get(name, (0, 0.0, 0.0))[1]
                         for name in names) / len(fits)

    def self_ms(name):
        return 1e3 * spans.get(name, (0, 0.0, 0.0))[2] / len(fits)

    iters = sum(int(sum(fit.iter_counts)) for fit in fits) / len(fits)
    converged = np.concatenate([fit.converged for fit in fits])
    pgd_ms = total_ms("rotation.pgd_solve")
    return {
        "rotation.pgd_solve_ms": pgd_ms,
        "rotation.us_per_iter": 1e3 * pgd_ms / iters if pgd_ms and iters else None,
        "rotation.iters": iters,
        "rotation.converged_frac": (float(converged.mean())
                                    if converged.size else None),
        "rotation.symmetric_orthogonalize_ms": total_ms("rotation.symmetric_orthogonalize"),
        "rotation.deflate_self_ms": self_ms("rotation.deflate"),
        "initialization.init_ms": total_ms(PROVIDER_SPAN, INIT_SPAN),
        "initialization.calls": count(INIT_SPAN),
        "spectral.eigendecompose_ms": total_ms("spectral.eigendecompose"),
        "spectral.corrected_decomposition_ms": total_ms("spectral.corrected_decomposition"),
        "estimator.loading_from_rotation_ms": total_ms("estimator.loading_from_rotation"),
        "estimator.self_ms": self_ms("estimator.estimate_loading"),
        "model.generate_dataset_ms": total_ms("model.generate_dataset"),
        "evaluate.signed_permutation_error_ms": total_ms("evaluate.signed_permutation_error"),
        "evaluate.run_experiment_self_ms": self_ms("evaluate.run_experiment"),
    }


def call_seconds(fits: list) -> float:
    return sum(fit.seconds for fit in fits)


def per_layer(tracer, plain, traced) -> tuple[dict, dict]:
    """Per-layer metrics (median over calls of the value per fit) and the
    median self ms per fit of each layer, the two initialization spans
    counted as one layer."""
    table = per_fit(tracer.spans)
    rows = [dict(layer_row(fits, table.get(i, {})),
                 trace_overhead_frac=call_seconds(fits) / call_seconds(untraced) - 1.0)
            for i, (untraced, fits) in enumerate(zip(plain, traced))]
    metrics = {name: (median(row[name] for row in rows), unit)
               for name, unit in PER_LAYER_UNITS.items()}

    def layer(name):
        return "initialization" if name.startswith("initialization.") else name

    layers = {layer(name) for spans in table.values() for name in spans}
    self_ms = {key: median(1e3 * sum(entry[2] for name, entry in table.get(i, {}).items()
                                     if layer(name) == key) / len(fits)
                           for i, fits in enumerate(traced))
               for key in sorted(layers)}
    return metrics, self_ms


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(workload, args) -> int:
    if args.setup_probe:
        prepare(workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = 0.0 if args.trace else measure_setup(workload, args.seed)
    inputs = prepare(workload, args.seed)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "machine": machine_facts()}
    problems = []
    if args.trace:
        tracer = Tracer()
        plain, traced = traced_loop(workload, inputs, args.seconds, tracer)
        fits = [fit for call in plain + traced for fit in call]
        problems += [f"call {i}: traced output differs from untraced"
                     for i, (p, t) in enumerate(zip(plain, traced))
                     if len(p) != len(t) or not all(map(same_output, p, t))]
        metrics, info["self_ms_by_layer"] = per_layer(tracer, plain, traced)
        info["absent_layers"] = tracer.absent
        info["largest_self"] = max(info["self_ms_by_layer"],
                                   key=info["self_ms_by_layer"].get)
        info["spans"] = [span.__dict__ for span in tracer.spans]
    else:
        fits = timed_loop(workload, inputs, args.seconds)
    reference_errors, reference_problems = check_reference(workload)
    problems += reference_problems
    problems += [f"fit {i}: {p}" for i, p in enumerate(map(output_problem, fits)) if p]
    if not args.trace:
        metrics = end_to_end(fits, setup_s, reference_errors)

    failed = [fit for fit in fits if fit.failed]
    info.update({
        "fits": len(fits),
        "fail_frac": len(failed) / len(fits),
        "fail_reasons": sorted({fit.failure or "non-finite error" for fit in failed}),
        "unchecked": sum(fit.lambda_hat is None for fit in fits if not fit.failed),
        "reference_errors": reference_errors,
        "problems": problems,
    })
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(info, indent=1) + "\n")
    info.pop("spans", None)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(fits),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(names, args) -> int:
    """Run every workload, each in a process of its own, and print a table."""
    results = {}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
        for metric, entry in results[name].get("metrics", {}).items():
            print(f"{name:<15} {metric:<38} {entry['value']:>14.6g} {entry['unit']}")
    correct = all(r.get("correct", False) for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {f"{w}.{m}": entry for w, r in results.items()
                    for m, entry in r.get("metrics", {}).items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or 'all'")
    return run_workload(WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())

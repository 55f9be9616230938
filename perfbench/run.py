"""Benchmark of the putget law checker: one workload per run.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``pass_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics from
traced passes.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment and a readable summary, including
``mismatch_frac`` (failed over attempted items).  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

try:
    import workloads
except ImportError as exc:  # no putget sources beside the benchmark
    raise SystemExit(f"error: {exc}")

import numpy as np  # noqa: E402  (after workloads has set the BLAS thread count)

HERE = Path(__file__).resolve().parent

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 11
SETUP_PROBE_TIMEOUT_S = 60
# Fewest timed passes a run makes, however short --seconds is.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "tensors.self_s": "s",
    "tensors.compose.calls": "count",
    "tensors.compose.self_s": "s",
    "tensors.compose.flops": "MAC",
    "tensors.tensor.calls": "count",
    "tensors.tensor.self_s": "s",
    "tensors.bytes_built": "B",
    "tensors.peak_elems": "count",
    "finsets.self_s": "s",
    "finsets.fun_compose.calls": "count",
    "finsets.fun_compose.self_s": "s",
    "finsets.fun_product.calls": "count",
    "finsets.fun_product.self_s": "s",
    "finsets.entries_built": "count",
    "structures.self_s": "s",
    "structures.check_law.calls": "count",
    "structures.check_law.distinct": "count",
    "structures.law_reuse": "ratio",
    "structures.check_law.self_s": "s",
    "structures.verify_derived.calls": "count",
    "structures.verify_derived.self_s": "s",
    "structures.classify.calls": "count",
    "algebras.self_s": "s",
    "algebras.check_algebra.self_s": "s",
    "quantum.self_s": "s",
    "quantum.cpm_double.self_s": "s",
    "karoubi.self_s": "s",
    "karoubi.getput_restriction.self_s": "s",
    "lenses.self_s": "s",
    "lenses.check_vwb.self_s": "s",
    "lenses.update_to_lens.self_s": "s",
    "registry.self_s": "s",
    "registry.build.self_s": "s",
    "registry.extras.self_s": "s",
    "registry.run_example.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _setup_s(workload: str, seed: int) -> float:
    """Median cold set-up time over several fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_PROBE_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _timed_pass(workload: str, inputs: dict, gate: workloads.Gate) -> float:
    start = time.perf_counter()
    verdicts = workloads.run_pass(workload, inputs)
    elapsed = time.perf_counter() - start
    gate.check(verdicts)
    return elapsed


def run_untraced(workload: str, inputs: dict, gate: workloads.Gate, seconds: float) -> dict:
    _timed_pass(workload, inputs, gate)  # warm-up, untimed
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        times.append(_timed_pass(workload, inputs, gate))
    return {
        "pass_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _counts(tracer: tracing.Tracer) -> dict:
    counts = {f"{name}.calls": n for name, n in tracer.calls.items()}
    counts.update(tracer.counters)
    counts["structures.check_law.distinct"] = tracer.distinct_laws
    return counts


def run_traced(workload: str, inputs: dict, gate: workloads.Gate, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer figures of the traced ones."""
    _timed_pass(workload, inputs, gate)  # warm-up, untimed
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        plain.append(_timed_pass(workload, inputs, gate))
        tracer = tracing.Tracer()
        with tracer:
            traced.append(_timed_pass(workload, inputs, gate))
        tracers.append(tracer)
    counts = _counts(tracers[0])
    if any(_counts(t) != counts for t in tracers[1:]):
        raise RuntimeError("per-layer counts differ between traced passes of the same inputs")

    def median_s(read) -> float:
        return statistics.median(read(t) for t in tracers)

    metrics = {}
    for name in PER_LAYER:
        span = name.rpartition(".")[0]
        if name in counts:
            metrics[name] = counts[name]
        elif name == "structures.law_reuse":
            calls = counts["structures.check_law.calls"]
            metrics[name] = counts["structures.check_law.distinct"] / calls if calls else 1.0
        elif name == "trace.overhead_s":
            metrics[name] = statistics.median(traced) - statistics.median(plain)
        elif name == "trace.unattributed_s":
            metrics[name] = statistics.median(
                elapsed - t.covered_s for elapsed, t in zip(traced, tracers))
        elif span in tracing.LAYERS:
            metrics[name] = median_s(lambda t: t.layer_self_s(span))
        else:
            metrics[name] = median_s(lambda t: t.self_s[span])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(json.dumps({"env": _environment(args.seed)}, sort_keys=True))
    inputs = workloads.make_inputs(args.workload, args.seed)
    gate = workloads.Gate(workloads.load_reference(args.workload, inputs))
    if args.trace:
        values = run_traced(args.workload, inputs, gate, args.seconds)
        units = PER_LAYER
    else:
        values = {"setup_s": _setup_s(args.workload, args.seed)}
        values.update(run_untraced(args.workload, inputs, gate, args.seconds))
        units = END_TO_END
        print(f"{args.workload}: " + "  ".join(
            f"{name}={values[name]:.4g} {unit}" for name, unit in units.items()))
    print(f"{args.workload}: mismatch_frac={gate.mismatch_frac:.4g} "
          f"({gate.failed}/{gate.attempted} items)"
          + (f" mismatched: {sorted(gate.bad)}" if gate.bad else ""))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: the gate, the tracer's counts and coverage.

    python3 -m pytest perfbench -q

They take about a minute, most of it in two traced pop_scale passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _traced_pass(workload: str, seed: int = 1):
    inputs = workloads.make_inputs(workload, seed)
    with tracing.Tracer() as tracer:
        verdicts = workloads.run_pass(workload, inputs)
    return tracer, verdicts


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_twice(request):
    """Two traced passes and one untraced pass of one workload."""
    workload = request.param
    first, verdicts = _traced_pass(workload)
    second, _ = _traced_pass(workload)
    plain = workloads.run_pass(workload, workloads.make_inputs(workload, 1))
    return workload, first, second, verdicts, plain


def test_counts_repeat_exactly(traced_twice):
    _, first, second, _, _ = traced_twice
    assert run._counts(first) == run._counts(second)


def test_traced_verdicts_equal_untraced_and_reference(traced_twice):
    workload, _, _, verdicts, plain = traced_twice
    assert verdicts == plain
    reference = workloads.load_reference(workload, workloads.make_inputs(workload, 1))
    assert workloads.mismatches(verdicts, reference) == []


def test_no_work_predictions(traced_twice):
    workload, tracer, _, _, _ = traced_twice
    if workload == "set_scale":
        assert tracer.calls["tensors.compose"] == 0
        assert tracer.calls["tensors.tensor"] == 0
    if workload == "pop_scale":
        assert tracer.calls["finsets.fun_compose"] == 0
        assert tracer.calls["finsets.fun_product"] == 0
    assert tracer.calls["structures.check_law"] > 0


def test_untraced_after_uninstall(traced_twice):
    # Leaving the tracer must restore every original binding.
    from putget import cli, quantum, registry, structures

    for module in (cli, quantum, registry, structures):
        for value in vars(module).values():
            assert not hasattr(value, "__wrapped__")
    assert all(not hasattr(spec.extras, "__wrapped__") for spec in registry.REGISTRY.values())


def test_every_call_goes_through_a_span():
    """A profiler counts calls of the original functions, whatever binding was used."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = {fn.__code__: name for name, fn in tracer.originals.items()}
        counted = dict.fromkeys(originals.values(), 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in originals:
                counted[originals[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            workloads.run_pass("registry", workloads.make_inputs("registry", 1))
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    assert counted["structures.check_law"] > 0
    assert {name: tracer.calls[name] for name in counted} == counted


def test_gate_compares_set_residuals_but_not_linear_ones():
    reference = {
        "linear": {"classification": "strong", "failing": ["PutGetA"]},
        "set": {"classification": "weak_only", "residuals": {"law:GetPut": 3.0}},
    }
    verdicts = {
        "linear": {"classification": "strong", "failing": ["PutGetA"],
                   "residuals": {"law:GetPut": 1.2e-15}},
        "set": {"classification": "weak_only", "residuals": {"law:GetPut": 3.0}},
    }
    assert workloads.mismatches(verdicts, reference) == []
    verdicts["set"]["residuals"]["law:GetPut"] = 4.0
    verdicts["linear"]["failing"] = []
    verdicts["extra"] = {}
    assert workloads.mismatches(verdicts, reference) == ["linear", "set", "extra"]
    gate = workloads.Gate(reference)
    gate.check(verdicts)
    assert (gate.failed, gate.attempted) == (3, 3)


def test_inputs_are_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs("set_scale", 1) != workloads.make_inputs("set_scale", 2)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

import gc
import json
import os
import subprocess
import sys

import pytest

import putget
from putget.cli import main
from putget.registry import (
    RegistryError,
    RunScope,
    build_example,
    get_example,
    names,
    run_example,
)

EXPECTED_NAMES = {
    "lens_constant_complement_3_2",
    "identity_lens_4",
    "ignore_put_lens_4",
    "security_db_3",
    "security_db_update_flag_3",
    "qubit_z_pvs",
    "qubit_x_pvs",
    "qutrit_pvs",
    "qubit_measurement",
    "qutrit_measurement",
    "qutrit_degenerate_measurement",
    "decohered_pvs",
    "pair_of_pants_2",
    "pair_of_pants_3",
    "pair_of_pants_4",
    "quantum_db_postselected_2_2",
    "quantum_db_causal_2_2",
    "karoubi_security_db_3",
    "karoubi_security_db_update_flag_3",
    "karoubi_qubit_measurement",
    "karoubi_qutrit_measurement",
    "karoubi_qutrit_degenerate_measurement",
    "karoubi_decohered_pvs",
    "karoubi_quantum_db_causal_2_2",
}


# -- registry ---------------------------------------------------------------


def test_catalogue_is_complete():
    assert set(names()) == EXPECTED_NAMES
    assert len(names()) == 24


def test_every_example_matches_its_expectations():
    reports = [run_example(n) for n in names()]
    assert len(reports) == 24
    for report in reports:
        assert report.matched, (report.name, report.mismatches)
        assert report.mismatches == ()


def profiled(functions: dict, run) -> dict:
    """The arguments of every call of each named function during ``run()``.

    Calls are caught by code object, so every binding of a function is seen.
    """
    codes = {fn.__code__: name for name, fn in functions.items()}
    calls = {name: [] for name in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]].append(dict(frame.f_locals))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def check_all_calls(capsys, *argv) -> dict:
    from putget import quantum, structures, tensors

    functions = {"compose": tensors.compose, "compare": tensors.compare,
                 "check_law": structures.check_law,
                 "pvs_from_projectors": quantum.pvs_from_projectors}
    exits = []
    calls = profiled(functions, lambda: exits.append(main(["check", "--all", *argv])))
    capsys.readouterr()
    assert exits == [0]
    return calls


def test_each_run_builds_its_projector_family_once(capsys):
    # the 11 entries built from a spectrum name 4 distinct families
    assert len(check_all_calls(capsys)["pvs_from_projectors"]) == 4


def test_one_run_shares_its_terms_families_and_bases(capsys):
    first = {name: len(calls) for name, calls in check_all_calls(capsys).items()}
    assert first["compose"] <= 800 and first["compare"] <= 650  # 1 016 and 746 unshared
    # the run scope ends with the command: a second run repeats the work exactly
    assert {name: len(calls) for name, calls in check_all_calls(capsys).items()} == first


def test_a_run_searches_no_einsum_path(capsys):
    import numpy as np

    exits = []
    # np.einsum dispatches to the Python function it wraps, whose calls are caught
    run = lambda: exits.append(main(["check", "--all"]))
    calls = profiled({"einsum": np.einsum.__wrapped__}, run)
    capsys.readouterr()
    assert exits == [0]
    assert [call for call in calls["einsum"] if call["optimize"] is not False] == []


def test_the_tolerance_reaches_every_comparison(capsys):
    from putget.finsets import SetType
    from putget.tensors import Morphism, Tolerance

    calls = check_all_calls(capsys, "--tol", "1e-3")
    # sets compare exactly, whatever the tolerance, so a set comparison may
    # take any; every matrix comparison, and every law verdict on either
    # backend (it is memoised per tolerance), uses --tol
    tolerances = [call["tol"] for call in calls["compare"] if isinstance(call["lhs"], Morphism)]
    assert any(isinstance(call["U"].system, SetType) for call in calls["check_law"])
    tolerances += [call["tol"] for call in calls["check_law"]]
    tolerances += [call["tol"] for call in calls["pvs_from_projectors"]]
    assert len(tolerances) > 500
    assert set(tolerances) == {Tolerance(1e-3, 1e-3)}


def test_a_run_frees_what_it_built_without_the_cycle_collector(capsys):
    from putget.structures import UpdateStructure

    def alive():
        return sum(isinstance(o, UpdateStructure) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        assert main(["check", "--all"]) == 0
        after = alive()
    finally:
        gc.enable()
    capsys.readouterr()
    assert after == before


def test_a_restriction_run_alone_builds_its_base_once(monkeypatch):
    from putget import registry

    calls = {"quantum_measurement": 0, "pvs_from_projectors": 0}

    def spy(name):
        original = getattr(registry, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(registry, name, spy(name))
    assert run_example("karoubi_qutrit_measurement").matched
    assert calls == {"quantum_measurement": 1, "pvs_from_projectors": 1}


def test_unknown_examples_are_rejected():
    with pytest.raises(RegistryError, match="unknown example"):
        get_example("flux_capacitor")
    with pytest.raises(RegistryError):
        build_example("flux_capacitor")


def test_measurement_report_contents():
    report = run_example("qubit_measurement")
    assert report.classification == "weak_only"
    assert report.expected == "weak_only"
    failing = {r.law for r in report.laws if not r.holds}
    assert failing == {"GetPut", "PutGetA", "Faithful"}
    assert report.matched


def test_report_serialisation_schema():
    doc = run_example("identity_lens_4").to_dict()
    assert set(doc) == {
        "example", "classification", "expected", "laws", "derived",
        "extras", "matched", "mismatches",
    }
    assert doc["example"] == "identity_lens_4"
    for law in doc["laws"]:
        assert set(law) == {"name", "holds", "residual", "tolerance"}
    for derived in doc["derived"]:
        assert set(derived) == {"name", "status", "residual", "failed_premises"}
    for extra in doc["extras"]:
        assert set(extra) == {"name", "holds", "residual"}


def test_strictest_tolerance_still_matches_exact_examples():
    from putget.tensors import Tolerance

    report = run_example("security_db_3", RunScope(Tolerance(1e-15, 1e-15)))
    assert report.matched  # set-backed residuals are exact counts


def test_extras_follow_the_tolerance():
    from putget.tensors import Tolerance

    def extras(tol):
        return {x.name: x for x in run_example("quantum_db_postselected_2_2", RunScope(tol)).extras}

    assert extras(Tolerance())["doubled_write_postselects"].holds
    # a trace defect of sqrt(8) is inside a threshold of 10 + 10 * norm
    loose = extras(Tolerance(10, 10))["doubled_write_postselects"]
    assert not loose.holds and loose.residual == pytest.approx(8**0.5)


# -- command line -------------------------------------------------------------


def test_check_single_example(capsys):
    assert main(["check", "qubit_z_pvs"]) == 0
    out = capsys.readouterr().out
    assert "qubit_z_pvs: strong (expected strong) [ok]" in out
    assert "+ PutPut" in out and "- PutGetA" in out


def test_check_all_text(capsys):
    assert main(["check", "--all"]) == 0
    out = capsys.readouterr().out
    assert "24/24 examples matched" in out


def test_loose_tolerance_forces_a_mismatch(capsys):
    # at tol 10 the measurement's GetPut defect vanishes under the
    # threshold, the example classifies strong, and the run reports it
    assert main(["check", "qubit_measurement", "--tol", "10.0"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "classified strong, expected weak_only" in out


def test_unknown_name_is_an_error(capsys):
    assert main(["check", "flux_capacitor"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_name_and_all_are_mutually_exclusive(capsys):
    assert main(["check"]) == 2
    assert main(["check", "qubit_z_pvs", "--all"]) == 2


def test_max_dim_is_a_usage_error(capsys):
    # there is no size cap: --max-dim is an unknown option
    assert main(["check", "pair_of_pants_4", "--max-dim", "3"]) == 2
    assert "unrecognized arguments: --max-dim" in capsys.readouterr().err


def test_tolerance_validation(capsys):
    assert main(["check", "qubit_z_pvs", "--tol", "-1"]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert main(["check", "qubit_z_pvs", "--tol", "1e-6"]) == 0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_a_usage_error(capsys, bad):
    assert main(["check", "qubit_z_pvs", "--tol", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_threshold_that_overflows_is_an_error(capsys):
    # 1e308 + 1e308 * norm is inf: every law would pass if it were allowed
    assert main(["check", "qubit_z_pvs", "--tol", "1e308"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_json_output_is_deterministic_and_timing_free(capsys):
    assert main(["check", "--all", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--all", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert len(doc["results"]) == 24
    assert all(r["matched"] for r in doc["results"])
    assert "elapsed" not in first and "seconds" not in first


def test_json_single_example_is_one_object(capsys):
    assert main(["check", "security_db_3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["example"] == "security_db_3"
    assert doc["classification"] == "weak_only"


def test_list_text_and_json(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 24
    assert any("qubit_measurement" in line and "weak_only" in line for line in out)

    assert main(["list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {e["name"] for e in doc["examples"]} == EXPECTED_NAMES
    for entry in doc["examples"]:
        assert set(entry) == {"name", "expected", "description"}


def test_help_exits_cleanly():
    assert main(["--help"]) == 0
    assert main([]) == 2  # a command is required


def child_env() -> dict:
    """The environment of a child that imports the same putget sources as this test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(putget.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_roundtrip():
    for module in ("putget", "putget.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "check", "identity_lens_4"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, module
        assert "identity_lens_4" in proc.stdout


@pytest.mark.parametrize("argv", [["check", "--all"], ["list"]])
def test_a_closed_output_pipe_ends_the_command_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, before the child writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "putget", *argv], stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=120, env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

import json
import os
import subprocess
import sys

import pytest

import putget
from putget.cli import main
from putget.registry import (
    RegistryError,
    build_example,
    get_example,
    names,
    run_all,
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
    reports = run_all()
    assert len(reports) == 24
    for report in reports:
        assert report.matched, (report.name, report.mismatches)
        assert report.mismatches == ()


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

    report = run_example("security_db_3", Tolerance(1e-15, 1e-15))
    assert report.matched  # set-backed residuals are exact counts


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


def test_tolerance_validation(capsys, monkeypatch):
    assert main(["check", "qubit_z_pvs", "--tol", "-1"]) == 2
    assert "must be positive" in capsys.readouterr().err
    monkeypatch.setenv("PUTGET_TOL", "not-a-number")
    assert main(["check", "qubit_z_pvs"]) == 2
    assert "PUTGET_TOL" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_a_usage_error(capsys, monkeypatch, bad):
    assert main(["check", "qubit_z_pvs", "--tol", bad]) == 2
    assert "error:" in capsys.readouterr().err
    monkeypatch.setenv("PUTGET_TOL", bad)
    assert main(["check", "qubit_z_pvs"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_threshold_that_overflows_is_an_error(capsys):
    # 1e308 + 1e308 * norm is inf: every law would pass if it were allowed
    assert main(["check", "qubit_z_pvs", "--tol", "1e308"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_tolerance_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PUTGET_TOL", "1e-3")
    assert main(["check", "qubit_z_pvs"]) == 0
    # an explicit flag wins even over a broken environment
    monkeypatch.setenv("PUTGET_TOL", "not-a-number")
    assert main(["check", "qubit_z_pvs", "--tol", "1e-6"]) == 0


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


def test_console_script_roundtrip():
    # the child imports the same putget sources as this test, installed or not
    src = os.path.dirname(os.path.dirname(putget.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "putget.cli", "check", "identity_lens_4"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "identity_lens_4" in proc.stdout

"""A fresh ``putget check --all`` run against a stored one.

``data/check_all.json`` holds the output of ``putget check --all --format
json``, and ``data/check_all_tol1e-3.json`` that of the same command with
``--tol 1e-3``.  Every non-float field of a fresh run must equal it
exactly, and every float must agree within ``rel_tol=1e-12,
abs_tol=1e-15``, so any change to a verdict, a residual or a threshold
shows up here.
"""
import copy
import json
import math
from pathlib import Path

from putget.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "check_all.json"


def differences(got, want, path: str = "$") -> list[str]:
    """Where ``got`` departs from ``want``: floats up to rounding, the rest exactly."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float):
        close = math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in differences(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def stored_run_differences(capsys, stored: Path, *argv: str) -> list[str]:
    assert main(["check", "--all", "--format", "json", *argv]) == 0
    got = json.loads(capsys.readouterr().out)
    return differences(got, json.loads(stored.read_text()))


def test_check_all_matches_the_stored_run(capsys):
    assert stored_run_differences(capsys, GOLDEN) == []


def test_check_all_at_a_loose_tolerance_matches_its_stored_run(capsys):
    assert stored_run_differences(capsys, DATA / "check_all_tol1e-3.json", "--tol", "1e-3") == []


def test_differences_catch_every_kind_of_change():
    want = json.loads(GOLDEN.read_text())
    assert differences(copy.deepcopy(want), want) == []
    got = copy.deepcopy(want)
    law = got["results"][0]["laws"][0]
    law["residual"] += 1e-14  # beyond abs_tol on a residual of 0.0
    law["holds"] = not law["holds"]
    got["results"][1]["classification"] = "neither"
    got["results"][2]["extras"].pop()
    assert len(differences(got, want)) == 4
    got = copy.deepcopy(want)
    got["results"][0]["laws"][0]["tolerance"] *= 1 + 1e-14  # rounding only
    assert differences(got, want) == []

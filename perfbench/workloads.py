"""The benchmark's three workloads: seeded inputs, one verdict pass, the gate.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and imports ``putget`` from there, so the benchmark always
measures the sources beside it and never an installed copy.  It first
sets the BLAS thread count to the number of available cores, which
only takes effect if numpy has not been imported yet.

A workload's inputs are plain parameters.  Every structure is built
inside the pass, as the CLI does, so nothing a pass computes survives
into the next one.  A pass returns one verdict per item; the gate
compares them with ``reference.json``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

if not (SRC / "putget" / "__init__.py").is_file():
    raise ImportError(f"no putget sources at {SRC}")
sys.path.insert(0, str(SRC))

BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import putget  # noqa: E402
from putget import cli, karoubi, lenses, quantum, structures  # noqa: E402
from putget.finsets import FinSet  # noqa: E402

if not Path(putget.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"putget was imported from {putget.__file__}, not from {SRC}")

WORKLOADS = ("registry", "pop_scale", "set_scale")

# pair_of_pants_update(6) would build ~1 GB of dense matrices.
POP_DIMS = (3, 4, 5)

# set_scale draws its tables from one of this many seeded variants, so
# that every variant's verdicts can be stored in reference.json.
SET_VARIANTS = 16


def make_inputs(workload: str, seed: int) -> dict:
    """The parameters of one workload; the same seed gives the same inputs."""
    if workload == "registry":
        return {"argv": ["check", "--all", "--format", "json"]}
    if workload == "pop_scale":
        return {"dims": list(POP_DIMS)}
    if workload == "set_scale":
        variant = seed % SET_VARIANTS
        rng = random.Random(variant)

        def labels(prefix: str, n: int) -> list[str]:
            out = [f"{prefix}{i:02d}" for i in range(n)]
            rng.shuffle(out)
            return out

        return {
            "variant": variant,
            "views": labels("v", 10),
            "complements": labels("c", 6),
            "lens_seed": rng.randrange(2**32),
            "records": labels("r", 12),
            "sources": labels("s", 24),
            "random_views": labels("w", 8),
            "random_seed": rng.randrange(2**32),
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def reference_key(workload: str, inputs: dict) -> str:
    """Which stored reference a pass on these inputs is compared with."""
    return str(inputs["variant"]) if workload == "set_scale" else "all"


# -- passes ------------------------------------------------------------------
#
# Library calls go through module attributes (``structures.check_laws``,
# not a name bound at import), so a traced pass sees the wrapped
# bindings.


def _suite(U) -> dict:
    """check_laws, classify and all nine derived implications on one structure."""
    laws = structures.check_laws(U)
    kind = structures.classify(U).kind
    derived = [structures.verify_derived(U, prop) for prop in structures.DERIVED_PROPS]
    return {
        "classification": kind,
        "failing": sorted(r.law for r in laws if not r.holds),
        "derived": {d.name: d.status for d in derived},
        "residuals": {
            **{f"law:{r.law}": r.residual for r in laws},
            **{f"derived:{d.name}": d.residual for d in derived},
        },
    }


def _registry_pass(inputs: dict) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(inputs["argv"]))
    try:
        results = json.loads(out.getvalue())["results"]
    except (ValueError, KeyError):
        return {}
    verdicts = {}
    for r in results:
        verdicts[r["example"]] = {
            "exit_code": code,
            "classification": r["classification"],
            "failing": sorted(law["name"] for law in r["laws"] if not law["holds"]),
            "derived": {d["name"]: d["status"] for d in r["derived"]},
            "extras": {x["name"]: x["holds"] for x in r["extras"]},
            "matched": r["matched"],
            "residuals": {
                **{f"law:{x['name']}": x["residual"] for x in r["laws"]},
                **{f"derived:{x['name']}": x["residual"] for x in r["derived"]},
                **{f"extra:{x['name']}": x["residual"] for x in r["extras"]},
            },
        }
    return verdicts


def _pop_pass(inputs: dict) -> dict:
    return {
        f"pair_of_pants_{d}": _suite(quantum.pair_of_pants_update(d))
        for d in inputs["dims"]
    }


def _roundtrip(lens) -> dict:
    back = lenses.update_to_lens(lenses.lens_to_update(lens))
    report = lenses.check_vwb(lens)
    return {
        "same_tables": back.get_fn.table == lens.get_fn.table
        and back.put_fn.table == lens.put_fn.table,
        "vwb": report.is_vwb,
        "violations": [r.residual for r in report.results()],
    }


def _set_pass(inputs: dict) -> dict:
    views, complements = FinSet(tuple(inputs["views"])), FinSet(tuple(inputs["complements"]))
    sources, random_views = FinSet(tuple(inputs["sources"])), FinSet(tuple(inputs["random_views"]))
    records = FinSet(tuple(inputs["records"]))
    cc = lenses.constant_complement_lens(views, complements, random.Random(inputs["lens_seed"]))
    rand = lenses.random_lens(sources, random_views, random.Random(inputs["random_seed"]))
    verdicts = {
        f"constant_complement_{len(views)}x{len(complements)}": _suite(lenses.lens_to_update(cc)),
    }
    for name, make in (("security_db", lenses.security_db),
                       ("security_db_update_flag", lenses.security_db_update_flag)):
        verdicts[f"{name}_{len(records)}"] = _suite(make(records))
        restricted = karoubi.getput_restriction(make(records)).structure
        verdicts[f"karoubi_{name}_{len(records)}"] = _suite(restricted)
    verdicts[f"random_lens_{len(sources)}x{len(random_views)}"] = \
        _suite(lenses.lens_to_update(rand))
    verdicts["lens_roundtrip"] = {"constant_complement": _roundtrip(cc), "random": _roundtrip(rand)}
    return verdicts


_PASSES = {"registry": _registry_pass, "pop_scale": _pop_pass, "set_scale": _set_pass}


def run_pass(workload: str, inputs: dict) -> dict:
    """One full verdict pass: item name -> verdict (JSON-shaped)."""
    return _PASSES[workload](inputs)


# -- the verdict gate ----------------------------------------------------------


def load_reference(workload: str, inputs: dict) -> dict:
    """The stored verdicts a pass of ``workload`` on ``inputs`` must reproduce."""
    with REFERENCE.open() as fh:
        return json.load(fh)[workload][reference_key(workload, inputs)]


def mismatches(verdicts: dict, reference: dict) -> list[str]:
    """Items whose verdict differs from the reference, plus unexpected items.

    A reference item lists only what must match.  Items on the linear
    backends carry no ``residuals`` in the reference, so their
    floating-point residuals are never compared; set-backend residuals
    are exact counts and must match exactly.
    """
    bad = []
    for name, want in reference.items():
        got = verdicts.get(name)
        if got is None or any(got.get(key) != value for key, value in want.items()):
            bad.append(name)
    bad.extend(sorted(set(verdicts) - set(reference)))
    return bad


class Gate:
    """Counts items attempted and items whose verdict misses the reference."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.bad: set[str] = set()

    def check(self, verdicts: dict) -> None:
        bad = mismatches(verdicts, self.reference)
        self.attempted += len(set(self.reference) | set(verdicts))
        self.failed += len(bad)
        self.bad.update(bad)

    @property
    def mismatch_frac(self) -> float:
        return self.failed / self.attempted

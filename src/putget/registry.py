"""Named example structures with their expected law profiles.

Every entry builds deterministically, declares its expected
classification and exactly which laws of the full suite it should
fail, and carries family-specific extra checks (lens roundtrips,
defect formulas, reduced processes, absorption equations, ...).  A run
*matches* when classification, failing set, derived implications and
extras all come out as declared -- an expected failure is a pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebras import check_algebra, pair_of_pants_frobenius
from .finsets import FinSet, SET_UNIT, FinFunction, SetType
from .karoubi import getput_restriction
from .lenses import (
    VwbLens,
    check_vwb,
    constant_complement_lens,
    identity_lens,
    lens_to_update,
    security_db,
    security_db_update_flag,
    trivial_update_separability,
    update_flag_lens,
    update_to_lens,
)
from .quantum import (
    causal_lens_like_get,
    cpm_double,
    decoherence,
    double_structure,
    doubled_discard,
    getput_defect_formula,
    characterize_pvs,
    pair_of_pants_update,
    pvs_equations,
    pvs_from_projectors,
    pvs_to_update,
    quantum_db_causal,
    quantum_db_postselected,
    quantum_measurement,
    reduced_get,
    trace_preservation_defect,
    transform_update,
)
from .structures import (
    DERIVED_PROPS,
    DerivedResult,
    LawCheckResult,
    UpdateStructure,
    applicable_laws,
    check_law,
    check_laws,
    classify,
    verify_derived,
)
from .tensors import (
    DEFAULT_TOL,
    Comparison,
    Morphism,
    TensorType,
    Tolerance,
    basis_state,
    compare,
    compare_all,
    cup,
)

__all__ = [
    "RegistryError",
    "ExtraCheck",
    "ExampleSpec",
    "ExampleReport",
    "REGISTRY",
    "names",
    "get_example",
    "build_example",
    "run_example",
    "run_all",
]


class RegistryError(ValueError):
    """An example name that the registry does not hold."""


@dataclass(frozen=True)
class ExtraCheck:
    """One family-specific verdict; residual semantics match the backend."""

    name: str
    holds: bool
    residual: float


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    description: str
    build: Callable[[], UpdateStructure]
    expected: str
    expected_failing: frozenset[str]
    extras: Callable[[UpdateStructure, Tolerance], list[ExtraCheck]] | None = None


@dataclass(frozen=True)
class ExampleReport:
    """Everything one example run produced, plus the match verdict."""

    name: str
    expected: str
    classification: str
    laws: tuple[LawCheckResult, ...]
    derived: tuple[DerivedResult, ...]
    extras: tuple[ExtraCheck, ...]
    matched: bool
    mismatches: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "example": self.name,
            "classification": self.classification,
            "expected": self.expected,
            "laws": [
                {"name": r.law, "holds": r.holds, "residual": r.residual,
                 "tolerance": r.threshold}
                for r in self.laws
            ],
            "derived": [
                {"name": d.name, "status": d.status, "residual": d.residual,
                 "failed_premises": list(d.failed_premises)}
                for d in self.derived
            ],
            "extras": [
                {"name": x.name, "holds": x.holds, "residual": x.residual}
                for x in self.extras
            ],
            "matched": self.matched,
            "mismatches": list(self.mismatches),
        }


# -- building blocks -------------------------------------------------------

_DB_ENTRIES = FinSet(("alice", "bob", "carol"))
_COMPASS = FinSet(("north", "east", "south", "west"))
_COLOURS = FinSet(("red", "green", "blue"))
_COMPLEMENT = FinSet(("x", "y"))


def _projector(d: int, diag) -> Morphism:
    t = TensorType((d,))
    return Morphism(t, t, np.diag(np.asarray(diag, dtype=np.complex128)))


def _qubit_z_pvs():
    return pvs_from_projectors([_projector(2, (1, 0)), _projector(2, (0, 1))])


def _qubit_x_pvs():
    t = TensorType((2,))
    plus = Morphism(t, t, np.full((2, 2), 0.5))
    minus = Morphism(t, t, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    return pvs_from_projectors([plus, minus])


def _qutrit_pvs():
    return pvs_from_projectors(
        [_projector(3, (1, 0, 0)), _projector(3, (0, 1, 0)), _projector(3, (0, 0, 1))]
    )


def _qutrit_degenerate_pvs():
    return pvs_from_projectors([_projector(3, (1, 1, 0)), _projector(3, (0, 0, 1))])


def _decohered_pvs_build() -> UpdateStructure:
    # The transformed route: double the strong spectrum structure, then
    # push it through the decoherence idempotent on the outcome wire.
    return transform_update(double_structure(pvs_to_update(_qubit_z_pvs())), decoherence(2))


def _ignore_put_lens() -> VwbLens:
    source = FinSet(("s0", "s1", "s2", "s3"))
    view = FinSet(("a", "b"))
    s, v = SetType((source,)), SetType((view,))
    get_fn = FinFunction(s, v, {(x,): ("a" if x in ("s0", "s1") else "b",) for x in source.elements})
    put_fn = FinFunction(s @ v, s, {(x, w): (x,) for x in source.elements for w in view.elements})
    return VwbLens(source, view, get_fn, put_fn)


def _ignore_put_update() -> UpdateStructure:
    U = lens_to_update(_ignore_put_lens())
    point = FinFunction(SET_UNIT, U.prop, {(): ("a",)})
    return U.with_components(trivial_update=point)


# -- family extras ----------------------------------------------------------


def _pvs_extras(make_pvs):
    def run(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
        pvs = make_pvs()
        out = [ExtraCheck(f"spectrum_{r.law}", r.holds, r.residual)
               for r in pvs_equations(pvs, tol)]
        ok, failing = characterize_pvs(U, tol)
        out.append(ExtraCheck("characterised_as_spectrum", ok, float(len(failing))))
        return out

    return run


def _measurement_extras(make_pvs):
    def run(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
        pvs = make_pvs()
        predicted = getput_defect_formula(pvs)
        actual = check_law(U, "GetPut", tol).residual
        gap = abs(actual - predicted)
        deco = decoherence(len(pvs.projectors))
        inv = compare(U.get >> (U.system.identity() @ deco), U.get, tol)
        return [
            ExtraCheck("getput_defect_matches_rank_formula", gap <= 1e-6, gap),
            ExtraCheck("outcome_wire_classical", inv.holds, inv.residual),
        ]

    return run


def _decohered_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    direct = quantum_measurement(_qubit_z_pvs()).structure
    components = compare_all(
        [(U.put, direct.put), (U.get, direct.get), (U.mult, direct.mult),
         (U.comult, direct.comult)], tol)
    agree, law_gap = True, 0.0
    for law in applicable_laws(U):
        mine, theirs = check_law(U, law, tol), check_law(direct, law, tol)
        agree = agree and (mine.holds == theirs.holds)
        law_gap = max(law_gap, abs(mine.residual - theirs.residual))
    return [
        ExtraCheck("equals_direct_measurement_componentwise",
                   components.holds, components.residual),
        ExtraCheck("matches_direct_measurement_profile",
                   agree and law_gap <= 1e-6, law_gap),
    ]


def _pop_extras(d: int):
    def run(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
        alg = pair_of_pants_frobenius(d)
        out = []
        for law, want in (("assoc", True), ("unit", True), ("special", True),
                          ("frobenius", True), ("comm", False)):
            ok, res = check_algebra(alg, law, tol)
            name = f"algebra_{law}" if want else f"algebra_{law}_fails"
            out.append(ExtraCheck(name, ok is want, res))
        # |0><1| and |1><0| compose to different matrix units each way round
        x = basis_state(d, 0) @ basis_state(d, 1)
        y = basis_state(d, 1) @ basis_state(d, 0)
        wit = compare((x @ y) >> alg.mult, (y @ x) >> alg.mult, tol)
        out.append(ExtraCheck("order_of_writes_matters", not wit.holds, wit.residual))
        bell = compare(U.trivial_update, cup(d), tol)
        out.append(ExtraCheck("bell_state_is_trivial_update", bell.holds, bell.residual))
        return out

    return run


def _security_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    e = U.get >> U.put
    broken = set(e.disagreements(U.system.identity()))
    safe = {x for x in U.system.elements() if x[1] == "safe"}
    gap = broken ^ safe
    stuck = e.image()
    breached = {x for x in U.system.elements() if x[1] == "breached"}
    return [
        ExtraCheck("getput_breaks_exactly_on_safe_states", not gap, float(len(gap))),
        ExtraCheck("stable_states_all_breached", stuck <= breached,
                   float(len(stuck - breached))),
    ]


def _flag_db_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    e = U.get >> U.put
    broken = set(e.disagreements(U.system.identity()))
    unwritten = {x for x in U.system.elements() if x[1] == "untouched"}
    gap = broken ^ unwritten
    report = check_vwb(update_flag_lens(_DB_ENTRIES))
    return [
        ExtraCheck("getput_breaks_exactly_on_unwritten_states", not gap, float(len(gap))),
        ExtraCheck("lens_put_put", report.put_put.holds, report.put_put.residual),
        ExtraCheck("lens_put_get", report.put_get.holds, report.put_get.residual),
        ExtraCheck("lens_get_put_fails", not report.get_put.holds, report.get_put.residual),
    ]


def _vwb_lens_extras(make_lens):
    def run(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
        lens = make_lens()
        report = check_vwb(lens)
        violations = report.put_put.residual + report.put_get.residual + report.get_put.residual
        recovered = update_to_lens(U)
        same = (recovered.get_fn.table == lens.get_fn.table
                and recovered.put_fn.table == lens.put_fn.table)
        sep = trivial_update_separability(lens)
        return [
            ExtraCheck("very_well_behaved", report.is_vwb, violations),
            ExtraCheck("roundtrips_through_update", same, 0.0 if same else 1.0),
            ExtraCheck("no_trivial_update_exists", not sep.has_trivial_update,
                       float(sep.violations)),
        ]

    return run


def _ignore_put_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    lens = _ignore_put_lens()
    report = check_vwb(lens)
    sep = trivial_update_separability(lens)
    return [
        ExtraCheck("lens_put_get_fails", not report.put_get.holds, report.put_get.residual),
        ExtraCheck("every_view_is_a_trivial_update",
                   sep.has_trivial_update and sep.separable is True, float(sep.violations)),
    ]


def _trace_preserving(f: Morphism, tol: Tolerance) -> Comparison:
    """Whether a doubled map preserves the trace; the residual is its trace_preservation_defect."""
    return compare(f >> doubled_discard(f.cod), doubled_discard(f.dom), tol)


def _postselected_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    write_defect = trace_preservation_defect(cpm_double(U.put))
    read = _trace_preserving(cpm_double(U.get), tol)
    return [
        ExtraCheck("doubled_write_postselects", write_defect > 1e-6, write_defect),
        ExtraCheck("doubled_read_trace_preserving", read.holds, read.residual),
    ]


def _causal_extras(d1: int, d2: int):
    def run(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
        dephase_stored = TensorType((d1, d1)).identity() @ decoherence(d2)
        lens_get = causal_lens_like_get(d1, d2)
        reduced = lens_get >> (U.system.identity() @ doubled_discard(U.prop))
        checks = {
            "reading_dephases_stored_register": compare(reduced_get(U), dephase_stored, tol),
            "lens_shaped_read_dephases_everything":
                compare(reduced, decoherence(d1) @ decoherence(d2), tol),
            "write_trace_preserving": _trace_preserving(U.put, tol),
            "read_trace_preserving": _trace_preserving(U.get, tol),
        }
        return [ExtraCheck(name, r.holds, r.residual) for name, r in checks.items()]

    return run


def _karoubi_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    e, idp = U.id_system(), U.id_prop()
    checks = {
        "splitting_idempotent": compare(e >> e, e, tol),
        "writer_absorbed": compare_all([((e @ idp) >> U.put, U.put), (U.put >> e, U.put)], tol),
        "reader_absorbed": compare_all([(e >> U.get, U.get), (U.get >> (e @ idp), U.get)], tol),
    }
    return [ExtraCheck(name, r.holds, r.residual) for name, r in checks.items()]


# -- the registry ------------------------------------------------------------


def _spec(name, description, build, expected, failing, extras=None) -> ExampleSpec:
    return ExampleSpec(name, description, build, expected, frozenset(failing), extras)


_STRONG_LENS_FAILS = ("PutGetA", "PutGetC", "CommutativePut")
_MEASUREMENT_FAILS = ("GetPut", "PutGetA", "Faithful")

_ENTRIES: tuple[ExampleSpec, ...] = (
    _spec(
        "lens_constant_complement_3_2",
        "vwb lens from a bijection S ~ V x R with 3 views and a 2-element complement",
        lambda: lens_to_update(constant_complement_lens(_COLOURS, _COMPLEMENT)),
        "strong",
        _STRONG_LENS_FAILS,
        _vwb_lens_extras(lambda: constant_complement_lens(_COLOURS, _COMPLEMENT)),
    ),
    _spec(
        "identity_lens_4",
        "the whole 4-element store is the view; put replaces, get reads",
        lambda: lens_to_update(identity_lens(_COMPASS)),
        "strong",
        _STRONG_LENS_FAILS,
        _vwb_lens_extras(lambda: identity_lens(_COMPASS)),
    ),
    _spec(
        "ignore_put_lens_4",
        "put discards the incoming view entirely, so PutGet cannot hold",
        _ignore_put_update,
        "neither",
        ("PutGet", "PutGetA", "PutGetB", "PutGetC", "Faithful"),
        _ignore_put_extras,
    ),
    _spec(
        "security_db_3",
        "3-record database whose flag trips on every access, reads included",
        lambda: security_db(_DB_ENTRIES),
        "weak_only",
        ("GetPut", "PutGetA", "PutGetC", "CommutativePut"),
        _security_extras,
    ),
    _spec(
        "security_db_update_flag_3",
        "3-record database whose flag trips on writes only; reads are invisible",
        lambda: security_db_update_flag(_DB_ENTRIES),
        "weak_only",
        ("GetPut", "PutGetA", "PutGetC", "CommutativePut"),
        _flag_db_extras,
    ),
    _spec(
        "qubit_z_pvs",
        "computational-basis spectrum on a qubit; strong and put-commutative",
        lambda: pvs_to_update(_qubit_z_pvs()),
        "strong",
        ("PutGetA",),
        _pvs_extras(_qubit_z_pvs),
    ),
    _spec(
        "qubit_x_pvs",
        "plus/minus-basis spectrum on a qubit",
        lambda: pvs_to_update(_qubit_x_pvs()),
        "strong",
        ("PutGetA",),
        _pvs_extras(_qubit_x_pvs),
    ),
    _spec(
        "qutrit_pvs",
        "computational-basis spectrum on a qutrit",
        lambda: pvs_to_update(_qutrit_pvs()),
        "strong",
        ("PutGetA",),
        _pvs_extras(_qutrit_pvs),
    ),
    _spec(
        "qubit_measurement",
        "doubled qubit Z-spectrum with decohered outcome; GetPut defect sqrt(2)",
        lambda: quantum_measurement(_qubit_z_pvs()).structure,
        "weak_only",
        _MEASUREMENT_FAILS,
        _measurement_extras(_qubit_z_pvs),
    ),
    _spec(
        "qutrit_measurement",
        "doubled qutrit basis spectrum; GetPut defect sqrt(6)",
        lambda: quantum_measurement(_qutrit_pvs()).structure,
        "weak_only",
        _MEASUREMENT_FAILS,
        _measurement_extras(_qutrit_pvs),
    ),
    _spec(
        "qutrit_degenerate_measurement",
        "two-outcome qutrit measurement with ranks 2 and 1; GetPut defect 2",
        lambda: quantum_measurement(_qutrit_degenerate_pvs()).structure,
        "weak_only",
        _MEASUREMENT_FAILS,
        _measurement_extras(_qutrit_degenerate_pvs),
    ),
    _spec(
        "decohered_pvs",
        "qubit Z-spectrum doubled then pushed through the decoherence idempotent",
        _decohered_pvs_build,
        "weak_only",
        _MEASUREMENT_FAILS,
        _decohered_extras,
    ),
    _spec(
        "pair_of_pants_2",
        "2x2 matrices acting on their own column space; strong but order-sensitive",
        lambda: pair_of_pants_update(2),
        "strong",
        ("PutGetA", "CommutativePut", "CommutativeGet"),
        _pop_extras(2),
    ),
    _spec(
        "pair_of_pants_3",
        "3x3 matrices acting on their own column space",
        lambda: pair_of_pants_update(3),
        "strong",
        ("PutGetA", "CommutativePut", "CommutativeGet"),
        _pop_extras(3),
    ),
    _spec(
        "pair_of_pants_4",
        "4x4 matrices acting on their own column space",
        lambda: pair_of_pants_update(4),
        "strong",
        ("PutGetA", "CommutativePut", "CommutativeGet"),
        _pop_extras(4),
    ),
    _spec(
        "quantum_db_postselected_2_2",
        "two-register store; writing deletes the old value by postselection",
        lambda: quantum_db_postselected(2, 2),
        "strong",
        _STRONG_LENS_FAILS,
        _postselected_extras,
    ),
    _spec(
        "quantum_db_causal_2_2",
        "trace-preserving doubled store; reading dephases the stored register",
        lambda: quantum_db_causal(2, 2),
        "weak_only",
        ("GetPut", "PutGetA", "PutGetC", "CommutativePut", "Faithful"),
        _causal_extras(2, 2),
    ),
    _spec(
        "karoubi_security_db_3",
        "access-flag database restricted to its breached (stable) states",
        lambda: getput_restriction(security_db(_DB_ENTRIES)).structure,
        "strong",
        _STRONG_LENS_FAILS,
        _karoubi_extras,
    ),
    _spec(
        "karoubi_security_db_update_flag_3",
        "write-flag database restricted to its already-written states",
        lambda: getput_restriction(security_db_update_flag(_DB_ENTRIES)).structure,
        "strong",
        _STRONG_LENS_FAILS,
        _karoubi_extras,
    ),
    _spec(
        "karoubi_qubit_measurement",
        "qubit measurement restricted to its measured (block-diagonal) states",
        lambda: getput_restriction(quantum_measurement(_qubit_z_pvs()).structure).structure,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
    ),
    _spec(
        "karoubi_qutrit_measurement",
        "qutrit measurement restricted to its measured states",
        lambda: getput_restriction(quantum_measurement(_qutrit_pvs()).structure).structure,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
    ),
    _spec(
        "karoubi_qutrit_degenerate_measurement",
        "degenerate qutrit measurement restricted to its measured states",
        lambda: getput_restriction(
            quantum_measurement(_qutrit_degenerate_pvs()).structure
        ).structure,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
    ),
    _spec(
        "karoubi_decohered_pvs",
        "transformed qubit spectrum restricted to its stable states",
        lambda: getput_restriction(_decohered_pvs_build()).structure,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
    ),
    _spec(
        "karoubi_quantum_db_causal_2_2",
        "causal quantum database restricted to its dephased states",
        lambda: getput_restriction(quantum_db_causal(2, 2)).structure,
        "strong",
        ("PutGetA", "PutGetC", "CommutativePut", "Faithful"),
        _karoubi_extras,
    ),
)

REGISTRY: dict[str, ExampleSpec] = {spec.name: spec for spec in _ENTRIES}


def names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get_example(name: str) -> ExampleSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown example {name!r}; run the list command for the catalogue"
        ) from None


def build_example(name: str) -> UpdateStructure:
    return get_example(name).build()


def run_example(name: str, tol: Tolerance = DEFAULT_TOL) -> ExampleReport:
    spec = get_example(name)
    U = build_example(name)
    laws = tuple(check_laws(U, tol))
    failing = {r.law for r in laws if not r.holds}
    verdict = classify(U, tol)
    derived = tuple(verify_derived(U, prop, tol) for prop in DERIVED_PROPS)
    extras = tuple(spec.extras(U, tol)) if spec.extras is not None else ()

    mismatches = []
    if verdict.kind != spec.expected:
        mismatches.append(f"classified {verdict.kind}, expected {spec.expected}")
    if failing != spec.expected_failing:
        unexpected = sorted(failing - spec.expected_failing)
        missing = sorted(spec.expected_failing - failing)
        if unexpected:
            mismatches.append(f"unexpectedly fails {unexpected}")
        if missing:
            mismatches.append(f"unexpectedly passes {missing}")
    for d in derived:
        if d.status == "fails":
            mismatches.append(f"derived {d.name} fails (residual {d.residual:.3e})")
    for x in extras:
        if not x.holds:
            mismatches.append(f"extra check {x.name} fails (residual {x.residual:.3e})")
    return ExampleReport(
        name=spec.name,
        expected=spec.expected,
        classification=verdict.kind,
        laws=laws,
        derived=derived,
        extras=extras,
        matched=not mismatches,
        mismatches=tuple(mismatches),
    )


def run_all(tol: Tolerance = DEFAULT_TOL) -> list[ExampleReport]:
    return [run_example(name, tol) for name in names()]

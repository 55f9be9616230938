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
from typing import Callable, NamedTuple

import numpy as np

from .finsets import FinSet, SET_UNIT, FinFunction, SetType
from .karoubi import absorption, getput_restriction
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
    ProjectorValuedSpectrum,
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
    trace_preserving,
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
    Morphism,
    TensorType,
    Tolerance,
    basis_state,
    compare,
    compare_all,
    cup,
    scalar,
)

__all__ = [
    "RegistryError",
    "ExtraCheck",
    "ExampleSpec",
    "ExampleReport",
    "Built",
    "RunScope",
    "REGISTRY",
    "names",
    "get_example",
    "build_example",
    "run_example",
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
    """One registry entry.

    ``build()`` makes the structure and ``extras(U, tol)`` its family checks.
    An entry built from a projector family sets ``family``, a factory that
    takes the tolerance: each run makes each family once, ``build`` takes
    the family and the tolerance, and the extras get the entry's
    :class:`Built` record in place of ``U``.  An entry that splits another
    one names it in ``restricts`` and has no ``build``: its structure is
    that entry's structure restricted along ``get ; put``.
    """

    name: str
    description: str
    build: Callable[..., UpdateStructure] | None
    expected: str
    expected_failing: frozenset[str]
    extras: Callable[..., list[ExtraCheck]] | None = None
    family: Callable[[Tolerance], ProjectorValuedSpectrum] | None = None
    restricts: str | None = None


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


def _qubit_z_pvs(tol: Tolerance):
    return pvs_from_projectors([_projector(2, (1, 0)), _projector(2, (0, 1))], tol)


def _qubit_x_pvs(tol: Tolerance):
    t = TensorType((2,))
    plus = Morphism(t, t, np.full((2, 2), 0.5))
    minus = Morphism(t, t, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    return pvs_from_projectors([plus, minus], tol)


def _qutrit_pvs(tol: Tolerance):
    return pvs_from_projectors(
        [_projector(3, (1, 0, 0)), _projector(3, (0, 1, 0)), _projector(3, (0, 0, 1))], tol
    )


def _qutrit_degenerate_pvs(tol: Tolerance):
    return pvs_from_projectors([_projector(3, (1, 1, 0)), _projector(3, (0, 0, 1))], tol)


def _decohered_pvs_build(pvs: ProjectorValuedSpectrum, tol: Tolerance) -> UpdateStructure:
    # The transformed route: double the strong spectrum structure, then
    # push it through the decoherence idempotent on the outcome wire.
    return transform_update(double_structure(pvs_to_update(pvs)), decoherence(2), tol)


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


def _pvs_extras(built, tol: Tolerance) -> list[ExtraCheck]:
    pvs, U, _ = built
    out = [ExtraCheck(f"spectrum_{r.law}", r.holds, r.residual)
           for r in pvs_equations(pvs, tol)]
    ok, failing = characterize_pvs(U, tol)
    out.append(ExtraCheck("characterised_as_spectrum", ok, float(len(failing))))
    return out


def _measurement_extras(built, tol: Tolerance) -> list[ExtraCheck]:
    pvs, U, _ = built
    actual = scalar(check_law(U, "GetPut", tol).residual)
    formula = compare(actual, scalar(getput_defect_formula(pvs)), tol)
    deco = decoherence(len(pvs.projectors))
    inv = compare(U.get >> (U.system.identity() @ deco), U.get, tol)
    return [
        ExtraCheck("getput_defect_matches_rank_formula", formula.holds, formula.residual),
        ExtraCheck("outcome_wire_classical", inv.holds, inv.residual),
    ]


def _decohered_extras(built, tol: Tolerance) -> list[ExtraCheck]:
    # qubit_measurement measures the same family directly; its verdicts
    # are already in its memo when the run has checked it
    _, U, scope = built
    direct = scope.build("qubit_measurement", tol)[1]
    components = compare_all(
        [(U.put, direct.put), (U.get, direct.get), (U.mult, direct.mult),
         (U.comult, direct.comult)], tol)
    pairs = [(check_law(U, law, tol), check_law(direct, law, tol)) for law in applicable_laws(U)]
    agree = all(mine.holds == theirs.holds for mine, theirs in pairs)
    profile = compare_all(
        [(scalar(mine.residual), scalar(theirs.residual)) for mine, theirs in pairs], tol)
    return [
        ExtraCheck("equals_direct_measurement_componentwise",
                   components.holds, components.residual),
        ExtraCheck("matches_direct_measurement_profile",
                   agree and profile.holds, profile.residual),
    ]


def _pop_extras(d: int):
    def run(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
        out = []
        for law, want in (("assoc", True), ("unit", True), ("special", True),
                          ("frobenius", True), ("comm", False)):
            got = check_law(U, law, tol)
            name = f"algebra_{law}" if want else f"algebra_{law}_fails"
            out.append(ExtraCheck(name, got.holds is want, got.residual))
        # |0><1| and |1><0| compose to different matrix units each way round
        x = basis_state(d, 0) @ basis_state(d, 1)
        y = basis_state(d, 1) @ basis_state(d, 0)
        wit = compare((x @ y) >> U.mult, (y @ x) >> U.mult, tol)
        out.append(ExtraCheck("order_of_writes_matters", not wit.holds, wit.residual))
        bell = compare(U.trivial_update, cup(d), tol)
        out.append(ExtraCheck("bell_state_is_trivial_update", bell.holds, bell.residual))
        return out

    return run


def _security_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    e = U.term("get_put")
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
    e = U.term("get_put")
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
        recovered = update_to_lens(U, tol)
        same = ((recovered.source, recovered.view) == (lens.source, lens.view)
                and np.array_equal(recovered.get_fn.index, lens.get_fn.index)
                and np.array_equal(recovered.put_fn.index, lens.put_fn.index))
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


def _postselected_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    write = trace_preserving(cpm_double(U.put), tol)
    read = trace_preserving(cpm_double(U.get), tol)
    return [
        ExtraCheck("doubled_write_postselects", not write.holds, write.residual),
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
            "write_trace_preserving": trace_preserving(U.put, tol),
            "read_trace_preserving": trace_preserving(U.get, tol),
        }
        return [ExtraCheck(name, r.holds, r.residual) for name, r in checks.items()]

    return run


def _karoubi_extras(U: UpdateStructure, tol: Tolerance) -> list[ExtraCheck]:
    return [ExtraCheck(name, r.holds, r.residual) for name, r in absorption(U, tol).items()]


# -- the registry ------------------------------------------------------------


def _spec(name, description, build, expected, failing, extras=None, family=None,
          restricts=None) -> ExampleSpec:
    return ExampleSpec(name, description, build, expected, frozenset(failing), extras, family,
                       restricts)


_STRONG_LENS_FAILS = ("PutGetA", "PutGetC", "CommutativePut")
_MEASUREMENT_FAILS = ("GetPut", "PutGetA", "Faithful")

# Builds reach library functions through lambdas, so that every call goes
# through the module binding current at run time.
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
        lambda pvs, tol: pvs_to_update(pvs),
        "strong",
        ("PutGetA",),
        _pvs_extras,
        family=_qubit_z_pvs,
    ),
    _spec(
        "qubit_x_pvs",
        "plus/minus-basis spectrum on a qubit",
        lambda pvs, tol: pvs_to_update(pvs),
        "strong",
        ("PutGetA",),
        _pvs_extras,
        family=_qubit_x_pvs,
    ),
    _spec(
        "qutrit_pvs",
        "computational-basis spectrum on a qutrit",
        lambda pvs, tol: pvs_to_update(pvs),
        "strong",
        ("PutGetA",),
        _pvs_extras,
        family=_qutrit_pvs,
    ),
    _spec(
        "qubit_measurement",
        "doubled qubit Z-spectrum with decohered outcome; GetPut defect sqrt(2)",
        lambda pvs, tol: quantum_measurement(pvs),
        "weak_only",
        _MEASUREMENT_FAILS,
        _measurement_extras,
        family=_qubit_z_pvs,
    ),
    _spec(
        "qutrit_measurement",
        "doubled qutrit basis spectrum; GetPut defect sqrt(6)",
        lambda pvs, tol: quantum_measurement(pvs),
        "weak_only",
        _MEASUREMENT_FAILS,
        _measurement_extras,
        family=_qutrit_pvs,
    ),
    _spec(
        "qutrit_degenerate_measurement",
        "two-outcome qutrit measurement with ranks 2 and 1; GetPut defect 2",
        lambda pvs, tol: quantum_measurement(pvs),
        "weak_only",
        _MEASUREMENT_FAILS,
        _measurement_extras,
        family=_qutrit_degenerate_pvs,
    ),
    _spec(
        "decohered_pvs",
        "qubit Z-spectrum doubled then pushed through the decoherence idempotent",
        _decohered_pvs_build,
        "weak_only",
        _MEASUREMENT_FAILS,
        _decohered_extras,
        family=_qubit_z_pvs,
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
        None,
        "strong",
        _STRONG_LENS_FAILS,
        _karoubi_extras,
        restricts="security_db_3",
    ),
    _spec(
        "karoubi_security_db_update_flag_3",
        "write-flag database restricted to its already-written states",
        None,
        "strong",
        _STRONG_LENS_FAILS,
        _karoubi_extras,
        restricts="security_db_update_flag_3",
    ),
    _spec(
        "karoubi_qubit_measurement",
        "qubit measurement restricted to its measured (block-diagonal) states",
        None,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
        restricts="qubit_measurement",
    ),
    _spec(
        "karoubi_qutrit_measurement",
        "qutrit measurement restricted to its measured states",
        None,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
        restricts="qutrit_measurement",
    ),
    _spec(
        "karoubi_qutrit_degenerate_measurement",
        "degenerate qutrit measurement restricted to its measured states",
        None,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
        restricts="qutrit_degenerate_measurement",
    ),
    _spec(
        "karoubi_decohered_pvs",
        "transformed qubit spectrum restricted to its stable states",
        None,
        "strong",
        ("PutGetA", "Faithful"),
        _karoubi_extras,
        restricts="decohered_pvs",
    ),
    _spec(
        "karoubi_quantum_db_causal_2_2",
        "causal quantum database restricted to its dephased states",
        None,
        "strong",
        ("PutGetA", "PutGetC", "CommutativePut", "Faithful"),
        _karoubi_extras,
        restricts="quantum_db_causal_2_2",
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


class RunScope:
    """What the entries of one check run share, for as long as the run lasts.

    Entries that name the same ``family`` factory get one family, and each
    entry is built once, so the entry that ``restricts`` it and any extras
    that read it reuse its structure and its verdict memo.  Both are kept
    per tolerance.  Nothing in the scope refers back to it, so it is freed
    as soon as its run drops it.
    """

    def __init__(self) -> None:
        self._families: dict = {}
        self._entries: dict[tuple[str, Tolerance],
                            tuple[ProjectorValuedSpectrum | None, UpdateStructure]] = {}

    def build(self, name: str, tol: Tolerance) -> tuple[ProjectorValuedSpectrum | None,
                                                        UpdateStructure]:
        """An entry's projector family (None if it names none) and its structure."""
        key = (name, tol)
        if key not in self._entries:
            self._entries[key] = self._make(get_example(name), tol)
        return self._entries[key]

    def _make(self, spec: ExampleSpec, tol: Tolerance):
        if spec.restricts is not None:
            family, base = self.build(spec.restricts, tol)
            return family, getput_restriction(base, tol).structure
        if spec.family is None:
            return None, spec.build()
        key = (spec.family, tol)
        if key not in self._families:
            self._families[key] = spec.family(tol)
        return self._families[key], spec.build(self._families[key], tol)


class Built(NamedTuple):
    """What the extras of an entry with a ``family`` get in place of ``U``."""

    family: ProjectorValuedSpectrum
    structure: UpdateStructure
    scope: RunScope


def build_example(name: str) -> UpdateStructure:
    return RunScope().build(name, DEFAULT_TOL)[1]


def run_example(name: str, tol: Tolerance = DEFAULT_TOL,
                scope: RunScope | None = None) -> ExampleReport:
    """Run the full suite on one entry, sharing builds through ``scope``
    (a fresh one when it is None)."""
    spec = get_example(name)
    scope = RunScope() if scope is None else scope
    family, U = scope.build(name, tol)
    laws = tuple(check_laws(U, tol))
    failing = {r.law for r in laws if not r.holds}
    verdict = classify(U, tol)
    derived = tuple(verify_derived(U, prop, tol) for prop in DERIVED_PROPS)
    extras = ()
    if spec.extras is not None:
        extras = tuple(spec.extras(U if spec.family is None else Built(family, U, scope), tol))

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

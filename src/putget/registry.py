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
    _kind,
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

    ``build(scope)`` makes the structure and ``extras(U, scope)`` its family
    checks, both at the run's tolerance ``scope.tol``.  They reach projector
    families and other entries through the :class:`RunScope`, so what
    entries share is made once per run.
    """

    name: str
    description: str
    build: Callable[[RunScope], UpdateStructure]
    expected_failing: frozenset[str]
    extras: Callable[[UpdateStructure, RunScope], list[ExtraCheck]] | None = None

    @property
    def expected(self) -> str:
        """The classification that the failing set implies, by the rule of ``classify``."""
        return _kind(self.expected_failing)


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


def _decohered_pvs_build(scope: RunScope) -> UpdateStructure:
    # The transformed route: double the strong spectrum structure, then
    # push it through the decoherence idempotent on the outcome wire.
    U = pvs_to_update(scope.family(_qubit_z_pvs))
    return transform_update(double_structure(U), decoherence(2), scope.tol)


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


def _pvs_extras(family):
    def run(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
        out = [ExtraCheck(f"spectrum_{r.law}", r.holds, r.residual)
               for r in pvs_equations(scope.family(family), scope.tol)]
        ok, failing = characterize_pvs(U, scope.tol)
        out.append(ExtraCheck("characterised_as_spectrum", ok, float(len(failing))))
        return out

    return run


def _measurement_extras(family):
    def run(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
        pvs, tol = scope.family(family), scope.tol
        actual = scalar(check_law(U, "GetPut", tol).residual)
        formula = compare(actual, scalar(getput_defect_formula(pvs)), tol)
        deco = decoherence(len(pvs.projectors))
        inv = compare(U.get >> (U.system.identity() @ deco), U.get, tol)
        return [
            ExtraCheck("getput_defect_matches_rank_formula", formula.holds, formula.residual),
            ExtraCheck("outcome_wire_classical", inv.holds, inv.residual),
        ]

    return run


def _decohered_extras(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
    # qubit_measurement measures the same family directly; its verdicts
    # are already in its memo when the run has checked it
    direct, tol = scope.build("qubit_measurement"), scope.tol
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
    def run(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
        out = []
        for law, want in (("assoc", True), ("unit", True), ("special", True),
                          ("frobenius", True), ("comm", False)):
            got = check_law(U, law, scope.tol)
            name = f"algebra_{law}" if want else f"algebra_{law}_fails"
            out.append(ExtraCheck(name, got.holds is want, got.residual))
        # |0><1| and |1><0| compose to different matrix units each way round
        x = basis_state(d, 0) @ basis_state(d, 1)
        y = basis_state(d, 1) @ basis_state(d, 0)
        wit = compare((x @ y) >> U.mult, (y @ x) >> U.mult, scope.tol)
        out.append(ExtraCheck("order_of_writes_matters", not wit.holds, wit.residual))
        bell = compare(U.trivial_update, cup(d), scope.tol)
        out.append(ExtraCheck("bell_state_is_trivial_update", bell.holds, bell.residual))
        return out

    return run


def _getput_breaks_exactly_on(U: UpdateStructure, flag: str, name: str) -> ExtraCheck:
    """Whether GetPut fails on exactly the states whose flag is ``flag``; the residual
    counts the states where the two sets differ."""
    broken = set(U.term("get_put").disagreements(U.system.identity()))
    gap = broken ^ {x for x in U.system.elements() if x[1] == flag}
    return ExtraCheck(name, not gap, float(len(gap)))


def _security_extras(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
    stuck = U.term("get_put").image()
    breached = {x for x in U.system.elements() if x[1] == "breached"}
    return [
        _getput_breaks_exactly_on(U, "safe", "getput_breaks_exactly_on_safe_states"),
        ExtraCheck("stable_states_all_breached", stuck <= breached,
                   float(len(stuck - breached))),
    ]


def _flag_db_extras(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
    report = check_vwb(update_flag_lens(_DB_ENTRIES))
    return [
        _getput_breaks_exactly_on(U, "untouched", "getput_breaks_exactly_on_unwritten_states"),
        ExtraCheck("lens_put_put", report.put_put.holds, report.put_put.residual),
        ExtraCheck("lens_put_get", report.put_get.holds, report.put_get.residual),
        ExtraCheck("lens_get_put_fails", not report.get_put.holds, report.get_put.residual),
    ]


def _vwb_lens_extras(make_lens):
    def run(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
        lens = make_lens()
        report = check_vwb(lens)
        violations = report.put_put.residual + report.put_get.residual + report.get_put.residual
        recovered = update_to_lens(U, scope.tol)
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


def _ignore_put_extras(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
    lens = _ignore_put_lens()
    report = check_vwb(lens)
    sep = trivial_update_separability(lens)
    return [
        ExtraCheck("lens_put_get_fails", not report.put_get.holds, report.put_get.residual),
        ExtraCheck("every_view_is_a_trivial_update",
                   sep.has_trivial_update and sep.separable is True, float(sep.violations)),
    ]


def _postselected_extras(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
    write = trace_preserving(cpm_double(U.put), scope.tol)
    read = trace_preserving(cpm_double(U.get), scope.tol)
    return [
        ExtraCheck("doubled_write_postselects", not write.holds, write.residual),
        ExtraCheck("doubled_read_trace_preserving", read.holds, read.residual),
    ]


def _causal_extras(d1: int, d2: int):
    def run(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
        tol = scope.tol
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


def _karoubi_extras(U: UpdateStructure, scope: RunScope) -> list[ExtraCheck]:
    return [ExtraCheck(name, r.holds, r.residual)
            for name, r in absorption(U, scope.tol).items()]


# -- the registry ------------------------------------------------------------


_STRONG_LENS_FAILS = ("PutGetA", "PutGetC", "CommutativePut")
_MEASUREMENT_FAILS = ("GetPut", "PutGetA", "Faithful")


def _spec(name, description, build, failing, extras=None) -> ExampleSpec:
    return ExampleSpec(name, description, build, frozenset(failing), extras)


def _spectrum(name, description, family) -> ExampleSpec:
    return _spec(name, description, lambda scope: pvs_to_update(scope.family(family)),
                 ("PutGetA",), _pvs_extras(family))


def _measurement(name, description, family) -> ExampleSpec:
    return _spec(name, description, lambda scope: quantum_measurement(scope.family(family)),
                 _MEASUREMENT_FAILS, _measurement_extras(family))


def _pop(d, description) -> ExampleSpec:
    return _spec(f"pair_of_pants_{d}", description, lambda _: pair_of_pants_update(d),
                 ("PutGetA", "CommutativePut", "CommutativeGet"), _pop_extras(d))


def _lens(name, description, make_lens) -> ExampleSpec:
    """A very well-behaved lens's update structure, with the lens extras."""
    return _spec(name, description, lambda _: lens_to_update(make_lens()), _STRONG_LENS_FAILS,
                 _vwb_lens_extras(make_lens))


def _karoubi(base, description, failing) -> ExampleSpec:
    """``karoubi_<base>``: the entry ``base`` restricted along ``get ; put``."""
    return _spec(f"karoubi_{base}", description,
                 lambda scope: getput_restriction(scope.build(base), scope.tol).structure,
                 failing, _karoubi_extras)


# Builds reach library functions through lambdas, so that every call goes
# through the module binding current at run time.
_ENTRIES: tuple[ExampleSpec, ...] = (
    _lens("lens_constant_complement_3_2",
          "vwb lens from a bijection S ~ V x R with 3 views and a 2-element complement",
          lambda: constant_complement_lens(_COLOURS, _COMPLEMENT)),
    _lens("identity_lens_4", "the whole 4-element store is the view; put replaces, get reads",
          lambda: identity_lens(_COMPASS)),
    _spec(
        "ignore_put_lens_4",
        "put discards the incoming view entirely, so PutGet cannot hold",
        lambda _: _ignore_put_update(),
        ("PutGet", "PutGetA", "PutGetB", "PutGetC", "Faithful"),
        _ignore_put_extras,
    ),
    _spec(
        "security_db_3",
        "3-record database whose flag trips on every access, reads included",
        lambda _: security_db(_DB_ENTRIES),
        ("GetPut", "PutGetA", "PutGetC", "CommutativePut"),
        _security_extras,
    ),
    _spec(
        "security_db_update_flag_3",
        "3-record database whose flag trips on writes only; reads are invisible",
        lambda _: security_db_update_flag(_DB_ENTRIES),
        ("GetPut", "PutGetA", "PutGetC", "CommutativePut"),
        _flag_db_extras,
    ),
    _spectrum("qubit_z_pvs",
              "computational-basis spectrum on a qubit; strong and put-commutative",
              _qubit_z_pvs),
    _spectrum("qubit_x_pvs", "plus/minus-basis spectrum on a qubit", _qubit_x_pvs),
    _spectrum("qutrit_pvs", "computational-basis spectrum on a qutrit", _qutrit_pvs),
    _measurement("qubit_measurement",
                 "doubled qubit Z-spectrum with decohered outcome; GetPut defect sqrt(2)",
                 _qubit_z_pvs),
    _measurement("qutrit_measurement", "doubled qutrit basis spectrum; GetPut defect sqrt(6)",
                 _qutrit_pvs),
    _measurement("qutrit_degenerate_measurement",
                 "two-outcome qutrit measurement with ranks 2 and 1; GetPut defect 2",
                 _qutrit_degenerate_pvs),
    _spec(
        "decohered_pvs",
        "qubit Z-spectrum doubled then pushed through the decoherence idempotent",
        _decohered_pvs_build,
        _MEASUREMENT_FAILS,
        _decohered_extras,
    ),
    _pop(2, "2x2 matrices acting on their own column space; strong but order-sensitive"),
    _pop(3, "3x3 matrices acting on their own column space"),
    _pop(4, "4x4 matrices acting on their own column space"),
    _spec(
        "quantum_db_postselected_2_2",
        "two-register store; writing deletes the old value by postselection",
        lambda _: quantum_db_postselected(2, 2),
        _STRONG_LENS_FAILS,
        _postselected_extras,
    ),
    _spec(
        "quantum_db_causal_2_2",
        "trace-preserving doubled store; reading dephases the stored register",
        lambda _: quantum_db_causal(2, 2),
        ("GetPut", "PutGetA", "PutGetC", "CommutativePut", "Faithful"),
        _causal_extras(2, 2),
    ),
    _karoubi("security_db_3", "access-flag database restricted to its breached (stable) states",
             _STRONG_LENS_FAILS),
    _karoubi("security_db_update_flag_3",
             "write-flag database restricted to its already-written states", _STRONG_LENS_FAILS),
    _karoubi("qubit_measurement",
             "qubit measurement restricted to its measured (block-diagonal) states",
             ("PutGetA", "Faithful")),
    _karoubi("qutrit_measurement", "qutrit measurement restricted to its measured states",
             ("PutGetA", "Faithful")),
    _karoubi("qutrit_degenerate_measurement",
             "degenerate qutrit measurement restricted to its measured states",
             ("PutGetA", "Faithful")),
    _karoubi("decohered_pvs", "transformed qubit spectrum restricted to its stable states",
             ("PutGetA", "Faithful")),
    _karoubi("quantum_db_causal_2_2", "causal quantum database restricted to its dephased states",
             ("PutGetA", "PutGetC", "CommutativePut", "Faithful")),
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
    """What the entries of one check run at tolerance ``tol`` share, for as
    long as the run lasts.

    Each entry is built once and each projector family made once, so a
    Karoubi entry, and any extras that read another entry, reuse that
    entry's structure and its verdict memo.  Nothing in the scope refers
    back to it, so it is freed as soon as its run drops it.
    """

    def __init__(self, tol: Tolerance) -> None:
        self.tol = tol
        self._memo: dict = {}  # entry name or family factory -> what it made

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def build(self, name: str) -> UpdateStructure:
        return self._once(name, lambda: get_example(name).build(self))

    def family(self, factory: Callable[[Tolerance], ProjectorValuedSpectrum]
               ) -> ProjectorValuedSpectrum:
        return self._once(factory, lambda: factory(self.tol))


def build_example(name: str) -> UpdateStructure:
    return RunScope(DEFAULT_TOL).build(name)


def run_example(name: str, scope: RunScope | None = None) -> ExampleReport:
    """Run the full suite on one entry at ``scope.tol``, sharing builds through ``scope``
    (a fresh one at the default tolerance when it is None)."""
    spec = get_example(name)
    scope = RunScope(DEFAULT_TOL) if scope is None else scope
    tol = scope.tol
    U = scope.build(name)
    laws = tuple(check_laws(U, tol))
    failing = {r.law for r in laws if not r.holds}
    verdict = classify(U, tol)
    derived = tuple(verify_derived(U, prop, tol) for prop in DERIVED_PROPS)
    extras = () if spec.extras is None else tuple(spec.extras(U, scope))

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

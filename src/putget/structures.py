"""Update structures and their law suite.

An update structure couples a write map ``put : S (x) p -> S`` and a
read map ``get : S -> S (x) p`` with a magma and a comagma on the
property wire p.  The strong laws are PutPut, GetGet, PutGet and
GetPut; the weak ones replace GetPut by RepeatUpdate.  Everything here
is backend-generic: the same recipes run over exact finite-set tables
and over complex matrices.

Law reference (``;`` is left-to-right composition):

    PutPut        (put x 1_p) ; put            =  (1_S x mult) ; put
    GetGet        get ; (get x 1_p)            =  get ; (1_S x comult)
    PutGet        put ; get                    =  (1_S x comult) ; (put x 1_p)
    GetPut        get ; put                    =  1_S
    RepeatUpdate  (1_S x comult) ; (put x 1_p) ; put  =  put
    PutGetA       put ; get                    =  1_{S x p}
    PutGetB       alias for PutGet (comagma-shaped right-hand side)
    PutGetC       put ; get                    =  (get x 1_p) ; (1_S x mult)
    TrivialUpdate   (1_S x u) ; put  =  1_S      for the stored u : I -> p
    TrivialOutcome  get ; (1_S x o)  =  1_S      for the stored o : p -> I
    Faithful      the curried put  p -> Hom(S, S)  is injective
    CommutativePut / CommutativeGet   two writes (reads) commute

On a split system (see :mod:`putget.karoubi`) ``1_S`` means the
splitting idempotent, which is the identity of the restricted object.

Each structure memoises its verdicts: :func:`check_law` evaluates a law
in full the first time it is asked for at a given tolerance and returns
the stored result afterwards, so ``check_laws``, ``classify``, the
derived premises and every other consumer share one evaluation; PutGetB
is read from the PutGet entry, and so is the conclusion of
weak_trivial_implies_strong from the GetPut entry.  ``with_components``
copies start empty.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .finsets import FinFunction, SetType
from .tensors import DEFAULT_TOL, Morphism, TensorType, Tolerance, compare, compare_all

__all__ = [
    "StructureError",
    "UpdateStructure",
    "LawCheckResult",
    "Classification",
    "DerivedResult",
    "LAW_NAMES",
    "CORE_LAWS",
    "DERIVED_PROPS",
    "check_law",
    "check_laws",
    "applicable_laws",
    "classify",
    "verify_derived",
]


class StructureError(ValueError):
    """An update structure is ill-typed or missing a requested component."""


Wires = TensorType | SetType
Arrow = Morphism | FinFunction

BACKENDS = ("set", "linear", "doubled", "split")

LAW_NAMES = (
    "PutPut",
    "GetGet",
    "PutGet",
    "GetPut",
    "RepeatUpdate",
    "PutGetA",
    "PutGetB",
    "PutGetC",
    "TrivialUpdate",
    "TrivialOutcome",
    "Faithful",
    "CommutativePut",
    "CommutativeGet",
)

# Laws that are another law under a second name: checked once, as the target.
_ALIASES = {"PutGetB": "PutGet"}

CORE_LAWS = ("PutPut", "GetGet", "PutGet", "GetPut", "RepeatUpdate")
WEAK_LAWS = ("PutPut", "GetGet", "PutGet", "RepeatUpdate")


@dataclass(frozen=True, eq=False)
class UpdateStructure:
    """A (system, property, put, get, mult, comult) tuple over one backend.

    ``trivial_update`` (a state ``I -> p``) and ``trivial_outcome`` (an
    effect ``p -> I``) are optional; laws mentioning them only apply
    when present.  ``system_identity`` overrides the identity on S in
    every law, which is how structures restricted to a splitting
    idempotent are checked.
    """

    backend: str
    system: Wires
    prop: Wires
    put: Arrow
    get: Arrow
    mult: Arrow
    comult: Arrow
    trivial_update: Arrow | None = None
    trivial_outcome: Arrow | None = None
    system_identity: Arrow | None = None
    # (law, tolerance) -> verdict, filled by check_law
    _verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise StructureError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        # "split" inherits its arrow flavour from the wires; the other
        # tags pin it down.
        if self.backend == "set":
            want_type: type = SetType
        elif self.backend == "split":
            want_type = SetType if isinstance(self.system, SetType) else TensorType
        else:
            want_type = TensorType
        want = FinFunction if want_type is SetType else Morphism
        if not isinstance(self.system, want_type) or not isinstance(self.prop, want_type):
            raise StructureError(f"backend {self.backend!r} needs {want_type.__name__} wires")
        s, p = self.system, self.prop
        unit = want_type.unit()
        expected = {
            "put": (s @ p, s),
            "get": (s, s @ p),
            "mult": (p @ p, p),
            "comult": (p, p @ p),
            "trivial_update": (unit, p),
            "trivial_outcome": (p, unit),
            "system_identity": (s, s),
        }
        for name, (dom, cod) in expected.items():
            arrow = getattr(self, name)
            if arrow is None:
                continue
            if not isinstance(arrow, want):
                raise StructureError(f"{name} must be a {want.__name__} on backend {self.backend!r}")
            if arrow.dom != dom or arrow.cod != cod:
                raise StructureError(
                    f"{name} must be a map {dom} -> {cod}, got {arrow.dom} -> {arrow.cod}"
                )

    # identities used by the law recipes ---------------------------------
    def id_system(self) -> Arrow:
        return self.system_identity if self.system_identity is not None else self.system.identity()

    def id_prop(self) -> Arrow:
        return self.prop.identity()

    def with_components(self, **kwargs) -> "UpdateStructure":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class LawCheckResult:
    """One law verdict: ``holds`` iff ``residual <= threshold``.

    For matrices the residual is a Frobenius norm and the threshold
    comes from the tolerance; for finite sets the residual counts
    disagreeing inputs and the threshold is 0.  For Faithful the
    residual is the rank (or image) deficiency of the curried put.
    """

    law: str
    holds: bool
    residual: float
    threshold: float


@dataclass(frozen=True)
class Classification:
    """Outcome of :func:`classify`: the kind plus the failing core laws."""

    kind: str  # "strong" | "weak_only" | "neither"
    failing: tuple[LawCheckResult, ...]

    def failing_names(self) -> tuple[str, ...]:
        return tuple(r.law for r in self.failing)


@dataclass(frozen=True)
class DerivedResult:
    """A derived implication: vacuous when a premise fails, else pass/fail."""

    name: str
    status: str  # "holds" | "fails" | "vacuous"
    residual: float
    failed_premises: tuple[str, ...] = ()


def _require(U: UpdateStructure, component: str) -> Arrow:
    arrow = getattr(U, component)
    if arrow is None:
        raise StructureError(f"structure has no {component}; law not applicable")
    return arrow


def _law_sides(U: UpdateStructure, law: str) -> tuple[Arrow, Arrow]:
    ids, idp = U.id_system(), U.id_prop()
    put, get, mult, comult = U.put, U.get, U.mult, U.comult
    if law == "PutPut":
        return (put @ idp) >> put, (ids @ mult) >> put
    if law == "GetGet":
        return get >> (get @ idp), get >> (ids @ comult)
    if law == "PutGet":
        return put >> get, (ids @ comult) >> (put @ idp)
    if law == "GetPut":
        return get >> put, ids
    if law == "RepeatUpdate":
        return (ids @ comult) >> (put @ idp) >> put, put
    if law == "PutGetA":
        return put >> get, ids @ idp
    if law == "PutGetC":
        return put >> get, (get @ idp) >> (ids @ mult)
    if law == "TrivialUpdate":
        u = _require(U, "trivial_update")
        return (ids @ u) >> put, ids
    if law == "TrivialOutcome":
        o = _require(U, "trivial_outcome")
        return get >> (ids @ o), ids
    if law == "CommutativePut":
        both = (put @ idp) >> put
        return (ids @ U.prop.swap(U.prop)) >> both, both
    if law == "CommutativeGet":
        both = get >> (get @ idp)
        return both >> (ids @ U.prop.swap(U.prop)), both
    raise StructureError(f"unknown law {law!r}; expected one of {LAW_NAMES}")


def _check_faithful(U: UpdateStructure, tol: Tolerance) -> LawCheckResult:
    if isinstance(U.put, FinFunction):
        actions = set()
        for v in U.prop.elements():
            actions.add(tuple(U.put.table[s + v] for s in U.system.elements()))
        residual = float(U.prop.size - len(actions))
        return LawCheckResult("Faithful", residual == 0, residual, 0.0)
    ds, dp = U.system.dim, U.prop.dim
    # curried put as a (dS*dS) x dp matrix: column v holds put(- (x) v)
    k = U.put.array.reshape(ds, ds, dp).reshape(ds * ds, dp)
    singular = np.linalg.svd(k, compute_uv=False)
    rank = int(np.count_nonzero(singular > tol.threshold(np.linalg.norm(k))))
    residual = float(dp - rank)
    return LawCheckResult("Faithful", residual == 0, residual, 0.0)


def check_law(U: UpdateStructure, law: str, tol: Tolerance = DEFAULT_TOL) -> LawCheckResult:
    """Check one named law of ``U`` at the given tolerance (memoised on ``U``)."""
    target = _ALIASES.get(law, law)
    key = (target, tol)
    result = U._verdicts.get(key)
    if result is None:
        if target == "Faithful":
            result = _check_faithful(U, tol)
        else:
            result = LawCheckResult(target, *compare(*_law_sides(U, target), tol))
        U._verdicts[key] = result
    return result if target == law else replace(result, law=law)


def applicable_laws(U: UpdateStructure) -> tuple[str, ...]:
    names = list(LAW_NAMES)
    if U.trivial_update is None:
        names.remove("TrivialUpdate")
    if U.trivial_outcome is None:
        names.remove("TrivialOutcome")
    return tuple(names)


def check_laws(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> list[LawCheckResult]:
    """All applicable laws, in the canonical order."""
    return [check_law(U, law, tol) for law in applicable_laws(U)]


def classify(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """strong / weak_only / neither, from the five core laws."""
    results = {law: check_law(U, law, tol) for law in CORE_LAWS}
    strong = ("PutPut", "GetGet", "PutGet", "GetPut")
    if all(results[law].holds for law in strong):
        return Classification("strong", ())
    if all(results[law].holds for law in WEAK_LAWS):
        return Classification("weak_only", (results["GetPut"],))
    failing = tuple(r for r in results.values() if not r.holds)
    return Classification("neither", failing)


# -- derived implications ------------------------------------------------
#
# Each entry maps a proposition name to its premise laws and its
# conclusion: a builder producing a list of (lhs, rhs) comparisons, whose
# residual is the worst of the list, or the name of a law whose
# memoised verdict is the conclusion.

DERIVED_PROPS = (
    "putget_idem",
    "weak_trivial_implies_strong",
    "coassoc_under_put_from_B",
    "assoc_under_get_from_C",
    "frobenius_under_put_from_BC",
    "comm_under_put",
    "unit_under_put",
    "coassoc_under_faithful_putget",
    "putget_a_forces_trivial_property",
)


def _pairs_putget_idem(U):
    e = U.get >> U.put
    return [(e >> e, e)]


def _pairs_coassoc_under_put(U):
    # Both sides factored by the interchange law so no morphism ever
    # carries three property wires at once.
    ids, idp = U.id_system(), U.id_prop()
    put, comult = U.put, U.comult
    copy_in = ids @ comult
    left = copy_in >> ((copy_in >> (put @ idp)) @ idp)
    right = copy_in >> (put @ comult)
    return [(left, right)]


def _pairs_assoc_under_get(U):
    ids, idp = U.id_system(), U.id_prop()
    get, mult = U.get, U.mult
    merge_out = ids @ mult
    left = (((get @ idp) >> merge_out) @ idp) >> merge_out
    right = (get @ mult) >> merge_out
    return [(left, right)]


def _pairs_frobenius_under_put(U):
    ids, idp = U.id_system(), U.id_prop()
    put, mult, comult = U.put, U.mult, U.comult

    def under(x):
        return (ids @ x) >> (put @ idp)

    left = under((idp @ comult) >> (mult @ idp))
    middle = under(mult >> comult)
    right = under((comult @ idp) >> (idp @ mult))
    return [(left, middle), (middle, right), (left, right)]


def _pairs_comm_under_put(U):
    ids, idp = U.id_system(), U.id_prop()
    sw = U.prop.swap(U.prop)
    left = (ids @ (sw >> U.mult)) >> U.put
    right = (ids @ U.mult) >> U.put
    return [(left, right)]


def _pairs_unit_under_put(U):
    ids, idp = U.id_system(), U.id_prop()
    u, mult, put = U.trivial_update, U.mult, U.put
    absorb_left = (ids @ ((u @ idp) >> mult)) >> put
    absorb_right = (ids @ ((idp @ u) >> mult)) >> put
    return [(absorb_left, put), (absorb_right, put)]


def _pairs_coassoc_under_faithful(U):
    ids, idp = U.id_system(), U.id_prop()
    put, get, mult, comult = U.put, U.get, U.mult, U.comult
    assoc_l = (mult @ idp) >> mult
    assoc_r = (idp @ mult) >> mult
    coassoc_l = comult >> (comult @ idp)
    coassoc_r = comult >> (idp @ comult)
    return [
        ((ids @ assoc_l) >> put, (ids @ assoc_r) >> put),
        (get >> (ids @ coassoc_l), get >> (ids @ coassoc_r)),
        (assoc_l, assoc_r),  # faithfulness promotes to the nose
        (coassoc_l, coassoc_r),
    ]


def _pairs_putgeta_trivial(U):
    # PutGetA together with units collapses the property wire: report
    # whether the identity on p indeed separates through the point.
    return [(U.id_prop(), U.trivial_outcome >> U.trivial_update)]


_DERIVED: dict[str, tuple[tuple[str, ...], object]] = {
    "putget_idem": (WEAK_LAWS, _pairs_putget_idem),
    "weak_trivial_implies_strong": (WEAK_LAWS + ("TrivialUpdate",), "GetPut"),
    "coassoc_under_put_from_B": (("PutGetB", "GetGet"), _pairs_coassoc_under_put),
    "assoc_under_get_from_C": (("PutGetC", "PutPut"), _pairs_assoc_under_get),
    "frobenius_under_put_from_BC": (("PutGetB", "PutGetC", "PutPut"), _pairs_frobenius_under_put),
    "comm_under_put": (("CommutativePut", "PutPut"), _pairs_comm_under_put),
    "unit_under_put": (("TrivialUpdate", "PutPut"), _pairs_unit_under_put),
    "coassoc_under_faithful_putget": (("Faithful", "PutPut", "GetGet"), _pairs_coassoc_under_faithful),
    "putget_a_forces_trivial_property": (
        ("PutGetA", "TrivialUpdate", "TrivialOutcome"),
        _pairs_putgeta_trivial,
    ),
}


def verify_derived(U: UpdateStructure, prop_id: str, tol: Tolerance = DEFAULT_TOL) -> DerivedResult:
    """Check one derived implication; a failed premise is reported as vacuous."""
    if prop_id not in _DERIVED:
        raise StructureError(f"unknown derived proposition {prop_id!r}")
    premises, conclusion = _DERIVED[prop_id]
    failed = []
    for law in premises:
        if law == "TrivialUpdate" and U.trivial_update is None:
            failed.append("TrivialUpdate (no trivial update attached)")
            continue
        if law == "TrivialOutcome" and U.trivial_outcome is None:
            failed.append("TrivialOutcome (no trivial outcome attached)")
            continue
        if not check_law(U, law, tol).holds:
            failed.append(law)
    if failed:
        return DerivedResult(prop_id, "vacuous", 0.0, tuple(failed))
    if isinstance(conclusion, str):
        result = check_law(U, conclusion, tol)
    else:
        result = compare_all(conclusion(U), tol)
    return DerivedResult(prop_id, "holds" if result.holds else "fails", result.residual, ())

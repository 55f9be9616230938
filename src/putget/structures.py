"""Update structures and their law suite.

An update structure couples a write map ``put : S (x) p -> S`` and a
read map ``get : S -> S (x) p`` with a magma and a comagma on the
property wire p.  The strong laws are PutPut, GetGet, PutGet and
GetPut; the weak ones replace GetPut by RepeatUpdate.  Everything here
is backend-generic: the same recipes run over exact finite-set tables
and over complex matrices, and the wires say which: ``SetType`` wires
take ``FinFunction`` arrows, ``TensorType`` wires take ``Morphism``
arrows.

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

A structure is split (see :mod:`putget.karoubi`) exactly when it sets
``system_identity``: ``1_S`` then means that splitting idempotent,
which is the identity of the restricted object.

Each structure keeps one memo (:meth:`UpdateStructure.memo`).  It holds
the composites that several law sides and derived pairs share, by term
name (see :meth:`UpdateStructure.term`), each built once in one fixed
association order; and the verdicts, by (law, tolerance): :func:`check_law`
evaluates a law in full the first time it is asked for and returns the
stored result afterwards, so ``check_laws``, ``classify``, the derived
premises and every other consumer share one evaluation.  PutGetB is read
from the PutGet entry, the conclusion of weak_trivial_implies_strong from
the GetPut entry, and the on-the-nose part of
coassoc_under_faithful_putget from the assoc and coassoc entries.
:mod:`putget.karoubi` and :mod:`putget.quantum` keep their equations in
it under (name, tolerance) keys, which :func:`check_law` never reads: it
refuses a name that is not a law.  ``with_components`` copies start with
the memo empty.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .algebras import ALGEBRA_LAWS, _algebra_sides
from .finsets import FinFunction, SetType
from .tensors import (DEFAULT_TOL, Comparison, Morphism, TensorType, Tolerance, compare,
                      compare_all)

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

_UNSET = object()  # what a memo holds for a key it has not made yet

CORE_LAWS = ("PutPut", "GetGet", "PutGet", "GetPut", "RepeatUpdate")
WEAK_LAWS = ("PutPut", "GetGet", "PutGet", "RepeatUpdate")


@dataclass(frozen=True, eq=False)
class UpdateStructure:
    """A (system, property, put, get, mult, comult) tuple over one backend.

    The wires fix the backend: both ``SetType`` (arrows are
    ``FinFunction`` index arrays) or both ``TensorType`` (arrows are
    ``Morphism`` matrices, doubled or not).  ``trivial_update`` (a state
    ``I -> p``) and ``trivial_outcome`` (an effect ``p -> I``) are
    optional; laws mentioning them only apply when present.
    ``system_identity`` overrides the identity on S in every law; it is
    set exactly on structures restricted to a splitting idempotent.
    Everything derived from U is kept in one memo (see :meth:`memo`).
    """

    system: Wires
    prop: Wires
    put: Arrow
    get: Arrow
    mult: Arrow
    comult: Arrow
    trivial_update: Arrow | None = None
    trivial_outcome: Arrow | None = None
    system_identity: Arrow | None = None
    # key -> value, filled by memo: term name -> composite, (law, tolerance) -> verdict
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s, p = self.system, self.prop
        if isinstance(s, SetType) and isinstance(p, SetType):
            want: type = FinFunction
        elif isinstance(s, TensorType) and isinstance(p, TensorType):
            want = Morphism
        else:
            raise StructureError(
                f"system and property must both be SetType or both TensorType wires, "
                f"got {type(s).__name__} and {type(p).__name__}")
        unit = type(s).unit()
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
                raise StructureError(f"{name} must be a {want.__name__} on these wires")
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

    def memo(self, key, make):
        """The value stored under ``key``, made by ``make()`` the first time it is asked for."""
        value = self._memo.get(key, _UNSET)
        if value is _UNSET:
            value = self._memo[key] = make()
        return value

    def term(self, name: str):
        """A shared composite, or an algebra law's sides, by name (see ``_TERMS``), built once."""
        return self.memo(name, lambda: _TERMS[name](self))


# The composites that several law sides and derived pairs share.  A term
# reads other terms, so each is built in one association order.  "ids:x" is
# 1_S x x, and "put:x" ("get:x") is the part x acting through put (get), which
# the two three-wire sides reuse part by part (see ``_coassoc_through_put``); an
# algebra law's name gives its (lhs, rhs) pairs, with U's mult, comult, trivial
# update and trivial outcome as the algebra.
_TERMS = {
    "ids": lambda U: U.id_system(),
    "idp": lambda U: U.id_prop(),
    "put_p": lambda U: U.put @ U.term("idp"),  # put x 1_p
    "get_p": lambda U: U.get @ U.term("idp"),  # get x 1_p
    "ids:mult": lambda U: U.term("ids") @ U.mult,  # 1_S x mult
    "ids:comult": lambda U: U.term("ids") @ U.comult,  # 1_S x comult
    "put_get": lambda U: U.put >> U.get,  # put ; get
    "get_put": lambda U: U.get >> U.put,  # get ; put
    "put_put": lambda U: U.term("put_p") >> U.put,  # (put x 1_p) ; put
    "get_get": lambda U: U.get >> U.term("get_p"),  # get ; (get x 1_p)
    "put:comult": lambda U: U.term("ids:comult") >> U.term("put_p"),  # (1_S x comult) ; (put x 1_p)
    "put:mult": lambda U: U.term("ids:mult") >> U.put,  # (1_S x mult) ; put
    "get:mult": lambda U: U.term("get_p") >> U.term("ids:mult"),  # (get x 1_p) ; (1_S x mult)
}
_TERMS.update({law: lambda U, law=law: _algebra_sides(SimpleNamespace(
    carrier=U.prop, mult=U.mult, unit=U.trivial_update, comult=U.comult,
    counit=U.trivial_outcome), law) for law in ALGEBRA_LAWS})


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


# Each law in the canonical order: its (lhs, rhs) sides from U and U's terms
# ``t``, or the name of the law it is under a second name (checked once, as
# that law).  Faithful is the one rank check, :func:`_check_faithful`.
_LAWS = {
    "PutPut": lambda U, t: (t("put_put"), t("put:mult")),
    "GetGet": lambda U, t: (t("get_get"), U.get >> t("ids:comult")),
    "PutGet": lambda U, t: (t("put_get"), t("put:comult")),
    "GetPut": lambda U, t: (t("get_put"), t("ids")),
    "RepeatUpdate": lambda U, t: (t("put:comult") >> U.put, U.put),
    "PutGetA": lambda U, t: (t("put_get"), t("ids") @ t("idp")),
    "PutGetB": "PutGet",  # the comagma-shaped right-hand side is PutGet's
    "PutGetC": lambda U, t: (t("put_get"), t("get:mult")),
    "TrivialUpdate": lambda U, t: ((t("ids") @ U.trivial_update) >> U.put, t("ids")),
    "TrivialOutcome": lambda U, t: (U.get >> (t("ids") @ U.trivial_outcome), t("ids")),
    "Faithful": None,
    "CommutativePut": lambda U, t: ((t("ids") @ U.prop.swap(U.prop)) >> t("put_put"), t("put_put")),
    "CommutativeGet": lambda U, t: (t("get_get") >> (t("ids") @ U.prop.swap(U.prop)), t("get_get")),
}
LAW_NAMES = tuple(_LAWS)
# The laws that apply only when U carries a component, by that component; the
# algebra laws unit and counit read U's trivial update and trivial outcome.
_NEEDS = {"TrivialUpdate": "trivial_update", "TrivialOutcome": "trivial_outcome",
          "unit": "trivial_update", "counit": "trivial_outcome"}


def _missing(U: UpdateStructure, law: str) -> str | None:
    """The component that ``law`` needs and U lacks, if any."""
    need = _NEEDS.get(law)
    return need if need is not None and getattr(U, need) is None else None


def _law_sides(U: UpdateStructure, law: str) -> tuple[Arrow, Arrow]:
    """The (lhs, rhs) sides of a law that has sides: neither an alias nor Faithful."""
    return _LAWS[law](U, U.term)


def _check_faithful(U: UpdateStructure, tol: Tolerance) -> LawCheckResult:
    if isinstance(U.put, FinFunction):
        # row v of the transposed (|S|, |p|) reshape is the action of v
        actions = U.put.index.reshape(U.system.size, U.prop.size).T.tolist()
        residual = float(U.prop.size - len(set(map(tuple, actions))))
        return LawCheckResult("Faithful", residual == 0, residual, 0.0)
    ds, dp = U.system.dim, U.prop.dim
    # curried put as a (dS*dS) x dp matrix: column v holds put(- (x) v)
    k = U.put.array.reshape(ds, ds, dp).reshape(ds * ds, dp)
    singular = np.linalg.svd(k, compute_uv=False)
    # the norm of k is put's, which Morphism.norm takes without overflow
    rank = int(np.count_nonzero(singular > tol.threshold(U.put.norm())))
    residual = float(dp - rank)
    return LawCheckResult("Faithful", residual == 0, residual, 0.0)


def check_law(U: UpdateStructure, law: str, tol: Tolerance = DEFAULT_TOL) -> LawCheckResult:
    """Check one named law of ``U`` at the given tolerance (memoised on ``U``).

    ``law`` may also name an algebra law of the property wire (see
    :data:`putget.algebras.ALGEBRA_LAWS`), which is then checked on the
    nose, with U's mult, comult, trivial update and trivial outcome as
    the algebra; its sides are read from ``U.term(law)``.  A law that
    reads a component U lacks (see ``_NEEDS``) raises StructureError.
    """
    if law not in _LAWS and law not in ALGEBRA_LAWS:
        raise StructureError(f"unknown law {law!r}; expected one of {LAW_NAMES + ALGEBRA_LAWS}")
    if (need := _missing(U, law)) is not None:
        raise StructureError(f"structure has no {need}; law not applicable")
    target = _LAWS[law] if isinstance(_LAWS.get(law), str) else law
    result = U.memo((target, tol), lambda: _verdict(U, target, tol))
    return result if target == law else replace(result, law=law)


def _verdict(U: UpdateStructure, law: str, tol: Tolerance) -> LawCheckResult:
    if law == "Faithful":
        return _check_faithful(U, tol)
    if law in ALGEBRA_LAWS:
        return LawCheckResult(law, *compare_all(U.term(law), tol))
    return LawCheckResult(law, *compare(*_law_sides(U, law), tol))


def applicable_laws(U: UpdateStructure) -> tuple[str, ...]:
    return tuple(law for law in LAW_NAMES if _missing(U, law) is None)


def check_laws(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> list[LawCheckResult]:
    """All applicable laws, in the canonical order."""
    return [check_law(U, law, tol) for law in applicable_laws(U)]


def _kind(failing: frozenset[str] | set[str]) -> str:
    """strong / weak_only / neither, from the names of the laws that fail: strong where
    none of PutPut, GetGet, PutGet and GetPut fails, else weak_only where no weak law fails."""
    if failing.isdisjoint(("PutPut", "GetGet", "PutGet", "GetPut")):
        return "strong"
    return "weak_only" if failing.isdisjoint(WEAK_LAWS) else "neither"


def classify(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """strong / weak_only / neither, from the five core laws."""
    results = {law: check_law(U, law, tol) for law in CORE_LAWS}
    failing = tuple(r for r in results.values() if not r.holds)
    kind = _kind({r.law for r in failing})
    return Classification(kind, () if kind == "strong" else
                          (results["GetPut"],) if kind == "weak_only" else failing)


# -- derived implications ------------------------------------------------
#
# Each entry maps a proposition name to its premise laws and its
# conclusion, a tuple of parts that must all hold: a builder producing a
# list of (lhs, rhs) comparisons, or the name of a law whose memoised
# verdict is read.  The residual is the worst over all parts.  Six
# conclusions show the algebra laws of the property wire arising from
# how put and get act: they are the laws as :mod:`putget.algebras` states
# them, acting on the system through put or get (``_through``, but the two
# sides that reach three property wires part by part), or on the nose under
# Faithful, where they are the algebra laws' own verdicts.  Each premise is
# needed: tests/data/premise_witnesses.json holds a witness for each.

def _through(U, where, x):
    """An algebra law's side ``x`` acting through put: ``(1_S x x) ; put`` where x ends
    on p, else ``(1_S x x) ; (put x 1_p)``; and through get, mirrored."""
    beside = U.term("ids") @ x
    if where == "put":
        return beside >> (U.put if x.cod == U.prop else U.term("put_p"))
    return (U.get if x.dom == U.prop else U.term("get_p")) >> beside


def _laws_acting(*conclusions):
    """A conclusion builder: each (algebra law, where it acts) in turn."""
    return lambda U: [(_through(U, where, lhs), _through(U, where, rhs))
                      for law, where in conclusions for lhs, rhs in U.term(law)]


# The two sides that reach three property wires act part by part (the
# interchange law), so that no arrow carries S x p^3 beside S x p^2: the
# benchmark tracer and the dense oracle of the tests build every arrow
# densely, and put x 1_p x 1_p is 25^6 entries at pair_of_pants_update(5).
def _coassoc_through_put(U):
    """comult ; (comult x 1_p)  =  comult ; (1_p x comult), through put."""
    return [(U.term("ids:comult") >> (U.term("put:comult") @ U.term("idp")),
             U.term("ids:comult") >> (U.put @ U.comult))]


def _assoc_through_get(U):
    """(mult x 1_p) ; mult  =  (1_p x mult) ; mult, through get."""
    return [((U.term("get:mult") @ U.term("idp")) >> U.term("ids:mult"),
             (U.get @ U.mult) >> U.term("ids:mult"))]


# Neither PutPut nor GetGet is a premise of the first two.  By PutGet, then RepeatUpdate,
#   e ; e = get ; (put ; get) ; put = get ; (1 (x) comult) ; (put (x) 1) ; put = e  (e = get ; put),
# and by TrivialUpdate ((1 (x) u) ; put = 1), then the same two,
#   get ; put = (1 (x) u) ; put ; get ; put = (1 (x) u) ; (1 (x) comult) ; (put (x) 1) ; put = 1.
_DERIVED: dict[str, tuple[tuple[str, ...], tuple]] = {
    "putget_idem": (("PutGet", "RepeatUpdate"), (
        lambda U: [(U.term("get_put") >> U.term("get_put"), U.term("get_put"))],)),
    "weak_trivial_implies_strong": (("PutGet", "RepeatUpdate", "TrivialUpdate"), ("GetPut",)),
    "coassoc_under_put_from_B": (("PutGetB", "GetGet"), (_coassoc_through_put,)),
    "assoc_under_get_from_C": (("PutGetC", "PutPut"), (_assoc_through_get,)),
    "frobenius_under_put_from_BC": (("PutGetB", "PutGetC", "PutPut"),
                                    (_laws_acting(("frobenius", "put")),)),
    "comm_under_put": (("CommutativePut", "PutPut"), (_laws_acting(("comm", "put")),)),
    "unit_under_put": (("TrivialUpdate", "PutPut"), (_laws_acting(("unit", "put")),)),
    "coassoc_under_faithful_putget": (("Faithful", "PutPut", "GetGet"), (
        _laws_acting(("assoc", "put"), ("coassoc", "get")), "assoc", "coassoc")),
    # PutGetA with both units collapses the property wire through the point
    "putget_a_forces_trivial_property": (
        ("PutGetA", "TrivialUpdate", "TrivialOutcome"),
        (lambda U: [(U.term("idp"), U.trivial_outcome >> U.trivial_update)],)),
}
DERIVED_PROPS = tuple(_DERIVED)


def verify_derived(U: UpdateStructure, prop_id: str, tol: Tolerance = DEFAULT_TOL) -> DerivedResult:
    """Check one derived implication; a failed premise is reported as vacuous."""
    if prop_id not in _DERIVED:
        raise StructureError(f"unknown derived proposition {prop_id!r}")
    premises, conclusion = _DERIVED[prop_id]
    failed = []
    for law in premises:
        if (need := _missing(U, law)) is not None:
            failed.append(f"{law} (no {need.replace('_', ' ')} attached)")
        elif not check_law(U, law, tol).holds:
            failed.append(law)
    if failed:
        return DerivedResult(prop_id, "vacuous", 0.0, tuple(failed))
    result = Comparison.joint(check_law(U, part, tol) if isinstance(part, str)
                              else compare_all(part(U), tol) for part in conclusion)
    return DerivedResult(prop_id, "holds" if result.holds else "fails", result.residual, ())

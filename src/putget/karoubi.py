"""Splitting idempotents: restrict weak structures to their stable states.

Formally we work in the idempotent completion: an object is a pair of a
base wire and an idempotent on it, and an arrow between such pairs is
absorbed by the idempotents on both sides.  A weak update structure has
the idempotent ``get ; put`` on its system, and restricting put and get
along it yields a *strong* structure on the split object -- the law
checks there read equality against the idempotent instead of the
identity wire.
"""
from __future__ import annotations

from dataclasses import dataclass

from .quantum import decoherence
from .structures import (
    UpdateStructure,
    check_law,
    classify,
    StructureError,
)
from .tensors import DEFAULT_TOL, TensorType, Tolerance, allowance

__all__ = [
    "SplitError",
    "SplitObject",
    "SplitMorphism",
    "split_wrap",
    "split_identity",
    "split_compose",
    "classical_object",
    "GetPutRestriction",
    "getput_restriction",
]


class SplitError(ValueError):
    """An idempotent or absorption requirement fails."""


@dataclass(frozen=True, eq=False)
class SplitObject:
    """A wire together with an idempotent cutting out a subsystem."""

    base: object
    idempotent: object

    def __post_init__(self):
        e = self.idempotent
        if e.dom != self.base or e.cod != self.base:
            raise SplitError(f"idempotent must be an endomap of {self.base}")
        if (e >> e).distance(e) > allowance(e, DEFAULT_TOL):
            raise SplitError("splitting map is not idempotent")


@dataclass(frozen=True, eq=False)
class SplitMorphism:
    """An arrow of the idempotent completion: absorbed on both sides."""

    dom: SplitObject
    cod: SplitObject
    arrow: object


def split_wrap(arrow, dom: SplitObject, cod: SplitObject, tol: Tolerance = DEFAULT_TOL) -> SplitMorphism:
    """Check absorption and wrap a raw arrow as a split morphism."""
    if arrow.dom != dom.base or arrow.cod != cod.base:
        raise SplitError(f"arrow is {arrow.dom} -> {arrow.cod}, expected {dom.base} -> {cod.base}")
    thr = allowance(arrow, tol)
    left = (arrow >> cod.idempotent).distance(arrow)
    right = (dom.idempotent >> arrow).distance(arrow)
    if left > thr or right > thr:
        raise SplitError(f"arrow is not absorbed by the idempotents "
                         f"(post {left:.3e}, pre {right:.3e})")
    return SplitMorphism(dom, cod, arrow)


def split_identity(obj: SplitObject) -> SplitMorphism:
    """The identity of a split object is its idempotent."""
    return SplitMorphism(obj, obj, obj.idempotent)


def split_compose(f: SplitMorphism, g: SplitMorphism) -> SplitMorphism:
    """Compose f then g; the middle objects must share base and idempotent."""
    mid, other = f.cod, g.dom
    if mid is not other and (
        mid.base != other.base
        or mid.idempotent.distance(other.idempotent) > allowance(mid.idempotent, DEFAULT_TOL)
    ):
        raise SplitError("split morphisms do not compose")
    return SplitMorphism(f.dom, g.cod, f.arrow >> g.arrow)


def classical_object(d: int) -> SplitObject:
    """The d-outcome classical system inside doubled wires."""
    return SplitObject(TensorType((d, d)), decoherence(d))


@dataclass(frozen=True, eq=False)
class GetPutRestriction:
    """A weak structure restricted to the image of ``get ; put``."""

    system: SplitObject
    writer: SplitMorphism
    reader: SplitMorphism
    structure: UpdateStructure


def getput_restriction(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> GetPutRestriction:
    """Split ``get ; put`` and restrict the structure to the stable states.

    Requires a weak structure (PutGet and RepeatUpdate make ``get ; put``
    idempotent).  The restricted structure must come out strong -- its
    GetPut *is* the absorption equation -- and a failure to do so is an
    error, never a silent reclassification.  For an already strong
    structure the idempotent is the identity and nothing changes.
    """
    for law in ("PutGet", "RepeatUpdate"):
        r = check_law(U, law, tol)
        if not r.holds:
            raise SplitError(f"restriction needs {law}; it fails with residual {r.residual:.3e}")
    e = U.get >> U.put
    system = SplitObject(U.system, e)  # idempotence re-checked here
    idp = U.id_prop()
    restricted = U.with_components(
        backend="split",
        put=(e @ idp) >> U.put >> e,
        get=e >> U.get >> (e @ idp),
        system_identity=e,
    )
    verdict = classify(restricted, tol)
    if verdict.kind != "strong":
        raise SplitError(f"restricted structure is not strong: fails {verdict.failing_names()}")
    prod = SplitObject(U.system @ U.prop, e @ idp)
    writer = split_wrap(restricted.put, prod, system, tol)
    reader = split_wrap(restricted.get, system, prod, tol)
    return GetPutRestriction(system, writer, reader, restricted)

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

from dataclasses import InitVar, dataclass

from .structures import UpdateStructure, check_law, classify
from .tensors import DEFAULT_TOL, Tolerance, compare

__all__ = [
    "SplitError",
    "SplitObject",
    "SplitMorphism",
    "split_wrap",
    "GetPutRestriction",
    "getput_restriction",
]


class SplitError(ValueError):
    """An idempotent or absorption requirement fails."""


@dataclass(frozen=True, eq=False)
class SplitObject:
    """A wire together with an idempotent cutting out a subsystem.

    Idempotence is checked at ``tol``, which is not stored.
    """

    base: object
    idempotent: object
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerance):
        e = self.idempotent
        if e.dom != self.base or e.cod != self.base:
            raise SplitError(f"idempotent must be an endomap of {self.base}")
        if not compare(e >> e, e, tol).holds:
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
    post = compare(arrow >> cod.idempotent, arrow, tol)
    pre = compare(dom.idempotent >> arrow, arrow, tol)
    if not (post.holds and pre.holds):
        raise SplitError(f"arrow is not absorbed by the idempotents "
                         f"(post {post.residual:.3e}, pre {pre.residual:.3e})")
    return SplitMorphism(dom, cod, arrow)


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
    system = SplitObject(U.system, e, tol)  # idempotence re-checked here
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
    prod = SplitObject(U.system @ U.prop, e @ idp, tol)
    writer = split_wrap(restricted.put, prod, system, tol)
    reader = split_wrap(restricted.get, system, prod, tol)
    return GetPutRestriction(system, writer, reader, restricted)

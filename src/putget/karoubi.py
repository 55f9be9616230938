"""Splitting idempotents: restrict weak structures to their stable states.

A weak update structure has the idempotent ``e = get ; put`` on its
system.  Splitting it (the idempotent completion) cuts out the stable
states: put and get restricted along ``e`` give a structure whose
``system_identity`` is ``e``, and whose law checks read equality against
``e`` instead of the identity wire.  :func:`absorption` states what
makes such a structure well formed -- ``e`` is idempotent and absorbs
put and get on both sides -- and the restriction comes out *strong*.
"""
from __future__ import annotations

from dataclasses import dataclass

from .structures import UpdateStructure, check_law, classify
from .tensors import DEFAULT_TOL, Comparison, Tolerance, compare, compare_all

__all__ = [
    "SplitError",
    "absorption",
    "GetPutRestriction",
    "getput_restriction",
]


class SplitError(ValueError):
    """An idempotent or absorption requirement fails."""


def absorption(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> dict[str, Comparison]:
    """The equations of a structure on a split object, by name.

    ``splitting_idempotent``: ``e ; e = e`` for ``e = U.id_system()``;
    ``writer_absorbed`` and ``reader_absorbed``: put and get are unchanged
    by ``e`` (beside the property identity) on either side.  Memoised on
    ``U`` under ``("absorption", tol)``; each call returns a fresh dict.
    """
    e, idp, put, get = U.term("ids"), U.term("idp"), U.put, U.get
    return dict(U.memo(("absorption", tol), lambda: {
        "splitting_idempotent": compare(e >> e, e, tol),
        "writer_absorbed": compare_all([((e @ idp) >> put, put), (put >> e, put)], tol),
        "reader_absorbed": compare_all([(e >> get, get), (get >> (e @ idp), get)], tol),
    }))


@dataclass(frozen=True, eq=False)
class GetPutRestriction:
    """A weak structure restricted to the image of ``get ; put``."""

    structure: UpdateStructure


def getput_restriction(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> GetPutRestriction:
    """Split ``get ; put`` and restrict the structure to the stable states.

    Requires a weak structure (PutGet and RepeatUpdate make ``get ; put``
    idempotent).  The restricted structure must satisfy :func:`absorption`
    and come out strong -- its GetPut *is* the absorption equation -- and
    a failure to do so is an error, never a silent reclassification.  For
    an already strong structure the idempotent is the identity and
    nothing changes.
    """
    for law in ("PutGet", "RepeatUpdate"):
        r = check_law(U, law, tol)
        if not r.holds:
            raise SplitError(f"restriction needs {law}; it fails with residual {r.residual:.3e}")
    e = U.term("get_put")
    idp = U.term("idp")
    restricted = U.with_components(
        put=(e @ idp) >> U.put >> e,
        get=e >> U.get >> (e @ idp),
        system_identity=e,
    )
    bad = [f"{name} (residual {r.residual:.3e})"
           for name, r in absorption(restricted, tol).items() if not r.holds]
    if bad:
        raise SplitError("restriction fails " + ", ".join(bad))
    verdict = classify(restricted, tol)
    if verdict.kind != "strong":
        raise SplitError(f"restricted structure is not strong: fails {verdict.failing_names()}")
    return GetPutRestriction(restricted)

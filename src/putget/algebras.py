"""The algebra on the property wire, over either backend.

An update structure only demands a magma on the property wire (a bare
binary operation) and dually a comagma; units, counits, associativity
and the Frobenius laws are optional extras.  So one record,
:class:`Algebra`, holds a carrier and whichever of ``mult``, ``unit``,
``comult`` and ``counit`` are present, and :func:`check_algebra` probes
one named law at a time.  Each law is stated once, as the pairs of
arrows it equates, and judged by :func:`tensors.compare_all`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finsets import FinFunction, SetType
from .tensors import (
    DEFAULT_TOL,
    Comparison,
    Morphism,
    TensorType,
    Tolerance,
    cap,
    compare_all,
    cup,
)

__all__ = [
    "AlgebraError",
    "Algebra",
    "ALGEBRA_LAWS",
    "check_algebra",
    "scfa_from_dimension",
    "pair_of_pants",
]


class AlgebraError(ValueError):
    """A component is missing or ill-typed for the requested check."""


Carrier = TensorType | SetType
Arrow = Morphism | FinFunction


@dataclass(frozen=True, eq=False)
class Algebra:
    """A carrier with any of a multiplication, unit, comultiplication and counit.

    A magma is ``Algebra(carrier, mult)``, a comagma
    ``Algebra(carrier, comult=..., counit=...)``.  Every part that is
    present must have its type on the carrier.
    """

    carrier: Carrier
    mult: Arrow | None = None
    unit: Arrow | None = None
    comult: Arrow | None = None
    counit: Arrow | None = None

    def __post_init__(self) -> None:
        one, two = type(self.carrier).unit(), self.carrier @ self.carrier
        for name, dom, cod in (("mult", two, self.carrier), ("unit", one, self.carrier),
                               ("comult", self.carrier, two), ("counit", self.carrier, one)):
            arrow = getattr(self, name)
            if arrow is not None and (arrow.dom != dom or arrow.cod != cod):
                raise AlgebraError(
                    f"{name} must be a map {dom} -> {cod}, got {arrow.dom} -> {arrow.cod}"
                )


# Each algebra law, in order: the parts it needs, and its (lhs, rhs) pairs
# from the algebra ``a`` and the identity ``i`` on its carrier.
_LAWS = {
    "assoc": (("mult",), lambda a, i: [((a.mult @ i) >> a.mult, (i @ a.mult) >> a.mult)]),
    "coassoc": (("comult",), lambda a, i: [(a.comult >> (a.comult @ i),
                                            a.comult >> (i @ a.comult))]),
    "unit": (("mult", "unit"), lambda a, i: [((a.unit @ i) >> a.mult, i),
                                             ((i @ a.unit) >> a.mult, i)]),
    "counit": (("comult", "counit"), lambda a, i: [(a.comult >> (a.counit @ i), i),
                                                   (a.comult >> (i @ a.counit), i)]),
    "comm": (("mult",), lambda a, i: [(a.carrier.swap(a.carrier) >> a.mult, a.mult)]),
    "cocomm": (("comult",), lambda a, i: [(a.comult >> a.carrier.swap(a.carrier), a.comult)]),
    "special": (("mult", "comult"), lambda a, i: [(a.comult >> a.mult, i)]),
    # both sides share mult ; comult as one arrow
    "frobenius": (("mult", "comult"), lambda a, i: [
        ((i @ a.comult) >> (a.mult @ i), (middle := a.mult >> a.comult)),
        ((a.comult @ i) >> (i @ a.mult), middle)]),
    "dagger_frobenius": (("mult", "comult"), lambda a, i: [(a.comult, _adjoint(a.mult))] + (
        [(a.counit, _adjoint(a.unit))] if a.unit is not None and a.counit is not None else [])),
}
ALGEBRA_LAWS = tuple(_LAWS)


def _algebra_sides(alg: Algebra, law: str) -> list[tuple[Arrow, Arrow]]:
    needs, pairs = _LAWS[law]
    for part in needs:
        if getattr(alg, part) is None:
            raise AlgebraError(f"algebra has no {part}; cannot check this law")
    return pairs(alg, alg.carrier.identity())


def _adjoint(arrow):
    if isinstance(arrow, FinFunction):
        raise AlgebraError("dagger laws need the linear backend")
    return arrow.dagger()


def check_algebra(alg: Algebra, law: str, tol: Tolerance = DEFAULT_TOL) -> Comparison:
    """Check one named law of ``alg``.

    A law that needs a missing part raises :class:`AlgebraError`, except
    that a finite-set magma without a stored unit gets an exhaustive unit
    search instead.
    """
    if law not in ALGEBRA_LAWS:
        raise AlgebraError(f"unknown algebra law {law!r}; expected one of {ALGEBRA_LAWS}")
    if law == "unit" and alg.unit is None and isinstance(alg.mult, FinFunction):
        return _searched_unit(alg)
    return compare_all(_algebra_sides(alg, law), tol)


def _searched_unit(alg: Algebra) -> Comparison:
    # No stored unit: search the carrier, reporting the least total violation.
    n = alg.carrier.size
    if n == 0:  # empty carrier: no unit can exist
        return Comparison(False, 1.0, 0.0)
    mult, ids = alg.mult.index.reshape(n, n), np.arange(n)
    # row u of mult holds u * x for every x, row u of its transpose x * u
    bad = np.count_nonzero(mult != ids, axis=1) + np.count_nonzero(mult.T != ids, axis=1)
    best = int(bad.min())
    return Comparison(best == 0, float(best), 0.0)


# -- stock algebras ------------------------------------------------------


def scfa_from_dimension(d: int) -> Algebra:
    """The computational-basis spider on one wire of dimension d.

    comult copies basis states, counit deletes them; mult and unit are
    their daggers.  Special, commutative and dagger-Frobenius.
    """
    t = TensorType((d,))
    comult_arr = np.zeros((d * d, d))
    for i in range(d):
        comult_arr[i * d + i, i] = 1.0
    comult = Morphism(t, t @ t, comult_arr)
    counit = Morphism(t, TensorType(()), np.ones((1, d)))
    return Algebra(t, comult.dagger(), counit.dagger(), comult, counit)


def pair_of_pants(d: int) -> Algebra:
    """Composition of d x d matrix units, and its scaled dagger.

    The carrier is ``[d, d]`` read as matrices; mult is "first then
    second" composition, its unit the Bell state.  comult is the dagger
    of mult scaled by 1/d and counit the Bell effect scaled by 1/d:
    those scalars are forced by the GetGet and GetPut laws of the matrix
    update structure built on top of this algebra.
    """
    t = TensorType((d, d))
    one = TensorType((d,)).identity()
    mult = one @ cap(d) @ one  # |j,k,l,m> -> delta_{kl} |j,m>
    return Algebra(t, mult, cup(d), (1.0 / d) * mult.dagger(), (1.0 / d) * cap(d))

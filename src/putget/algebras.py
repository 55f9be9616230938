"""Magmas, comagmas and Frobenius algebras over either backend.

An update structure only demands a magma on the property wire (a bare
binary operation) and dually a comagma; units, counits, associativity
and the Frobenius laws are all optional extras whose presence is probed
by :func:`check_algebra`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finsets import FinFunction, SetType
from .tensors import (
    DEFAULT_TOL,
    Morphism,
    TensorType,
    Tolerance,
    cap,
    compare_all,
    cup,
)

__all__ = [
    "AlgebraError",
    "Magma",
    "Comagma",
    "FrobeniusAlgebra",
    "ALGEBRA_LAWS",
    "check_algebra",
    "scfa_from_dimension",
    "pair_of_pants",
    "pair_of_pants_frobenius",
]


class AlgebraError(ValueError):
    """A component is missing or ill-typed for the requested check."""


Carrier = TensorType | SetType
Arrow = Morphism | FinFunction


def _check_endo_types(carrier: Carrier, mult=None, unit=None, comult=None, counit=None) -> None:
    two = carrier @ carrier
    unit_t = type(carrier).unit()
    for name, arrow, dom, cod in (
        ("mult", mult, two, carrier),
        ("unit", unit, unit_t, carrier),
        ("comult", comult, carrier, two),
        ("counit", counit, carrier, unit_t),
    ):
        if arrow is None:
            continue
        if arrow.dom != dom or arrow.cod != cod:
            raise AlgebraError(
                f"{name} must be a map {dom} -> {cod}, got {arrow.dom} -> {arrow.cod}"
            )


@dataclass(frozen=True, eq=False)
class Magma:
    carrier: Carrier
    mult: Arrow
    unit: Arrow | None = None

    def __post_init__(self) -> None:
        _check_endo_types(self.carrier, mult=self.mult, unit=self.unit)


@dataclass(frozen=True, eq=False)
class Comagma:
    carrier: Carrier
    comult: Arrow
    counit: Arrow | None = None

    def __post_init__(self) -> None:
        _check_endo_types(self.carrier, comult=self.comult, counit=self.counit)


@dataclass(frozen=True, eq=False)
class FrobeniusAlgebra:
    carrier: Carrier
    mult: Arrow
    unit: Arrow
    comult: Arrow
    counit: Arrow

    def __post_init__(self) -> None:
        _check_endo_types(
            self.carrier, mult=self.mult, unit=self.unit, comult=self.comult, counit=self.counit
        )


ALGEBRA_LAWS = (
    "assoc",
    "coassoc",
    "unit",
    "counit",
    "comm",
    "cocomm",
    "special",
    "frobenius",
    "dagger_frobenius",
)


def _getattr_or_raise(alg, name: str):
    value = getattr(alg, name, None)
    if value is None:
        raise AlgebraError(f"{type(alg).__name__} has no {name}; cannot check this law")
    return value


def check_algebra(alg, law: str, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Check one named law; returns ``(holds, residual)``.

    Missing components raise :class:`AlgebraError`, except that a
    finite-set magma without a stored unit gets an exhaustive unit
    search instead.
    """
    if law not in ALGEBRA_LAWS:
        raise AlgebraError(f"unknown algebra law {law!r}; expected one of {ALGEBRA_LAWS}")
    carrier = alg.carrier
    ident = carrier.identity()
    sw = carrier.swap(carrier)

    if law == "assoc":
        mult = _getattr_or_raise(alg, "mult")
        pairs = [((mult @ ident) >> mult, (ident @ mult) >> mult)]
    elif law == "coassoc":
        comult = _getattr_or_raise(alg, "comult")
        pairs = [(comult >> (comult @ ident), comult >> (ident @ comult))]
    elif law == "unit":
        mult = _getattr_or_raise(alg, "mult")
        unit = getattr(alg, "unit", None)
        if unit is None:
            if isinstance(mult, FinFunction):
                return _searched_unit_check(alg)
            raise AlgebraError("algebra has no unit; cannot check the unit law")
        pairs = [((unit @ ident) >> mult, ident), ((ident @ unit) >> mult, ident)]
    elif law == "counit":
        comult = _getattr_or_raise(alg, "comult")
        counit = _getattr_or_raise(alg, "counit")
        pairs = [(comult >> (counit @ ident), ident), (comult >> (ident @ counit), ident)]
    elif law == "comm":
        mult = _getattr_or_raise(alg, "mult")
        pairs = [(sw >> mult, mult)]
    elif law == "cocomm":
        comult = _getattr_or_raise(alg, "comult")
        pairs = [(comult >> sw, comult)]
    elif law == "special":
        mult = _getattr_or_raise(alg, "mult")
        comult = _getattr_or_raise(alg, "comult")
        pairs = [(comult >> mult, ident)]
    elif law == "frobenius":
        mult = _getattr_or_raise(alg, "mult")
        comult = _getattr_or_raise(alg, "comult")
        middle = mult >> comult
        pairs = [((ident @ comult) >> (mult @ ident), middle),
                 ((comult @ ident) >> (ident @ mult), middle)]
    else:  # dagger_frobenius
        mult = _getattr_or_raise(alg, "mult")
        comult = _getattr_or_raise(alg, "comult")
        if not isinstance(mult, Morphism):
            raise AlgebraError("dagger laws need the linear backend")
        pairs = [(comult, mult.dagger())]
        unit = getattr(alg, "unit", None)
        counit = getattr(alg, "counit", None)
        if unit is not None and counit is not None:
            pairs.append((counit, unit.dagger()))
    result = compare_all(pairs, tol)
    return result.holds, result.residual


def _searched_unit_check(alg) -> tuple[bool, float]:
    # No stored unit: search the carrier, reporting the least total violation.
    elems = alg.carrier.elements()
    best = None
    for u in elems:
        bad = sum(1 for x in elems if alg.mult.table[u + x] != x)
        bad += sum(1 for x in elems if alg.mult.table[x + u] != x)
        best = bad if best is None else min(best, bad)
    if best is None:  # empty carrier: no unit can exist
        return False, 1.0
    return best == 0, float(best)


# -- stock algebras ------------------------------------------------------


def scfa_from_dimension(d: int) -> FrobeniusAlgebra:
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
    return FrobeniusAlgebra(
        carrier=t,
        mult=comult.dagger(),
        unit=counit.dagger(),
        comult=comult,
        counit=counit,
    )


def pair_of_pants(d: int) -> tuple[Magma, Comagma]:
    """Composition of d x d matrix units as a magma, and its scaled dagger.

    The carrier is ``[d, d]`` read as matrices; mult is "first then
    second" composition, its unit the Bell state.  The comagma is the
    dagger of mult scaled by 1/d and the counit the Bell effect scaled
    by 1/d: those scalars are forced by the GetGet and GetPut laws of
    the matrix update structure built on top of this algebra.
    """
    t = TensorType((d, d))
    one = TensorType((d,)).identity()
    mult = one @ cap(d) @ one  # |j,k,l,m> -> delta_{kl} |j,m>
    comult = (1.0 / d) * mult.dagger()
    magma = Magma(carrier=t, mult=mult, unit=cup(d))
    comagma = Comagma(carrier=t, comult=comult, counit=(1.0 / d) * cap(d))
    return magma, comagma


def pair_of_pants_frobenius(d: int) -> FrobeniusAlgebra:
    magma, comagma = pair_of_pants(d)
    return FrobeniusAlgebra(
        carrier=magma.carrier,
        mult=magma.mult,
        unit=magma.unit,
        comult=comagma.comult,
        counit=comagma.counit,
    )

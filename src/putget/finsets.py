"""Finite sets and total functions between their cartesian products.

The set backend mirrors the linear one: a :class:`SetType` is an ordered
list of finite-set factors, elements are flat tuples of labels (one per
factor), and the empty factor list is the singleton unit.  Products are
therefore associative on the nose, and checks are exhaustive and exact.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

__all__ = [
    "TableError",
    "FinSet",
    "SetType",
    "SET_UNIT",
    "FinFunction",
    "fun_compose",
    "fun_product",
    "fun_pair",
    "projection",
    "diagonal",
    "bang",
]


class TableError(ValueError):
    """A function table is not a well-typed total function."""


@dataclass(frozen=True)
class FinSet:
    """A finite set of distinct string labels, in a fixed order."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        if not all(isinstance(e, str) for e in elems):
            raise TableError(f"labels must be strings, got {elems!r}")
        if len(set(elems)) != len(elems):
            raise TableError(f"labels must be distinct, got {elems!r}")
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(self.elements) + "}"


@dataclass(frozen=True)
class SetType:
    """An ordered product of finite sets; elements are flat label tuples."""

    factors: tuple[FinSet, ...] = ()

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not all(isinstance(f, FinSet) for f in factors):
            raise TableError("factors must be FinSet instances")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def unit(cls) -> "SetType":
        return SET_UNIT

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= len(f)
        return n

    def elements(self) -> list[tuple[str, ...]]:
        return list(itertools.product(*(f.elements for f in self.factors)))

    def __matmul__(self, other: "SetType") -> "SetType":
        return SetType(self.factors + other.factors)

    def identity(self) -> "FinFunction":
        return FinFunction(self, self, {x: x for x in self.elements()})

    def swap(self, other: "SetType") -> "FinFunction":
        n = len(self.factors)
        dom = self @ other
        cod = other @ self
        table = {x: x[n:] + x[:n] for x in dom.elements()}
        return FinFunction(dom, cod, table)

    def __str__(self) -> str:
        return "I" if not self.factors else " x ".join(str(f) for f in self.factors)


SET_UNIT = SetType(())


def _as_type(t: FinSet | SetType) -> SetType:
    return SetType((t,)) if isinstance(t, FinSet) else t


@dataclass(frozen=True, eq=False)
class FinFunction:
    """A total function between product types, stored as an explicit table."""

    dom: SetType
    cod: SetType
    table: Mapping[tuple[str, ...], tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dom", _as_type(self.dom))
        object.__setattr__(self, "cod", _as_type(self.cod))
        table = {tuple(k): tuple(v) for k, v in dict(self.table).items()}
        dom_elems = self.dom.elements()
        if set(table) != set(dom_elems):
            missing = [x for x in dom_elems if x not in table][:3]
            extra = [x for x in table if x not in set(dom_elems)][:3]
            raise TableError(f"table is not total on {self.dom} (missing {missing}, extra {extra})")
        cod_elems = set(self.cod.elements())
        bad = [v for v in table.values() if v not in cod_elems]
        if bad:
            raise TableError(f"table values {bad[:3]} are not elements of {self.cod}")
        object.__setattr__(self, "table", table)

    @classmethod
    def from_callable(
        cls,
        dom: FinSet | SetType,
        cod: FinSet | SetType,
        fn: Callable[[tuple[str, ...]], tuple[str, ...]],
    ) -> "FinFunction":
        dom = _as_type(dom)
        return cls(dom, _as_type(cod), {x: tuple(fn(x)) for x in dom.elements()})

    def __call__(self, x: tuple[str, ...]) -> tuple[str, ...]:
        return self.table[tuple(x)]

    def __rshift__(self, other: "FinFunction") -> "FinFunction":
        return fun_compose(other, self)

    def __matmul__(self, other: "FinFunction") -> "FinFunction":
        return fun_product(self, other)

    def image(self) -> set[tuple[str, ...]]:
        return set(self.table.values())

    def distance(self, other: "FinFunction") -> float:
        """Number of inputs on which the two functions disagree."""
        if self.dom != other.dom or self.cod != other.cod:
            raise TableError(
                f"cannot compare {self.dom} -> {self.cod} with {other.dom} -> {other.cod}"
            )
        return float(sum(1 for x in self.table if self.table[x] != other.table[x]))

    def disagreements(self, other: "FinFunction") -> list[tuple[str, ...]]:
        if self.dom != other.dom or self.cod != other.cod:
            raise TableError("cannot compare functions with different boundaries")
        return [x for x in self.dom.elements() if self.table[x] != other.table[x]]

    def __str__(self) -> str:
        rows = [f"  {x} -> {self.table[x]}" for x in self.dom.elements()]
        return f"{self.dom} -> {self.cod}\n" + "\n".join(rows)

    def __repr__(self) -> str:
        return f"FinFunction({self.dom} -> {self.cod}, {len(self.table)} entries)"


def fun_compose(g: FinFunction, f: FinFunction) -> FinFunction:
    if f.cod != g.dom:
        raise TableError(f"cannot compose: codomain {f.cod} does not match domain {g.dom}")
    return FinFunction(f.dom, g.cod, {x: g.table[f.table[x]] for x in f.table})


def fun_product(f: FinFunction, g: FinFunction) -> FinFunction:
    """The cartesian product map ``f x g`` on concatenated factors."""
    dom = f.dom @ g.dom
    n = len(f.dom.factors)
    table = {x: f.table[x[:n]] + g.table[x[n:]] for x in dom.elements()}
    return FinFunction(dom, f.cod @ g.cod, table)


def fun_pair(f: FinFunction, g: FinFunction) -> FinFunction:
    """The pairing ``<f, g>`` of two functions with a common domain."""
    if f.dom != g.dom:
        raise TableError(f"pairing needs a common domain, got {f.dom} and {g.dom}")
    return FinFunction(f.dom, f.cod @ g.cod, {x: f.table[x] + g.table[x] for x in f.table})


def projection(t: FinSet | SetType, keep: int | Iterable[int]) -> FinFunction:
    """Project a product onto the factor positions in ``keep`` (0-based)."""
    t = _as_type(t)
    idxs = [keep] if isinstance(keep, int) else [int(i) for i in keep]
    for i in idxs:
        if i < 0 or i >= len(t.factors):
            raise TableError(f"no factor {i} in {t}")
    cod = SetType(tuple(t.factors[i] for i in idxs))
    return FinFunction(t, cod, {x: tuple(x[i] for i in idxs) for x in t.elements()})


def diagonal(v: FinSet | SetType) -> FinFunction:
    """The copy map ``v -> v x v``."""
    t = _as_type(v)
    return FinFunction(t, t @ t, {x: x + x for x in t.elements()})


def bang(t: FinSet | SetType) -> FinFunction:
    """The unique map to the singleton unit."""
    t = _as_type(t)
    return FinFunction(t, SET_UNIT, {x: () for x in t.elements()})

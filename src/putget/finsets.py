"""Finite sets and total functions between their cartesian products.

The set backend mirrors the linear one: a :class:`SetType` is an ordered
list of finite-set factors, elements are flat tuples of labels (one per
factor), and the empty factor list is the singleton unit.  Products are
therefore associative on the nose, and checks are exhaustive and exact.
A :class:`FinFunction` is a read-only ``np.intp`` array of codomain
positions over the row-major (Kronecker) order of its domain.  Labels
are checked once, by the constructor and ``from_callable``, and read
back by ``table``, calling, ``image``, ``disagreements`` and ``str``;
every other operation builds an in-range index in one array expression.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

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
    """A finite set of distinct string labels, in a fixed order.  A bare string is refused,
    not read as its letters: ``FinSet(("safe",))`` is one label."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.elements, str):
            raise TableError(f"labels must be a tuple of strings, got the string {self.elements!r}"
                             f"; pass a tuple of labels, such as ({self.elements!r},)")
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
        return math.prod(len(f) for f in self.factors)

    def elements(self) -> list[tuple[str, ...]]:
        return list(itertools.product(*(f.elements for f in self.factors)))

    def __matmul__(self, other: "SetType") -> "SetType":
        return SetType(self.factors + other.factors)

    def identity(self) -> "FinFunction":
        return projection(self, range(len(self.factors)))

    def swap(self, other: "SetType") -> "FinFunction":
        n = len(self.factors)
        return projection(self @ other, [*range(n, n + len(other.factors)), *range(n)])

    def __str__(self) -> str:
        return "I" if not self.factors else " x ".join(str(f) for f in self.factors)


SET_UNIT = SetType(())


def _as_type(t: FinSet | SetType) -> SetType:
    return SetType((t,)) if isinstance(t, FinSet) else t


@dataclass(frozen=True, eq=False, init=False)
class FinFunction:
    """A total function: ``index[i]`` is the codomain position of the i-th
    domain element.  ``FinFunction(dom, cod, table)`` checks a label table."""

    dom: SetType
    cod: SetType
    index: np.ndarray

    def __init__(self, dom: FinSet | SetType, cod: FinSet | SetType,
                 table: Mapping[tuple[str, ...], tuple[str, ...]]) -> None:
        dom, cod = _as_type(dom), _as_type(cod)
        table = {tuple(k): tuple(v) for k, v in dict(table).items()}
        dom_elems = dom.elements()
        if set(table) != set(dom_elems):
            missing = [x for x in dom_elems if x not in table][:3]
            extra = [x for x in table if x not in set(dom_elems)][:3]
            raise TableError(f"table is not total on {dom} (missing {missing}, extra {extra})")
        where = {y: i for i, y in enumerate(cod.elements())}
        bad = [v for v in table.values() if v not in where]
        if bad:
            raise TableError(f"table values {bad[:3]} are not elements of {cod}")
        _of(dom, cod, np.array([where[table[x]] for x in dom_elems], dtype=np.intp), self)

    @classmethod
    def from_callable(cls, dom: FinSet | SetType, cod: FinSet | SetType,
                      fn: Callable[[tuple[str, ...]], tuple[str, ...]]) -> "FinFunction":
        return cls(dom, cod, {x: fn(x) for x in _as_type(dom).elements()})

    @property
    def table(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        """The labels: domain element -> codomain element, as a fresh dict."""
        cod = self.cod.elements()
        return dict(zip(self.dom.elements(), (cod[i] for i in self.index.tolist())))

    def __call__(self, x: tuple[str, ...]) -> tuple[str, ...]:
        return self.table[tuple(x)]

    def __rshift__(self, other: "FinFunction") -> "FinFunction":
        return fun_compose(other, self)

    def __matmul__(self, other: "FinFunction") -> "FinFunction":
        return fun_product(self, other)

    def image(self) -> set[tuple[str, ...]]:
        cod = self.cod.elements()
        return {cod[i] for i in self.index.tolist()}

    def _differs(self, other: "FinFunction") -> np.ndarray:
        if self.dom != other.dom or self.cod != other.cod:
            raise TableError(
                f"cannot compare {self.dom} -> {self.cod} with {other.dom} -> {other.cod}")
        return self.index != other.index

    def distance(self, other: "FinFunction") -> float:
        """Number of inputs on which the two functions disagree."""
        return float(np.count_nonzero(self._differs(other)))

    def disagreements(self, other: "FinFunction") -> list[tuple[str, ...]]:
        dom = self.dom.elements()
        return [dom[i] for i in np.flatnonzero(self._differs(other)).tolist()]

    def __str__(self) -> str:
        rows = [f"  {x} -> {y}" for x, y in self.table.items()]
        return f"{self.dom} -> {self.cod}\n" + "\n".join(rows)

    def __repr__(self) -> str:
        return f"FinFunction({self.dom} -> {self.cod}, {len(self.index)} entries)"


def _of(dom: SetType, cod: SetType, index: np.ndarray, f: FinFunction | None = None) -> FinFunction:
    """The function with an in-range ``index`` (held in ``f`` if given), taken without a check."""
    f = object.__new__(FinFunction) if f is None else f
    index.setflags(write=False)
    for name, value in (("dom", dom), ("cod", cod), ("index", index)):
        object.__setattr__(f, name, value)
    return f


def fun_compose(g: FinFunction, f: FinFunction) -> FinFunction:
    if f.cod != g.dom:
        raise TableError(f"cannot compose: codomain {f.cod} does not match domain {g.dom}")
    return _of(f.dom, g.cod, g.index[f.index])


def fun_product(f: FinFunction, g: FinFunction) -> FinFunction:
    """The cartesian product map ``f x g`` on concatenated factors."""
    return _of(f.dom @ g.dom, f.cod @ g.cod, (f.index[:, None] * g.cod.size + g.index).ravel())


def fun_pair(f: FinFunction, g: FinFunction) -> FinFunction:
    """The pairing ``<f, g>`` of two functions with a common domain."""
    if f.dom != g.dom:
        raise TableError(f"pairing needs a common domain, got {f.dom} and {g.dom}")
    return _of(f.dom, f.cod @ g.cod, f.index * g.cod.size + g.index)


def projection(t: FinSet | SetType, keep: int | Iterable[int]) -> FinFunction:
    """Project a product onto the factor positions in ``keep`` (0-based), which
    may repeat or permute; an empty ``keep`` gives the map to the unit."""
    t = _as_type(t)
    idxs = [keep] if isinstance(keep, int) else [int(i) for i in keep]
    for i in idxs:
        if i < 0 or i >= len(t.factors):
            raise TableError(f"no factor {i} in {t}")
    # the index is linear in the coordinates: a step along factor i adds scale[i]
    sizes = [len(f) for f in t.factors]
    scale, step = [0] * len(sizes), 1
    for i in reversed(idxs):
        scale[i] += step
        step *= sizes[i]
    index = np.zeros(1, np.intp)
    for size, s in zip(sizes, scale):
        index = (index[:, None] + s * np.arange(size, dtype=np.intp)).ravel()
    return _of(t, SetType(tuple(t.factors[i] for i in idxs)), index)


def diagonal(v: FinSet | SetType) -> FinFunction:
    """The copy map ``v -> v x v``."""
    return projection(v, [*range(len(_as_type(v).factors))] * 2)


def bang(t: FinSet | SetType) -> FinFunction:
    """The unique map to the singleton unit."""
    return projection(t, ())

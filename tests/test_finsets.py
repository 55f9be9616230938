import random

import pytest
from hypothesis import given, settings, strategies as st

from putget.finsets import (
    SET_UNIT,
    FinFunction,
    FinSet,
    SetType,
    TableError,
    bang,
    diagonal,
    fun_pair,
    projection,
)

AB = FinSet(("a", "b"))
XYZ = FinSet(("x", "y", "z"))


def rand_fun(rng: random.Random, dom: SetType, cod: SetType) -> FinFunction:
    targets = cod.elements()
    return FinFunction(dom, cod, {x: rng.choice(targets) for x in dom.elements()})


def test_finset_rejects_duplicates_and_nonstrings():
    with pytest.raises(TableError):
        FinSet(("a", "a"))
    with pytest.raises(TableError):
        FinSet((1, 2))


def test_settype_elements_are_lexicographic():
    t = SetType((AB, XYZ))
    assert t.size == 6
    assert t.elements()[:3] == [("a", "x"), ("a", "y"), ("a", "z")]
    assert SET_UNIT.elements() == [()]
    assert SET_UNIT.size == 1


def test_table_must_be_total_and_well_typed():
    t = SetType((AB,))
    with pytest.raises(TableError):
        FinFunction(t, t, {("a",): ("a",)})  # missing ("b",)
    with pytest.raises(TableError):
        FinFunction(t, t, {("a",): ("a",), ("b",): ("q",)})  # bad value
    with pytest.raises(TableError):
        FinFunction(t, t, {("a",): ("a",), ("b",): ("b",), ("c",): ("a",)})  # extra key


def test_compose_product_and_pairing():
    t = SetType((AB,))
    swap_ab = FinFunction(t, t, {("a",): ("b",), ("b",): ("a",)})
    assert (swap_ab >> swap_ab).table == t.identity().table
    prod = swap_ab @ t.identity()
    assert prod.table[("a", "b")] == ("b", "b")
    paired = fun_pair(swap_ab, t.identity())
    assert paired.table[("a",)] == ("b", "a")


def test_projection_diagonal_bang():
    t = SetType((AB, XYZ))
    assert projection(t, 1).table[("a", "z")] == ("z",)
    assert projection(t, (1, 0)).table[("a", "z")] == ("z", "a")
    with pytest.raises(TableError):
        projection(t, 5)
    assert diagonal(AB).table[("a",)] == ("a", "a")
    assert bang(t).cod == SET_UNIT


def test_swap_roundtrip_is_identity():
    t, u = SetType((AB,)), SetType((XYZ,))
    there = t.swap(u)
    back = u.swap(t)
    assert (there >> back).table == (t @ u).identity().table
    assert there.table[("b", "x")] == ("x", "b")


def test_distance_counts_disagreements():
    t = SetType((XYZ,))
    f = FinFunction(t, t, {("x",): ("x",), ("y",): ("y",), ("z",): ("x",)})
    assert f.distance(t.identity()) == 1.0
    assert f.disagreements(t.identity()) == [("z",)]
    assert f.image() == {("x",), ("y",)}


def test_from_callable_and_call():
    f = FinFunction.from_callable(AB, XYZ, lambda v: ("x",) if v[0] == "a" else ("z",))
    assert f(("a",)) == ("x",)
    assert f(("b",)) == ("z",)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_product_is_associative_on_the_nose(seed):
    # Flat label tuples make (f @ g) @ h and f @ (g @ h) literally equal,
    # tables and boundaries both.
    rng = random.Random(seed)
    t, u, v = SetType((AB,)), SetType((XYZ,)), SetType((AB, AB))
    f = rand_fun(rng, t, u)
    g = rand_fun(rng, u, t)
    h = rand_fun(rng, v, u)
    left = (f @ g) @ h
    right = f @ (g @ h)
    assert left.dom == right.dom
    assert left.cod == right.cod
    assert left.table == right.table


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_interchange_law(seed):
    rng = random.Random(seed)
    t, u = SetType((AB,)), SetType((XYZ,))
    f1, f2 = rand_fun(rng, t, u), rand_fun(rng, u, t)
    g1, g2 = rand_fun(rng, u, t), rand_fun(rng, t, u)
    lhs = (f1 @ g1) >> (f2 @ g2)
    rhs = (f1 >> f2) @ (g1 >> g2)
    assert lhs.table == rhs.table

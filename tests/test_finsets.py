import dataclasses
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from putget.finsets import (
    SET_UNIT,
    FinFunction,
    FinSet,
    SetType,
    TableError,
    bang,
    diagonal,
    fun_compose,
    fun_pair,
    fun_product,
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


@pytest.mark.parametrize("labels", ["abc", "safe", ""])
def test_finset_refuses_a_bare_string_rather_than_split_it_into_letters(labels):
    with pytest.raises(TableError, match="tuple of labels"):
        FinSet(labels)
    assert FinSet((labels,)).elements == (labels,)


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


def test_a_function_cannot_be_changed_after_it_is_built():
    t = SetType((AB,))
    f = t.identity()
    f.table[("a",)] = ("b",)  # a fresh copy of the labels
    assert f.distance(t.identity()) == 0.0
    with pytest.raises(ValueError):
        f.index[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.index = t.identity().index
    assert f(("a",)) == ("a",)


EMPTY = SetType((FinSet(()),))


def test_structural_maps_on_empty_factors():
    t = EMPTY @ SetType((AB,))
    assert t.size == 0
    for f in (t.identity(), bang(t), t.swap(SetType((XYZ,))), diagonal(t), projection(t, (1, 0))):
        assert f.table == {} and f.index.shape == (0,)
    assert bang(EMPTY).cod == SET_UNIT
    assert t.swap(SetType((XYZ,))).cod == SetType((XYZ,)) @ t
    assert (projection(t, ()).dom, projection(t, ()).cod) == (bang(t).dom, bang(t).cod)
    assert projection(t, ()).distance(bang(t)) == 0.0
    # the unit is no empty set: it has one element, which the delete keeps
    assert bang(SET_UNIT).table == {(): ()}
    assert projection(SET_UNIT, ()).distance(SET_UNIT.identity()) == 0.0
    prod = EMPTY.identity() @ SetType((AB,)).identity()
    assert (prod.dom, prod.cod, prod.table) == (t, t, {})
    other = SetType((AB,)).identity() @ EMPTY.identity()
    assert (other.dom, other.table) == (SetType((AB,)) @ EMPTY, {})
    assert (bang(t) >> bang(SET_UNIT)).table == {}


# -- every operation against its definition on labels -------------------------


@st.composite
def set_types(draw) -> SetType:
    """Up to three factors of size 0-3; a factor of size 0 empties the type."""
    sizes = draw(st.lists(st.integers(0, 3), max_size=3))
    return SetType(tuple(FinSet(tuple(f"{'uvw'[k]}{i}" for i in range(n)))
                         for k, n in enumerate(sizes)))


@st.composite
def maps(draw, dom: SetType, cod: SetType) -> FinFunction:
    """A free label table dom -> cod; there is none from a nonempty set to an empty one."""
    inputs, images = dom.elements(), cod.elements()
    assume(images or not inputs)
    picks = [draw(st.sampled_from(images)) for _ in inputs]
    return FinFunction(dom, cod, dict(zip(inputs, picks)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_operation_matches_its_definition_on_labels(data):
    a, b, c = data.draw(set_types()), data.draw(set_types()), data.draw(set_types())
    f, other, g, h = (data.draw(maps(a, b)), data.draw(maps(a, b)),
                      data.draw(maps(b, c)), data.draw(maps(c, a)))
    ft, ot, gt, ht = f.table, other.table, g.table, h.table
    assert list(ft) == a.elements()

    def same(arrow, dom, cod, table):
        assert (arrow.dom, arrow.cod, arrow.table) == (dom, cod, table)

    same(fun_compose(g, f), a, c, {x: gt[ft[x]] for x in ft})
    same(f >> g, a, c, {x: gt[ft[x]] for x in ft})
    same(fun_product(f, h), a @ c, b @ a, {x + y: ft[x] + ht[y] for x in ft for y in ht})
    same(f @ g, a @ b, b @ c, {x + y: ft[x] + gt[y] for x in ft for y in gt})
    same(fun_pair(f, other), a, b @ b, {x: ft[x] + ot[x] for x in ft})
    n = len(a.factors)
    keep = data.draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
    same(projection(a, keep), a, SetType(tuple(a.factors[i] for i in keep)),
         {x: tuple(x[i] for i in keep) for x in ft})
    same(a.swap(b), a @ b, b @ a, {x: x[n:] + x[:n] for x in (a @ b).elements()})
    same(diagonal(a), a, a @ a, {x: x + x for x in ft})
    same(bang(a), a, SET_UNIT, {x: () for x in ft})
    same(a.identity(), a, a, {x: x for x in ft})
    assert f.distance(other) == sum(ft[x] != ot[x] for x in ft)
    assert f.disagreements(other) == [x for x in ft if ft[x] != ot[x]]
    assert f.image() == set(ft.values())
    assert all(f(x) == ft[x] for x in ft)

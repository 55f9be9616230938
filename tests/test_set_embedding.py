"""The set backend against its 0/1-matrix embedding on the linear backend.

A function between finite sets is the 0/1 matrix with one 1 in each
column, at the row of its image.  The row-major enumeration of a product
of sets is the Kronecker order of the matching tensor wires, so the
embedding commutes with composition and products, and a set structure
and its image must reach the same verdicts.  A law whose sides disagree
on k inputs has residual k on sets and Frobenius distance sqrt(2 k) on
matrices.  Faithful differs by design: on sets it is injectivity of the
curried put, on matrices its linear injectivity, which is stronger; its
set residual is checked against a count of distinct actions on labels.
Structures are drawn as free tables and as lens-shaped structures.
"""
import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from putget import structures
from putget.finsets import FinFunction, FinSet, SetType, bang, diagonal, projection
from putget.lenses import lens_to_update, random_lens
from putget.structures import (
    DERIVED_PROPS,
    UpdateStructure,
    applicable_laws,
    check_law,
    verify_derived,
)
from putget.tensors import Morphism, TensorType


def embed_type(t: SetType) -> TensorType:
    return TensorType(tuple(len(f) for f in t.factors))


def embed(f: FinFunction) -> Morphism:
    """The 0/1 matrix of ``f``: column x holds its 1 at row f(x), both in row-major order."""
    rows = {y: i for i, y in enumerate(f.cod.elements())}
    dom = f.dom.elements()
    arr = np.zeros((len(rows), len(dom)))
    arr[[rows[f(x)] for x in dom], np.arange(len(dom))] = 1.0
    return Morphism(embed_type(f.dom), embed_type(f.cod), arr)


def embed_structure(U: UpdateStructure) -> UpdateStructure:
    lift = lambda f: None if f is None else embed(f)
    return UpdateStructure(
        system=embed_type(U.system), prop=embed_type(U.prop),
        put=embed(U.put), get=embed(U.get), mult=embed(U.mult), comult=embed(U.comult),
        trivial_update=lift(U.trivial_update), trivial_outcome=lift(U.trivial_outcome),
    )


@st.composite
def set_structures(draw) -> UpdateStructure:
    """Free put, get, mult and comult tables on |S|, |p| <= 3, with an optional
    trivial update (any point of p) and trivial outcome (the discard)."""
    s = SetType((FinSet(tuple(f"s{i}" for i in range(draw(st.integers(1, 3))))),))
    p = SetType((FinSet(tuple(f"p{i}" for i in range(draw(st.integers(1, 3))))),))

    def table(dom: SetType, cod: SetType) -> FinFunction:
        images, inputs = cod.elements(), dom.elements()
        picks = draw(st.lists(st.sampled_from(images), min_size=len(inputs), max_size=len(inputs)))
        return FinFunction(dom, cod, dict(zip(inputs, picks)))

    unit = SetType.unit()
    return UpdateStructure(
        system=s, prop=p, put=table(s @ p, s), get=table(s, s @ p),
        mult=table(p @ p, p), comult=table(p, p @ p),
        trivial_update=table(unit, p) if draw(st.booleans()) else None,
        trivial_outcome=bang(p) if draw(st.booleans()) else None,
    )


def same_up_to_embedding(on_sets: float, on_matrices: float) -> bool:
    return math.isclose(on_matrices, math.sqrt(2 * on_sets), rel_tol=1e-12)


def distinct_actions(U: UpdateStructure) -> int:
    """How many maps S -> S the curried put gives, counted on labels."""
    put = U.put.table
    return len({tuple(put[s + v] for s in U.system.elements()) for v in U.prop.elements()})


def assert_verdicts_match_the_embedding(U: UpdateStructure) -> None:
    M = embed_structure(U)
    assert applicable_laws(M) == applicable_laws(U)
    for law in applicable_laws(U):
        mine, image = check_law(U, law), check_law(M, law)
        if law == "Faithful":
            assert mine.residual == U.prop.size - distinct_actions(U)
            assert mine.holds or not image.holds  # linear injectivity implies injectivity
            continue
        assert mine.holds == image.holds, law
        assert same_up_to_embedding(mine.residual, image.residual), law
    for prop in DERIVED_PROPS:
        if "Faithful" in structures._DERIVED[prop][0]:
            continue
        mine, image = verify_derived(U, prop), verify_derived(M, prop)
        assert (mine.status, mine.failed_premises) == (image.status, image.failed_premises), prop
        assert same_up_to_embedding(mine.residual, image.residual), prop


@given(set_structures())
@settings(max_examples=120, deadline=None)
def test_set_verdicts_match_their_01_matrix_embedding(U):
    assert_verdicts_match_the_embedding(U)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lens_verdicts_match_their_01_matrix_embedding(n_source, n_view, seed, discard):
    # lens-shaped: copy comagma, left-delete magma, get = <id, get_fn>
    source = FinSet(tuple(f"s{i}" for i in range(n_source)))
    view = FinSet(tuple(f"v{j}" for j in range(n_view)))
    U = lens_to_update(random_lens(source, view, random.Random(seed)))
    assert_verdicts_match_the_embedding(U if discard else U.with_components(trivial_outcome=None))


def test_faithful_on_sets_is_weaker_than_on_the_embedding():
    # id + swap = to_a + to_b as matrices, so the four actions span rank 3 only
    s, p = SetType((FinSet(("a", "b")),)), SetType((FinSet(("id", "swap", "to_a", "to_b")),))
    act = {"id": lambda x: x, "swap": lambda x: "b" if x == "a" else "a",
           "to_a": lambda x: "a", "to_b": lambda x: "b"}
    U = UpdateStructure(
        system=s, prop=p,
        put=FinFunction.from_callable(s @ p, s, lambda x: (act[x[1]](x[0]),)),
        get=FinFunction.from_callable(s, s @ p, lambda x: (x[0], "id")),
        mult=projection(p @ p, 1), comult=diagonal(p),
    )
    on_sets, on_matrices = check_law(U, "Faithful"), check_law(embed_structure(U), "Faithful")
    assert (on_sets.holds, on_sets.residual) == (True, 0.0)
    assert (on_matrices.holds, on_matrices.residual) == (False, 1.0)

"""The lazy Kronecker engine of the linear backend against a dense oracle.

``tensor`` keeps products as lists of blocks, ``swap`` is one
permutation block, a matrix with at most one nonzero per column is a
function block, and ``compose`` works on them wire by wire.  The oracle
here is plain NumPy on ``.array``s: ``np.kron`` for products and ``@``
for composites, with swaps built entry by entry in a double loop and
doubling taken as ``kron(f, conj(f))`` with interleaved wires.  ``norm``
and ``distance`` factor out the blocks two products share, and are
checked against ``np.linalg.norm`` of the dense matrices.
"""
import dataclasses
import itertools
import math
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from putget import structures, tensors
from putget.algebras import ALGEBRA_LAWS, check_algebra, pair_of_pants, scfa_from_dimension
from putget.cli import main
from putget.quantum import (
    cpm_double,
    double_type,
    pair_of_pants_update,
    pvs_from_projectors,
    quantum_db_causal,
    quantum_db_postselected,
    quantum_measurement,
)
from putget.registry import RunScope, names, run_example
from putget.structures import (
    DERIVED_PROPS,
    applicable_laws,
    check_law,
    check_laws,
    classify,
    verify_derived,
)
from putget.tensors import (
    DEFAULT_TOL,
    UNIT,
    Morphism,
    TensorType,
    basis_effect,
    cap,
    cup,
    scalar,
    swap,
)

AGREE = 1e-12


def permutation(a: int, b: int) -> np.ndarray:
    """The swap of spaces of dimensions a and b as a matrix: |i, j> goes to |j, i>."""
    m = np.zeros((a * b, a * b))
    for i in range(a):
        for j in range(b):
            m[j * a + i, i * b + j] = 1.0
    return m


def doubled(arr: np.ndarray, dom: TensorType, cod: TensorType) -> np.ndarray:
    """``kron(arr, conj(arr))`` with each conjugate wire moved next to its original."""
    n, m = len(cod.factors), len(dom.factors)
    t = np.kron(arr, arr.conj()).reshape(cod.factors * 2 + dom.factors * 2)
    axes = [k for i in range(n) for k in (i, n + i)] + [2 * n + k for i in range(m)
                                                        for k in (i, m + i)]
    return t.transpose(axes).reshape(cod.dim ** 2, dom.dim ** 2)


def random_matrix(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def function_matrix(draw, rng, rows: int, cols: int) -> np.ndarray:
    """A matrix with at most one nonzero entry in each column, with complex weights.

    Either no two columns share a row, when there are rows enough, or the
    rows are drawn freely and may repeat; some draws zero about a third of
    the columns.
    """
    if cols <= rows and draw(st.booleans()):
        hit = rng.permutation(rows)[:cols]
    else:
        hit = rng.integers(0, rows, cols)
    weights = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    if draw(st.booleans()):
        weights[rng.random(cols) < 1 / 3] = 0
    arr = np.zeros((rows, cols), dtype=np.complex128)
    arr[hit, np.arange(cols)] = weights
    return arr


def is_function(m: Morphism) -> bool:
    """Whether ``m`` is held as one function block."""
    return len(m._blocks) == 1 and m._blocks[0].weights is not None


def is_identity(m: Morphism) -> bool:
    return m._blocks is not None and all(b.is_identity for b in m._blocks)


def has_no_dense_block(m: Morphism) -> bool:
    """Whether ``m`` is held as blocks, none of them dense (``.array`` may have been read)."""
    return m._blocks is not None and all(b.array is None for b in m._blocks)


@st.composite
def types(draw, max_len: int = 2) -> TensorType:
    return TensorType(tuple(draw(st.lists(st.integers(1, 3), max_size=max_len))))


ALL_KINDS = ("identity", "dense", "swap", "function")
INDEX_KINDS = ("identity", "swap", "function")  # no dense block


@st.composite
def products(draw, wires: TensorType, side: str, rng, kinds=ALL_KINDS):
    """A lazy product whose ``side`` ("cod" or "dom") is ``wires``, with its dense oracle.

    ``wires`` is cut into consecutive groups.  Each group becomes, as
    ``kinds`` allow, an identity (one block per wire in the library), a
    swap of its first wires past the rest (either side may be empty, and
    the two may be equal), or a dense or function block to or from a
    random type; blocks with no wire on ``side`` (effects, states and
    scalars) are slipped in between groups.
    """
    items = []  # (morphism, oracle array)
    rest = list(wires.factors)
    while True:
        if draw(st.integers(0, 4)) == 4:  # not the shrink target, so loops end
            group = ()
        elif rest:
            group = tuple(rest[: draw(st.integers(1, min(4, len(rest))))])
        else:
            break
        rest = rest[len(group):]
        kind = draw(st.sampled_from([k for k in kinds if group or k in ("dense", "function")]))
        here, there = TensorType(group), draw(types())
        if kind == "identity":
            items.append((here.identity(), np.eye(here.dim)))
        elif kind == "swap":
            k = draw(st.integers(0, len(group)))
            a, b = (group[:k], group[k:]) if side == "dom" else (group[k:], group[:k])
            a, b = TensorType(a), TensorType(b)
            items.append((swap(a, b), permutation(a.dim, b.dim)))
        else:
            dom, cod = (there, here) if side == "cod" else (here, there)
            arr = (random_matrix(rng, cod.dim, dom.dim) if kind == "dense"
                   else function_matrix(draw, rng, cod.dim, dom.dim))
            items.append((Morphism(dom, cod, arr), arr))
    if not items:
        return UNIT.identity(), np.eye(1)
    return (reduce(lambda f, g: f @ g, (m for m, _ in items)),
            reduce(np.kron, (a for _, a in items), np.ones((1, 1))))


def dense(m: Morphism) -> Morphism:
    """The same map held as one dense matrix (the constructor would keep a
    matrix with one nonzero per column as a function block)."""
    return tensors._new(m.dom, m.cod, [tensors._Block(m.dom.factors, m.cod.factors, m.array)])


def assert_close(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= 1e-10 * max(
        1.0, np.max(np.abs(expected), initial=0.0))


@given(st.data(), types(max_len=4), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_composites_of_lazy_products_match_the_dense_oracle(data, middle, seed):
    rng = np.random.default_rng(seed)
    f, f_arr = data.draw(products(middle, "cod", rng))
    g, g_arr = data.draw(products(middle, "dom", rng))
    assert (f.cod, g.dom) == (middle, middle)
    assert_close(f.array, f_arr)
    assert_close(g.array, g_arr)
    want = g_arr @ f_arr
    for lhs, rhs in ((f, g), (dense(f), g), (f, dense(g)), (dense(f), dense(g))):
        got = lhs >> rhs
        assert (got.dom, got.cod) == (f.dom, g.cod)
        assert_close(got.array, want)


@given(st.data(), types(max_len=4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dagger_conj_and_scaling_act_block_by_block(data, middle, seed):
    rng = np.random.default_rng(seed)
    f, f_arr = data.draw(products(middle, "cod", rng))
    assert_close(f.dagger().array, f_arr.conj().T)
    assert_close(f.conj().array, f_arr.conj())
    assert_close(((0.5 - 2j) * f).array, (0.5 - 2j) * f_arr)
    assert (f.dagger().dom, f.dagger().cod) == (f.cod, f.dom)
    g = f.dagger()  # f.cod -> f.dom, so f ; f^dagger is defined on lazy products
    assert_close((f >> g).array, f_arr.conj().T @ f_arr)


def assert_norms(m: Morphism, arr: np.ndarray) -> None:
    want = np.linalg.norm(arr)
    assert abs(m.norm() - want) <= 1e-12 * want + 1e-300


LIMIT = 2 ** 14  # entries of the largest oracle matrix the tests below build


@given(st.data(), types(max_len=3), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_operations_on_products_with_crossings_match_the_dense_oracle(data, middle, seed):
    rng = np.random.default_rng(seed)
    f, f_arr = data.draw(products(middle, "cod", rng))
    g, g_arr = data.draw(products(middle, "dom", rng))
    h, h_arr = f >> g, g_arr @ f_arr
    a = data.draw(types())
    b = a if data.draw(st.booleans()) else data.draw(types())
    s, s_arr = swap(a, b), permutation(a.dim, b.dim)
    assert (s.dom, s.cod) == (a @ b, b @ a)
    results = [(s, s_arr), (h, h_arr), (s.dagger(), s_arr.T), (h.dagger(), h_arr.conj().T),
               (h.conj(), h_arr.conj()), ((0.5 - 2j) * h, (0.5 - 2j) * h_arr)]
    if f_arr.size * g_arr.size <= LIMIT:
        results.append((f @ g, np.kron(f_arr, g_arr)))
    distances = []
    if max(h_arr.shape) ** 2 * s_arr.size <= LIMIT:
        hs, sh = np.kron(h_arr, s_arr), np.kron(s_arr, h_arr)
        results += [(h @ s, hs), (s @ h, sh), ((h @ s) >> (h @ s).dagger(), hs.conj().T @ hs)]
        # products that share the crossing, or hold one side densely
        distances = [(h @ s, dense(h) @ s, hs, hs), (h @ s, h @ dense(s), hs, hs),
                     (s @ h, s @ (2.0 * h), sh, np.kron(s_arr, 2.0 * h_arr)),
                     (h @ s, h.conj() @ s.conj(), hs, hs.conj())]
    for m, arr in results:
        assert_close(m.array, arr)
        assert_norms(m, arr)
    for x, y, x_arr, y_arr in distances:
        want = np.linalg.norm(x_arr - y_arr)
        scale = max(np.linalg.norm(x_arr), np.linalg.norm(y_arr))
        assert abs(x.distance(y) - want) <= 1e-12 * scale + 1e-300


@given(st.data(), types(max_len=3), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_doubling_lazy_products_matches_the_dense_oracle(data, middle, seed):
    rng = np.random.default_rng(seed)
    f, f_arr = data.draw(products(middle, "cod", rng))
    g, g_arr = data.draw(products(middle, "dom", rng))
    small = [(m, arr) for m, arr in ((f, f_arr), (g, g_arr), (f >> g, g_arr @ f_arr))
             if arr.size ** 2 <= LIMIT]
    for m, arr in small:
        d = cpm_double(m)
        assert (d.dom, d.cod) == (double_type(m.dom), double_type(m.cod))
        assert_close(d.array, doubled(arr, m.dom, m.cod))
        assert_close(cpm_double(dense(m)).array, d.array)
    if len(small) == 3:
        both = cpm_double(f) >> cpm_double(g)
        assert_close(both.array, doubled(g_arr @ f_arr, f.dom, g.cod))


# -- function blocks ---------------------------------------------------------


def injective(m: Morphism) -> bool:
    """Whether no two nonzero columns of a function block of ``m`` share a row."""
    return all(np.unique(b.rows[b.weights != 0]).size == np.count_nonzero(b.weights)
               for b in m._blocks if b.weights is not None)


@given(st.data(), types(max_len=4), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_function_blocks_stay_index_arrays_and_match_the_dense_oracle(data, middle, seed):
    # function, permutation, identity and wire-less scalar blocks only
    rng = np.random.default_rng(seed)
    f, f_arr = data.draw(products(middle, "cod", rng, INDEX_KINDS))
    g, g_arr = data.draw(products(middle, "dom", rng, INDEX_KINDS))
    h, h_arr = f >> g, g_arr @ f_arr
    z = data.draw(st.sampled_from([2.0, -0.5j, 3 - 4j]))
    kept = [(h, h_arr), (h.conj(), h_arr.conj()), (z * h, z * h_arr)]
    if f_arr.size * g_arr.size <= LIMIT:
        kept.append((f @ g, np.kron(f_arr, g_arr)))
    if h_arr.size ** 2 <= LIMIT:
        kept.append((cpm_double(h), doubled(h_arr, h.dom, h.cod)))
    for m, arr in kept:
        assert has_no_dense_block(m)
        assert_close(m.array, arr)
        assert_norms(m, arr)
    back = h.dagger()  # a function block that sends two nonzero columns to one row is densified
    assert has_no_dense_block(back) == injective(h)
    assert_close(back.array, h_arr.conj().T)
    # compared in index form: columns moved to other rows, rescaled, or conjugated
    pairs = [(h, z * h, h_arr, z * h_arr), (h, h.conj(), h_arr, h_arr.conj())]
    if h.cod.dim ** 2 <= LIMIT:  # the oracle of the move is a cod x cod matrix
        p_arr = function_matrix(data.draw, rng, h.cod.dim, h.cod.dim)
        moved = h >> Morphism(h.cod, h.cod, p_arr)
        s = swap(TensorType((2,)), TensorType((3,)))
        pairs += [(moved, h, p_arr @ h_arr, h_arr), (moved @ s, h @ s, None, None)]
    for x, y, x_arr, y_arr in pairs:
        assert has_no_dense_block(x) and has_no_dense_block(y)
        if x_arr is None:
            x_arr, y_arr = x.array, y.array
        want = np.linalg.norm(x_arr - y_arr)
        scale = max(np.linalg.norm(x_arr), np.linalg.norm(y_arr))
        assert abs(x.distance(y) - want) <= 1e-12 * scale + 1e-300


def test_the_constructor_keeps_a_matrix_with_one_nonzero_per_column_as_indices():
    t = TensorType((2, 3))
    arr = np.zeros((6, 6), dtype=np.complex128)
    arr[[4, 4, 0], [0, 2, 5]] = [1.0, -2.0j, 0.5]  # two columns on row 4; columns 1, 3, 4 zero
    m = Morphism(t, t, arr)
    assert is_function(m) and m._array is None
    (block,) = m._blocks
    assert block.rows.dtype == np.intp
    assert block.rows.tolist() == [4, 0, 4, 0, 0, 0]  # a zero column points at row 0
    assert (block.weights * 2.0**block.exp).tolist() == [1.0, 0.0, -2.0j, 0.0, 0.0, 0.5]
    assert 1.0 <= np.abs(block.weights).max() < 2.0  # the weights are held as mantissas
    assert_close(m.array, arr)
    arr[1, 0] = 1.0  # a second nonzero in column 0
    assert [b.array is not None for b in Morphism(t, t, arr)._blocks] == [True]  # one dense block


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_and_basis_effects_are_the_function_blocks_the_constructor_makes(d):
    # each is a dagger: cap(d) of the dense Bell state, basis_effect(d, i) of a function block
    effects = [(cap(d), np.eye(d).reshape(1, d * d))]
    effects += [(basis_effect(d, i), np.eye(d)[i:i + 1]) for i in range(d)]
    for m, arr in effects:
        built = Morphism(m.dom, m.cod, arr)
        assert is_function(m) and is_function(built)
        assert tensors._same_block(m._blocks[0], built._blocks[0])


@given(st.data(), types(max_len=3), types(max_len=3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_dagger_is_exact_and_kept_by_the_constructors_rule(data, dom, cod, collide, seed):
    # the matrix has a function pattern; with ``collide`` two nonzero columns share a row, so
    # its dagger has two nonzeros in one column and comes out dense
    rng = np.random.default_rng(seed)
    arr = function_matrix(data.draw, rng, cod.dim, dom.dim)
    if collide and dom.dim > 1:
        arr[:, :2] = 0
        arr[rng.integers(cod.dim), :2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    function_pattern_back = np.count_nonzero(arr, axis=1).max() <= 1
    built_back = Morphism(cod, dom, arr.conj().T)
    for m in (dense(Morphism(dom, cod, arr)), Morphism(dom, cod, arr)):  # a dense, a function block
        back = m.dagger()
        assert np.array_equal(back.array, m.array.conj().T)
        assert is_function(back) == function_pattern_back
        assert tensors._same_block(back._blocks[0], built_back._blocks[0])


def dyadic_function(rng, rows: int, cols: int, distinct: bool) -> np.ndarray:
    """A matrix with at most one nonzero entry in each column, each a small dyadic complex
    number, so that any product of two is exact; about a third of the columns are zero.
    With ``distinct``, no two nonzero entries share a row."""
    arr = np.zeros((rows, cols), dtype=np.complex128)
    live = np.flatnonzero(rng.random(cols) >= 1 / 3)
    if distinct:
        live = live[:rows]
    hit = rng.permutation(rows)[:live.size] if distinct else rng.integers(0, rows, live.size)
    parts = np.array([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0])
    weights = rng.choice(parts, live.size) + 1j * rng.choice(parts, live.size)
    weights[weights == 0] = 1.0
    arr[hit, live] = weights
    return arr


def wire_pair(draw) -> tuple[TensorType, TensorType]:
    return TensorType((draw(st.integers(1, 3)),)), TensorType((draw(st.integers(1, 3)),))


@given(st.data(), st.sampled_from(("functions", "crossing first", "crossing second")),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_one_block_gather_is_the_block_kept_from_the_dense_composite(data, sides, seed):
    rng = np.random.default_rng(seed)
    a, b = wire_pair(data.draw)
    dom, cod = data.draw(types()), data.draw(types())
    if sides == "crossing first":  # a crossing, then a function block on its codomain
        f = swap(a, b)
        g = Morphism(f.cod, cod, dyadic_function(rng, cod.dim, f.cod.dim, False))
    elif sides == "crossing second":
        g = swap(a, b)
        f = Morphism(dom, g.dom, dyadic_function(rng, g.dom.dim, dom.dim, False))
    else:
        f = Morphism(dom, a @ b, dyadic_function(rng, (a @ b).dim, dom.dim, False))
        g = Morphism(a @ b, cod, dyadic_function(rng, cod.dim, (a @ b).dim, False))
    (block,) = (f >> g)._blocks
    want = tensors._kept(f.dom.factors, g.cod.factors, g.array @ f.array)
    # a zero column made by a gather keeps the row it reached, and an all-zero block the
    # exponents of its factors; the kept block has row 0 and exponent 0 there
    zero = block.weights == 0
    exp = 0 if zero.all() else block.exp
    assert tensors._same_block(block._replace(rows=np.where(zero, 0, block.rows), exp=exp), want)


@given(st.data(), types(max_len=3), types(max_len=3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_function_block_with_distinct_rows_transposes_into_the_block_kept_from_its_matrix(
        data, dom, cod, collide, seed):
    # with ``collide`` two nonzero entries share a row, so the transpose is a dense block
    rng = np.random.default_rng(seed)
    arr = dyadic_function(rng, cod.dim, dom.dim, True)
    collide = collide and dom.dim > 1
    if collide:
        arr[:, :2] = 0
        arr[rng.integers(cod.dim), :2] = [1.0, -0.5j]
    (block,) = Morphism(dom, cod, arr)._blocks
    (transposed,) = tensors._transpose([block])
    assert (transposed.array is not None) == collide
    assert tensors._same_block(transposed, tensors._kept(cod.factors, dom.factors, arr.T))


def test_every_registry_block_is_a_function_block_exactly_when_it_has_one_nonzero_per_column():
    scope, seen = RunScope(DEFAULT_TOL), 0
    for name in names():
        U = scope.build(name)
        for field in dataclasses.fields(U):
            m = getattr(U, field.name)
            if not isinstance(m, Morphism):
                continue
            for b in m._blocks:
                if not b.is_wiring:
                    seen += 1
                    one_per_column = np.count_nonzero(tensors._matrix(b), axis=0).max() <= 1
                    assert (b.weights is not None) == one_per_column, (name, field.name)
    assert seen > 50  # the linear entries have blocks of their own


def test_doubled_crossings_and_identities_stay_lazy():
    a, b = TensorType((2, 1)), TensorType((3,))
    d = cpm_double(swap(a, b) @ b.identity())
    assert d._array is None
    assert_close(d.array, doubled(np.kron(permutation(2, 3), np.eye(3)), a @ b @ b, b @ a @ b))
    assert cpm_double(swap(a, b)).distance(swap(double_type(a), double_type(b))) == 0.0


def kind(b: tensors._Block) -> str:
    return ("dense" if b.array is not None else "function" if b.weights is not None
            else "permutation" if b.perm is not None else "identity")


def test_doubling_keeps_each_block_kind_in_order(monkeypatch):
    rng = np.random.default_rng(17)
    one, two = TensorType((1,)), TensorType((2,))
    function = np.zeros((2, 1), dtype=np.complex128)
    function[1, 0] = 2 - 1j
    parts = [
        Morphism(two @ one @ two, two, random_matrix(rng, 2, 4)),  # three wires in
        Morphism(one, one @ two, function),
        swap(one, two),
        one.identity(),
        Morphism(UNIT, two, random_matrix(rng, 2, 1)),  # a state on one wire
        Morphism(one @ two, UNIT, random_matrix(rng, 1, 2)),  # an effect, a function block
        scalar(0.5 + 2j),
    ]
    m = reduce(lambda f, g: f @ g, parts)
    assert [kind(b) for b in m._blocks] == [
        "dense", "function", "permutation", "identity", "dense", "function", "function"]
    with monkeypatch.context() as patch:
        patch.setattr(tensors, "_kron", lambda blocks: pytest.fail("doubling built a matrix"))
        d = cpm_double(m)
    assert d._array is None and m._array is None
    # a block with at most one wire on each side comes out as the pair b, conj(b)
    assert [kind(b) for b in d._blocks] == [
        "dense", "function", "permutation", "identity", "identity", "dense", "dense",
        "function", "function", "function"]
    assert (d.dom, d.cod) == (double_type(m.dom), double_type(m.cod))
    assert_close(d.array, doubled(m.array, m.dom, m.cod))


def test_identities_on_several_wires_compose_across_any_cut():
    rng = np.random.default_rng(3)
    a, b, c = TensorType((2,)), TensorType((3,)), TensorType((2,))
    x = Morphism(c, c, random_matrix(rng, 2, 2))
    y = Morphism(a @ b, a @ b, random_matrix(rng, 6, 6))
    f = (a @ b).identity() @ x  # the identity on [2, 3], one block per wire
    g = y @ c.identity()  # cuts the middle [2, 3, 2] after its second wire
    w = Morphism(a, a, random_matrix(rng, 2, 2))
    h = w @ (b @ c).identity()  # cuts the middle after its first wire
    want_f = np.kron(np.eye(6), x.array)
    assert_close((f >> g).array, np.kron(y.array, np.eye(2)) @ want_f)
    assert_close((f >> h).array, np.kron(w.array, np.eye(6)) @ want_f)
    assert_close((g >> f).array, want_f @ np.kron(y.array, np.eye(2)))


BOUNDARY_CASES = [("f", "first"), ("f", "cut"), ("f", "inside"), ("f", "last"),
                  ("g", "first"), ("g", "cut"), ("g", "inside"), ("g", "last"),
                  ("both", "first"), ("both", "cut"), ("both", "last")]


@pytest.mark.parametrize("side, where", BOUNDARY_CASES)
def test_blocks_without_middle_wires_keep_their_place(side, where):
    # the middle wires are [2, 3]; an effect of f or a state of g has none of
    # them.  On a cut (where both sides have a block boundary, the first and
    # the last wire included) it is a piece of its own, f's before g's, placed
    # before the piece that starts there; inside a piece it is part of it
    rng = np.random.default_rng(13)
    two, three, four = TensorType((2,)), TensorType((3,)), TensorType((4,))

    def arrow(dom, cod):
        arr = random_matrix(rng, cod.dim, dom.dim)
        return Morphism(dom, cod, arr), arr

    position = {"first": 0, "cut": 1, "inside": 1, "last": 2}[where]
    sides = {"f": [arrow(two, two), arrow(three, three)],
             "g": [arrow(two, two), arrow(three, three)]}
    if where == "inside":  # the other side has no boundary between the middle wires
        other = "g" if side == "f" else "f"
        sides[other] = [arrow(two @ three, two @ three)]
    extras = []
    if side in ("f", "both"):
        extras.append(("f", arrow(four, UNIT)))
    if side in ("g", "both"):
        extras.append(("g", arrow(UNIT, four)))
    for name, extra in extras:
        sides[name].insert(position, extra)
    (f, f_arr), (g, g_arr) = product(sides["f"]), product(sides["g"])
    h = f >> g
    assert_close(h.array, g_arr @ f_arr)
    layout = [(b.dom, b.cod) for b in h._blocks]
    if where == "inside":
        assert len(layout) == 1
    else:
        want = [((2,), (2,)), ((3,), (3,))]
        want[position:position] = [(m.dom.factors, m.cod.factors) for _, (m, _) in extras]
        assert layout == want


def test_two_multi_block_products_are_contracted_without_being_built(monkeypatch):
    rng = np.random.default_rng(5)
    # middle [4, 4, 4, 4]: f's blocks end after wire 1, g's after wire 2, so
    # the only common cuts are the ends and both sides keep several blocks
    four = TensorType((4,))
    x = Morphism(four, four, random_matrix(rng, 4, 4))
    y = Morphism(four @ four @ four, four @ four @ four, random_matrix(rng, 64, 64))
    z = Morphism(four @ four, four @ four, random_matrix(rng, 16, 16))
    f = x @ y
    g = z @ (four @ four).identity()
    f_arr = np.kron(x.array, y.array)
    g_arr = np.kron(z.array, np.eye(16))
    calls = []
    einsum = tensors._einsum
    monkeypatch.setattr(tensors, "_einsum", lambda g, f: calls.append(1) or einsum(g, f))
    # reading ``.array`` goes through _einsum too, so the calls are counted before it
    h = f >> g
    assert calls == [1]
    assert_close(h.array, g_arr @ f_arr)
    calls.clear()
    h = g.dagger() >> f.dagger()
    assert calls == [1]
    assert_close(h.array, f_arr.conj().T @ g_arr.conj().T)


def wire_permutation(dom: tuple, perm: tuple) -> np.ndarray:
    """The matrix taking |i_0 .. i_n-1> on ``dom`` to |i_perm[0] .. i_perm[n-1]>, by entries."""
    cod = tuple(dom[p] for p in perm)
    m = np.zeros((math.prod(cod), math.prod(dom)))
    for index in itertools.product(*map(range, dom)):
        m[np.ravel_multi_index(tuple(index[p] for p in perm), cod),
          np.ravel_multi_index(index, dom)] = 1.0
    return m


@st.composite
def contraction_side(draw, middle: tuple, side: str, carried: set, rng):
    """Blocks of one side of a contraction over the ``middle`` wires, with their oracle.

    The side is drawn in one of three forms.  A "whole" side is one dense
    or function block on all of ``middle`` (never drawn when a wire is
    ``carried``).  Otherwise ``middle`` is cut into groups at drawn places,
    and each group becomes an identity or a permutation, or, on a "cut"
    side, also a dense or function block to or from a drawn type, unless
    it holds a wire of ``carried``.  Past the middle wires of a cut side
    sit dense or function blocks with none of them (``side`` is "cod" for
    f, whose codomain is the middle, and "dom" for g).  Function blocks
    may have zero columns.
    """

    def entries(wires, other_max):
        other = tuple(draw(st.lists(st.integers(1, 3), max_size=other_max)))
        dom, cod = (other, wires) if side == "cod" else (wires, other)
        if draw(st.booleans()):
            arr = random_matrix(rng, math.prod(cod), math.prod(dom))
            return tensors._Block(dom, cod, arr), arr
        arr = function_matrix(draw, rng, math.prod(cod), math.prod(dom))
        return tensors._as_function(dom, cod, arr), arr

    form = draw(st.sampled_from(["cut", "wiring"] + ([] if carried else ["whole"])))
    if form == "whole":
        block, arr = entries(middle, 2)
        return [block], arr
    cuts = sorted(draw(st.sets(st.integers(1, len(middle) - 1), max_size=len(middle) - 1)))
    blocks, oracle = [], []
    for start, end in zip([0] + cuts, cuts + [len(middle)]):
        group = middle[start:end]
        kinds = ["identity", "permutation"]
        if form == "cut" and not carried & set(range(start, end)):
            kinds.append("entries")
        kind = draw(st.sampled_from(kinds))
        if kind == "entries":
            block, arr = entries(group, 2)
            blocks.append(block)
            oracle.append(arr)
        elif kind == "identity":
            blocks.append(tensors._Block(group, group, None))
            oracle.append(np.eye(math.prod(group)))
        else:  # output wire k is input wire perm[k]
            perm = tuple(draw(st.permutations(range(len(group)))))
            if side == "cod":  # the group is the output: find the input it comes from
                dom = tuple(group[perm.index(j)] for j in range(len(group)))
            else:
                dom = group
            blocks.append(tensors._Block(dom, tuple(dom[p] for p in perm), None, perm))
            oracle.append(wire_permutation(dom, perm))
        if form == "cut" and draw(st.booleans()):  # a state of f or an effect of g
            block, arr = entries((), 1)
            blocks.append(block)
            oracle.append(arr)
    return blocks, reduce(np.kron, oracle, np.ones((1, 1)))


@given(st.data(), st.lists(st.integers(1, 3), min_size=3, max_size=6), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_pairwise_contraction_matches_the_dense_oracle(data, wires, carry, seed):
    rng = np.random.default_rng(seed)
    middle = tuple(wires)
    # a carried wire is an identity or a permutation on both sides, so it
    # passes straight through the contraction on no dense block
    carried = {data.draw(st.integers(0, len(middle) - 1))} if carry else set()
    f, f_arr = data.draw(contraction_side(middle, "cod", carried, rng))
    g, g_arr = data.draw(contraction_side(middle, "dom", carried, rng))
    # what _compose_blocks guarantees of every piece it contracts: a dense
    # block on either side, which may be that side's only block
    assume(any(b.array is not None for b in f + g))
    assert_close(tensors._einsum(g, f), g_arr @ f_arr)


def test_pairwise_contraction_with_misaligned_cuts_crossings_and_carried_wires():
    rng = np.random.default_rng(11)
    a, b, c, d = (random_matrix(rng, *shape) for shape in ((4, 2), (3, 2), (3, 2), (2, 6)))
    identity = tensors._Block((2,), (2,), None)
    crossing = tensors._Block((2, 3), (3, 2), None, (1, 0))
    # the middle [2, 2, 3, 2, 3, 2]: f cuts it after wires 2, 4 and 5, g after 1, 3 and 5;
    # wire 4 is carried by the crossings of both sides, wire 6 by both identities
    f = [tensors._Block((2,), (2, 2), a), crossing, tensors._Block((2,), (3,), b), identity]
    g = [tensors._Block((2,), (3,), c), tensors._Block((2, 3), (2,), d), crossing, identity]
    swap_arr = wire_permutation((2, 3), (1, 0))
    f_arr = reduce(np.kron, [a, swap_arr, b, np.eye(2)])
    g_arr = reduce(np.kron, [c, d, swap_arr, np.eye(2)])
    assert_close(tensors._einsum(g, f), g_arr @ f_arr)


def test_composites_with_an_identity_side_stay_lazy():
    rng = np.random.default_rng(9)
    t = TensorType((3,))
    x = Morphism(t, t, random_matrix(rng, 3, 3))
    f = x @ t.identity()
    g = t.identity() @ x
    both = f >> g  # x on each wire: nothing to contract
    assert both._array is None
    assert_close(both.array, np.kron(x.array, x.array))


# -- norms and distances of lazy products -----------------------------------


@st.composite
def pieces(draw, rng, max_wires: int = 4):
    """Morphisms to tensor together, each with its dense oracle array.

    A piece is an identity, a scaled identity, a dense or function block,
    a state, an effect or a scalar on wires of dimension 1 to 3, with at
    most ``max_wires`` wires on either side of the product.  The
    constructor keeps effects and scalars as function blocks.
    """
    out, n_dom, n_cod = [], 0, 0
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("identity", "scaled", "dense", "function", "state",
                                     "effect", "scalar")))
        dom = UNIT if kind in ("state", "scalar") else draw(types())
        cod = {"identity": dom, "scaled": dom, "effect": UNIT, "scalar": UNIT}.get(kind)
        cod = cod or draw(types())
        if n_dom + len(dom.factors) > max_wires or n_cod + len(cod.factors) > max_wires:
            continue
        n_dom, n_cod = n_dom + len(dom.factors), n_cod + len(cod.factors)
        if kind == "identity":
            out.append((dom.identity(), np.eye(dom.dim)))
        elif kind == "scaled":  # an identity with a wire-less scalar block
            z = complex(*rng.standard_normal(2))
            out.append((z * dom.identity(), z * np.eye(dom.dim)))
        elif kind == "function":
            arr = function_matrix(draw, rng, cod.dim, dom.dim)
            out.append((Morphism(dom, cod, arr), arr))
        else:
            arr = random_matrix(rng, cod.dim, dom.dim)
            out.append((Morphism(dom, cod, arr), arr))
    return out


def vary(draw, rng, items):
    """A second list of pieces on the same wires, and whether it has the same blocks.

    Each piece is kept (the same object), copied (an equal array), redrawn
    as another block of its kind (function or dense), or, on pieces from a
    type to itself, replaced by the identity.  Adjacent states and effects
    may trade places, which keeps the product's value and types, and
    adjacent pieces may be fused into one block, so that the two
    sides split their wires apart at different places.
    """
    out, same = [], True
    for m, arr in items:
        how = draw(st.sampled_from(("keep", "copy", "redraw", "identity")))
        if how == "identity" and m.dom == m.cod:
            out.append((m.dom.identity(), np.eye(m.dom.dim)))
            same = same and is_identity(m)  # an identity stays the same block
        elif how == "copy":
            out.append((Morphism(m.dom, m.cod, arr), arr))
            same = same and not is_identity(m)  # a copied identity is a function block
        elif how == "redraw":
            new = (function_matrix(draw, rng, m.cod.dim, m.dom.dim) if is_function(m)
                   else random_matrix(rng, m.cod.dim, m.dom.dim))
            out.append((Morphism(m.dom, m.cod, new), new))
            same = False
        else:
            out.append((m, arr))
    for i in range(len(out) - 1):
        kinds = {(not x.dom.factors, not x.cod.factors) for x, _ in out[i:i + 2]}
        if kinds == {(True, False), (False, True)} and draw(st.booleans()):
            out[i], out[i + 1] = out[i + 1], out[i]
    for i in reversed(range(len(out) - 1)):
        if draw(st.booleans()):
            (x, a), (y, b) = out[i:i + 2]
            fused = np.kron(a, b)
            out[i:i + 2] = [(Morphism(x.dom @ y.dom, x.cod @ y.cod, fused), fused)]
            same = False
    return out, same


def product(items):
    return (reduce(lambda f, g: f @ g, (m for m, _ in items)),
            reduce(np.kron, (a for _, a in items), np.ones((1, 1))))


@given(st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_norm_and_distance_of_lazy_products_match_the_dense_oracle(data, seed):
    rng = np.random.default_rng(seed)
    first = data.draw(pieces(rng))
    second, same = vary(data.draw, rng, first)
    f, f_arr = product(first)
    g, g_arr = product(second)
    assert (f.dom, f.cod) == (g.dom, g.cod)
    scale = max(np.linalg.norm(f_arr), np.linalg.norm(g_arr))
    got = f.distance(g)
    assert abs(got - np.linalg.norm(f_arr - g_arr)) <= 1e-12 * scale + 1e-300
    if same:
        assert got == 0.0
    for m, arr in ((f, f_arr), (g, g_arr)):
        want = np.linalg.norm(arr)
        assert abs(m.norm() - want) <= 1e-12 * want + 1e-300


@pytest.fixture
def distance_builds(monkeypatch):
    """Sizes of what comparisons build: the entries of each dense matrix, and
    the columns of each pair of functions compared in index form."""
    sizes, inside = [], []
    kron, distance = tensors._kron, tensors._distance_and_norms
    function_distance = tensors._function_distance

    def recording_kron(blocks):
        out = kron(blocks)
        if inside:
            sizes.append(out.size)
        return out

    def recording_function_distance(x_rows, *rest):
        sizes.append(x_rows.size)
        return function_distance(x_rows, *rest)

    def tracked_distance(x, y):
        inside.append(x)
        try:
            return distance(x, y)
        finally:
            inside.pop()

    monkeypatch.setattr(tensors, "_kron", recording_kron)
    monkeypatch.setattr(tensors, "_distance_and_norms", tracked_distance)
    monkeypatch.setattr(tensors, "_function_distance", recording_function_distance)
    return sizes


def test_states_and_effects_in_either_order_are_equal_without_being_built(distance_builds):
    d = 3
    wire = TensorType((d, d)).identity()
    lhs = cap(d) @ cap(d) @ cup(d) @ wire  # the shape of pair_of_pants law sides
    rhs = cap(d) @ cup(d) @ cap(d) @ wire
    assert lhs.distance(rhs) == 0.0
    assert distance_builds == []  # every block is common to both sides
    scaled = cap(d) @ cup(d) @ (2.0 * cap(d)) @ wire
    assert lhs.distance(scaled) == pytest.approx(np.linalg.norm(lhs.array - scaled.array), 1e-12)
    assert max(distance_builds) == d ** 2  # only the scaled effect is built


def test_comparisons_on_pair_of_pants_5_build_only_where_the_sides_differ(distance_builds):
    U = pair_of_pants_update(5)
    check_laws(U)
    for prop in DERIVED_PROPS:
        verify_derived(U, prop)
    assert distance_builds
    assert max(distance_builds) <= 5 ** 6  # the size of put; both sides built: 5 ** 8


@st.composite
def lined_up(draw, rng):
    """Two lazy products whose blocks line up, position by position, as lists of pieces.

    Each piece is an identity on one wire, a swap of two wires, or a dense
    block, a function block, a state or an effect on drawn wires.  The
    second list keeps it (the same block), copies it (an equal block, and a
    function block for an identity or a swap), redraws its entries, or
    trades it for a block of another kind on the same wires: a function
    block for a dense one, and a dense block for any other.
    """
    def entries(kind, dom, cod):
        if kind == "dense":
            return random_matrix(rng, cod.dim, dom.dim)
        return function_matrix(draw, rng, cod.dim, dom.dim)

    def wires():
        return TensorType(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))))

    first, second = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("identity", "swap", "dense", "function", "state", "effect")))
        if kind == "identity":
            m = TensorType((draw(st.integers(1, 3)),)).identity()
        elif kind == "swap":
            m = swap(*(TensorType((draw(st.integers(1, 3)),)) for _ in range(2)))
        else:
            dom = UNIT if kind == "state" else wires()
            cod = UNIT if kind == "effect" else wires()
            m = Morphism(dom, cod, entries(kind, dom, cod))
        how = draw(st.sampled_from(("keep", "copy", "redraw", "trade")))
        if how == "keep":
            n = m
        elif how == "copy":
            n = Morphism(m.dom, m.cod, m.array)
        else:
            was_dense = m._blocks[0].array is not None
            n = Morphism(m.dom, m.cod, entries(
                "dense" if was_dense == (how == "redraw") else "function", m.dom, m.cod))
        first.append(m)
        second.append(n)
    return first, second


def tensor_all(pieces):
    return reduce(lambda f, g: f @ g, pieces)


def assert_compare_matches_the_dense_oracle(x: Morphism, y: Morphism) -> None:
    """``distance``, both norms and ``compare``'s verdict against ``np.linalg.norm`` of the
    ``.array``s: each value within 1e-12 of its own size, the verdict away from the threshold."""
    norms = [np.linalg.norm(x.array), np.linalg.norm(y.array)]
    want = [np.linalg.norm(x.array - y.array), *norms]
    got = tensors._distance_and_norms(x, y)
    for g, w in zip(got, want):
        assert abs(g - w) <= AGREE * w + 1e-300, (got, want)
    assert x.distance(y) == got[0]
    threshold = DEFAULT_TOL.threshold(max(norms))
    if abs(want[0] - threshold) > 1e-6 * threshold:
        assert tensors.compare(x, y).holds == (want[0] <= threshold)


@given(st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_lined_up_products_compare_by_position_as_the_dense_oracle(data, seed):
    rng = np.random.default_rng(seed)
    first, second = data.draw(lined_up(rng))
    x, y = tensor_all(first), tensor_all(second)
    assert tensors._lined_up(x._blocks, y._blocks)
    assert_compare_matches_the_dense_oracle(x, y)
    if all(m is n for m, n in zip(first, second)):
        assert x.distance(y) == 0.0


@given(st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_scalars_and_reordered_states_and_effects_keep_the_part_split(data, seed):
    # a wire-less scalar, or a state and an effect in either order, breaks the line-up
    rng = np.random.default_rng(seed)
    first, second = data.draw(lined_up(rng))
    z = complex(*rng.standard_normal(2))
    if data.draw(st.booleans()):
        first, second = first + [scalar(z)], second + [scalar(data.draw(st.sampled_from(
            [z, 2 * z, -z])))]
    else:
        state, effect = (Morphism(*sides, random_matrix(rng, sides[1].dim, sides[0].dim))
                         for sides in ((UNIT, TensorType((2,))), (TensorType((3,)), UNIT)))
        first, second = first + [state, effect], second + [effect, state]
    x, y = tensor_all(first), tensor_all(second)
    assert_compare_matches_the_dense_oracle(x, y)
    assert not tensors._lined_up(x._blocks, y._blocks)


def test_sides_that_differ_by_one_ulp_of_a_scalar_are_compared_as_the_oracle():
    # the scalars of each side are one part, as in the dense product: 3 * (1 + 2**-52) rounds
    # up to 3 + 2**-50, so the oracle reads 2**-50 * sqrt(2); factoring the common 3 out of
    # the scalar pair by position would read 3 * 2**-52 * sqrt(2)
    wire = TensorType((2,)).identity()
    x = scalar(3.0) @ wire @ scalar(1.0)
    y = scalar(3.0) @ wire @ scalar(1.0 + 2.0**-52)
    assert_compare_matches_the_dense_oracle(x, y)
    assert x.distance(y) == 2.0**-50 * math.sqrt(2)
    assert not tensors._lined_up(x._blocks, y._blocks)


def test_overflowing_products_still_raise():
    t = TensorType((2,))
    big = Morphism(t, t, np.full((2, 2), 1e103))
    near = Morphism(t, t, np.full((2, 2), 1e103 * (1 - 1e-3)))
    f = big @ big @ big  # finite blocks, but every dense entry is 1e309
    with pytest.raises(ValueError, match="finite"):
        f.norm()
    with pytest.raises(ValueError, match="finite"):
        f.distance(f)
    # the factored distance, 4e206 * 2e100, is finite: only the sides overflow
    with pytest.raises(ValueError, match="finite"):
        f.distance(big @ big @ near)


@pytest.mark.parametrize("order", ["aab", "aba"])
def test_products_with_an_entry_in_range_do_not_overflow_on_the_way(order):
    a = Morphism(UNIT, UNIT, [[1e200]])
    b = Morphism(UNIT, UNIT, [[1e-200]])
    f = reduce(lambda x, y: x @ y, (a if c == "a" else b for c in order))
    assert f.norm() == pytest.approx(1e200, rel=1e-15)
    assert f.array[0, 0] == pytest.approx(1e200, rel=1e-15)
    assert f.distance(a) <= 1e-15 * 1e200
    wire = TensorType((2,)).identity()
    g = reduce(lambda x, y: x @ y, (wire @ a if c == "a" else b @ wire for c in order))
    assert g.norm() == pytest.approx(np.sqrt(8) * 1e200, rel=1e-15)  # three wires
    assert np.allclose(g.array / 1e200, np.eye(8), rtol=1e-15, atol=0)


# -- laws and derived residuals against the dense oracle --------------------


class DenseWire(TensorType):
    """An oracle wire: its identity and crossing are oracle arrows."""

    def __matmul__(self, other: "DenseWire") -> "DenseWire":
        return DenseWire(self.factors + other.factors)

    def identity(self) -> "DenseArrow":
        return DenseArrow(self, self, np.eye(self.dim))

    def swap(self, other: "DenseWire") -> "DenseArrow":
        return DenseArrow(self @ other, other @ self, permutation(self.dim, other.dim))


class DenseArrow:
    """The oracle arrow: composed with ``@`` and tensored with ``np.kron``."""

    def __init__(self, dom: DenseWire, cod: DenseWire, array: np.ndarray):
        self.dom, self.cod, self.array = dom, cod, array

    def __rshift__(self, other: "DenseArrow") -> "DenseArrow":
        assert self.cod == other.dom
        return DenseArrow(self.dom, other.cod, other.array @ self.array)

    def __matmul__(self, other: "DenseArrow") -> "DenseArrow":
        return DenseArrow(self.dom @ other.dom, self.cod @ other.cod,
                          np.kron(self.array, other.array))

    def distance(self, other: "DenseArrow") -> float:
        return float(np.linalg.norm(self.array - other.array))


class DenseStructure(SimpleNamespace):
    """Oracle arrows on oracle wires, shaped for the law recipes; they build
    its terms and the sides of its algebra laws from these."""

    term = structures.UpdateStructure.term
    memo = structures.UpdateStructure.memo


def dense_structure(U) -> DenseStructure:
    """U's components as oracle arrows, with an empty memo."""
    def lift(m):
        if m is None:
            return None
        return DenseArrow(DenseWire(m.dom.factors), DenseWire(m.cod.factors), np.array(m.array))

    system, prop = DenseWire(U.system.factors), DenseWire(U.prop.factors)
    return DenseStructure(
        system=system, prop=prop,
        put=lift(U.put), get=lift(U.get), mult=lift(U.mult), comult=lift(U.comult),
        trivial_update=lift(U.trivial_update), trivial_outcome=lift(U.trivial_outcome),
        id_system=system.identity, id_prop=prop.identity,
        _memo={},
    )


@pytest.mark.parametrize("U", [
    pytest.param(pair_of_pants_update(d), id=f"pair_of_pants_{d}") for d in (2, 3, 4, 5)
] + [
    pytest.param(quantum_db_postselected(2, 2), id="quantum_db_postselected_2_2"),
    pytest.param(quantum_db_causal(2, 2), id="quantum_db_causal_2_2"),
])
def test_law_and_derived_residuals_match_the_dense_oracle(U):
    oracle = dense_structure(U)
    for law in applicable_laws(U):
        if law == "Faithful":
            continue
        alias = structures._LAWS[law]
        lhs, rhs = structures._law_sides(oracle, alias if isinstance(alias, str) else law)
        assert abs(check_law(U, law).residual - lhs.distance(rhs)) <= AGREE, law
    for prop in DERIVED_PROPS:
        result = verify_derived(U, prop)
        if result.status == "vacuous":
            continue
        pairs = []
        for part in structures._DERIVED[prop][1]:  # a builder, or a law read from the memo
            if part in ALGEBRA_LAWS:
                pairs += oracle.term(part)
            elif isinstance(part, str):
                pairs.append(structures._law_sides(oracle, part))
            else:
                pairs += part(oracle)
        want = max(lhs.distance(rhs) for lhs, rhs in pairs)
        assert abs(result.residual - want) <= AGREE, prop


@given(st.sampled_from([(3,), (2, 2)]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_the_three_wire_sides_act_as_the_plain_composites(prop, seed):
    # coassoc through put and assoc through get act part by part; plainly, each side
    # x of the law acts as (1 x x) ; (put x 1_p x 1_p), or (get x 1_p x 1_p) ; (1 x x)
    rng = np.random.default_rng(seed)
    s, p = TensorType((2,)), TensorType(prop)

    def arrow(dom, cod):
        shape = (cod.dim, dom.dim)
        return Morphism(dom, cod, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    U = structures.UpdateStructure(s, p, arrow(s @ p, s), arrow(s, s @ p), arrow(p @ p, p),
                                   arrow(p, p @ p))
    oracle = dense_structure(U)
    ids, idp = oracle.term("ids"), oracle.term("idp")
    put, get = oracle.put @ idp @ idp, oracle.get @ idp @ idp
    plain = [((ids @ lhs) >> put, (ids @ rhs) >> put) for lhs, rhs in oracle.term("coassoc")]
    plain += [(get >> (ids @ lhs), get >> (ids @ rhs)) for lhs, rhs in oracle.term("assoc")]
    sides = structures._coassoc_through_put(U) + structures._assoc_through_get(U)
    assert len(sides) == len(plain) == 2
    for mine, want in zip(sides, plain):
        assert want[0].distance(want[1]) > 1e-6  # random arrows: the two sides differ
        for m, w in zip(mine, want):
            assert_close(m.array, w.array)


@pytest.fixture
def largest_build(monkeypatch):
    """The size of the largest array that the linear engine builds or checks: a dense
    matrix, or the weights of a function block (one per column)."""
    sizes = [0]

    def recording(fn):
        def run(arg):
            out = fn(arg)
            sizes[0] = max(sizes[0], out.size)
            return out
        return run

    for name in ("_kron", "_finite"):
        monkeypatch.setattr(tensors, name, recording(getattr(tensors, name)))
    return sizes


@pytest.mark.parametrize("build, args, bound", [
    (pair_of_pants_update, (5,), 5 ** 6),  # dense swaps: 5 ** 8
    (pair_of_pants_update, (7,), 7 ** 6),  # dense swaps: 7 ** 8
    (quantum_db_causal, (3, 3), 3 ** 10),  # dense doubling: 3 ** 12
])
def test_the_suite_builds_no_crossing_or_doubled_identity(largest_build, build, args, bound):
    U = build(*args)
    check_laws(U)
    classify(U)
    for prop in DERIVED_PROPS:
        verify_derived(U, prop)
    assert 0 < largest_build[0] <= bound


def z_measurement(d: int):
    """The doubled measurement structure of the computational basis of dimension d."""
    wire = TensorType((d,))
    return quantum_measurement(
        pvs_from_projectors([Morphism(wire, wire, np.diag(e)) for e in np.eye(d)]))


def test_the_lazy_engine_checks_structures_past_the_registry_sizes():
    # crossings (pair of pants), doubling (the causal database, the 8-outcome
    # measurement), function blocks and algebra laws, each far past a dense build
    for U, verdict in ((pair_of_pants_update(7), "strong"),
                       (quantum_db_causal(4, 4), "weak_only"), (z_measurement(8), "weak_only")):
        check_laws(U)
        assert classify(U).kind == verdict
        assert all(verify_derived(U, prop).status != "fails" for prop in DERIVED_PROPS)
    for alg, holding in ((pair_of_pants(7), {"assoc", "coassoc", "unit", "special", "frobenius"}),
                         (scfa_from_dimension(16), set(ALGEBRA_LAWS))):
        assert {law for law in ALGEBRA_LAWS if check_algebra(alg, law).holds} == holding


def test_the_derived_suite_makes_no_arrow_wider_than_a_law_side(monkeypatch):
    # the benchmark tracer and the dense oracle build every composite densely;
    # acting part by part keeps put x 1_p x 1_p (S x p^3 -> S x p^2) out
    widest = [0]
    for name in ("compose", "tensor"):
        def recording(*args, original=getattr(tensors, name)):
            out = original(*args)
            widest[0] = max(widest[0], out.dom.dim * out.cod.dim)
            return out
        monkeypatch.setattr(tensors, name, recording)
    U = pair_of_pants_update(5)
    for prop in DERIVED_PROPS:
        verify_derived(U, prop)
    assert widest[0] == 25 ** 5  # mult x 1_p, p^3 -> p^2: 25 times less than the padded put


def test_a_crossing_is_built_only_when_read(largest_build):
    t = TensorType((5, 5))
    s = swap(t, t)
    for m in (s, s.dagger(), s.conj(), s @ s, cpm_double(s)):
        assert m._array is None
        m.norm()
    assert s.distance(swap(t, t)) == 0.0
    assert largest_build[0] <= 1
    assert s.array.shape == (625, 625)
    assert largest_build[0] == 625 ** 2


@pytest.mark.parametrize("build, args", [(pair_of_pants_update, (3,)), (quantum_db_causal, (2, 2)),
                                         (z_measurement, (3,))])
def test_every_identity_block_covers_one_wire(monkeypatch, build, args):
    built = []  # every morphism the engine makes, components and terms alike

    def recording(*parts, original=tensors._new):
        built.append(original(*parts))
        return built[-1]

    monkeypatch.setattr(tensors, "_new", recording)
    U = build(*args)
    check_laws(U)
    classify(U)
    for prop in DERIVED_PROPS:
        verify_derived(U, prop)
    identities = [b for m in built if m._blocks is not None for b in m._blocks if b.is_identity]
    assert identities and all(len(b.dom) == 1 for b in identities)


def assert_wires_agree(m: Morphism) -> None:
    """The blocks of a lazy product cover its domain and codomain, wire by wire."""
    assert tuple(d for b in m._blocks for d in b.dom) == m.dom.factors
    assert tuple(d for b in m._blocks for d in b.cod) == m.cod.factors


def test_crossings_compose_without_being_built(largest_build):
    t, u = TensorType((5, 5)), TensorType((2, 3))
    twice = swap(t, t) >> swap(t, t)
    assert twice._array is None
    assert is_identity(twice)  # one identity block per wire
    assert twice.distance((t @ t).identity()) == 0.0
    five = TensorType((5,))
    moved = swap(t, u) >> (u.identity() @ swap(five, five))
    assert moved._array is None and moved._blocks[0].perm is not None
    assert_wires_agree(moved)
    assert largest_build[0] <= 1
    want = np.kron(np.eye(6), permutation(5, 5)) @ permutation(25, 6)
    assert_close(moved.array, want)
    assert_close(moved.dagger().array, want.T)


@st.composite
def crossings(draw, wires: TensorType) -> Morphism:
    """A product of identities and swaps on ``wires``: each group of consecutive
    wires is left alone or has its first wires swapped past the rest."""
    parts, rest = [], list(wires.factors)
    while rest:
        group = rest[: draw(st.integers(1, len(rest)))]
        rest = rest[len(group):]
        k = draw(st.integers(0, len(group)))
        a, b = TensorType(tuple(group[:k])), TensorType(tuple(group[k:]))
        parts.append(swap(a, b) if draw(st.booleans()) else (a @ b).identity())
    return reduce(lambda f, g: f @ g, parts, UNIT.identity())


@given(st.data(), types(max_len=4), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_composites_of_crossings_are_permutations_matching_the_dense_oracle(data, wires, steps):
    h = data.draw(crossings(wires))
    h_arr = h.array
    for _ in range(steps):
        step = data.draw(crossings(h.cod))
        h, h_arr = h >> step, step.array @ h_arr
        assert h._array is None and all(b.array is None for b in h._blocks)
        assert_wires_agree(h)
    assert_close(h.array, h_arr)
    assert_close(h.dagger().array, h_arr.T)


@pytest.mark.parametrize("z", [2.0, 3.0, -0.5j])
def test_scaling_a_product_without_a_dense_block_stays_lazy(largest_build, z):
    t = TensorType((5, 5))
    pairs = [(m, z * m) for m in (swap(t, t), t.identity())]
    for m, scaled in pairs:
        assert scaled._array is None
        want = abs(z) * np.sqrt(m.dom.dim)
        assert abs(scaled.norm() - want) <= 1e-15 * want
    assert largest_build[0] <= 1
    for m, scaled in pairs:
        assert_close(scaled.array, z * m.array)


def test_the_measurement_family_builds_nothing_wider_than_put(largest_build):
    # the doubled measurement with a decohered outcome is made of function blocks,
    # so the largest arrays are put (9 x 81), which Faithful reads densely, and the
    # index arrays of S x p x p; an 81 x 729 composite held densely has 59 049 entries
    assert run_example("qutrit_measurement").matched
    assert 0 < largest_build[0] <= 729


def test_check_all_builds_no_matrix_over_4096_entries(largest_build, capsys):
    assert main(["check", "--all"]) == 0
    assert 0 < largest_build[0] <= 4096  # qutrit_measurement's composites held densely: 59 049


def test_check_all_builds_its_largest_matrix_at_the_contraction_and_checks_it(monkeypatch, capsys):
    # every registry entry: the largest dense matrix (4 096 entries) is made by _kron and passes
    # _finite, the one check every block and matrix passes; a path that skips _finite, or
    # builds more, moves one of the two readings
    sizes = dict.fromkeys(("_kron", "_finite"), 0)

    def recording(name, fn):
        def run(arg):
            out = fn(arg)
            sizes[name] = max(sizes[name], out.size)
            return out
        return run

    for name in sizes:
        monkeypatch.setattr(tensors, name, recording(name, getattr(tensors, name)))
    assert main(["check", "--all"]) == 0
    assert sizes == {"_kron": 4096, "_finite": 4096}


def test_pair_of_pants_6_runs_under_the_default_caps():
    U6, U5 = pair_of_pants_update(6), pair_of_pants_update(5)
    assert classify(U6).kind == "strong"
    assert {r.law for r in check_laws(U6) if not r.holds} == {
        "CommutativeGet", "CommutativePut", "PutGetA"}
    derived = {p: verify_derived(U6, p).status for p in DERIVED_PROPS}
    assert derived == {p: verify_derived(U5, p).status for p in DERIVED_PROPS}

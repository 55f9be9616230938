"""The lazy Kronecker engine of the linear backend against a dense oracle.

``tensor`` keeps products as lists of blocks and ``compose`` works on
them wire by wire.  The oracle here is plain NumPy on ``.array``s:
``np.kron`` for products and ``@`` for composites, with permutation
matrices for swaps built by index arithmetic.  ``norm`` and ``distance``
factor out the blocks two products share, and are checked against
``np.linalg.norm`` of the dense matrices.
"""
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putget import structures, tensors
from putget.quantum import pair_of_pants_update, quantum_db_causal, quantum_db_postselected
from putget.structures import (
    DERIVED_PROPS,
    applicable_laws,
    check_law,
    check_laws,
    classify,
    verify_derived,
)
from putget.tensors import UNIT, Morphism, TensorType, cap, cup, swap

AGREE = 1e-12


def permutation(a: int, b: int) -> np.ndarray:
    """The swap ``[a, b] -> [b, a]`` as a matrix: |i, j> goes to |j, i>."""
    i, j = np.divmod(np.arange(a * b), b)
    m = np.zeros((a * b, a * b))
    m[j * a + i, i * b + j] = 1.0
    return m


def random_matrix(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@st.composite
def types(draw, max_len: int = 2) -> TensorType:
    return TensorType(tuple(draw(st.lists(st.integers(1, 3), max_size=max_len))))


@st.composite
def products(draw, wires: TensorType, side: str, rng):
    """A lazy product whose ``side`` ("cod" or "dom") is ``wires``, with its dense oracle.

    ``wires`` is cut into consecutive groups.  Each group becomes an
    identity (adjacent ones are merged by the library), a swap of two
    wires, or a dense block to or from a random type; blocks with no
    wire on ``side`` (effects or states) are slipped in between groups.
    """
    items = []  # (morphism, oracle array)
    rest = list(wires.factors)
    while True:
        if draw(st.integers(0, 4)) == 4:  # not the shrink target, so loops end
            group = ()
        elif rest:
            group = tuple(rest[: draw(st.integers(1, min(3, len(rest))))])
        else:
            break
        rest = rest[len(group):]
        kinds = ("dense",) if not group else ("identity", "dense", "swap")[: 2 + (len(group) == 2)]
        kind = draw(st.sampled_from(kinds))
        here, there = TensorType(group), draw(types())
        if kind == "identity":
            items.append((here.identity(), np.eye(here.dim)))
        elif kind == "swap":
            a, b = group if side == "dom" else group[::-1]
            items.append((swap(TensorType((a,)), TensorType((b,))), permutation(a, b)))
        else:
            dom, cod = (there, here) if side == "cod" else (here, there)
            arr = random_matrix(rng, cod.dim, dom.dim)
            items.append((Morphism(dom, cod, arr), arr))
    if not items:
        return UNIT.identity(), np.eye(1)
    return (reduce(lambda f, g: f @ g, (m for m, _ in items)),
            reduce(np.kron, (a for _, a in items), np.ones((1, 1))))


def dense(m: Morphism) -> Morphism:
    """The same map held as one dense matrix."""
    return Morphism(m.dom, m.cod, m.array)


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


def test_merged_identities_are_split_back_into_wires():
    rng = np.random.default_rng(3)
    a, b, c = TensorType((2,)), TensorType((3,)), TensorType((2,))
    x = Morphism(c, c, random_matrix(rng, 2, 2))
    y = Morphism(a @ b, a @ b, random_matrix(rng, 6, 6))
    f = (a.identity() @ b.identity()) @ x  # identities on [2, 3] merged into one block
    g = y @ c.identity()  # cuts the middle [2, 3, 2] after its second wire
    w = Morphism(a, a, random_matrix(rng, 2, 2))
    h = w @ (b @ c).identity()  # cuts the middle after its first wire
    want_f = np.kron(np.eye(6), x.array)
    assert_close((f >> g).array, np.kron(y.array, np.eye(2)) @ want_f)
    assert_close((f >> h).array, np.kron(w.array, np.eye(6)) @ want_f)
    assert_close((g >> f).array, want_f @ np.kron(y.array, np.eye(2)))


def test_two_multi_block_products_are_contracted_without_being_built(monkeypatch):
    rng = np.random.default_rng(5)
    calls = []
    einsum = tensors._einsum
    monkeypatch.setattr(tensors, "_einsum", lambda g, f: calls.append(1) or einsum(g, f))
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
    assert_close((f >> g).array, g_arr @ f_arr)
    assert calls == [1]
    assert_close((g.dagger() >> f.dagger()).array, f_arr.conj().T @ g_arr.conj().T)
    assert calls == [1, 1]


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

    A piece is an identity, a dense block, a state, an effect or a scalar
    on wires of dimension 1 to 3, with at most ``max_wires`` wires on
    either side of the product.
    """
    out, n_dom, n_cod = [], 0, 0
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("identity", "dense", "state", "effect", "scalar")))
        dom = UNIT if kind in ("state", "scalar") else draw(types())
        cod = {"identity": dom, "effect": UNIT, "scalar": UNIT}.get(kind) or draw(types())
        if n_dom + len(dom.factors) > max_wires or n_cod + len(cod.factors) > max_wires:
            continue
        n_dom, n_cod = n_dom + len(dom.factors), n_cod + len(cod.factors)
        if kind == "identity":
            out.append((dom.identity(), np.eye(dom.dim)))
        else:
            arr = random_matrix(rng, cod.dim, dom.dim)
            out.append((Morphism(dom, cod, arr), arr))
    return out


def vary(draw, rng, items):
    """A second list of pieces on the same wires, and whether it has the same blocks.

    Each piece is kept (the same object), copied (an equal array), redrawn
    as another dense block, or, on pieces from a type to itself, replaced
    by the identity.  Adjacent states and effects may trade places, which
    keeps the product's value and types, and adjacent pieces may be fused
    into one dense block, so that the two sides split their wires apart
    at different places.
    """
    out, same = [], True
    for m, arr in items:
        how = draw(st.sampled_from(("keep", "copy", "redraw", "identity")))
        if how == "identity" and m.dom == m.cod:
            out.append((m.dom.identity(), np.eye(m.dom.dim)))
            same = same and m._blocks is not None  # an identity stays the same block
        elif how == "copy":
            out.append((Morphism(m.dom, m.cod, arr), arr))
            same = same and m._blocks is None  # a dense identity is not the same block
        elif how == "redraw":
            new = random_matrix(rng, m.cod.dim, m.dom.dim)
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
    """Sizes of the dense matrices that comparisons build."""
    sizes, inside = [], []
    kron, distance = tensors._kron, tensors._distance_and_norms

    def recording_kron(blocks):
        out = kron(blocks)
        if inside:
            sizes.append(out.size)
        return out

    def tracked_distance(x, y):
        inside.append(x)
        try:
            return distance(x, y)
        finally:
            inside.pop()

    monkeypatch.setattr(tensors, "_kron", recording_kron)
    monkeypatch.setattr(tensors, "_distance_and_norms", tracked_distance)
    return sizes


def test_states_and_effects_in_either_order_are_equal_without_being_built(distance_builds):
    d = 3
    wire = TensorType((d, d)).identity()
    lhs = cap(d) @ cap(d) @ cup(d) @ wire  # the shape of pair_of_pants law sides
    rhs = cap(d) @ cup(d) @ cap(d) @ wire
    assert lhs.distance(rhs) == 0.0
    assert max(distance_builds) == 1
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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


class DenseArrow:
    """The oracle arrow: composed with ``@`` and tensored with ``np.kron``."""

    def __init__(self, dom: TensorType, cod: TensorType, array: np.ndarray):
        self.dom, self.cod, self.array = dom, cod, array

    def __rshift__(self, other: "DenseArrow") -> "DenseArrow":
        assert self.cod == other.dom
        return DenseArrow(self.dom, other.cod, other.array @ self.array)

    def __matmul__(self, other: "DenseArrow") -> "DenseArrow":
        return DenseArrow(self.dom @ other.dom, self.cod @ other.cod,
                          np.kron(self.array, other.array))

    def distance(self, other: "DenseArrow") -> float:
        return float(np.linalg.norm(self.array - other.array))


def dense_structure(U) -> SimpleNamespace:
    """U's components as oracle arrows, shaped for the law recipes."""
    def lift(m):
        return None if m is None else DenseArrow(m.dom, m.cod, np.array(m.array))

    p = U.prop
    crossing = DenseArrow(p @ p, p @ p, permutation(p.dim, p.dim))
    return SimpleNamespace(
        put=lift(U.put), get=lift(U.get), mult=lift(U.mult), comult=lift(U.comult),
        trivial_update=lift(U.trivial_update), trivial_outcome=lift(U.trivial_outcome),
        id_system=lambda: DenseArrow(U.system, U.system, np.eye(U.system.dim)),
        id_prop=lambda: DenseArrow(p, p, np.eye(p.dim)),
        prop=SimpleNamespace(swap=lambda other: crossing),
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
        lhs, rhs = structures._law_sides(oracle, structures._ALIASES.get(law, law))
        assert abs(check_law(U, law).residual - lhs.distance(rhs)) <= AGREE, law
    for prop in DERIVED_PROPS:
        result = verify_derived(U, prop)
        if result.status == "vacuous":
            continue
        conclusion = structures._DERIVED[prop][1]
        pairs = ([structures._law_sides(oracle, conclusion)] if isinstance(conclusion, str)
                 else conclusion(oracle))
        want = max(lhs.distance(rhs) for lhs, rhs in pairs)
        assert abs(result.residual - want) <= AGREE, prop


def test_pair_of_pants_6_runs_under_the_default_caps():
    U6, U5 = pair_of_pants_update(6), pair_of_pants_update(5)
    assert classify(U6).kind == "strong"
    assert {r.law for r in check_laws(U6) if not r.holds} == {
        "CommutativeGet", "CommutativePut", "PutGetA"}
    derived = {p: verify_derived(U6, p).status for p in DERIVED_PROPS}
    assert derived == {p: verify_derived(U5, p).status for p in DERIVED_PROPS}

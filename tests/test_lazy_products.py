"""The lazy Kronecker engine of the linear backend against a dense oracle.

``tensor`` keeps products as lists of blocks and ``compose`` works on
them wire by wire.  The oracle here is plain NumPy on ``.array``s:
``np.kron`` for products and ``@`` for composites, with permutation
matrices for swaps built by index arithmetic.
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
from putget.tensors import UNIT, Morphism, TensorType, swap

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
        pairs = structures._DERIVED[prop][1](oracle)
        want = max(lhs.distance(rhs) for lhs, rhs in pairs)
        assert abs(result.residual - want) <= AGREE, prop


def test_pair_of_pants_6_runs_under_the_default_caps():
    U6, U5 = pair_of_pants_update(6), pair_of_pants_update(5)
    assert classify(U6).kind == "strong"
    assert {r.law for r in check_laws(U6) if not r.holds} == {
        "CommutativeGet", "CommutativePut", "PutGetA"}
    derived = {p: verify_derived(U6, p).status for p in DERIVED_PROPS}
    assert derived == {p: verify_derived(U5, p).status for p in DERIVED_PROPS}

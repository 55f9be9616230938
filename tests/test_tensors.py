import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putget import tensors
from putget.tensors import (
    DEFAULT_TOL,
    Morphism,
    UNIT,
    TensorType,
    Tolerance,
    WireError,
    basis_effect,
    basis_state,
    cap,
    compare,
    compare_all,
    cup,
    scalar,
    swap,
)

dims = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=10**6)


def rand_morphism(rng, dom: TensorType, cod: TensorType) -> Morphism:
    shape = (cod.dim, dom.dim)
    return Morphism(dom, cod, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_type_concatenation_and_dim():
    t = TensorType((2, 3))
    u = TensorType((4,))
    assert (t @ u).factors == (2, 3, 4)
    assert (t @ u).dim == 24
    assert TensorType.unit().dim == 1
    assert t @ TensorType.unit() == t


def test_factors_must_be_integers():
    for bad in ((2.7,), ("3",), (2, 1.0), (None,)):
        with pytest.raises(ValueError, match="integers"):
            TensorType(bad)
    t = TensorType((np.int64(3), 2))
    assert t.factors == (3, 2) and all(type(d) is int for d in t.factors)
    with pytest.raises(ValueError, match=">= 1"):
        TensorType((2, 0))
    # a join trusts its factors, which were checked when each side was made
    assert (t @ TensorType((4,))).factors == (3, 2, 4)


def test_morphism_shape_validation():
    t = TensorType((2,))
    with pytest.raises(WireError):
        Morphism(t, t, np.zeros((3, 2)))
    with pytest.raises(WireError):
        Morphism(t, t, np.zeros((2, 2, 2)))


def test_compose_boundary_mismatch():
    f = TensorType((2,)).identity()
    g = TensorType((3,)).identity()
    with pytest.raises(WireError):
        f >> g


def test_kron_convention_leftmost_most_significant():
    # |i> (x) |j> on 2 (x) 3 lands at index 3i + j
    for i in range(2):
        for j in range(3):
            v = basis_state(2, i) @ basis_state(3, j)
            expected = np.zeros(6)
            expected[3 * i + j] = 1
            assert np.allclose(v.array[:, 0], expected)


def test_cup_cap_loop_is_dimension():
    # cap . cup = sum_ii <ii|jj> = d
    for d in range(1, 9):
        loop = cup(d) >> cap(d)
        assert loop.dom == TensorType(())
        assert abs(loop.array[0, 0] - d) < 1e-12


def test_snake_equations():
    for d in range(1, 9):
        wire = TensorType((d,))
        one = wire.identity()
        left = (one @ cup(d)) >> (cap(d) @ one)
        right = (cup(d) @ one) >> (one @ cap(d))
        assert left.distance(one) < 1e-12
        assert right.distance(one) < 1e-12


@given(dims, dims, seeds)
@settings(max_examples=40, deadline=None)
def test_swap_is_natural_and_involutive(a, b, seed):
    rng = np.random.default_rng(seed)
    ta, tb = TensorType((a,)), TensorType((b,))
    f = rand_morphism(rng, ta, ta)
    g = rand_morphism(rng, tb, tb)
    s = ta.swap(tb)
    # naturality: swap ; (g (x) f) = (f (x) g) ; swap
    assert (s >> (g @ f)).distance((f @ g) >> s) < 1e-9
    assert (s >> tb.swap(ta)).distance((ta @ tb).identity()) < 1e-12


@given(dims, dims, dims, seeds)
@settings(max_examples=40, deadline=None)
def test_dagger_is_contravariant(a, b, c, seed):
    rng = np.random.default_rng(seed)
    ta, tb, tc = TensorType((a,)), TensorType((b,)), TensorType((c,))
    f = rand_morphism(rng, ta, tb)
    g = rand_morphism(rng, tb, tc)
    assert (f >> g).dagger().distance(g.dagger() >> f.dagger()) < 1e-9
    assert f.dagger().dagger().distance(f) == 0


@given(dims, dims, dims, seeds)
@settings(max_examples=40, deadline=None)
def test_tensor_respects_composition(a, b, c, seed):
    rng = np.random.default_rng(seed)
    ta, tb, tc = TensorType((a,)), TensorType((b,)), TensorType((c,))
    f1 = rand_morphism(rng, ta, tb)
    f2 = rand_morphism(rng, tb, tc)
    g1 = rand_morphism(rng, tc, ta)
    g2 = rand_morphism(rng, ta, tb)
    lhs = (f1 @ g1) >> (f2 @ g2)
    rhs = (f1 >> f2) @ (g1 >> g2)
    assert lhs.distance(rhs) < 1e-9


def test_scalar_and_effects():
    z = scalar(2 + 1j)
    assert z.array.shape == (1, 1)
    picked = basis_state(4, 2) >> basis_effect(4, 2)
    missed = basis_state(4, 2) >> basis_effect(4, 1)
    assert abs(picked.array[0, 0] - 1) < 1e-12
    assert abs(missed.array[0, 0]) < 1e-12


def test_tolerance_threshold_combines_absolute_and_relative():
    tol = Tolerance(absolute=1e-9, relative=1e-6)
    assert tol.threshold(0.0) == pytest.approx(1e-9)
    assert tol.threshold(100.0) == pytest.approx(1e-9 + 1e-4)
    assert DEFAULT_TOL.threshold(1.0) == pytest.approx(2e-9)


def test_compare_takes_norms_without_squaring_overflow():
    one = Morphism(UNIT, UNIT, [[1e200]])
    two = Morphism(UNIT, UNIT, [[2e200]])
    assert one.norm() == 1e200
    result = compare(one, two)
    assert (result.holds, result.residual) == (False, 1e200)
    assert result.threshold == pytest.approx(DEFAULT_TOL.threshold(2e200))


def test_compare_refuses_residuals_and_thresholds_that_are_not_finite():
    t = TensorType((2,))
    huge = Morphism(UNIT, t, [[1.5e308], [1.5e308]])  # the norm, 2.1e308, overflows
    with pytest.raises(ValueError, match="finite"):
        compare(huge, 0.0 * huge)
    big = Morphism(UNIT, t, [[1e307], [0.0]])
    with pytest.raises(ValueError, match="not finite"):
        compare(big, big, Tolerance(1.0, 100.0))  # threshold 1e309
    assert compare(big, big).holds


def test_compare_all_reports_the_worst_pair():
    t = TensorType((2,))
    one = t.identity()
    results = [compare(one, one), compare(one, 2.0 * one), compare(one, 1.5 * one)]
    worst = compare_all([(one, one), (one, 2.0 * one), (one, 1.5 * one)])
    assert worst == (False, results[1].residual, results[1].threshold)
    assert compare_all([(one, one)]) == results[0]
    assert compare_all([(one, one), (one, (1 + 1e-12) * one)]).holds


def test_an_empty_conjunction_holds():
    assert compare_all([]) == tensors.Comparison(True, 0.0, 0.0)
    assert tensors.Comparison.joint(iter([])) == (True, 0.0, 0.0)


def test_distance_and_arithmetic():
    t = TensorType((2,))
    one = t.identity()
    assert one.distance(one) == 0
    doubled = one + one
    assert doubled.distance(2.0 * one) < 1e-12
    assert (doubled - one).distance(one) < 1e-12
    assert one.norm() == pytest.approx(np.sqrt(2))


def test_swap_function_matches_method():
    a, b = TensorType((2,)), TensorType((3,))
    assert swap(a, b).distance(a.swap(b)) == 0


def test_grid_str_smoke():
    text = str(cup(2))
    assert "I" in text or "->" in text


# Both norms are sums of at most 2 * FRO_ENTRIES real squares, each
# computed to within n * eps of the true value, so they differ by at most
# twice that; the square root halves it.
FRO_ENTRIES = 32 * 32
FRO_RTOL = 2 * FRO_ENTRIES * np.finfo(np.float64).eps


@st.composite
def fro_arrays(draw):
    """A complex array of up to FRO_ENTRIES entries, with its layout and scale drawn.

    The layout is C order, transposed (so not C-contiguous) or a strided
    slice; the scale puts the squares of the entries in range, above the
    float range (the norm squared overflows) or below it (the squares
    underflow), or makes every entry zero.
    """
    rows, cols = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(seeds))
    arr = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    arr *= draw(st.sampled_from([1.0, 1e-3, 1e5, 1e200, 1e-200, 0.0]))
    layout = draw(st.sampled_from(["C", "transposed", "strided"]))
    if layout == "transposed":
        arr = arr.T
    elif layout == "strided":
        arr = arr[::2, ::-1]
    return arr


def oracle_norm(arr: np.ndarray) -> float:
    """``np.linalg.norm``, taken at the scale of the largest entry so that it cannot overflow."""
    top = float(np.abs(arr).max())
    return 0.0 if top == 0.0 else top * float(np.linalg.norm(arr / top))


@given(fro_arrays())
@settings(max_examples=200, deadline=None)
def test_frobenius_norm_matches_numpy(arr):
    want = oracle_norm(arr)
    if 1e-140 < want < 1e140:  # squares in range: numpy's own norm is the oracle
        assert want == pytest.approx(float(np.linalg.norm(arr)), rel=FRO_RTOL)
    got = tensors._fro(arr)
    assert got == pytest.approx(want, rel=FRO_RTOL, abs=0.0)


def test_frobenius_norm_retakes_only_out_of_range_norms(monkeypatch):
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    cases = [(scale * arr, oracle_norm(scale * arr)) for scale in (1.0, 1e200, 1e-200)]
    cases += [(np.zeros((3, 4), complex), 0.0)]
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda a: calls.append(a) or norm(a))
    got = [tensors._fro(a) for a, _ in cases]
    assert len(calls) == 2  # the overflowing and the underflowing array, not the others
    for value, (_, want) in zip(got, cases):
        assert value == pytest.approx(want, rel=FRO_RTOL, abs=0.0)

import math
import random
from fractions import Fraction

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


@pytest.mark.parametrize("i", [-1, 3, 1.5, 1.0, "1"])
def test_a_basis_index_out_of_range_is_refused(i):
    message = r"expected 0 <= i < 3" if isinstance(i, int) else "integers"
    for make in (basis_state, basis_effect):
        with pytest.raises(ValueError, match=message):
            make(3, i)


def test_a_composite_in_range_does_not_overflow_on_the_way():
    # a (x) a has entries 1e400, but g after it is at most 4e100
    t = TensorType((2,))
    a = Morphism(t, t, [[1e200, 1e200], [1e200, -1e200]])
    g = Morphism(t @ t, t @ t, np.full((4, 4), 1e-300))
    want = np.zeros((4, 4))
    want[:, 0] = 4e100  # the first column of a (x) a is all 1e400; the others sum to 0
    got = (a @ a) >> g
    assert np.max(np.abs(got.array - want)) <= 1e-15 * 4e100


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


# -- exact oracle for every product path -------------------------------------
#
# Every operand below is a matrix of small integers times one power of two,
# held as (rows of Python ints, exponent), so the exact composite, tensor
# product and squared norms are Python integer arithmetic, independent of
# numpy.  The exponents sit near +-1000, so a product of two operands lands
# near 1, near 2**+-1000, out of range, or below the normal floats.

EXPONENTS = st.builds(lambda side, k: 1000 * side + k, st.sampled_from([0, -1, 1]),
                      st.integers(-10, 10))
WIRE = st.sampled_from([2, 3, 1])
EPS = Fraction(1, 2**52)


def exact_identity(wires: tuple[int, ...]):
    d = math.prod(wires)
    return [[int(i == j) for j in range(d)] for i in range(d)], 0


def exact_kron(x, y):
    (a, ka), (b, kb) = x, y
    return [[p * q for p in a_row for q in b_row] for a_row in a for b_row in b], ka + kb


def exact_after(g, f):
    """The exact matrix of ``g after f``."""
    (a, ka), (b, kb) = g, f
    columns = list(zip(*b))
    return [[sum(p * q for p, q in zip(row, col)) for col in columns] for row in a], ka + kb


def exact_swap(a: tuple[int, ...], b: tuple[int, ...]):
    """|i, j> -> |j, i> for i in the wires ``a`` and j in the wires ``b``."""
    da, db = math.prod(a), math.prod(b)
    rows = [[0] * (da * db) for _ in range(da * db)]
    for i in range(da):
        for j in range(db):
            rows[j * da + i][i * db + j] = 1
    return rows, 0


@st.composite
def exact_pieces(draw, dom: tuple[int, ...], cod: tuple[int, ...]):
    """A map ``dom -> cod`` from small integers times ``2**k``, and its exact matrix.

    Half the draws have at most one nonzero entry in each column, so the
    constructor keeps them as function blocks; the others are mostly dense.
    The entries come from a drawn seed.
    """
    rows, cols, k = math.prod(cod), math.prod(dom), draw(EXPONENTS)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ints = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            ints[rng.randrange(rows)][j] = rng.randint(-4, 4)
    else:
        ints = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    arr = np.array(ints, dtype=float) * 2.0 ** k
    return Morphism(TensorType(dom), TensorType(cod), arr), (ints, k)


@st.composite
def exact_layers(draw, dom: tuple[int, ...], plan=None):
    """An arrow out of the wires ``dom``: one piece on a run of wires, identities on the
    rest, then a swap of the two halves of its codomain or not.

    Returns the arrow, its exact matrix, its codomain, and its plan (which wires
    the piece takes, its output wires and the swap) so that a second arrow can be
    drawn on the same wires.
    """
    if plan is None:
        i = draw(st.integers(0, len(dom) - 1))
        j = draw(st.integers(i + 1, len(dom)))
        out = tuple(draw(WIRE) for _ in range(draw(st.sampled_from([1, 2, 0]))))
        cod = dom[:i] + out + dom[j:]
        cut = draw(st.integers(1, len(cod) - 1)) if len(cod) > 1 and draw(st.booleans()) else None
        plan = i, j, out, cut
    i, j, out, cut = plan
    piece, exact = draw(exact_pieces(dom[i:j], out))
    arrow = TensorType(dom[:i]).identity() @ piece @ TensorType(dom[j:]).identity()
    exact = exact_kron(exact_kron(exact_identity(dom[:i]), exact), exact_identity(dom[j:]))
    cod = dom[:i] + out + dom[j:]
    if cut is not None:
        arrow = arrow >> swap(TensorType(cod[:cut]), TensorType(cod[cut:]))
        exact = exact_after(exact_swap(cod[:cut], cod[cut:]), exact)
        cod = cod[cut:] + cod[:cut]
    return arrow, exact, cod, plan


def out_of_range(n: int, k: int) -> bool:
    return n != 0 and abs(n).bit_length() + k > 1024


def assert_exact_entries(build, exact) -> None:
    """``build()`` is the exact matrix wherever that is a normal float or 0, within half
    a subnormal step below the normal floats, and a ValueError where an entry is out of
    range."""
    ints, k = exact
    if any(out_of_range(n, k) for row in ints for n in row):
        with pytest.raises(ValueError):
            build()
        return
    got = build()
    assert got.shape == (len(ints), len(ints[0]))
    for row, got_row in zip(ints, got):
        for n, z in zip(row, got_row):
            assert z.imag == 0
            if n == 0 or abs(n).bit_length() - 1 + k >= -1022:  # 0 or a normal float
                assert z.real == math.ldexp(n, k)
            else:
                assert abs(Fraction(z.real) - n * Fraction(2) ** k) <= Fraction(2) ** -1075


def assert_norms_within(build, exact_norms, entries: int) -> None:
    """``build()`` returns norms whose exact values are ``sqrt(squares) * 2**k`` for each
    ``(squares, k)`` of ``exact_norms``.

    Each must lie within a relative ``(entries + 8)`` ulps, plus ``entries``
    subnormal steps for entries that rounded below the normal floats, or else be
    refused as a ValueError when one of them is out of range.  Within that bound
    of the largest float either outcome is accepted.
    """
    rel = (entries + 8) * EPS
    beyond = [(squares * (1 - rel) ** 2, squares * (1 + rel) ** 2, Fraction(4) ** (1024 - k))
              for squares, k in exact_norms]
    if any(low >= limit for low, _, limit in beyond):
        with pytest.raises(ValueError):
            build()
        return
    if any(high >= limit for _, high, limit in beyond):
        return
    for got, (squares, k) in zip(build(), exact_norms):
        v, slack = Fraction(got) / Fraction(2) ** k, entries * Fraction(2) ** (-1074 - k)
        assert (v + slack) ** 2 >= squares * (1 - rel) ** 2
        assert v <= slack or (v - slack) ** 2 <= squares * (1 + rel) ** 2


def squares_of(exact) -> tuple[int, int]:
    """The exact squared norm of ``exact``, as ``(squares, k)`` for ``sqrt(squares) * 2**k``."""
    ints, k = exact
    return sum(n * n for row in ints for n in row), k


def squares_of_difference(x, y) -> tuple[int, int]:
    """The exact squared norm of ``x - y``, as in :func:`squares_of`."""
    (a, ka), (b, kb) = x, y
    k = min(ka, kb)
    return sum(((p << ka - k) - (q << kb - k)) ** 2
               for a_row, b_row in zip(a, b) for p, q in zip(a_row, b_row)), k


@st.composite
def exact_composites(draw):
    """``(f, g, h)`` with ``h`` a second draw on f's plan, and the exact matrix of each."""
    dom = tuple(draw(st.lists(WIRE, min_size=1, max_size=2)))
    f, f_exact, mid, plan = draw(exact_layers(dom))
    h, h_exact, _, _ = draw(exact_layers(dom, plan))
    if not mid:  # f is an effect: g is a state
        mid_g = tuple(draw(st.lists(WIRE, min_size=1, max_size=2)))
        g, g_exact = draw(exact_pieces((), mid_g))
    else:
        g, g_exact, _, _ = draw(exact_layers(mid))
    if draw(st.booleans()):  # a wire-less scalar: a piece of f >> g may then leave the
        k = draw(EXPONENTS)  # float range where the whole composite does not
        g, g_exact = g @ scalar(2.0**k), exact_kron(g_exact, ([[1]], k))
    return (f, f_exact), (g, g_exact), (h, h_exact)


@given(exact_composites())
@settings(max_examples=200, deadline=None)
def test_every_product_path_matches_exact_arithmetic(drawn):
    (f, f_exact), (g, g_exact), (h, h_exact) = drawn
    fg, hg = exact_after(g_exact, f_exact), exact_after(g_exact, h_exact)
    f_g = exact_kron(f_exact, g_exact)
    entries = len(fg[0]) * len(fg[0][0])
    assert_exact_entries(lambda: (f >> g).array, fg)
    assert_exact_entries(lambda: (f @ g).array, f_g)
    assert_norms_within(lambda: [(f >> g).norm()], [squares_of(fg)], entries)
    assert_norms_within(lambda: [(f @ g).norm()], [squares_of(f_g)], len(f_g[0]) * len(f_g[0][0]))
    both = lambda: [(f >> g).distance(h >> g), (f >> g).norm(), (h >> g).norm()]
    assert_norms_within(both, [squares_of_difference(fg, hg), squares_of(fg), squares_of(hg)],
                        entries)


def test_a_scalar_multiple_does_not_depend_on_block_order():
    # 2**30 * a overflows, but every entry of 2**30 * (a (x) b) is 2**30
    t = TensorType((2,))
    a = Morphism(t, t, np.full((2, 2), 2.0**1000))
    b = Morphism(t, t, np.full((2, 2), 2.0**-1000))
    for product in (a @ b, b @ a):
        assert np.array_equal((2.0**30 * product).array, np.full((4, 4), 2.0**30))
        # a multiple in range on the first block only rescales that block
        assert [(x.dom, x.cod) for x in (2.0 * product)._blocks] == \
            [(x.dom, x.cod) for x in product._blocks]
    for out_of_range in (a, a @ a, a @ b @ a):
        scaled = 2.0**30 * out_of_range  # refused where it is read, not where it is made
        for read in (lambda: scaled.array, scaled.norm):
            with pytest.raises(ValueError, match="finite"):
                read()


def test_a_composite_that_cancels_to_zero_is_zero_on_every_path():
    # every partial product is 2**1328, out of range, but the composite is exactly 0
    t, a = TensorType((2,)), 2.0 ** 664
    f = Morphism(t, t, [[a, a], [-a, -a]])
    g = Morphism(t, t, np.full((2, 2), a))
    for composite in (f >> g, (f @ scalar(1)) >> (g @ scalar(1))):
        assert not composite.array.any()
        assert composite.norm() == 0.0


def test_a_piece_out_of_range_does_not_refuse_a_composite_that_is_zero():
    # the piece on the first wire is 2**2001 in every entry, the piece on the second is 0
    t = TensorType((2,))
    big = Morphism(t, t, np.full((2, 2), 2.0**1000))
    a = Morphism(t, t, [[1, 1], [-1, -1]])
    b = Morphism(t, t, np.ones((2, 2)))
    composite = (big @ a) >> (big @ b)
    assert np.array_equal(composite.array, np.zeros((4, 4)))
    assert composite.norm() == 0.0


def test_scalar_multiples_out_of_range_and_back_are_exact():
    rng = np.random.default_rng(3)
    t = TensorType((2,))
    m = Morphism(t, t, rng.standard_normal((2, 2))) @ Morphism(t, t, rng.standard_normal((2, 2)))
    back = 2.0**-1000 * (2.0**-1000 * (2.0**1000 * (2.0**1000 * m)))
    assert np.array_equal(back.array, m.array)
    assert back.distance(m) == 0.0


@pytest.mark.parametrize("pattern", [np.ones((2, 2)), np.eye(2)])  # dense and function blocks
def test_a_side_that_is_zero_does_not_scale_the_other_away(pattern):
    # y is 0, held at an exponent near 1000; x is near 2**-1000
    t = TensorType((2,))
    x = Morphism(t, t, pattern * 2.0**-1000) @ Morphism(t, t, pattern)
    y = Morphism(t, t, np.zeros((2, 2))) @ Morphism(t, t, pattern * 2.0**1000)
    assert x.norm() == np.linalg.norm(pattern) ** 2 * 2.0**-1000
    for distance in (x.distance(y), y.distance(x)):
        assert distance == pytest.approx(x.norm(), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("arr", [[[2.0**1023, 0.0], [2.0**1023, 0.0]],  # a dense block
                                 [[2.0**1023, 0.0], [0.0, 2.0**1023]]])  # a function block
def test_a_difference_out_of_range_is_refused(arr):
    # each side's norm is in range, but every nonzero entry of the difference is 2**1024
    t = TensorType((2,))
    a = Morphism(t, t, arr)
    for lhs, rhs in ((a, -1.0 * a), (a @ scalar(1), (-1.0 * a) @ scalar(1))):
        with pytest.raises(ValueError, match="finite"):
            compare(lhs, rhs)

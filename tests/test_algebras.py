import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putget.algebras import (
    ALGEBRA_LAWS,
    AlgebraError,
    Comagma,
    FrobeniusAlgebra,
    Magma,
    check_algebra,
    pair_of_pants,
    pair_of_pants_frobenius,
    scfa_from_dimension,
)
from putget.finsets import FinFunction, FinSet, SetType, bang, diagonal, projection
from putget.tensors import Morphism, TensorType

seeds = st.integers(min_value=0, max_value=10**6)


def rand_unitary(rng, d: int, carrier: TensorType) -> Morphism:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(a)
    return Morphism(carrier, carrier, q)


# -- basis spiders -------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 9))
def test_spider_satisfies_every_algebra_law(d):
    alg = scfa_from_dimension(d)
    for law in ALGEBRA_LAWS:
        holds, residual = check_algebra(alg, law)
        assert holds, (law, residual)
        assert residual < 1e-9


def test_spider_components_have_expected_tables():
    alg = scfa_from_dimension(3)
    # comult copies basis states: |i> -> |ii>
    arr = alg.comult.array
    for i in range(3):
        col = np.zeros(9)
        col[i * 3 + i] = 1.0
        assert np.allclose(arr[:, i], col)
    # counit deletes: row of ones
    assert np.allclose(alg.counit.array, np.ones((1, 3)))
    assert alg.mult.distance(alg.comult.dagger()) == 0.0


@given(seeds, st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_conjugated_spider_still_frobenius(seed, d):
    # unitary transport preserves all nine laws, including the dagger ones
    rng = np.random.default_rng(seed)
    alg = scfa_from_dimension(d)
    u = rand_unitary(rng, d, alg.carrier)
    ud = u.dagger()
    moved = FrobeniusAlgebra(alg.carrier, (ud @ ud) >> alg.mult >> u, alg.unit >> u,
                             ud >> alg.comult >> (u @ u), ud >> alg.counit)
    for law in ALGEBRA_LAWS:
        holds, residual = check_algebra(moved, law)
        assert holds, (law, residual)


def test_conjugated_spider_differs_from_original():
    rng = np.random.default_rng(7)
    alg = scfa_from_dimension(3)
    u = rand_unitary(rng, 3, alg.carrier)
    moved_comult = u.dagger() >> alg.comult >> (u @ u)
    assert moved_comult.distance(alg.comult) > 1e-3


# -- pair of pants -------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pair_of_pants_is_special_frobenius_but_not_commutative(d):
    alg = pair_of_pants_frobenius(d)
    for law in ("assoc", "coassoc", "unit", "special", "frobenius"):
        holds, residual = check_algebra(alg, law)
        assert holds, (law, residual)
    # matrix composition does not commute
    holds, residual = check_algebra(alg, "comm")
    assert not holds and residual > 0.5
    holds, _ = check_algebra(alg, "cocomm")
    assert not holds


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pair_of_pants_counit_law_fails_by_scaling(d):
    # comult >> (counit @ id) lands on id/d^2, so the residual is the
    # Frobenius norm of (1 - 1/d^2) * id on a d^2-dimensional carrier.
    alg = pair_of_pants_frobenius(d)
    holds, residual = check_algebra(alg, "counit")
    assert not holds
    expected = (1.0 - 1.0 / d**2) * d
    assert abs(residual - expected) < 1e-9


def test_pair_of_pants_mult_is_matrix_composition():
    d = 2
    magma, comagma = pair_of_pants(d)
    # multiply the matrix units e_{01} and e_{10}: first-then-second
    # composition gives e_{01} e_{10} picked up as <wires j,m| = (0, 0)
    def unit_vec(j, k):
        v = np.zeros(d * d)
        v[j * d + k] = 1.0
        return v

    e01, e10 = unit_vec(0, 1), unit_vec(1, 0)
    prod = magma.mult.array @ np.kron(e01, e10)
    assert np.allclose(prod, unit_vec(0, 0))
    # opposite order yields e_{11}
    prod = magma.mult.array @ np.kron(e10, e01)
    assert np.allclose(prod, unit_vec(1, 1))
    # comult is the scaled dagger
    assert comagma.comult.distance((1.0 / d) * magma.mult.dagger()) == 0.0


# -- set-backed algebras -------------------------------------------------


def test_left_delete_has_no_unit_and_reports_least_violation():
    v = FinSet(("a", "b", "c"))
    t = SetType((v,))
    magma = Magma(t, projection(t @ t, 1))  # (a, b) -> b
    holds, residual = check_algebra(magma, "assoc")
    assert holds and residual == 0
    # no element fixes every other element from the right, and the
    # least-violating candidate misses |v| - 1 of them
    holds, residual = check_algebra(magma, "unit")
    assert not holds
    assert residual == len(v.elements) - 1


def test_left_delete_on_a_point_is_unital():
    t = SetType((FinSet(("x",)),))
    magma = Magma(t, projection(t @ t, 1))
    holds, residual = check_algebra(magma, "unit")
    assert holds and residual == 0


def test_find_unit_locates_a_genuine_unit():
    z2 = FinSet(("e", "g"))
    t = SetType((z2,))
    table = {
        ("e", "e"): ("e",),
        ("e", "g"): ("g",),
        ("g", "e"): ("g",),
        ("g", "g"): ("e",),
    }
    magma = Magma(carrier=t, mult=FinFunction(t @ t, t, table))
    holds, residual = check_algebra(magma, "unit")
    assert holds and residual == 0
    holds, _ = check_algebra(magma, "assoc")
    assert holds
    holds, _ = check_algebra(magma, "comm")
    assert holds


def test_set_diagonal_comagma_laws():
    t = SetType((FinSet(("r", "g", "b")),))
    comagma = Comagma(t, diagonal(t), bang(t))
    for law in ("coassoc", "counit", "cocomm"):
        holds, residual = check_algebra(comagma, law)
        assert holds, (law, residual)
        assert residual == 0


def test_missing_components_raise():
    t = SetType((FinSet(("a", "b")),))
    magma = Magma(t, projection(t @ t, 1))
    comagma = Comagma(t, diagonal(t), bang(t))
    with pytest.raises(AlgebraError):
        check_algebra(magma, "coassoc")  # magma has no comult
    with pytest.raises(AlgebraError):
        check_algebra(comagma, "assoc")  # comagma has no mult
    with pytest.raises(AlgebraError):
        check_algebra(magma, "half-twist")  # not a law name
    with pytest.raises(AlgebraError):
        check_algebra(comagma, "dagger_frobenius")  # needs mult first


def test_dagger_laws_rejected_on_set_backend():
    v = FinSet(("a", "b"))
    t = SetType((v,))
    alg = FrobeniusAlgebra(
        carrier=t,
        mult=projection(t @ t, 1),
        unit=None,
        comult=diagonal(t),
        counit=bang(t),
    )
    with pytest.raises(AlgebraError):
        check_algebra(alg, "dagger_frobenius")


def test_component_types_are_validated():
    v = FinSet(("a", "b"))
    w = FinSet(("x", "y", "z"))
    t, u = SetType((v,)), SetType((w,))
    with pytest.raises(AlgebraError):
        Magma(carrier=t, mult=projection(u @ u, 1))  # carrier mismatch
    with pytest.raises(AlgebraError):
        Comagma(carrier=u, comult=diagonal(t))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_unit_search_matches_brute_force(seed):
    import random

    rng = random.Random(seed)
    v = FinSet(("p", "q", "r"))
    t = SetType((v,))
    elems = t.elements()
    table = {x + y: rng.choice(elems) for x in elems for y in elems}
    magma = Magma(carrier=t, mult=FinFunction(t @ t, t, table))
    holds, residual = check_algebra(magma, "unit")
    # residual is the least total violation over all candidates, and the
    # law holds exactly when some candidate is a two-sided unit
    best = min(
        sum(1 for x in elems if table[u + x] != x)
        + sum(1 for x in elems if table[x + u] != x)
        for u in elems
    )
    assert residual == best
    assert holds == (best == 0)

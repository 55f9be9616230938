import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from putget.finsets import FinFunction, FinSet, SetType, projection
from putget.karoubi import getput_restriction
from putget.lenses import (
    LensError,
    VwbLens,
    check_vwb,
    constant_complement_lens,
    identity_lens,
    lens_to_update,
    random_lens,
    security_db_update_flag,
    trivial_update_separability,
    update_flag_lens,
    update_to_lens,
)
from putget.structures import check_law, classify

seeds = st.integers(min_value=0, max_value=10**6)

AB = FinSet(("a", "b"))
PQR = FinSet(("p", "q", "r"))
ENTRIES = FinSet(("alice", "bob", "carol"))


# -- the three laws -------------------------------------------------------


def test_constant_complement_is_vwb():
    lens = constant_complement_lens(AB, PQR)
    report = check_vwb(lens)
    assert report.is_vwb
    for result in report.results():
        assert result.residual == 0


def test_identity_lens_is_vwb():
    assert check_vwb(identity_lens(PQR)).is_vwb


def test_update_flag_lens_breaks_exactly_get_put():
    lens = update_flag_lens(ENTRIES)
    report = check_vwb(lens)
    assert report.put_put.holds
    assert report.put_get.holds
    assert not report.get_put.holds
    # one violation per never-written record
    assert report.get_put.residual == len(ENTRIES.elements)


def test_random_lens_is_lawless_for_this_seed():
    lens = random_lens(FinSet(("s0", "s1", "s2", "s3")), AB, random.Random(5))
    assert not check_vwb(lens).is_vwb


# -- roundtrips -----------------------------------------------------------


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_lens_update_lens_roundtrip_is_exact(seed):
    lens = constant_complement_lens(AB, PQR, random.Random(seed))
    back = update_to_lens(lens_to_update(lens))
    assert back.source == lens.source and back.view == lens.view
    assert back.get_fn.table == lens.get_fn.table
    assert back.put_fn.table == lens.put_fn.table


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_update_lens_update_roundtrip_is_exact(seed):
    U = lens_to_update(constant_complement_lens(AB, PQR, random.Random(seed)))
    back = lens_to_update(update_to_lens(U))
    for name in ("put", "get", "mult", "comult", "trivial_outcome"):
        assert getattr(back, name).table == getattr(U, name).table


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_lens_laws_match_update_laws_violation_for_violation(seed):
    # the embedding preserves each law's residual exactly, also for
    # lenses that break them
    rng = random.Random(seed)
    lens = random_lens(FinSet(("s0", "s1", "s2")), AB, rng)
    report = check_vwb(lens)
    U = lens_to_update(lens)
    for lens_result, law in (
        (report.put_put, "PutPut"),
        (report.put_get, "PutGet"),
        (report.get_put, "GetPut"),
    ):
        update_result = check_law(U, law)
        assert lens_result.holds == update_result.holds
        assert lens_result.residual == update_result.residual


def test_embedding_always_satisfies_outcome_and_reads():
    lens = random_lens(FinSet(("s0", "s1", "s2")), AB, random.Random(11))
    U = lens_to_update(lens)
    # get = <id, get_fn> never disturbs the state, and the copy comagma
    # makes repeated reads agree
    assert check_law(U, "TrivialOutcome").holds
    assert check_law(U, "GetGet").holds


# -- separability ---------------------------------------------------------


def test_vwb_lens_with_big_view_has_no_trivial_update():
    lens = constant_complement_lens(AB, PQR)
    report = trivial_update_separability(lens)
    assert not report.has_trivial_update
    assert report.witness is None and report.separable is None


def test_ignore_put_is_separable_with_witness():
    s, v = SetType((PQR,)), SetType((AB,))
    lens = VwbLens(
        PQR, AB,
        FinFunction.from_callable(s, v, lambda x: ("a",)),
        FinFunction.from_callable(s @ v, s, lambda x: (x[0],)),
    )
    report = trivial_update_separability(lens)
    assert report.witness == "a"
    assert report.separable and report.violations == 0


def test_partial_witness_is_not_separable():
    # put ignores the view "a" but honours "b", so a witness exists but
    # put is not globally state-preserving
    s, v = SetType((PQR,)), SetType((AB,))
    table = {}
    for x in PQR.elements:
        table[(x, "a")] = (x,)
        table[(x, "b")] = ("p",)
    lens = VwbLens(
        PQR, AB,
        FinFunction.from_callable(s, v, lambda x: ("a",)),
        FinFunction(s @ v, s, table),
    )
    report = trivial_update_separability(lens)
    assert report.witness == "a"
    assert not report.separable
    assert report.violations == 2  # put(q,b) and put(r,b) move the state


def test_view_of_size_one_always_has_witness_when_vwb():
    lens = constant_complement_lens(FinSet(("only",)), PQR)
    assert check_vwb(lens).is_vwb
    report = trivial_update_separability(lens)
    assert report.witness == "only"
    assert report.separable


# -- recovering lenses from updates ---------------------------------------


def test_update_to_lens_rejects_wrong_magma():
    U = lens_to_update(identity_lens(AB))
    v = U.prop
    bad = U.with_components(mult=projection(v @ v, 0))
    with pytest.raises(LensError, match="left delete"):
        update_to_lens(bad)


def test_update_to_lens_rejects_wrong_comagma():
    U = lens_to_update(identity_lens(AB))
    v = U.prop
    constant = FinFunction.from_callable(v, v @ v, lambda x: ("a", "a"))
    with pytest.raises(LensError, match="copy map"):
        update_to_lens(U.with_components(comult=constant))


def test_update_to_lens_rejects_state_disturbing_get():
    s = SetType((AB,))
    v = SetType((FinSet(("only",)),))
    flip = {"a": "b", "b": "a"}
    U = lens_to_update(identity_lens(AB)).with_components(
        system=s, prop=v,
        put=FinFunction.from_callable(s @ v, s, lambda x: (x[0],)),
        get=FinFunction.from_callable(s, s @ v, lambda x: (flip[x[0]], "only")),
        mult=projection(v @ v, 1),
        comult=FinFunction.from_callable(v, v @ v, lambda x: ("only", "only")),
        trivial_outcome=FinFunction.from_callable(v, SetType(()), lambda x: ()),
    )
    with pytest.raises(LensError, match="trivial-outcome"):
        update_to_lens(U)


def test_update_to_lens_rejects_split_structures():
    R = getput_restriction(lens_to_update(identity_lens(AB))).structure
    with pytest.raises(LensError):
        update_to_lens(R)


def test_update_to_lens_rejects_compound_wires():
    U = security_db_update_flag(ENTRIES)  # state is (record, flag)
    with pytest.raises(LensError, match="single finite set"):
        update_to_lens(U)


def test_flag_database_and_its_lens_agree_on_get_put():
    U = security_db_update_flag(ENTRIES)
    assert classify(U).kind == "weak_only"
    assert check_law(U, "GetPut").residual == len(ENTRIES.elements)
    lens = update_flag_lens(ENTRIES)
    assert check_vwb(lens).get_put.residual == len(ENTRIES.elements)


def test_default_rng_makes_reproducible_lenses():
    a = constant_complement_lens(AB, PQR)
    b = constant_complement_lens(AB, PQR)
    assert a.get_fn.table == b.get_fn.table
    assert a.put_fn.table == b.put_fn.table


def test_lens_type_validation():
    s, v = SetType((PQR,)), SetType((AB,))
    with pytest.raises(LensError):
        VwbLens(PQR, AB, s.identity(), projection(s @ v, 0))  # get lands in S


# -- the lens bijection, exhaustively ----------------------------------------


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (2, 3)])
def test_lens_census_strong_exactly_when_vwb(n, m):
    # every get table S -> V with every put table S x V -> S; a vwb lens is a
    # split S ~ V x C, so there are n! / (n/m)! of them when m divides n
    source = FinSet(tuple(f"s{i}" for i in range(n)))
    view = FinSet(tuple(f"v{j}" for j in range(m)))
    s, v = SetType((source,)), SetType((view,))
    strong = 0
    for gets in itertools.product(v.elements(), repeat=n):
        get_fn = FinFunction(s, v, dict(zip(s.elements(), gets)))
        for puts in itertools.product(s.elements(), repeat=n * m):
            put_fn = FinFunction(s @ v, s, dict(zip((s @ v).elements(), puts)))
            lens = VwbLens(source, view, get_fn, put_fn)
            is_strong = classify(lens_to_update(lens)).kind == "strong"
            assert is_strong == check_vwb(lens).is_vwb, (gets, puts)
            strong += is_strong
    assert strong == (math.factorial(n) // math.factorial(n // m) if n % m == 0 else 0)

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putget.algebras import Algebra, AlgebraError, check_algebra
from putget.finsets import FinFunction, FinSet, SetType, diagonal, projection
from putget.lenses import (
    constant_complement_lens,
    identity_lens,
    lens_to_update,
    security_db,
)
from putget import structures, tensors
from putget.quantum import pair_of_pants_update
from putget.registry import build_example, run_example
from putget.structures import (
    DERIVED_PROPS,
    LAW_NAMES,
    Morphism,
    StructureError,
    UpdateStructure,
    applicable_laws,
    check_law,
    check_laws,
    classify,
    verify_derived,
)
from putget.tensors import DEFAULT_TOL, TensorType, Tolerance, scalar

seeds = st.integers(min_value=0, max_value=10**6)

V2 = FinSet(("a", "b"))
S4 = FinSet(("s0", "s1", "s2", "s3"))


def ignore_put_structure() -> UpdateStructure:
    # put returns the state unchanged, so PutGet cannot hold
    s, v = SetType((S4,)), SetType((V2,))
    get = FinFunction.from_callable(s, s @ v, lambda x: (x[0], "a" if x[0] in ("s0", "s1") else "b"))
    put = FinFunction.from_callable(s @ v, s, lambda x: (x[0],))
    return UpdateStructure(
        system=s, prop=v, put=put, get=get,
        mult=projection(v @ v, 1), comult=diagonal(v),
    )


def random_set_structure(seed: int) -> UpdateStructure:
    rng = random.Random(seed)
    s, v = SetType((FinSet(("x", "y", "z")),)), SetType((V2,))
    put = FinFunction(s @ v, s, {k: rng.choice(s.elements()) for k in (s @ v).elements()})
    get = FinFunction(s, s @ v, {k: rng.choice((s @ v).elements()) for k in s.elements()})
    return UpdateStructure(
        system=s, prop=v, put=put, get=get,
        mult=projection(v @ v, 1), comult=diagonal(v),
    )


# -- classification ------------------------------------------------------


def test_lens_embedding_is_strong():
    U = lens_to_update(constant_complement_lens(V2, FinSet(("p", "q", "r"))))
    verdict = classify(U)
    assert verdict.kind == "strong"
    assert verdict.failing_names() == ()


def test_security_db_is_weak_only_and_getput_counts_safe_states():
    entries = FinSet(("alice", "bob", "carol"))
    U = security_db(entries)
    verdict = classify(U)
    assert verdict.kind == "weak_only"
    assert verdict.failing_names() == ("GetPut",)
    # get;put repairs breached states but betrays every safe one
    assert verdict.failing[0].residual == len(entries.elements)


def test_ignore_put_is_neither():
    verdict = classify(ignore_put_structure())
    assert verdict.kind == "neither"
    assert "PutGet" in verdict.failing_names()


# -- residuals against a brute-force oracle ------------------------------


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_core_law_residuals_match_triple_loops(seed):
    U = random_set_structure(seed)
    put, get = U.put.table, U.get.table
    ss, vs = U.system.elements(), U.prop.elements()

    putput = sum(
        1 for s in ss for v1 in vs for v2 in vs if put[put[s + v1] + v2] != put[s + v2]
    )
    repeat = sum(1 for s in ss for v in vs if put[put[s + v] + v] != put[s + v])
    getput = sum(1 for s in ss if put[get[s]] != s)
    getget = 0
    for s in ss:
        s1, v1 = get[s][:-1], get[s][-1:]
        if get[s1] + v1 != s1 + v1 + v1:
            getget += 1
    putget = sum(1 for s in ss for v in vs if get[put[s + v]] != put[s + v] + v)

    assert check_law(U, "PutPut").residual == putput
    assert check_law(U, "RepeatUpdate").residual == repeat
    assert check_law(U, "GetPut").residual == getput
    assert check_law(U, "GetGet").residual == getget
    assert check_law(U, "PutGet").residual == putget


def test_linear_putput_residual_matches_direct_matrix_algebra():
    U = build_example("qubit_z_pvs")
    arr = np.array(U.put.array, copy=True)
    arr[0, 0] += 0.1
    U2 = U.with_components(put=Morphism(U.put.dom, U.put.cod, arr))
    lhs = arr @ np.kron(arr, np.eye(U.prop.dim))
    rhs = arr @ np.kron(np.eye(U.system.dim), U.mult.array)
    expected = float(np.linalg.norm(lhs - rhs))
    result = check_law(U2, "PutPut")
    assert abs(result.residual - expected) < 1e-12
    assert result.holds == (expected <= result.threshold)


# -- Faithful -------------------------------------------------------------


def test_faithful_distinguishes_identity_from_ignore_put():
    U = lens_to_update(identity_lens(V2))
    assert check_law(U, "Faithful").holds
    result = check_law(ignore_put_structure(), "Faithful")
    assert not result.holds
    assert result.residual == len(V2.elements) - 1  # one action for two views


@pytest.mark.parametrize("n_props, residual", [(0, 0.0), (2, 1.0)])
def test_faithful_on_an_empty_system(n_props, residual):
    # with no states every property acts as the empty map, so all actions agree
    s, v = SetType((FinSet(()),)), SetType((FinSet(tuple(f"v{i}" for i in range(n_props))),))
    U = UpdateStructure(
        system=s, prop=v, put=FinFunction(s @ v, s, {}), get=FinFunction(s, s @ v, {}),
        mult=projection(v @ v, 1), comult=diagonal(v),
    )
    result = check_law(U, "Faithful")
    assert (result.holds, result.residual) == (residual == 0, residual)


def test_faithful_rank_deficiency_on_linear_backend():
    # put = id (x) uniform-delete collapses every property direction
    # onto one action, leaving rank 1 out of dim p = 3
    s, p = TensorType((2,)), TensorType((3,))
    put = s.identity() @ Morphism(p, TensorType(()), np.ones((1, 3)))
    U = build_example("qubit_z_pvs")
    probe = UpdateStructure(
        system=s, prop=p, put=put,
        get=put.dagger(), mult=Morphism(p @ p, p, np.eye(3, 9)),
        comult=Morphism(p, p @ p, np.eye(9, 3)),
    )
    result = check_law(probe, "Faithful")
    assert not result.holds
    assert result.residual == 2.0
    assert check_law(U, "Faithful").holds


def test_faithful_rank_cutoff_follows_the_tolerance():
    # put(- (x) v0) = id and put(- (x) v1) = id + eps Z: the curried put
    # has singular values ~2 and ~eps
    s, p = TensorType((2,)), TensorType((2,))
    eps = 1e-6
    actions = [np.eye(2), np.eye(2) + eps * np.diag([1.0, -1.0])]
    arr = np.stack(actions, axis=-1).reshape(2, 4)  # column s*dp + v
    put = Morphism(s @ p, s, arr)
    probe = UpdateStructure(
        system=s, prop=p, put=put,
        get=put.dagger(), mult=Morphism(p @ p, p, np.eye(2, 4)),
        comult=Morphism(p, p @ p, np.eye(4, 2)),
    )
    singular = np.linalg.svd(arr.reshape(4, 2), compute_uv=False)
    assert singular.min() == pytest.approx(eps, rel=1e-3)
    assert check_law(probe, "Faithful").holds
    loose = check_law(probe, "Faithful", Tolerance(1e-3, 1e-3))
    assert not loose.holds and loose.residual == 1.0


@pytest.mark.parametrize("law", ["Faithful", "PutPut"])
def test_a_threshold_that_overflows_is_refused_by_the_rank_count_too(law):
    # 1 + 1e308 * norm(put) is inf: no singular value would be counted, and every
    # comparison would pass
    with pytest.raises(ValueError, match="threshold is not finite"):
        check_law(pair_of_pants_update(2), law, Tolerance(1.0, 1e308))


def test_faithful_verdict_does_not_depend_on_the_scale_of_put():
    # the sum of squares of 1e200 entries leaves the float range; put's norm does not
    U = pair_of_pants_update(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = check_law(U, "Faithful")
        scaled = check_law(U.with_components(put=1e200 * U.put), "Faithful")
    assert plain.holds
    assert (scaled.holds, scaled.residual) == (plain.holds, plain.residual)


# -- commutativity and trivials ------------------------------------------


def test_identity_lens_put_order_matters_but_reads_commute():
    U = lens_to_update(identity_lens(V2))
    assert not check_law(U, "CommutativePut").holds
    assert check_law(U, "CommutativeGet").holds


def test_applicable_laws_drop_missing_trivials():
    U = security_db(FinSet(("alice", "bob")))
    names = applicable_laws(U)
    assert "TrivialUpdate" not in names and "TrivialOutcome" not in names
    lens_update = lens_to_update(identity_lens(V2))  # embeds with a bang outcome
    names = applicable_laws(lens_update)
    assert "TrivialOutcome" in names and "TrivialUpdate" not in names
    assert applicable_laws(build_example("qubit_z_pvs")) == LAW_NAMES


def test_trivial_update_law_needs_the_component():
    U = security_db(FinSet(("alice", "bob")))
    with pytest.raises(StructureError):
        check_law(U, "TrivialUpdate")
    with pytest.raises(StructureError):
        check_law(U, "TrivialOutcome")


# -- derived implications -------------------------------------------------


def test_derived_vacuous_names_missing_trivial_update():
    U = security_db(FinSet(("alice", "bob")))
    result = verify_derived(U, "weak_trivial_implies_strong")
    assert result.status == "vacuous"
    assert "TrivialUpdate (no trivial update attached)" in result.failed_premises


def test_putget_idem_holds_on_weak_structure():
    U = security_db(FinSet(("alice", "bob", "carol")))
    result = verify_derived(U, "putget_idem")
    assert result.status == "holds" and result.residual == 0


def indexed(dom: SetType, cod: SetType, index: list[int]) -> FinFunction:
    """The function sending the i-th element of ``dom`` to the ``index[i]``-th of ``cod``."""
    cod_elements = cod.elements()
    return FinFunction(dom, cod, {x: cod_elements[i] for x, i in zip(dom.elements(), index)})


def indexed_structure(put, get, mult, comult, trivial_update=None) -> UpdateStructure:
    """A set structure on S = {s0, s1} and p = {a, b} from its tables in index form."""
    s, p, unit = SetType((FinSet(("s0", "s1")),)), SetType((V2,)), SetType(())
    return UpdateStructure(
        system=s, prop=p, put=indexed(s @ p, s, put), get=indexed(s, s @ p, get),
        mult=indexed(p @ p, p, mult), comult=indexed(p, p @ p, comult),
        trivial_update=None if trivial_update is None else indexed(unit, p, trivial_update))


@pytest.mark.parametrize("tables, prop, failing", [
    (([0, 1, 0, 1], [0, 1], [1, 0, 1, 0], [0, 1]), "putget_idem", {"PutPut"}),
    (([0, 1, 1, 0], [3, 1], [1, 0, 0, 1], [3, 1], [0]), "weak_trivial_implies_strong",
     {"PutPut", "GetGet"}),
])
def test_putput_and_getget_are_no_premise_of_idempotence_or_trivial_strength(
        tables, prop, failing):
    U = indexed_structure(*tables)
    assert failing <= {law for law in ("PutPut", "GetGet") if not check_law(U, law).holds}
    assert verify_derived(U, prop).status == "holds"


def test_weak_trivial_nonvacuous_on_spectrum_structure():
    U = build_example("qubit_z_pvs")
    result = verify_derived(U, "weak_trivial_implies_strong")
    assert result.status == "holds"
    assert result.failed_premises == ()
    assert result.residual < 1e-9


def test_derived_vacuous_on_failed_law_premise():
    U = ignore_put_structure()  # PutGet fails, so PutGetB does too
    result = verify_derived(U, "coassoc_under_put_from_B")
    assert result.status == "vacuous"
    assert "PutGetB" in result.failed_premises


def test_all_derived_props_resolve_on_a_strong_example():
    U = build_example("qubit_z_pvs")
    for prop_id in DERIVED_PROPS:
        result = verify_derived(U, prop_id)
        assert result.status in ("holds", "vacuous")
        if result.status == "holds":
            assert result.residual < 1e-9


def test_put_sees_algebra_laws_that_fail_on_the_nose():
    # ignore_put_lens_4 writes nothing, so put sees every two views alike:
    # its left-delete magma fails comm and unit, yet both hold through put
    U = build_example("ignore_put_lens_4")
    alg = Algebra(U.prop, U.mult, U.trivial_update)
    assert check_algebra(alg, "comm") == (False, 2.0, 0.0)
    assert check_algebra(alg, "unit") == (False, 1.0, 0.0)
    for prop in ("comm_under_put", "unit_under_put"):
        result = verify_derived(U, prop)
        assert (result.status, result.residual) == ("holds", 0.0), prop


def test_derived_fails_when_any_pair_fails(monkeypatch):
    # The pair with the larger residual holds at its own (norm-scaled)
    # threshold; the smaller-norm pair fails at its own.
    def two_pairs(U):
        return [
            (scalar(1e6), scalar(1e6 + 1e-5)),  # residual 1e-5, threshold ~1e-3: holds
            (scalar(1.0), scalar(1.0 + 1e-6)),  # residual 1e-6, threshold ~2e-9: fails
        ]

    U = build_example("qubit_z_pvs")
    premises, _ = structures._DERIVED["putget_idem"]
    monkeypatch.setitem(structures._DERIVED, "putget_idem", (premises, (two_pairs,)))
    result = verify_derived(U, "putget_idem")
    assert result.status == "fails"
    assert result.residual == pytest.approx(1e-5, rel=1e-3)


# -- errors and plumbing --------------------------------------------------


def test_unknown_names_raise():
    U = security_db(FinSet(("alice",)))
    with pytest.raises(StructureError):
        check_law(U, "PutGetZ")
    with pytest.raises(StructureError):
        verify_derived(U, "nonexistent_prop")


def test_with_components_revalidates():
    U = lens_to_update(identity_lens(V2))
    with pytest.raises(StructureError):
        U.with_components(put=U.get)  # wrong shape
    with pytest.raises(StructureError):
        U.with_components(prop=TensorType((2,)))  # matrix wire beside set wires


def test_system_identity_override_feeds_the_laws():
    U = security_db(FinSet(("alice", "bob")))
    e = U.get >> U.put  # image = breached stratum, idempotent
    split = U.with_components(system_identity=e)
    assert split.id_system() is e
    # GetPut now compares get;put against e itself, which holds on the nose
    assert not check_law(U, "GetPut").holds
    assert check_law(split, "GetPut").holds
    with pytest.raises(StructureError):
        U.with_components(system_identity=U.get)  # not an endomap


def test_check_laws_reports_in_canonical_order():
    U = build_example("qubit_z_pvs")
    results = check_laws(U)
    assert tuple(r.law for r in results) == LAW_NAMES
    strong_four = {r.law: r for r in results}
    for law in ("PutPut", "GetGet", "PutGet", "GetPut"):
        assert strong_four[law].holds


# -- the per-structure law profile -----------------------------------------


def test_each_law_is_evaluated_once_per_structure(monkeypatch):
    seen = []
    original = structures._law_sides

    def counting(U, law):
        seen.append((U, law))  # holding U keeps its id unique
        return original(U, law)

    monkeypatch.setattr(structures, "_law_sides", counting)
    report = run_example("pair_of_pants_3")
    assert report.matched
    keys = [(id(U), law) for U, law in seen]
    assert keys and len(keys) == len(set(keys))


def test_putgetb_is_the_stored_putget_verdict():
    for U in (build_example("pair_of_pants_2"), ignore_put_structure()):
        b, plain = check_law(U, "PutGetB"), check_law(U, "PutGet")
        assert b.law == "PutGetB" and plain.law == "PutGet"
        assert (b.holds, b.residual, b.threshold) == (plain.holds, plain.residual, plain.threshold)
    assert not check_law(ignore_put_structure(), "PutGetB").holds


def test_verdicts_are_memoised_per_tolerance(monkeypatch):
    U = build_example("pair_of_pants_2")
    calls = []
    original = structures._law_sides
    monkeypatch.setattr(structures, "_law_sides", lambda U, law: calls.append(law) or original(U, law))
    first = check_law(U, "PutPut")
    assert check_law(U, "PutPut", Tolerance()) is first  # equal tolerances share the entry
    loose = check_law(U, "PutPut", Tolerance(1e-3, 1e-3))
    assert calls == ["PutPut", "PutPut"]
    assert loose.threshold > first.threshold
    assert check_law(U, "PutPut", DEFAULT_TOL) is first


def test_a_name_that_is_no_law_is_refused_even_when_the_memo_holds_it():
    U = build_example("pair_of_pants_2")
    check_law(U, "PutPut")
    U.term("put_put")
    U.memo(("absorption", DEFAULT_TOL), dict)
    for name in ("put_put", "absorption", "p_self_adjoint", "Putput", "PutPut "):
        with pytest.raises(StructureError, match="unknown law"):
            check_law(U, name)
    for law in ("TrivialOutcome", "counit"):  # a law and an algebra law are refused alike
        with pytest.raises(StructureError, match="no trivial_outcome; law not applicable"):
            check_law(U, law)


@pytest.mark.parametrize("name", ["qubit_z_pvs", "qutrit_pvs", "pair_of_pants_3"])
def test_algebra_laws_on_the_nose_agree_with_the_algebra_record(name):
    U = build_example(name)
    alg = Algebra(U.prop, U.mult, U.trivial_update, U.comult, U.trivial_outcome)
    laws = [law for law in ("assoc", "coassoc", "unit", "counit", "comm", "cocomm", "special",
                            "frobenius", "dagger_frobenius")
            if law != "counit" or U.trivial_outcome is not None]
    for law in laws:
        mine, record = check_law(U, law), check_algebra(alg, law)
        assert mine.law == law
        assert (mine.holds, mine.residual, mine.threshold) == tuple(record), law
        assert check_law(U, law) is mine  # memoised like every other law
    assert U.term("assoc")[0][0].kept  # the sides were built from the structure's terms


def test_dagger_laws_of_a_set_structure_need_the_linear_backend():
    with pytest.raises(AlgebraError, match="linear backend"):
        check_law(build_example("identity_lens_4"), "dagger_frobenius")


def test_with_components_starts_with_an_empty_profile():
    U = lens_to_update(identity_lens(V2))
    assert check_law(U, "PutGet").holds
    s = U.system
    keep = FinFunction.from_callable(s @ U.prop, s, lambda x: x[0])  # put ignores the view
    changed = U.with_components(put=keep)
    assert not check_law(changed, "PutGet").holds
    assert check_law(U, "PutGet").holds


def test_weak_trivial_conclusion_is_the_stored_getput_verdict(monkeypatch):
    U = build_example("qubit_z_pvs")
    getput = check_law(U, "GetPut")
    for law in structures.WEAK_LAWS + ("TrivialUpdate",):
        check_law(U, law)
    compared = []
    monkeypatch.setattr(structures, "compare", lambda *args: compared.append(args))
    monkeypatch.setattr(structures, "compare_all", lambda *args: compared.append(args))
    result = verify_derived(U, "weak_trivial_implies_strong")
    assert compared == []  # premises and conclusion all come from the memo
    assert (result.status, result.residual) == ("holds", getput.residual)


def test_the_on_the_nose_conclusion_is_read_from_the_algebra_law_verdicts(monkeypatch):
    U = pair_of_pants_update(3)
    derived = {prop: verify_derived(U, prop) for prop in DERIVED_PROPS}
    assert derived["coassoc_under_faithful_putget"].status == "holds"
    compared = []
    original = tensors.compare
    monkeypatch.setattr(tensors, "compare",
                        lambda *args: compared.append(args) or original(*args))
    assoc, coassoc = check_law(U, "assoc"), check_law(U, "coassoc")
    assert compared == []  # the derived suite already compared both on the nose
    assert assoc.holds and coassoc.holds

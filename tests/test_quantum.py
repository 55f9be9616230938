import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putget.quantum import (
    PremiseError,
    PvsError,
    causal_lens_like_get,
    characterize_pvs,
    cpm_double,
    decoherence,
    double_structure,
    double_type,
    doubled_discard,
    getput_defect_formula,
    pair_of_pants_update,
    paired_dims,
    pvs_equations,
    pvs_from_projectors,
    pvs_to_update,
    quantum_db_causal,
    quantum_db_postselected,
    quantum_measurement,
    reduced_get,
    trace_preserving,
    transform_update,
)
from putget.karoubi import getput_restriction
from putget.lenses import identity_lens, lens_to_update
from putget.algebras import scfa_from_dimension
from putget.structures import StructureError, UpdateStructure, check_law, classify
from putget.tensors import Morphism, TensorType, UNIT, basis_effect, basis_state, compare, cup

seeds = st.integers(min_value=0, max_value=10**6)


def rand_morphism(rng, dom: TensorType, cod: TensorType) -> Morphism:
    shape = (cod.dim, dom.dim)
    return Morphism(dom, cod, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rand_unitary(rng, d: int) -> Morphism:
    t = TensorType((d,))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(a)
    return Morphism(t, t, q)


def qubit_z():
    t = TensorType((2,))
    return pvs_from_projectors(
        [Morphism(t, t, np.diag([1.0, 0.0])), Morphism(t, t, np.diag([0.0, 1.0]))]
    )


def qubit_x():
    t = TensorType((2,))
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    return pvs_from_projectors([Morphism(t, t, plus), Morphism(t, t, minus)])


def qutrit():
    t = TensorType((3,))
    return pvs_from_projectors([Morphism(t, t, np.diag(row)) for row in np.eye(3)])


def qutrit_degenerate():
    t = TensorType((3,))
    return pvs_from_projectors(
        [Morphism(t, t, np.diag([1.0, 1.0, 0.0])), Morphism(t, t, np.diag([0.0, 0.0, 1.0]))]
    )


# -- doubling -------------------------------------------------------------


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_doubling_is_functorial(seed):
    rng = np.random.default_rng(seed)
    a, b, c = TensorType((2,)), TensorType((3,)), TensorType((2, 2))
    f = rand_morphism(rng, a, b)
    g = rand_morphism(rng, b, c)
    assert cpm_double(f >> g).distance(cpm_double(f) >> cpm_double(g)) < 1e-9
    h = rand_morphism(rng, c, a)
    assert cpm_double(f @ h).distance(cpm_double(f) @ cpm_double(h)) < 1e-9
    assert cpm_double(a.identity()).distance(double_type(a).identity()) < 1e-12


def test_doubled_wires_interleave_per_factor():
    assert double_type(TensorType((2, 3))).factors == (2, 2, 3, 3)
    assert paired_dims(TensorType((2, 2, 3, 3))) == (2, 3)
    with pytest.raises(StructureError):
        paired_dims(TensorType((2, 3)))
    with pytest.raises(StructureError):
        paired_dims(TensorType((2,)))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_discarding_a_doubled_state_yields_its_norm(seed):
    rng = np.random.default_rng(seed)
    t = TensorType((3,))
    psi = rand_morphism(rng, UNIT, t)
    traced = cpm_double(psi) >> doubled_discard(double_type(t))
    assert abs(traced.array[0, 0] - psi.norm() ** 2) < 1e-9


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_doubled_unitaries_preserve_the_trace(seed):
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, 3)
    result = trace_preserving(cpm_double(u))
    assert result.holds and result.residual < 1e-9


def test_decoherence_is_an_idempotent_trace_preserving_projector():
    deco = decoherence(3)
    assert (deco >> deco).distance(deco) == 0.0
    assert deco.distance(deco.dagger()) == 0.0
    result = trace_preserving(deco)
    assert result.holds and result.residual < 1e-12


# -- spectra ----------------------------------------------------------------


def test_spectrum_stacks_projectors_along_the_outcome_wire():
    pvs = qubit_z()
    arr = pvs.structure.get.array.reshape(2, 2, 2)
    for i, p in enumerate(pvs.projectors):
        assert np.allclose(arr[:, i, :], p.array)


@pytest.mark.parametrize("make", [qubit_z, qubit_x, qutrit_degenerate])
def test_spectrum_equations_hold(make):
    pvs = make()
    results = pvs_equations(pvs)
    assert [r.law for r in results] == [
        "p_idempotent", "p_self_adjoint", "p_complete", "isometry", "projector_recovery",
    ]
    for r in results:
        assert r.holds, (r.law, r.residual)


def test_spectrum_equations_are_memoised_per_tolerance(monkeypatch):
    from putget import quantum, structures
    from putget.tensors import Tolerance

    pvs = qubit_z()  # validating the family evaluated them at the default tolerance
    first = pvs_equations(pvs)
    first.clear()  # callers get a copy, not the memo itself
    compared = []
    for module in (quantum, structures):
        original = module.compare
        monkeypatch.setattr(module, "compare",
                            lambda *args, original=original: compared.append(args) or original(*args))
    assert len(pvs_equations(pvs)) == 5 and compared == []
    loose = pvs_equations(pvs, Tolerance(1e-3, 1e-3))
    assert len(compared) == 4 and all(r.holds for r in loose)
    assert pvs_equations(pvs, Tolerance(1e-3, 1e-3)) == loose and len(compared) == 4


def test_spectrum_equations_are_the_structures_law_verdicts():
    pvs = qubit_z()
    U = pvs_to_update(pvs)
    assert U is pvs.structure and pvs_to_update(pvs) is U
    equations = {r.law: r for r in pvs_equations(pvs)}
    for name, law in (("p_idempotent", "GetGet"), ("p_complete", "TrivialOutcome"),
                      ("isometry", "GetPut")):
        verdict = check_law(U, law)
        assert (equations[name].holds, equations[name].residual) == (verdict.holds, verdict.residual)


def test_characterisation_reuses_the_spectrum_verdicts(monkeypatch):
    from putget import quantum, structures

    pvs = qubit_z()
    U = pvs_to_update(pvs)
    pvs_equations(pvs)
    for law in structures.LAW_NAMES:
        check_law(U, law)
    compared = []
    for module in (quantum, structures):
        original = module.compare
        monkeypatch.setattr(module, "compare",
                            lambda *args, original=original: compared.append(args) or original(*args))
    assert characterize_pvs(U) == (True, ())
    assert len(compared) == 1  # dagger symmetry; every equation is read from the memo


def test_projector_family_validation_names_the_problem():
    t = TensorType((2,))
    ident = t.identity()
    half = Morphism(t, t, np.diag([0.5, 0.0]))
    with pytest.raises(PvsError, match="not idempotent"):
        pvs_from_projectors([half, Morphism(t, t, np.diag([0.5, 1.0]))])
    skew = Morphism(t, t, np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PvsError, match="not self-adjoint"):
        pvs_from_projectors([skew])
    p0 = Morphism(t, t, np.diag([1.0, 0.0]))
    with pytest.raises(PvsError, match="not orthogonal"):
        pvs_from_projectors([p0, ident])
    with pytest.raises(PvsError, match="sum to the identity"):
        pvs_from_projectors([p0])
    with pytest.raises(PvsError, match="expected an endomap"):
        pvs_from_projectors([p0, Morphism(t, TensorType((4,)), np.zeros((4, 2)))])
    with pytest.raises(PvsError, match="at least one"):
        pvs_from_projectors([])


def test_an_incomplete_family_is_refused_by_name_and_residual():
    t = TensorType((2,))
    with pytest.raises(PvsError, match=r"p_complete fails, residual 1\.000e\+00: "
                                       "the projectors do not sum to the identity"):
        pvs_from_projectors([Morphism(t, t, np.diag([1.0, 0.0]))])


def test_a_family_is_validated_by_the_spectrum_equations_alone(monkeypatch):
    from dataclasses import replace

    from putget import quantum, structures, tensors
    from putget.quantum import ProjectorValuedSpectrum

    compared = []
    for module in (quantum, structures, tensors):
        original = module.compare
        monkeypatch.setattr(module, "compare",
                            lambda *args, original=original: compared.append(args) or original(*args))
    t = TensorType((3,))
    pvs = pvs_from_projectors([Morphism(t, t, np.diag(row)) for row in np.eye(3)])
    validating = len(compared)
    compared.clear()
    pvs_equations(pvs)
    assert compared == []  # the verdicts validation made are the memoised ones
    fresh = ProjectorValuedSpectrum(replace(pvs.structure), pvs.projectors)
    pvs_equations(fresh)
    assert validating == len(compared) > 0


@pytest.mark.parametrize("make", [qubit_z, qubit_x, qutrit_degenerate])
def test_spectrum_update_structure_is_strong(make):
    U = pvs_to_update(make())
    assert classify(U).kind == "strong"
    for law in ("TrivialUpdate", "TrivialOutcome", "Faithful", "CommutativePut"):
        assert check_law(U, law).holds, law


# -- measurements -----------------------------------------------------------


@pytest.mark.parametrize(
    "make, defect",
    [(qubit_z, np.sqrt(2.0)), (qubit_x, np.sqrt(2.0)), (qutrit_degenerate, 2.0)],
)
def test_measurement_is_weak_with_predicted_getput_defect(make, defect):
    pvs = make()
    U = quantum_measurement(pvs)
    verdict = classify(U)
    assert verdict.kind == "weak_only"
    residual = check_law(U, "GetPut").residual
    assert abs(residual - defect) < 1e-6
    assert abs(getput_defect_formula(pvs) - defect) < 1e-12


def test_the_defect_formula_reads_each_rank_as_a_trace():
    # within a loose tolerance of a rank-1 pair; an SVD rank would read [2, 1] and give NaN
    import warnings

    from putget.tensors import Tolerance

    t = TensorType((2,))
    family = [Morphism(t, t, np.diag([1.0, 1e-6])), Morphism(t, t, np.diag([0.0, 1.0 - 1e-6]))]
    pvs = pvs_from_projectors(family, Tolerance(1e-3, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert getput_defect_formula(pvs) == np.sqrt(2.0)
    measured = check_law(quantum_measurement(pvs), "GetPut").residual
    assert measured == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_measurement_read_is_causal_but_write_is_not():
    U = quantum_measurement(qubit_z())
    read = trace_preserving(U.get)
    assert read.holds and read.residual < 1e-9
    # undoing a measurement would need postselection
    write = trace_preserving(U.put)
    assert not write.holds and write.residual > 1e-6


def test_measurement_outcome_wire_is_classical():
    # decoherence is an exact 0/1 diagonal idempotent: both halves absorb it on the nose
    for make in (qubit_z, qubit_x, qutrit, qutrit_degenerate):
        pvs = make()
        U = quantum_measurement(pvs)
        deco = decoherence(len(pvs.projectors))
        ids = U.system.identity()
        assert (U.get >> (ids @ deco)).distance(U.get) == 0.0, make.__name__
        assert ((ids @ deco) >> U.put).distance(U.put) == 0.0, make.__name__


def test_doubling_a_spectrum_structure_keeps_it_strong():
    U = double_structure(pvs_to_update(qubit_z()))
    assert U.system_identity is None
    assert classify(U).kind == "strong"
    twice = double_structure(U)  # the doubled wires double again
    assert twice.system == TensorType((2, 2, 2, 2))
    assert classify(twice).kind == "strong"
    with pytest.raises(StructureError):
        double_structure(lens_to_update(identity_lens_for_tests()))


def identity_lens_for_tests():
    from putget.finsets import FinSet

    return identity_lens(FinSet(("a", "b")))


# -- transporting along an idempotent --------------------------------------


def test_transform_along_identity_changes_nothing():
    U = pvs_to_update(qubit_z())
    T = transform_update(U, U.prop.identity())
    for name in ("put", "get", "mult", "comult"):
        assert getattr(T, name).distance(getattr(U, name)) < 1e-12


def test_transform_drops_the_trivial_components():
    # They are not carried over as ``u ; m`` and ``m ; o``; see ROADMAP.
    U = pvs_to_update(qubit_z())
    assert U.trivial_update is not None and U.trivial_outcome is not None
    assert check_law(U, "TrivialUpdate").holds and check_law(U, "TrivialOutcome").holds
    T = transform_update(U, U.prop.identity())
    assert T.trivial_update is None and T.trivial_outcome is None
    with pytest.raises(StructureError, match="not applicable"):
        check_law(T, "TrivialUpdate")


def test_decoherence_and_cup_equal_their_loop_built_matrices():
    for d in range(1, 6):
        deco = np.zeros((d * d, d * d))
        bell = np.zeros((d * d, 1))
        for i in range(d):
            deco[i * d + i, i * d + i] = 1.0
            bell[i * d + i, 0] = 1.0
        assert np.array_equal(decoherence(d).array, deco)
        assert np.array_equal(cup(d).array, bell)


def test_transform_along_decoherence_reproduces_the_measurement():
    U = double_structure(pvs_to_update(qubit_z()))
    T = transform_update(U, decoherence(2))
    M = quantum_measurement(qubit_z())
    for name in ("put", "get", "mult", "comult"):
        assert getattr(T, name).distance(getattr(M, name)) < 1e-9
    assert classify(T).kind == "weak_only"


def test_transform_along_zero_degenerates_but_stays_weak():
    U = pvs_to_update(qubit_z())
    zero = Morphism(U.prop, U.prop, np.zeros((2, 2)))
    T = transform_update(U, zero)
    assert T.put.norm() == 0.0
    assert classify(T).kind == "weak_only"


def test_transform_premises_are_enforced():
    U = pvs_to_update(qubit_z())
    doubled = Morphism(U.prop, U.prop, 2.0 * np.eye(2))
    with pytest.raises(PremiseError) as exc:
        transform_update(U, doubled)
    assert "idempotent" in exc.value.residuals
    plus = Morphism(U.prop, U.prop, np.full((2, 2), 0.5))
    with pytest.raises(PremiseError) as exc:
        transform_update(U, plus)  # idempotent but no spider homomorphism
    assert set(exc.value.residuals) & {"magma_hom", "comagma_hom"}
    with pytest.raises(StructureError):
        transform_update(U, TensorType((3,)).identity())


# -- characterisation -------------------------------------------------------


def test_characterisation_accepts_spectrum_structures():
    for make in (qubit_z, qubit_x, qutrit_degenerate):
        ok, failing = characterize_pvs(pvs_to_update(make()))
        assert ok and failing == ()


def test_characterisation_names_failures():
    U = pvs_to_update(qubit_z())

    arr = np.array(U.put.array)
    arr[0, 0] += 0.1
    ok, failing = characterize_pvs(U.with_components(put=Morphism(U.put.dom, U.put.cod, arr)))
    assert not ok and "DaggerSymmetry" in failing

    ok, failing = characterize_pvs(pair_of_pants_update(2))
    assert not ok and "CommutativePut" in failing

    ok, failing = characterize_pvs(U.with_components(trivial_update=None))
    assert not ok and "TrivialUpdate (missing)" in failing

    with pytest.raises(StructureError):
        characterize_pvs(lens_to_update(identity_lens_for_tests()))


@st.composite
def spectra(draw, min_ranks: int = 1, max_dim: int = 4):
    """Orthogonal projectors as arrays: on d = 2..``max_dim``, a random unitary from the QR
    of a Gaussian, and a random partition of its columns into k >= ``min_ranks`` ranks."""
    d = draw(st.integers(2, max_dim))
    k = draw(st.integers(min_ranks, d))
    rng = np.random.default_rng(draw(seeds))
    q = rand_unitary(rng, d).array
    labels = rng.permutation(list(range(k)) + list(rng.integers(0, k, d - k)))
    return rng, [q[:, labels == i] @ q[:, labels == i].conj().T for i in range(k)]


def stacked_structure(projectors) -> UpdateStructure:
    """The structure with get the projectors stacked along an outcome wire, put its
    dagger, and the basis spider on the outcomes, built with no validation."""
    d, k = projectors[0].shape[0], len(projectors)
    s = TensorType((d,))
    get = Morphism(s, s @ TensorType((k,)), np.stack(projectors, axis=1).reshape(d * k, d))
    spider = scfa_from_dimension(k)
    return UpdateStructure(system=s, prop=spider.carrier, put=get.dagger(), get=get,
                           mult=spider.mult, comult=spider.comult,
                           trivial_update=spider.unit, trivial_outcome=spider.counit)


@given(spectra())
@settings(max_examples=100, deadline=None)
def test_characterisation_accepts_every_random_spectrum(drawn):
    _, projectors = drawn
    assert characterize_pvs(stacked_structure(projectors)) == (True, ())


def similar(rng, projectors):
    """Idempotents made non-orthogonal by one random similarity transform."""
    d = projectors[0].shape[0]
    s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return [s @ p @ np.linalg.inv(s) for p in projectors]


@pytest.mark.parametrize("perturb, failing", [
    (similar, ("PutGet", "GetPut")),
    (lambda rng, ps: ps[1:], ("GetPut", "TrivialUpdate", "TrivialOutcome")),
    (lambda rng, ps: ps + [np.zeros_like(ps[0])], ("Faithful",)),
], ids=["similarity", "dropped_projector", "extra_zero_outcome"])
@given(drawn=spectra(min_ranks=2))
@settings(max_examples=100, deadline=None)
def test_characterisation_names_exactly_the_conditions_a_perturbation_breaks(
        perturb, failing, drawn):
    rng, projectors = drawn
    assert characterize_pvs(stacked_structure(perturb(rng, projectors))) == (False, failing)


def same_parts(U: UpdateStructure, V: UpdateStructure,
               parts=("put", "get", "mult", "comult")) -> bool:
    return all(compare(getattr(U, name), getattr(V, name)).holds for name in parts)


def random_pvs(projectors):
    s = TensorType((projectors[0].shape[0],))
    return pvs_from_projectors(Morphism(s, s, p) for p in projectors)


@given(spectra(max_dim=3))
@settings(max_examples=20, deadline=None)
def test_the_projectors_read_off_a_spectrum_structure_rebuild_it(drawn):
    _, projectors = drawn
    U = stacked_structure(projectors)
    k = U.prop.dim
    recovered = [U.get >> (U.system.identity() @ basis_effect(k, i)) for i in range(k)]
    assert all(np.allclose(r.array, p, atol=1e-9) for r, p in zip(recovered, projectors))
    rebuilt = pvs_to_update(pvs_from_projectors(recovered))
    assert same_parts(rebuilt, U, ("put", "get", "mult", "comult", "trivial_update",
                                   "trivial_outcome"))


@given(spectra(max_dim=3))
@settings(max_examples=20, deadline=None)
def test_every_random_measurement_has_the_rank_formula_defect_and_splits_strong(drawn):
    pvs = random_pvs(drawn[1])
    M = quantum_measurement(pvs)
    # one projector is the identity, whose measurement writes and reads the whole store
    assert classify(M).kind == ("strong" if len(pvs.projectors) == 1 else "weak_only")
    assert check_law(M, "GetPut").residual == pytest.approx(getput_defect_formula(pvs), abs=1e-9)
    assert classify(getput_restriction(M).structure).kind == "strong"


@given(spectra(max_dim=3))
@settings(max_examples=20, deadline=None)
def test_transform_along_decoherence_reproduces_every_random_measurement(drawn):
    pvs = random_pvs(drawn[1])
    k = len(pvs.projectors)
    T = transform_update(double_structure(pvs_to_update(pvs)), decoherence(k))
    assert same_parts(T, quantum_measurement(pvs))


# -- pair of pants -----------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
@given(seeds)
@settings(max_examples=10, deadline=None)
def test_a_conjugated_pair_of_pants_is_no_spectrum_for_want_of_commutative_put(d, seed):
    # conjugating the system by a random unitary keeps every verdict, so the refusal names
    # CommutativePut, not only DaggerSymmetry (get is put's dagger over d)
    u = rand_unitary(np.random.default_rng(seed), d)
    U = pair_of_pants_update(d)
    p = U.prop.identity()
    V = U.with_components(put=(u.dagger() @ p) >> U.put >> u, get=u.dagger() >> U.get >> (u @ p))
    ok, failing = characterize_pvs(V)
    assert not ok and "CommutativePut" in failing


@pytest.mark.parametrize("d", [2, 3])
def test_pair_of_pants_update_is_strong_and_faithful(d):
    U = pair_of_pants_update(d)
    assert classify(U).kind == "strong"
    assert check_law(U, "Faithful").holds
    assert check_law(U, "TrivialUpdate").holds  # the Bell state writes nothing
    assert not check_law(U, "CommutativePut").holds


def test_pair_of_pants_get_scaling_is_forced():
    U = pair_of_pants_update(2)
    unscaled = U.with_components(get=U.put.dagger())
    assert not check_law(unscaled, "GetPut").holds
    assert not check_law(unscaled, "GetGet").holds


def test_pair_of_pants_put_is_matrix_application():
    d = 2
    U = pair_of_pants_update(d)
    # the property wires (j, k) encode the operator |k><j|, so (0, 1)
    # sends |0> to |1> ...
    raise_op = basis_state(d, 0) @ basis_state(d, 1)
    out = (basis_state(d, 0) @ raise_op) >> U.put
    assert out.distance(basis_state(d, 1)) < 1e-12
    # ... and annihilates |1>
    out = (basis_state(d, 1) @ raise_op) >> U.put
    assert out.norm() < 1e-12


# -- quantum databases -------------------------------------------------------


def test_postselected_database_is_strong_but_unphysical():
    U = quantum_db_postselected(2, 2)
    assert classify(U).kind == "strong"
    assert check_law(U, "TrivialOutcome").holds
    # the doubled write loses trace: deletion is a postselection
    write = trace_preserving(cpm_double(U.put))
    d1, d2 = 2, 2
    assert not write.holds
    assert abs(write.residual - np.sqrt(d1 * d2 * (d2**2 - d2))) < 1e-9


def test_postselected_database_with_point_register_is_harmless():
    # a one-dimensional stored register leaves nothing to delete
    U = quantum_db_postselected(3, 1)
    assert classify(U).kind == "strong"
    assert check_law(U, "PutGetA").holds
    write = trace_preserving(cpm_double(U.put))
    assert write.holds and write.residual < 1e-9


def test_causal_database_is_weak_and_trace_preserving():
    U = quantum_db_causal(2, 2)
    assert classify(U).kind == "weak_only"
    for arrow in (U.put, U.get):
        result = trace_preserving(arrow)
        assert result.holds and result.residual < 1e-9


def test_causal_read_dephases_only_the_stored_register():
    U = quantum_db_causal(2, 2)
    expected = TensorType((2, 2)).identity() @ decoherence(2)
    assert reduced_get(U).distance(expected) < 1e-9


def test_lens_shaped_read_dephases_the_whole_system():
    d1, d2 = 2, 2
    U = quantum_db_causal(d1, d2)
    lens_get = causal_lens_like_get(d1, d2)
    probe = U.with_components(get=lens_get)
    reduced = reduced_get(probe)
    assert reduced.distance(decoherence(d1) @ decoherence(d2)) < 1e-9
    # both reads still satisfy GetGet, so the difference is invisible
    # to repeated reading
    assert check_law(probe, "GetGet").holds


def test_reduced_get_needs_matrices():
    with pytest.raises(StructureError):
        reduced_get(lens_to_update(identity_lens_for_tests()))

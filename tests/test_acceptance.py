"""Acceptance suite: twelve end-to-end checks over the whole package.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``
or on failure) and asserts that no problem was recorded.  Tolerances are
stated inline; set-backed residuals are exact disagreement counts and
are compared with 0.
"""
import itertools
import random

import numpy as np

from putget.finsets import FinSet
from putget.karoubi import getput_restriction
from putget.lenses import (
    check_vwb,
    constant_complement_lens,
    lens_to_update,
    random_lens,
    trivial_update_separability,
    update_to_lens,
)
from putget.quantum import (
    causal_lens_like_get,
    characterize_pvs,
    decoherence,
    double_structure,
    getput_defect_formula,
    pair_of_pants_update,
    pvs_from_projectors,
    pvs_to_update,
    quantum_measurement,
    reduced_get,
    transform_update,
)
from putget.registry import REGISTRY, build_example, names
from putget.structures import applicable_laws, check_law, classify, verify_derived
from putget.tensors import Morphism, TensorType, basis_state, cup


def _verdict(number: int, label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    detail = "" if not problems else " -- " + "; ".join(problems[:4])
    print(f"{status} criterion {number:2d}: {label}{detail}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _diag_projector(d: int, ones) -> Morphism:
    t = TensorType((d,))
    return Morphism(t, t, np.diag([1.0 if i in ones else 0.0 for i in range(d)]))


def _qubit_z():
    return pvs_from_projectors([_diag_projector(2, {0}), _diag_projector(2, {1})])


def _qutrit():
    return pvs_from_projectors([_diag_projector(3, {i}) for i in range(3)])


def _lens_pool():
    """60 very well behaved lenses with |S| * |V| <= 64."""
    sizes = [
        (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
        (3, 3), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 1),
    ]
    pool = []
    for (nv, nr), seed in itertools.product(sizes, range(4)):
        view = FinSet(tuple(f"v{i}" for i in range(nv)))
        complement = FinSet(tuple(f"r{i}" for i in range(nr)))
        pool.append(constant_complement_lens(view, complement, random.Random(seed)))
    return pool


def test_criterion_01_spectrum_structures_are_strong():
    problems = []
    for name in ("qubit_z_pvs", "qutrit_pvs"):
        U = build_example(name)
        verdict = classify(U)
        if verdict.kind != "strong":
            problems.append(f"{name} classified {verdict.kind}")
        for law in ("PutPut", "GetGet", "PutGet", "GetPut"):
            residual = check_law(U, law).residual
            if residual >= 1e-9:
                problems.append(f"{name} {law} residual {residual:.3e}")
    _verdict(1, "projective spectra give strong structures", problems)


def test_criterion_02_measurement_getput_defect():
    problems = []
    for make, expected in ((_qubit_z, np.sqrt(2.0)), (_qutrit, np.sqrt(6.0))):
        pvs = make()
        U = quantum_measurement(pvs)
        verdict = classify(U)
        if verdict.kind != "weak_only":
            problems.append(f"dim {pvs.system.dim}: classified {verdict.kind}")
        repeat = check_law(U, "RepeatUpdate").residual
        if repeat >= 1e-9:
            problems.append(f"dim {pvs.system.dim}: RepeatUpdate residual {repeat:.3e}")
        residual = check_law(U, "GetPut").residual
        # independent oracle: the raw norm of get;put minus the identity
        direct = float(np.linalg.norm(
            U.put.array @ U.get.array - np.eye(U.system.dim)
        ))
        formula = getput_defect_formula(pvs)
        ranks = sum(int(np.linalg.matrix_rank(p.array)) ** 2 for p in pvs.projectors)
        by_hand = float(np.sqrt(pvs.system.dim**2 - ranks))
        for label, value, tol in (
            ("law residual", residual, 1e-6),
            ("direct norm", direct, 1e-6),
            ("rank formula", formula, 1e-12),
            ("recomputed formula", by_hand, 1e-12),
        ):
            if abs(value - expected) >= tol:
                problems.append(
                    f"dim {pvs.system.dim}: {label} {value:.9f} != {expected:.9f}"
                )
    _verdict(2, "decohered measurements are weak with defect sqrt(dS^2 - sum rank^2)", problems)


def test_criterion_03_lens_update_roundtrips_and_law_equivalence():
    problems = []
    pool = _lens_pool()
    if len(pool) < 50:
        problems.append(f"only {len(pool)} generated lenses")
    # broken lenses keep the iff nonvacuous in the failing direction
    rng = random.Random(99)
    extended = pool + [
        random_lens(FinSet(("s0", "s1", "s2")), FinSet(("a", "b")), rng)
        for _ in range(10)
    ]
    for k, lens in enumerate(extended):
        U = lens_to_update(lens)
        if lens in pool:
            back = update_to_lens(U)
            if back.get_fn.table != lens.get_fn.table or back.put_fn.table != lens.put_fn.table:
                problems.append(f"lens {k}: lens->update->lens roundtrip differs")
            again = lens_to_update(update_to_lens(U))
            for component in ("put", "get", "mult", "comult", "trivial_outcome"):
                if getattr(again, component).table != getattr(U, component).table:
                    problems.append(f"lens {k}: update->lens->update differs at {component}")
        report = check_vwb(lens)
        for lens_result, law in (
            (report.put_put, "PutPut"),
            (report.put_get, "PutGet"),
            (report.get_put, "GetPut"),
        ):
            update_result = check_law(U, law)
            if lens_result.holds != update_result.holds:
                problems.append(f"lens {k}: {law} holds {lens_result.holds} as lens, "
                                f"{update_result.holds} as update")
            if lens_result.residual != update_result.residual:
                problems.append(f"lens {k}: {law} residuals differ")
    _verdict(3, "lenses and updates are interconvertible law-for-law", problems)


def test_criterion_04_trivial_updates_force_separability():
    problems = []
    pool = _lens_pool()
    witnesses = 0
    for k, lens in enumerate(pool):
        report = trivial_update_separability(lens)
        if not report.has_trivial_update:
            continue
        witnesses += 1
        if len(lens.view.elements) >= 2 and not report.separable:
            problems.append(f"lens {k}: trivial update without s-preserving put")
        # a trivial update forces put = id x delete on the nose
        exact = all(
            lens.put_fn.table[(s, v)] == (s,)
            for s in lens.source.elements
            for v in lens.view.elements
        )
        if not exact:
            problems.append(f"lens {k}: put is not id x delete despite a witness")
    if witnesses == 0:
        problems.append("no lens in the pool had a trivial update")
    _verdict(4, "a trivial update exists only for state-preserving puts", problems)


def test_criterion_05_classification_implications_registry_wide():
    problems = []
    for name in names():
        U = build_example(name)
        verdict = classify(U)
        if verdict.kind == "strong":
            residual = check_law(U, "RepeatUpdate").residual
            if residual >= 1e-9:
                problems.append(f"{name}: strong but RepeatUpdate residual {residual:.3e}")
        weak = all(
            check_law(U, law).holds
            for law in ("PutPut", "GetGet", "PutGet", "RepeatUpdate")
        )
        if weak and U.trivial_update is not None and check_law(U, "TrivialUpdate").holds:
            residual = check_law(U, "GetPut").residual
            if residual >= 1e-9:
                problems.append(f"{name}: weak with trivial update but GetPut "
                                f"residual {residual:.3e}")
    _verdict(5, "strong implies RepeatUpdate; weak plus trivial update implies GetPut", problems)


def test_criterion_06_derived_implications_with_coverage():
    implications = (
        "coassoc_under_put_from_B",
        "assoc_under_get_from_C",
        "frobenius_under_put_from_BC",
        "comm_under_put",
        "unit_under_put",
    )
    problems = []
    exercised = {prop: 0 for prop in implications}
    for name in names():
        U = build_example(name)
        for prop in implications:
            result = verify_derived(U, prop)
            if result.status == "fails":
                problems.append(f"{name}: {prop} fails with residual {result.residual:.3e}")
            elif result.status == "holds":
                exercised[prop] += 1
                if result.residual >= 1e-9:
                    problems.append(f"{name}: {prop} residual {result.residual:.3e}")
    for prop, count in exercised.items():
        if count < 3:
            problems.append(f"{prop} exercised by only {count} structures")
    _verdict(6, "derived algebra implications hold wherever their premises do", problems)


def test_criterion_07_spectrum_characterisation():
    problems = []
    for name in ("qubit_z_pvs", "qubit_x_pvs", "qutrit_pvs"):
        ok, failing = characterize_pvs(build_example(name))
        if not ok:
            problems.append(f"{name} rejected: {failing}")
    U = pvs_to_update(_qubit_z())

    arr = np.array(U.put.array)
    arr[0, 0] += 0.1
    ok, failing = characterize_pvs(U.with_components(put=Morphism(U.put.dom, U.put.cod, arr)))
    if ok or not failing:
        problems.append("perturbed put accepted or unexplained")

    ok, failing = characterize_pvs(pair_of_pants_update(2))
    if ok or "CommutativePut" not in failing:
        problems.append(f"noncommutative example should name CommutativePut, got {failing}")

    ok, failing = characterize_pvs(U.with_components(trivial_update=None))
    if ok or "TrivialUpdate (missing)" not in failing:
        problems.append(f"missing trivial update should be named, got {failing}")
    _verdict(7, "spectrum characterisation accepts spectra and names failures", problems)


def test_criterion_08_pair_of_pants():
    problems = []
    for d in (2, 3, 4):
        U = pair_of_pants_update(d)
        verdict = classify(U)
        if verdict.kind != "strong":
            problems.append(f"d={d}: classified {verdict.kind}")
        if not check_law(U, "Faithful").holds:
            problems.append(f"d={d}: not faithful")
        if U.trivial_update.distance(cup(d)) != 0 or not check_law(U, "TrivialUpdate").holds:
            problems.append(f"d={d}: Bell state is not a trivial update")
        if check_law(U, "CommutativePut").holds:
            problems.append(f"d={d}: writes unexpectedly commute")
    # explicit witness at d = 2: the raising matrix (0,1) then the
    # lowering matrix (1,0) fixes |0>, the opposite order annihilates it
    U = pair_of_pants_update(2)
    raising = basis_state(2, 0) @ basis_state(2, 1)
    lowering = basis_state(2, 1) @ basis_state(2, 0)

    def write_twice(first, second):
        once = (basis_state(2, 0) @ first) >> U.put
        return (once @ second) >> U.put

    one_way = write_twice(raising, lowering)
    other_way = write_twice(lowering, raising)
    if one_way.distance(basis_state(2, 0)) > 1e-12 or other_way.norm() > 1e-12:
        problems.append("witness for noncommuting writes did not behave as computed")
    _verdict(8, "matrix stores are strong, faithful and order-sensitive", problems)


def test_criterion_09_security_database():
    problems = []
    U = build_example("security_db_3")
    verdict = classify(U)
    if verdict.kind != "weak_only":
        problems.append(f"classified {verdict.kind}")
    e = U.get >> U.put
    disagreements = set(e.disagreements(U.system.identity()))
    safe = {(w, "safe") for w in ("alice", "bob", "carol")}
    if disagreements != safe:
        problems.append(f"GetPut disagreement set {sorted(disagreements)} != safe stratum")
    R = getput_restriction(U).structure
    for law in ("PutPut", "GetGet", "PutGet", "GetPut", "RepeatUpdate"):
        result = check_law(R, law)
        if not result.holds or result.residual != 0:
            problems.append(f"restriction fails {law} (residual {result.residual})")
    _verdict(9, "read-flagging databases break GetPut exactly on safe states", problems)


def test_criterion_10_quantum_databases():
    problems = []
    U = build_example("quantum_db_postselected_2_2")
    verdict = classify(U)
    if verdict.kind != "strong":
        problems.append(f"postselected: classified {verdict.kind}")
    for law in ("PutPut", "GetGet", "PutGet", "GetPut"):
        residual = check_law(U, law).residual
        if residual >= 1e-9:
            problems.append(f"postselected: {law} residual {residual:.3e}")

    C = build_example("quantum_db_causal_2_2")
    verdict = classify(C)
    if verdict.kind != "weak_only":
        problems.append(f"causal: classified {verdict.kind}")
    partial = reduced_get(C).distance(TensorType((2, 2)).identity() @ decoherence(2))
    if partial >= 1e-9:
        problems.append(f"causal reduced read residual {partial:.3e}")
    lens_like = C.with_components(get=causal_lens_like_get(2, 2))
    full = reduced_get(lens_like).distance(decoherence(2) @ decoherence(2))
    if full >= 1e-9:
        problems.append(f"lens-shaped reduced read residual {full:.3e}")
    _verdict(10, "quantum databases: postselected strong, causal weak with dephasing reads", problems)


def test_criterion_11_transport_reproduces_the_measurement():
    problems = []
    T = transform_update(double_structure(pvs_to_update(_qubit_z())), decoherence(2))
    M = quantum_measurement(_qubit_z())
    if applicable_laws(T) != applicable_laws(M):
        problems.append("law sets differ")
    for law in applicable_laws(T):
        a, b = check_law(T, law), check_law(M, law)
        if a.holds != b.holds:
            problems.append(f"{law}: transported holds {a.holds}, measured {b.holds}")
        if abs(a.residual - b.residual) >= 1e-6:
            problems.append(f"{law}: residuals {a.residual:.3e} vs {b.residual:.3e}")
    _verdict(11, "transporting along decoherence equals measuring, law for law", problems)


def test_criterion_12_weak_structures_split_strongly():
    problems = []
    weak_names = [n for n in names() if REGISTRY[n].expected == "weak_only"]
    if len(weak_names) < 5:
        problems.append(f"only {len(weak_names)} weak examples registered")
    for name in weak_names:
        U = build_example(name)
        e = U.get >> U.put
        idem = (e >> e).distance(e)
        if idem >= 1e-9:
            problems.append(f"{name}: e;e != e (residual {idem:.3e})")
        R = getput_restriction(U).structure
        verdict = classify(R)
        if verdict.kind != "strong":
            problems.append(f"{name}: restriction classified {verdict.kind}")
        for law in ("PutPut", "GetGet", "PutGet", "GetPut", "RepeatUpdate"):
            residual = check_law(R, law).residual
            if residual >= 1e-9:
                problems.append(f"{name}: restriction {law} residual {residual:.3e}")
    _verdict(12, "every weak example restricts to a strong structure on its stable states", problems)

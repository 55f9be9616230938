"""Doubled (CPM) wires, projective spectra and quantum update structures.

A pure map f is doubled to ``f (x) conj(f)`` with the conjugate factor
interleaved next to its original, so a wire of dimension d becomes the
adjacent pair ``(d, d)`` and doubling commutes with both composition
and tensoring.  Density matrices on d live on such a pair via row-major
vectorisation; ``decoherence(d)`` projects onto their diagonal.

Projector-valued spectra package a complete family of orthogonal
projectors as a single map ``S -> S (x) p`` whose outcome wire carries
the basis spider.  Undoubled they give strong update structures; after
doubling and decohering the outcome wire they give genuinely weak
measurement structures whose GetPut defect is exactly
``sqrt(dim(S)^2 - sum_i rank(P_i)^2)``.

Scalar conventions: the pair-of-pants read map and comagma carry a 1/d
so that GetGet and GetPut hold on the nose; the postselected database
deletes the stale register with the uniform effect, which is why its
doubled write map fails trace preservation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import (
    FrobeniusAlgebra,
    check_algebra,
    pair_of_pants,
    scfa_from_dimension,
)
from .structures import (
    LawCheckResult,
    StructureError,
    UpdateStructure,
    check_law,
)
from .tensors import (
    DEFAULT_TOL,
    Morphism,
    TensorType,
    Tolerance,
    basis_effect,
    cap,
    compare,
    compare_all,
)

__all__ = [
    "PremiseError",
    "PvsError",
    "double_type",
    "paired_dims",
    "cpm_double",
    "decoherence",
    "doubled_discard",
    "trace_preservation_defect",
    "double_structure",
    "transform_update",
    "ProjectorValuedSpectrum",
    "pvs_from_projectors",
    "pvs_equations",
    "pvs_to_update",
    "QuantumMeasurement",
    "quantum_measurement",
    "getput_defect_formula",
    "characterize_pvs",
    "pair_of_pants_update",
    "quantum_db_postselected",
    "quantum_db_causal",
    "reduced_get",
    "causal_lens_like_get",
]


class PremiseError(ValueError):
    """A construction premise fails; carries the offending residuals."""

    def __init__(self, message: str, residuals: dict[str, float]):
        super().__init__(f"{message}: " + ", ".join(f"{k}={v:.3e}" for k, v in residuals.items()))
        self.residuals = residuals


class PvsError(ValueError):
    """The given projector family is not a valid spectrum."""


# -- doubling ------------------------------------------------------------


def double_type(t: TensorType) -> TensorType:
    return TensorType(sum(((d, d) for d in t.factors), ()))


def paired_dims(t: TensorType) -> tuple[int, ...]:
    """The base dimensions of a doubled type; rejects unpaired factor lists."""
    f = t.factors
    if len(f) % 2 or any(f[2 * i] != f[2 * i + 1] for i in range(len(f) // 2)):
        raise StructureError(f"{t} is not a doubled type (interleaved equal pairs)")
    return tuple(f[2 * i] for i in range(len(f) // 2))


def cpm_double(f: Morphism) -> Morphism:
    """Double a pure map: ``f (x) conj(f)`` with per-wire interleaving."""
    cod_f, dom_f = f.cod.factors, f.dom.factors
    n, m = len(cod_f), len(dom_f)
    arr = np.kron(f.array, f.array.conj()).reshape(cod_f + cod_f + dom_f + dom_f)
    cod_perm = [k for i in range(n) for k in (i, n + i)]
    dom_perm = [2 * n + k for i in range(m) for k in (i, m + i)]
    arr = arr.transpose(cod_perm + dom_perm)
    dom2, cod2 = double_type(f.dom), double_type(f.cod)
    return Morphism(dom2, cod2, arr.reshape(cod2.dim, dom2.dim))


def decoherence(d: int) -> Morphism:
    """Projection of a doubled wire onto its diagonal (classical) states."""
    t = TensorType((d, d))
    m = np.zeros((d * d, d * d))
    for i in range(d):
        m[i * d + i, i * d + i] = 1.0
    return Morphism(t, t, m)


def doubled_discard(t: TensorType) -> Morphism:
    """The trace effect on a doubled type: one Bell effect per wire pair."""
    eff = Morphism(TensorType(()), TensorType(()), np.array([[1.0]]))
    for d in paired_dims(t):
        eff = eff @ cap(d)
    return eff


def trace_preservation_defect(f: Morphism) -> float:
    """How far a doubled map is from preserving the trace."""
    return (f >> doubled_discard(f.cod)).distance(doubled_discard(f.dom))


def double_structure(U: UpdateStructure) -> UpdateStructure:
    """Apply the doubling functor to every component of a pure structure."""
    if U.backend != "linear":
        raise StructureError(f"can only double a 'linear' structure, got {U.backend!r}")
    lift = lambda a: None if a is None else cpm_double(a)
    return UpdateStructure(
        backend="doubled",
        system=double_type(U.system),
        prop=double_type(U.prop),
        put=cpm_double(U.put),
        get=cpm_double(U.get),
        mult=cpm_double(U.mult),
        comult=cpm_double(U.comult),
        trivial_update=lift(U.trivial_update),
        trivial_outcome=lift(U.trivial_outcome),
    )


def transform_update(U: UpdateStructure, m, tol: Tolerance = DEFAULT_TOL) -> UpdateStructure:
    """Push a structure through an idempotent (co)magma endomorphism m.

    put and get absorb m on the property wire; mult and comult are
    conjugated by it.  The premise -- m idempotent, a magma and a
    comagma homomorphism -- is verified first, and the result is
    re-verified to be at least weak.
    """
    if m.dom != U.prop or m.cod != U.prop:
        raise StructureError(f"m must be an endomap of {U.prop}, got {m.dom} -> {m.cod}")
    premises = {
        "idempotent": compare(m >> m, m, tol),
        "magma_hom": compare(U.mult >> m, (m @ m) >> U.mult, tol),
        "comagma_hom": compare(m >> U.comult, U.comult >> (m @ m), tol),
    }
    bad = {k: r.residual for k, r in premises.items() if not r.holds}
    if bad:
        raise PremiseError("m is not an idempotent magma/comagma homomorphism", bad)
    ids = U.system.identity()
    transported = UpdateStructure(
        backend=U.backend,
        system=U.system,
        prop=U.prop,
        put=(ids @ m) >> U.put,
        get=U.get >> (ids @ m),
        mult=(m @ m) >> U.mult >> m,
        comult=m >> U.comult >> (m @ m),
    )
    failing = {
        law: r.residual
        for law in ("PutPut", "GetGet", "PutGet", "RepeatUpdate")
        if not (r := check_law(transported, law, tol)).holds
    }
    if failing:
        raise PremiseError("transported structure is not weak", failing)
    return transported


# -- projector-valued spectra ---------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectorValuedSpectrum:
    """A complete orthogonal projector family bundled as ``S -> S (x) p``."""

    spectrum: Morphism
    algebra: FrobeniusAlgebra
    projectors: tuple[Morphism, ...]

    @property
    def system(self) -> TensorType:
        return self.spectrum.dom

    @property
    def outcomes(self) -> TensorType:
        return self.algebra.carrier


def pvs_from_projectors(
    projectors, tol: Tolerance = DEFAULT_TOL
) -> ProjectorValuedSpectrum:
    """Validate a projector family and assemble its spectrum map."""
    projectors = tuple(projectors)
    if not projectors:
        raise PvsError("need at least one projector")
    s = projectors[0].dom
    problems = []
    for i, p in enumerate(projectors):
        if p.dom != s or p.cod != s:
            raise PvsError(f"projector {i} is {p.dom} -> {p.cod}, expected an endomap of {s}")
        if not compare(p >> p, p, tol).holds:
            problems.append(f"projector {i} is not idempotent")
        if not compare(p, p.dagger(), tol).holds:
            problems.append(f"projector {i} is not self-adjoint")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if not compare(projectors[i] >> projectors[j], 0.0 * projectors[i], tol).holds:
                problems.append(f"projectors {i} and {j} are not orthogonal")
    total = projectors[0]
    for p in projectors[1:]:
        total = total + p
    if not compare(total, s.identity(), tol).holds:
        problems.append("projectors do not sum to the identity")
    if problems:
        raise PvsError("; ".join(problems))
    k = len(projectors)
    arr = np.zeros((s.dim * k, s.dim), dtype=np.complex128)
    view = arr.reshape(s.dim, k, s.dim)
    for i, p in enumerate(projectors):
        view[:, i, :] = p.array
    spectrum = Morphism(s, s @ TensorType((k,)), arr)
    pvs = ProjectorValuedSpectrum(spectrum, scfa_from_dimension(k), projectors)
    bad = [r.law for r in pvs_equations(pvs, tol) if not r.holds]
    if bad:  # cannot happen for a family passing the checks above
        raise PvsError(f"spectrum equations fail: {bad}")
    return pvs


def _spectrum_equations(spec, comult, unit, counit) -> dict:
    """The three defining equations of a spectrum ``spec`` whose outcome wire
    carries the given spider components, as name -> (lhs, rhs)."""
    ids = spec.dom.identity()
    idp = comult.dom.identity()
    return {
        "p_idempotent": (spec >> (spec @ idp), spec >> (ids @ comult)),
        "p_self_adjoint": (spec, (ids @ (unit >> comult)) >> (spec.dagger() @ idp)),
        "p_complete": (spec >> (ids @ counit), ids),
    }


def pvs_equations(pvs: ProjectorValuedSpectrum, tol: Tolerance = DEFAULT_TOL) -> list[LawCheckResult]:
    """The defining equations of a spectrum, plus isometry and recovery."""
    spec = pvs.spectrum
    alg = pvs.algebra
    ids = spec.dom.identity()
    k = alg.carrier.dim
    equations = _spectrum_equations(spec, alg.comult, alg.unit, alg.counit)
    equations["isometry"] = (spec >> spec.dagger(), ids)
    out = [LawCheckResult(name, *compare(lhs, rhs, tol)) for name, (lhs, rhs) in equations.items()]
    recovery = [(spec >> (ids @ basis_effect(k, i)), p) for i, p in enumerate(pvs.projectors)]
    out.append(LawCheckResult("projector_recovery", *compare_all(recovery, tol)))
    return out


def pvs_to_update(pvs: ProjectorValuedSpectrum) -> UpdateStructure:
    """The strong structure with get the spectrum and put its dagger."""
    alg = pvs.algebra
    return UpdateStructure(
        backend="linear",
        system=pvs.system,
        prop=alg.carrier,
        put=pvs.spectrum.dagger(),
        get=pvs.spectrum,
        mult=alg.mult,
        comult=alg.comult,
        trivial_update=alg.unit,
        trivial_outcome=alg.counit,
    )


@dataclass(frozen=True, eq=False)
class QuantumMeasurement:
    """A doubled spectrum with a decohered outcome wire, read and write."""

    read_out: Morphism
    write_in: Morphism
    structure: UpdateStructure


def quantum_measurement(pvs: ProjectorValuedSpectrum, tol: Tolerance = DEFAULT_TOL) -> QuantumMeasurement:
    """The weak measurement structure of a spectrum.

    Reading doubles the spectrum and decoheres the outcome; writing is
    its dagger.  The magma and comagma are the doubled spider conjugated
    by the same decoherence, so the property wire is fully classical.
    """
    k = pvs.algebra.carrier.dim
    deco = decoherence(k)
    system2 = double_type(pvs.system)
    ids2 = system2.identity()
    read_out = cpm_double(pvs.spectrum) >> (ids2 @ deco)
    write_in = read_out.dagger()
    invariance = compare_all(
        [(read_out >> (ids2 @ deco), read_out), ((ids2 @ deco) >> write_in, write_in)], tol)
    if not invariance.holds:
        raise StructureError(
            f"outcome wire is not decoherence-invariant (residual {invariance.residual:.3e})")
    structure = UpdateStructure(
        backend="doubled",
        system=system2,
        prop=double_type(pvs.algebra.carrier),
        put=write_in,
        get=read_out,
        mult=(deco @ deco) >> cpm_double(pvs.algebra.mult) >> deco,
        comult=deco >> cpm_double(pvs.algebra.comult) >> (deco @ deco),
    )
    return QuantumMeasurement(read_out, write_in, structure)


def getput_defect_formula(pvs: ProjectorValuedSpectrum) -> float:
    """Predicted GetPut residual of the measurement structure."""
    ranks = [int(np.linalg.matrix_rank(p.array)) for p in pvs.projectors]
    return float(np.sqrt(pvs.system.dim**2 - sum(r * r for r in ranks)))


_PVS_CONDITIONS = ("PutPut", "GetGet", "PutGet", "GetPut", "TrivialUpdate", "TrivialOutcome",
                   "Faithful", "CommutativePut")


def characterize_pvs(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, tuple[str, ...]]:
    """Decide whether U is the update structure of some spectrum.

    A dagger-symmetric tuple is spectrum-shaped exactly when it is
    strong, faithful, put-commutative and has both trivial components.
    Returns the verdict with the names of any failing conditions; when
    the conditions all pass the derived algebra and spectrum equations
    are re-verified so both directions of the equivalence are checked.
    """
    if isinstance(U.system, TensorType) is False:
        raise StructureError("characterisation needs a linear or doubled structure")
    failing = []
    if not compare(U.get, U.put.dagger(), tol).holds:
        failing.append("DaggerSymmetry")
    if U.trivial_update is None:
        failing.append("TrivialUpdate (missing)")
    if U.trivial_outcome is None:
        failing.append("TrivialOutcome (missing)")
    for law in _PVS_CONDITIONS:
        if law == "TrivialUpdate" and U.trivial_update is None:
            continue
        if law == "TrivialOutcome" and U.trivial_outcome is None:
            continue
        if not check_law(U, law, tol).holds:
            failing.append(law)
    if failing:
        return False, tuple(failing)
    # Conditions hold: the property must now carry the basis spider and
    # get must satisfy the spectrum equations.  Any failure here is an
    # inconsistency and is reported rather than swallowed.
    alg = FrobeniusAlgebra(U.prop, U.mult, U.trivial_update, U.comult, U.trivial_outcome)
    for law in ("assoc", "coassoc", "unit", "counit", "comm", "special", "frobenius",
                "dagger_frobenius"):
        ok, _ = check_algebra(alg, law, tol)
        if not ok:
            failing.append(f"derived algebra fails {law}")
    eqs = _spectrum_equations(U.get, U.comult, U.trivial_update, U.trivial_outcome)
    for name, (lhs, rhs) in eqs.items():
        if not compare(lhs, rhs, tol).holds:
            failing.append(f"spectrum equation {name}")
    return not failing, tuple(failing)


# -- worked quantum structures ---------------------------------------------


def pair_of_pants_update(d: int) -> UpdateStructure:
    """Matrices acting on themselves: put is evaluation, get its scaled dagger.

    The property wire ``[d, d]`` holds a matrix; putting applies it to
    the system state and getting emits, uniformly, every matrix mapping
    the system state anywhere.  Strong and faithful but not
    put-commutative, with the Bell state as trivial update.
    """
    wire = TensorType((d,))
    magma, comagma = pair_of_pants(d)
    put = cap(d) @ wire.identity()
    get = (1.0 / d) * put.dagger()
    return UpdateStructure(
        backend="linear",
        system=wire,
        prop=magma.carrier,
        put=put,
        get=get,
        mult=magma.mult,
        comult=comagma.comult,
        trivial_update=magma.unit,
    )


def quantum_db_postselected(d1: int, d2: int) -> UpdateStructure:
    """A two-register database whose write deletes by postselection.

    get copies the second register through the spider; put installs the
    new value after deleting the stale one with the uniform effect.
    Strong as written, but the doubled put does not preserve the trace:
    running it physically would require postselecting the deletion.
    """
    first = TensorType((d1,)).identity()
    second = TensorType((d2,)).identity()
    spider = scfa_from_dimension(d2)
    delete = spider.counit
    return UpdateStructure(
        backend="linear",
        system=TensorType((d1, d2)),
        prop=TensorType((d2,)),
        put=first @ delete @ second,
        get=first @ spider.comult,
        mult=delete @ second,
        comult=spider.comult,
        trivial_outcome=spider.counit,
    )


def quantum_db_causal(d1: int, d2: int) -> UpdateStructure:
    """The physical (trace-preserving) doubled database.

    The write discards the stale register outright and installs the
    decohered new value; the read is the doubled copy with a decohered
    outcome wire.  Weak only: reading leaves the second register
    dephased, which is exactly the reduced process of get.
    """
    deco = decoherence(d2)
    spider = scfa_from_dimension(d2)
    system = TensorType((d1, d1, d2, d2))
    read = cpm_double(TensorType((d1,)).identity() @ spider.comult) >> (system.identity() @ deco)
    return UpdateStructure(
        backend="doubled",
        system=system,
        prop=TensorType((d2, d2)),
        put=TensorType((d1, d1)).identity() @ cap(d2) @ deco,
        get=read,
        mult=cap(d2) @ deco,
        comult=deco >> cpm_double(spider.comult) >> (deco @ deco),
    )


def reduced_get(U: UpdateStructure) -> Morphism:
    """The system-side process of a doubled get: trace out the outcome."""
    if not isinstance(U.get, Morphism):
        raise StructureError("reduced processes only exist on doubled structures")
    return U.get >> (U.system.identity() @ doubled_discard(U.prop))


def causal_lens_like_get(d1: int, d2: int) -> Morphism:
    """A lens-shaped read for the causal database: copy all, project away S1.

    Its reduced process decoheres the *entire* system, not just the
    second register -- copying classically is maximally invasive.
    """
    system = TensorType((d1, d1, d2, d2))
    copy_all = scfa_from_dimension(d1 * d2).comult.array
    delta = Morphism(TensorType((d1, d2)), TensorType((d1, d2, d1, d2)), copy_all)
    deco_s = decoherence(d1) @ decoherence(d2)
    broadcast = deco_s >> cpm_double(delta) >> (deco_s @ deco_s)
    keep_second = cap(d1) @ TensorType((d2, d2)).identity()
    return broadcast >> (system.identity() @ keep_second)

"""Doubled (CPM) wires, projective spectra and quantum update structures.

A pure map f is doubled to ``f (x) conj(f)`` with the conjugate factor
interleaved next to its original, so a wire of dimension d becomes the
adjacent pair ``(d, d)`` and doubling commutes with both composition
and tensoring; ``double_type`` and ``double_blocks`` in
:mod:`putget.tensors` hold that convention.  Density matrices on d live
on such a pair via row-major vectorisation; ``decoherence(d)`` projects
onto their diagonal.  A doubled map is causal when followed by the
trace it is the trace; ``trace_preserving(f, tol)`` decides that.

Projector-valued spectra package a complete family of orthogonal
projectors as a single map ``S -> S (x) p`` whose outcome wire carries
the basis spider.  Undoubled they give strong update structures, and a
spectrum is held as its structure, whose GetGet and TrivialOutcome are
its equations beside self-adjointness; the structure's memo keeps the
equations beside its verdicts.  Doubled with a decohered outcome wire,
``quantum_measurement`` gives a genuinely weak structure (get reads out,
put writes in) whose GetPut defect is ``sqrt(dim(S)^2 - sum_i rank(P_i)^2)``.

Scalar conventions: the pair-of-pants read map and comagma carry a 1/d
so that GetGet and GetPut hold on the nose; the postselected database
deletes the stale register with the uniform effect, which is why its
doubled write map fails trace preservation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebras import pair_of_pants, scfa_from_dimension
from .structures import (
    WEAK_LAWS,
    LawCheckResult,
    StructureError,
    UpdateStructure,
    applicable_laws,
    check_law,
)
from .tensors import (
    DEFAULT_TOL,
    Comparison,
    Morphism,
    TensorType,
    Tolerance,
    basis_effect,
    cap,
    compare,
    compare_all,
    double_blocks,
    double_type,
)

__all__ = [
    "PremiseError",
    "PvsError",
    "double_type",
    "paired_dims",
    "cpm_double",
    "decoherence",
    "doubled_discard",
    "trace_preserving",
    "double_structure",
    "transform_update",
    "ProjectorValuedSpectrum",
    "pvs_from_projectors",
    "pvs_equations",
    "pvs_to_update",
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


def paired_dims(t: TensorType) -> tuple[int, ...]:
    """The base dimensions of a doubled type; rejects unpaired factor lists."""
    f = t.factors
    if len(f) % 2 or any(f[2 * i] != f[2 * i + 1] for i in range(len(f) // 2)):
        raise StructureError(f"{t} is not a doubled type (interleaved equal pairs)")
    return tuple(f[2 * i] for i in range(len(f) // 2))


def cpm_double(f: Morphism) -> Morphism:
    """Double a pure map, block by block (see :func:`putget.tensors.double_blocks`)."""
    return double_blocks(f)


def decoherence(d: int) -> Morphism:
    """Projection of a doubled wire onto its diagonal (classical) states."""
    t = TensorType((d, d))
    return Morphism(t, t, np.diag(np.eye(d).reshape(d * d)))


def doubled_discard(t: TensorType) -> Morphism:
    """The trace effect on a doubled type: one Bell effect per wire pair."""
    eff = Morphism(TensorType(()), TensorType(()), np.array([[1.0]]))
    for d in paired_dims(t):
        eff = eff @ cap(d)
    return eff


def trace_preserving(f: Morphism, tol: Tolerance = DEFAULT_TOL) -> Comparison:
    """Whether a doubled map preserves the trace: ``f ; discard = discard``."""
    return compare(f >> doubled_discard(f.cod), doubled_discard(f.dom), tol)


def double_structure(U: UpdateStructure) -> UpdateStructure:
    """Apply the doubling functor to every component of a matrix structure.

    Doubling is a functor, so a split structure stays split: its
    ``system_identity`` is doubled with the rest.  An already doubled
    structure doubles again.  Components held as lazy products are
    doubled block by block (see :func:`cpm_double`) and stay lazy.
    """
    if not isinstance(U.system, TensorType):
        raise StructureError(f"can only double a structure on TensorType wires, got {U.system}")
    lift = lambda a: None if a is None else cpm_double(a)
    return UpdateStructure(
        system=double_type(U.system),
        prop=double_type(U.prop),
        put=cpm_double(U.put),
        get=cpm_double(U.get),
        mult=cpm_double(U.mult),
        comult=cpm_double(U.comult),
        trivial_update=lift(U.trivial_update),
        trivial_outcome=lift(U.trivial_outcome),
        system_identity=lift(U.system_identity),
    )


def transform_update(U: UpdateStructure, m, tol: Tolerance = DEFAULT_TOL) -> UpdateStructure:
    """Push a structure through an idempotent (co)magma endomorphism m.

    put and get absorb m on the property wire; mult and comult are
    conjugated by it.  The premise -- m idempotent, a magma and a
    comagma homomorphism -- is verified first, and the result is
    re-verified to be at least weak.  A split structure stays split on
    the same ``system_identity``, which the transported put and get
    still absorb.  ``trivial_update`` and ``trivial_outcome`` are dropped,
    not transported: the result has neither, so its TrivialUpdate and
    TrivialOutcome laws are not checked even when U's hold.
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
        system=U.system,
        prop=U.prop,
        put=(ids @ m) >> U.put,
        get=U.get >> (ids @ m),
        mult=(m @ m) >> U.mult >> m,
        comult=m >> U.comult >> (m @ m),
        system_identity=U.system_identity,
    )
    failing = {
        law: r.residual
        for law in WEAK_LAWS
        if not (r := check_law(transported, law, tol)).holds
    }
    if failing:
        raise PremiseError("transported structure is not weak", failing)
    return transported


# -- projector-valued spectra ---------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectorValuedSpectrum:
    """A complete orthogonal projector family bundled as ``S -> S (x) p``, held as
    the strong structure whose get is that map, so that they share one memo."""

    structure: UpdateStructure
    projectors: tuple[Morphism, ...]

    @property
    def system(self) -> TensorType:
        return self.structure.system


_READINGS = {"p_idempotent": "the projectors are not idempotent, or not orthogonal",
             "p_self_adjoint": "the projectors are not self-adjoint",
             "p_complete": "the projectors do not sum to the identity",
             "isometry": "get then put is not the identity",
             "projector_recovery": "a projector is not read back from the spectrum"}


def pvs_from_projectors(
    projectors, tol: Tolerance = DEFAULT_TOL
) -> ProjectorValuedSpectrum:
    """Assemble a projector family's spectrum and validate it by the spectrum's own
    equations (:func:`pvs_equations`), whose verdicts stay memoised on its structure.

    Raises :class:`PvsError` for an empty family, a projector that is no endomap of
    the first one's domain, or, naming each failing equation with its residual, a
    family that is not complete, orthogonal, idempotent and self-adjoint.
    """
    projectors = tuple(projectors)
    if not projectors:
        raise PvsError("need at least one projector")
    s = projectors[0].dom
    for i, p in enumerate(projectors):
        if p.dom != s or p.cod != s:
            raise PvsError(f"projector {i} is {p.dom} -> {p.cod}, expected an endomap of {s}")
    k = len(projectors)
    arr = np.zeros((s.dim * k, s.dim), dtype=np.complex128)
    view = arr.reshape(s.dim, k, s.dim)
    for i, p in enumerate(projectors):
        view[:, i, :] = p.array
    spectrum = Morphism(s, s @ TensorType((k,)), arr)
    spider = scfa_from_dimension(k)
    pvs = ProjectorValuedSpectrum(UpdateStructure(
        system=s, prop=spider.carrier, put=spectrum.dagger(), get=spectrum,
        mult=spider.mult, comult=spider.comult,
        trivial_update=spider.unit, trivial_outcome=spider.counit), projectors)
    problems = [f"{r.law} fails, residual {r.residual:.3e}: {_READINGS[r.law]}"
                for r in pvs_equations(pvs, tol) if not r.holds]
    if problems:
        raise PvsError("; ".join(problems))
    return pvs


def _self_adjoint(U: UpdateStructure, tol: Tolerance) -> Comparison:
    """The spectrum equation that is no law of U, memoised on it under
    ``("p_self_adjoint", tol)``: with put the dagger of get,
    ``get = (1_S (x) (u ; comult)) ; (put (x) 1_p)``."""
    def equation():
        split = U.term("ids") @ (U.trivial_update >> U.comult)
        return compare(U.get, split >> U.term("put_p"), tol)
    return U.memo(("p_self_adjoint", tol), equation)


def pvs_equations(pvs: ProjectorValuedSpectrum, tol: Tolerance = DEFAULT_TOL) -> list[LawCheckResult]:
    """The defining equations of a spectrum, plus isometry and recovery.

    ``p_idempotent``, ``p_complete`` and ``isometry`` are the GetGet,
    TrivialOutcome and GetPut verdicts of the spectrum's structure.
    Memoised on that structure under ``("pvs_equations", tol)``; each
    call returns a fresh list.
    """
    U, k = pvs.structure, pvs.structure.prop.dim

    def equations():
        read = lambda name, law: replace(check_law(U, law, tol), law=name)
        out = [read("p_idempotent", "GetGet"),
               LawCheckResult("p_self_adjoint", *_self_adjoint(U, tol)),
               read("p_complete", "TrivialOutcome"), read("isometry", "GetPut")]
        recovery = [(U.get >> (U.term("ids") @ basis_effect(k, i)), p)
                    for i, p in enumerate(pvs.projectors)]
        return out + [LawCheckResult("projector_recovery", *compare_all(recovery, tol))]
    return list(U.memo(("pvs_equations", tol), equations))


def pvs_to_update(pvs: ProjectorValuedSpectrum) -> UpdateStructure:
    """The strong structure with get the spectrum and put its dagger (``pvs.structure``)."""
    return pvs.structure


def quantum_measurement(pvs: ProjectorValuedSpectrum) -> UpdateStructure:
    """The weak measurement structure of a spectrum.

    Reading doubles the spectrum and decoheres the outcome; writing is
    its dagger.  The magma and comagma are the doubled spider conjugated
    by the same decoherence, so the property wire is fully classical.
    Decoherence is an exact 0/1 idempotent, so get and put absorb it on
    the nose (the registry extra ``outcome_wire_classical`` reports it).
    """
    U = pvs.structure
    deco = decoherence(U.prop.dim)
    system2 = double_type(U.system)
    read_out = cpm_double(U.get) >> (system2.identity() @ deco)
    return UpdateStructure(
        system=system2,
        prop=double_type(U.prop),
        put=read_out.dagger(),
        get=read_out,
        mult=(deco @ deco) >> cpm_double(U.mult) >> deco,
        comult=deco >> cpm_double(U.comult) >> (deco @ deco),
    )


def getput_defect_formula(pvs: ProjectorValuedSpectrum) -> float:
    """Predicted GetPut residual of the measurement structure.  A projector's rank is its
    trace, rounded, so the ranks come from no tolerance of their own and sum to dim(S)."""
    ranks = [round(np.trace(p.array).real) for p in pvs.projectors]
    return float(np.sqrt(pvs.system.dim**2 - sum(r * r for r in ranks)))


_PVS_CONDITIONS = ("PutPut", "GetGet", "PutGet", "GetPut", "TrivialUpdate", "TrivialOutcome",
                   "Faithful", "CommutativePut")


def characterize_pvs(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, tuple[str, ...]]:
    """Decide whether U is the update structure of some spectrum.

    A dagger-symmetric tuple is spectrum-shaped exactly when it is
    strong, faithful, put-commutative and has both trivial components.
    Returns the verdict with the names of any failing conditions; when
    the conditions all pass the derived algebra and the self-adjointness
    of get are verified so both directions of the equivalence are checked.
    """
    if not isinstance(U.system, TensorType):
        raise StructureError("characterisation needs a linear or doubled structure")
    failing = []
    if not compare(U.get, U.put.dagger(), tol).holds:
        failing.append("DaggerSymmetry")
    applicable = applicable_laws(U)
    failing += [f"{law} (missing)" for law in ("TrivialUpdate", "TrivialOutcome")
                if law not in applicable]
    failing += [law for law in _PVS_CONDITIONS
                if law in applicable and not check_law(U, law, tol).holds]
    if failing:
        return False, tuple(failing)
    # Conditions hold (GetGet and TrivialOutcome are spectrum equations): the
    # property must now carry the basis spider and get be self-adjoint.  Any
    # failure here is an inconsistency and is reported rather than swallowed.
    for law in ("assoc", "coassoc", "unit", "counit", "comm", "special", "frobenius",
                "dagger_frobenius"):
        if not check_law(U, law, tol).holds:
            failing.append(f"derived algebra fails {law}")
    if not _self_adjoint(U, tol).holds:
        failing.append("spectrum equation p_self_adjoint")
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
    alg = pair_of_pants(d)
    put = cap(d) @ wire.identity()
    get = (1.0 / d) * put.dagger()
    return UpdateStructure(
        system=wire,
        prop=alg.carrier,
        put=put,
        get=get,
        mult=alg.mult,
        comult=alg.comult,
        trivial_update=alg.unit,
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

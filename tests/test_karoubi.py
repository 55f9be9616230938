import numpy as np
import pytest

from putget import karoubi
from putget.finsets import FinSet
from putget.karoubi import (
    GetPutRestriction,
    SplitError,
    absorption,
    getput_restriction,
)
from putget.lenses import security_db
from putget.quantum import (
    cpm_double,
    decoherence,
    double_structure,
    pvs_from_projectors,
    pvs_to_update,
    quantum_db_causal,
    quantum_measurement,
    transform_update,
)
from putget.registry import build_example, run_example
from putget.structures import StructureError, check_law, check_laws, classify
from putget.tensors import DEFAULT_TOL, Comparison, Morphism, TensorType, Tolerance

ENTRIES = FinSet(("alice", "bob", "carol"))


def qubit_z():
    t = TensorType((2,))
    return pvs_from_projectors([Morphism(t, t, np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0])])


def qubit_z_on(e: Morphism):
    """The qubit Z-spectrum structure with ``e`` as its system identity."""
    return pvs_to_update(qubit_z()).with_components(system_identity=e)


# -- the equations of a split object -----------------------------------------


def test_absorption_requires_an_idempotent():
    t = TensorType((2,))
    rotate = Morphism(t, t, np.array([[0.0, -1.0], [1.0, 0.0]]))
    checks = absorption(qubit_z_on(rotate))
    assert set(checks) == {"splitting_idempotent", "writer_absorbed", "reader_absorbed"}
    assert not checks["splitting_idempotent"].holds
    assert all(r.holds for r in absorption(qubit_z_on(t.identity())).values())


def test_absorption_checks_idempotence_at_the_given_tolerance():
    t = TensorType((2,))
    nearly = qubit_z_on(Morphism(t, t, np.diag([1.0, 1e-7])))  # e ; e misses e by ~1e-7
    assert not absorption(nearly, DEFAULT_TOL)["splitting_idempotent"].holds
    assert absorption(nearly, Tolerance(1e-6, 1e-6))["splitting_idempotent"].holds


def test_absorption_catches_arrows_the_idempotent_does_not_absorb():
    t = TensorType((2,))
    e = Morphism(t, t, np.diag([1.0, 0.0]))  # keep the |0> stratum only
    U = qubit_z_on(e)
    idp = U.id_prop()
    restricted_put = U.with_components(put=(e @ idp) >> U.put >> e)
    restricted_get = U.with_components(get=e >> U.get >> (e @ idp))
    for V, absorbed, raw in ((restricted_put, "writer_absorbed", "reader_absorbed"),
                             (restricted_get, "reader_absorbed", "writer_absorbed")):
        checks = absorption(V)
        assert checks["splitting_idempotent"].holds
        assert checks[absorbed].holds
        assert not checks[raw].holds and checks[raw].residual > 0.5


def test_restriction_names_every_failing_absorption_check(monkeypatch):
    failing = Comparison(False, 1.0, 0.0)

    def broken(U, tol):
        return {**absorption(U, tol), "writer_absorbed": failing, "reader_absorbed": failing}

    monkeypatch.setattr(karoubi, "absorption", broken)
    with pytest.raises(SplitError, match="writer_absorbed .*, reader_absorbed"):
        getput_restriction(security_db(ENTRIES))


# -- restricting weak structures -------------------------------------------


def test_security_db_restriction_is_strong_on_breached_states():
    U = security_db(ENTRIES)
    assert classify(U).kind == "weak_only"
    restriction = getput_restriction(U)
    assert isinstance(restriction, GetPutRestriction)
    R = restriction.structure
    assert R.system_identity is not None
    assert classify(R).kind == "strong"
    for result in check_laws(R):
        if result.law in ("PutPut", "GetGet", "PutGet", "GetPut", "RepeatUpdate"):
            assert result.holds and result.residual == 0

    # the stable states are exactly the breached ones
    e = U.get >> U.put
    image = {x for x in R.system.elements() if e.table[x] == x}
    assert image == {(w, "breached") for w in ENTRIES.elements}

    # restricted put lands in the stable stratum no matter the input flag
    assert R.put.table[("alice", "safe", "bob")] == ("bob", "breached")
    assert R.put.table[("alice", "breached", "bob")] == ("bob", "breached")


def test_measurement_restriction_is_strong_but_still_not_faithful():
    U = build_example("qubit_measurement")
    restriction = getput_restriction(U)
    R = restriction.structure
    assert classify(R).kind == "strong"
    # splitting repairs GetPut without inventing outcome directions
    assert not check_law(R, "Faithful").holds


def test_restricting_a_strong_structure_changes_nothing():
    U = build_example("qubit_z_pvs")
    restriction = getput_restriction(U)
    e = restriction.structure.system_identity
    assert e.distance(U.system.identity()) < 1e-9
    assert restriction.structure.put.distance(U.put) < 1e-9
    assert restriction.structure.get.distance(U.get) < 1e-9


def test_restriction_requires_the_weak_laws():
    from putget.finsets import FinFunction, SetType, diagonal, projection
    from putget.structures import UpdateStructure

    v = FinSet(("a", "b"))
    s4 = FinSet(("s0", "s1", "s2", "s3"))
    s, p = SetType((s4,)), SetType((v,))
    # ignore-every-write breaks PutGet, so there is nothing to split
    U = UpdateStructure(
        system=s, prop=p,
        put=FinFunction.from_callable(s @ p, s, lambda x: (x[0],)),
        get=FinFunction.from_callable(s, s @ p, lambda x: (x[0], "a" if x[0] in ("s0", "s1") else "b")),
        mult=projection(p @ p, 1), comult=diagonal(p),
    )
    with pytest.raises(SplitError, match="PutGet"):
        getput_restriction(U)


def test_restricted_getput_is_the_idempotent_on_the_nose():
    U = security_db(ENTRIES)
    R = getput_restriction(U).structure
    e = U.get >> U.put
    assert (R.get >> R.put).distance(e) == 0


def test_causal_database_restriction():
    U = quantum_db_causal(2, 2)
    restriction = getput_restriction(U)
    R = restriction.structure
    assert classify(R).kind == "strong"
    # the split system is the classical stored register beside a free one
    e = R.system_identity
    expected = TensorType((2, 2)).identity() @ decoherence(2)
    assert e.distance(expected) < 1e-9


def test_wrapped_writer_and_reader_are_absorbed():
    U = security_db(ENTRIES)
    R = getput_restriction(U).structure
    e = R.system_identity
    assert (R.put >> e).distance(R.put) == 0
    assert (R.get >> (e @ R.id_prop())).distance(R.get) == 0
    assert R.put.dom == U.system @ U.prop
    assert all(r.holds and r.residual == 0 for r in absorption(R).values())


def test_absorption_is_evaluated_once_per_structure_and_tolerance(monkeypatch):
    calls = {"compare": 0, "compare_all": 0}

    def spy(name):
        original = getattr(karoubi, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(karoubi, name, spy(name))
    # getput_restriction evaluates it; the registry extras read the memo
    assert run_example("karoubi_security_db_3").matched
    assert calls == {"compare": 1, "compare_all": 2}
    R = getput_restriction(security_db(ENTRIES)).structure
    first = absorption(R)
    first.clear()  # callers get a copy, not the memo itself
    assert set(absorption(R)) == {"splitting_idempotent", "writer_absorbed", "reader_absorbed"}
    with pytest.raises(StructureError):
        check_law(R, "absorption")


# -- split structures through the quantum constructors ----------------------


def split_measurement():
    return getput_restriction(quantum_measurement(qubit_z())).structure


def test_transport_keeps_a_split_structure_split():
    R = split_measurement()
    T = transform_update(R, decoherence(2))
    assert T.system_identity is R.system_identity
    assert classify(T).kind == "strong"
    assert all(r.holds for r in absorption(T).values())


def test_doubling_a_split_structure_doubles_its_idempotent():
    R = split_measurement()
    D = double_structure(R)
    assert D.system_identity.distance(cpm_double(R.system_identity)) == 0.0
    assert classify(D).kind == "strong"
    assert all(r.holds for r in absorption(D).values())

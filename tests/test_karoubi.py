import numpy as np
import pytest

from putget.finsets import FinSet
from putget.karoubi import (
    GetPutRestriction,
    SplitError,
    SplitObject,
    getput_restriction,
    split_wrap,
)
from putget.lenses import security_db
from putget.quantum import decoherence, quantum_db_causal
from putget.registry import build_example
from putget.structures import check_law, check_laws, classify
from putget.tensors import Morphism, TensorType, Tolerance

ENTRIES = FinSet(("alice", "bob", "carol"))


# -- the completion itself -------------------------------------------------


def test_split_objects_require_idempotents():
    t = TensorType((2,))
    rotate = Morphism(t, t, np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(SplitError, match="not idempotent"):
        SplitObject(t, rotate)
    with pytest.raises(SplitError, match="endomap"):
        SplitObject(TensorType((3,)), t.identity())
    SplitObject(t, Morphism(t, t, np.diag([1.0, 0.0])))  # fine


def test_split_objects_check_idempotence_at_the_given_tolerance():
    t = TensorType((2,))
    nearly = Morphism(t, t, np.diag([1.0, 1e-7]))  # e ; e misses e by ~1e-7
    with pytest.raises(SplitError, match="not idempotent"):
        SplitObject(t, nearly)
    SplitObject(t, nearly, Tolerance(1e-6, 1e-6))


def test_split_wrap_enforces_absorption():
    obj = SplitObject(TensorType((2, 2)), decoherence(2))  # the classical qubit
    deco = obj.idempotent
    full = SplitObject(obj.base, obj.base.identity())
    # the decoherence itself is a morphism full -> classical and back
    split_wrap(deco, full, obj)
    split_wrap(deco, obj, full)
    # but the bare identity is not absorbed into the classical object
    with pytest.raises(SplitError, match="not absorbed"):
        split_wrap(obj.base.identity(), obj, obj)
    with pytest.raises(SplitError, match="expected"):
        split_wrap(TensorType((3,)).identity(), obj, obj)


# -- restricting weak structures -------------------------------------------


def test_security_db_restriction_is_strong_on_breached_states():
    U = security_db(ENTRIES)
    assert classify(U).kind == "weak_only"
    restriction = getput_restriction(U)
    assert isinstance(restriction, GetPutRestriction)
    R = restriction.structure
    assert R.backend == "split"
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
    e = restriction.system.idempotent
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
        backend="set", system=s, prop=p,
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
    e = restriction.system.idempotent
    expected = TensorType((2, 2)).identity() @ decoherence(2)
    assert e.distance(expected) < 1e-9


def test_wrapped_writer_and_reader_are_absorbed():
    U = security_db(ENTRIES)
    restriction = getput_restriction(U)
    e = restriction.system.idempotent
    writer, reader = restriction.writer, restriction.reader
    assert (writer.arrow >> e).distance(writer.arrow) == 0
    assert (reader.arrow >> reader.cod.idempotent).distance(reader.arrow) == 0
    assert writer.dom.idempotent.dom == U.system @ U.prop

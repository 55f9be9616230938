"""Very well-behaved lenses and their embedding into update structures.

A lens on finite sets is a read ``get_fn : S -> V`` with a write
``put_fn : S x V -> S``; "very well behaved" means PutPut, PutGet and
GetPut all hold.  Every lens embeds as an update structure whose magma
discards the stale property (left delete) and whose comagma is the
copy map, and conversely any set-backed update structure of that shape
is a lens.  The security-database examples live here too: a store that
flags whether it has ever been read (or written) is still a lens-like
structure but deliberately breaks GetPut on the untouched stratum.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .finsets import (
    FinFunction,
    FinSet,
    SetType,
    bang,
    diagonal,
    fun_pair,
    projection,
)
from .structures import LawCheckResult, UpdateStructure, check_law
from .tensors import DEFAULT_TOL, Tolerance

__all__ = [
    "LensError",
    "VwbLens",
    "VwbReport",
    "check_vwb",
    "lens_to_update",
    "update_to_lens",
    "SeparabilityReport",
    "trivial_update_separability",
    "identity_lens",
    "constant_complement_lens",
    "random_lens",
    "security_db",
    "security_db_update_flag",
    "update_flag_lens",
    "READ_FLAGS",
    "WRITE_FLAGS",
]


class LensError(ValueError):
    """A lens is ill-typed, or an update structure is not lens-shaped."""


@dataclass(frozen=True, eq=False)
class VwbLens:
    """A lens ``(S, V, get_fn, put_fn)`` on finite sets.

    The name is aspirational: the laws are checked by
    :func:`check_vwb`, not assumed.
    """

    source: FinSet
    view: FinSet
    get_fn: FinFunction
    put_fn: FinFunction

    def __post_init__(self) -> None:
        s, v = SetType((self.source,)), SetType((self.view,))
        if self.get_fn.dom != s or self.get_fn.cod != v:
            raise LensError(f"get_fn must be a map {s} -> {v}")
        if self.put_fn.dom != s @ v or self.put_fn.cod != s:
            raise LensError(f"put_fn must be a map {s @ v} -> {s}")


@dataclass(frozen=True)
class VwbReport:
    put_put: LawCheckResult
    put_get: LawCheckResult
    get_put: LawCheckResult

    @property
    def is_vwb(self) -> bool:
        return self.put_put.holds and self.put_get.holds and self.get_put.holds

    def results(self) -> tuple[LawCheckResult, ...]:
        return (self.put_put, self.put_get, self.get_put)


def check_vwb(lens: VwbLens) -> VwbReport:
    """Exhaustively check the three lens laws; residuals count violations."""
    g, p = lens.get_fn.table, lens.put_fn.table
    ss = [(s,) for s in lens.source.elements]
    vs = [(v,) for v in lens.view.elements]
    putput = sum(1 for s, v1, v2 in itertools.product(ss, vs, vs) if p[p[s + v1] + v2] != p[s + v2])
    putget = sum(1 for s, v in itertools.product(ss, vs) if g[p[s + v]] != v)
    getput = sum(1 for s in ss if p[s + g[s]] != s)
    return VwbReport(
        put_put=LawCheckResult("PutPut", putput == 0, float(putput), 0.0),
        put_get=LawCheckResult("PutGet", putget == 0, float(putget), 0.0),
        get_put=LawCheckResult("GetPut", getput == 0, float(getput), 0.0),
    )


def lens_to_update(lens: VwbLens) -> UpdateStructure:
    """Embed a lens: copy comagma, left-delete magma, get = <id, get_fn>."""
    s, v = SetType((lens.source,)), SetType((lens.view,))
    return UpdateStructure(
        system=s,
        prop=v,
        put=lens.put_fn,
        get=fun_pair(s.identity(), lens.get_fn),
        mult=projection(v @ v, 1),
        comult=diagonal(v),
        trivial_outcome=bang(v),
    )


def update_to_lens(U: UpdateStructure, tol: Tolerance = DEFAULT_TOL) -> VwbLens:
    """Recover the lens from a set-backed update structure of lens shape.

    Preconditions, each reported by name when violated: the structure is
    unsplit with single-factor ``SetType`` wires, mult is the left delete,
    comult is the copy map, and U's trivial-outcome law (with the delete if
    U has no outcome) holds at ``tol``, so get merely reports the view.
    """
    problems = []
    if not isinstance(U.system, SetType) or U.system_identity is not None:
        raise LensError("need an unsplit structure on finite sets")
    if len(U.system.factors) != 1 or len(U.prop.factors) != 1:
        raise LensError("system and property must each be a single finite set")
    v = U.prop
    if not np.array_equal(U.mult.index, projection(v @ v, 1).index):
        problems.append("mult is not the left delete on the property")
    if not np.array_equal(U.comult.index, diagonal(v).index):
        problems.append("comult is not the copy map on the property")
    probe = U if U.trivial_outcome is not None else U.with_components(trivial_outcome=bang(v))
    if not check_law(probe, "TrivialOutcome", tol).holds:
        problems.append("the trivial-outcome law fails (get disturbs the system)")
    if problems:
        raise LensError("not lens-shaped: " + "; ".join(problems))
    get_fn = U.get >> projection(U.system @ v, 1)
    return VwbLens(U.system.factors[0], v.factors[0], get_fn, U.put)


@dataclass(frozen=True)
class SeparabilityReport:
    """Result of searching a lens for a trivial update.

    ``witness`` is a view element that put ignores everywhere, if any;
    when one exists, a vwb put must discard the incoming view entirely
    (``separable``), and ``violations`` counts inputs where it does not.
    """

    witness: str | None
    separable: bool | None
    violations: int

    @property
    def has_trivial_update(self) -> bool:
        return self.witness is not None


def trivial_update_separability(lens: VwbLens) -> SeparabilityReport:
    ns = len(lens.source)
    # stays[s, v]: writing v leaves s unchanged; a witness is an all-True column
    stays = lens.put_fn.index.reshape(ns, len(lens.view)) == np.arange(ns)[:, None]
    witnesses = np.flatnonzero(stays.all(axis=0))
    if not witnesses.size:
        return SeparabilityReport(None, None, 0)
    bad = int(np.count_nonzero(~stays))
    return SeparabilityReport(lens.view.elements[witnesses[0]], bad == 0, bad)


# -- generators ----------------------------------------------------------


def identity_lens(v: FinSet) -> VwbLens:
    """View the whole store: S = V, get = id, put replaces the state."""
    t = SetType((v,))
    return VwbLens(v, v, t.identity(), projection(t @ t, 1))


def constant_complement_lens(
    view: FinSet, complement: FinSet, rng: random.Random | None = None
) -> VwbLens:
    """A vwb lens from a bijection S ~ V x R, with randomised state labels."""
    rng = rng or random.Random(0)
    pairs = [(v, r) for v in view.elements for r in complement.elements]
    labels = [f"s{i}" for i in range(len(pairs))]
    rng.shuffle(labels)
    source = FinSet(tuple(sorted(labels)))
    encode = {pair: label for pair, label in zip(pairs, labels)}
    decode = {label: pair for pair, label in encode.items()}
    s, v = SetType((source,)), SetType((view,))
    get_fn = FinFunction.from_callable(s, v, lambda x: (decode[x[0]][0],))
    put_fn = FinFunction.from_callable(s @ v, s, lambda x: (encode[(x[1], decode[x[0]][1])],))
    return VwbLens(source, view, get_fn, put_fn)


def random_lens(source: FinSet, view: FinSet, rng: random.Random) -> VwbLens:
    """Uniformly random get/put tables; almost never law-abiding."""
    s, v = SetType((source,)), SetType((view,))
    get_fn = FinFunction.from_callable(s, v, lambda x: (rng.choice(view.elements),))
    put_fn = FinFunction.from_callable(s @ v, s, lambda x: (rng.choice(source.elements),))
    return VwbLens(source, view, get_fn, put_fn)


# -- security databases ----------------------------------------------------

READ_FLAGS = FinSet(("safe", "breached"))
WRITE_FLAGS = FinSet(("untouched", "updated"))


def _flag_db(entries: FinSet, flags: FinSet, read_trips: bool) -> UpdateStructure:
    """The database on (record, flag) whose write installs the new record and raises the
    flag, ``flags``' second element; with ``read_trips`` a read raises it too."""
    s = SetType((entries, flags))
    p = SetType((entries,))
    raised = flags.elements[1]
    put = FinFunction.from_callable(s @ p, s, lambda x: (x[2], raised))
    get = FinFunction.from_callable(
        s, s @ p, lambda x: (x[0], raised if read_trips else x[1], x[0]))
    return UpdateStructure(
        system=s,
        prop=p,
        put=put,
        get=get,
        mult=projection(p @ p, 1),
        comult=diagonal(p),
    )


def security_db(entries: FinSet) -> UpdateStructure:
    """A database that flags any access at all.

    The state is (record, flag).  A write installs the new record and
    raises the flag; a read reports the record but also raises the
    flag, since a read is already a breach.  GetPut therefore fails on
    exactly the safe stratum, while every weak law holds exactly.
    """
    return _flag_db(entries, READ_FLAGS, read_trips=True)


def security_db_update_flag(entries: FinSet) -> UpdateStructure:
    """The variant whose flag records writes only.

    Reads are invisible, so the pair (get, put) is an honest lens --
    but not a very well behaved one: GetPut still fails on states that
    have never been written.
    """
    return _flag_db(entries, WRITE_FLAGS, read_trips=False)


def update_flag_lens(entries: FinSet) -> VwbLens:
    """The write-flag database as a lens on fused state labels ``entry/flag``;
    the flag has no ``/``, so an entry label may hold one."""
    source = FinSet(tuple(f"{q}/{x}" for q in entries.elements for x in WRITE_FLAGS.elements))
    s, v = SetType((source,)), SetType((entries,))
    get_fn = FinFunction.from_callable(s, v, lambda x: (x[0].rpartition("/")[0],))
    put_fn = FinFunction.from_callable(s @ v, s, lambda x: (f"{x[1]}/updated",))
    return VwbLens(source, entries, get_fn, put_fn)

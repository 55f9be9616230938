"""Complex matrices over explicitly factored wire types.

Morphisms of the linear backend are matrices between finite-dimensional
spaces whose dimension is kept as an ordered list of tensor factors, so
``[2, 3]`` and ``[3, 2]`` are distinct types and every wire crossing is
an explicit swap.  Basis order is lexicographic with the leftmost factor
most significant, which is exactly the Kronecker product convention.

A morphism is held as a lazy Kronecker product: the list of its blocks,
a dense matrix being one dense block.  A block is one of four kinds:

- a dense matrix;
- a function block, a matrix with at most one nonzero entry in each
  column, held as one row index and one weight per column (copy
  spiders, decoherence, computational-basis projectors, effects and
  scalars);
- a permutation block, a wire crossing (:func:`swap`) held as its wires,
  the permutation that takes inputs to outputs and the row of each input;
- an identity block, held as its wire: one block per wire.

One rule decides the kind of every block made from a matrix, by the
constructor or by ``dagger`` (a block's matrix transposed): a function
block where the matrix has at most one nonzero in each column, and else
a dense block (:func:`_kept`).  So ``cap(d)``, the dagger of the dense
Bell state, is the function block that its matrix passed to
``Morphism`` makes, and a function block whose nonzero entries sit on
distinct rows is transposed as index arrays into that same block.  A
piece that ``compose`` contracts is left dense whatever its pattern,
and a scalar multiple keeps its block's kind.

``tensor``, ``swap`` and ``TensorType.identity`` build lazy products,
and one constructor, ``_crossing``, makes every identity and
permutation block.  ``compose`` works along the wires, with no special
case for a dense or a function operand: one sweep over both operands'
blocks cuts the shared middle wires wherever both have a block boundary
and composes each piece on its own.  A piece with an identity on one
side is the other side's blocks, untouched.  A piece of function,
permutation and identity blocks composes into one function block by a
gather of index arrays (of one gather of its rows and weights where each
side is one block), or, with no function block, into one permutation
block.  Every piece with a dense block, a side of one block included,
is contracted wire by wire on one path: a function block in it is
densified, the dense blocks are multiplied two at a time by matmul in
the order that keeps each result smallest, and a permutation block only
relabels wires.  ``double_blocks`` doubles each block as a composite
between two pairing crossings, so it is ``compose`` that keeps each
block's kind there.  ``tensor``, ``conj``, scalar multiples and
``double_blocks`` keep a function block a function block.  A scalar
multiple goes into the first dense or function block, or else is a
wire-less 1x1 function block of its own.  So neither ``1 (x) f`` nor a
crossing is ever built as a matrix.  ``Morphism.array`` builds the
dense matrix only when something reads it, as the composite of the
blocks with the identity, so it takes the one contraction path too; one
dense or function block is its own matrix.

Comparisons work on the blocks too.  A product's norm is the product of
its block norms.  ``distance`` pairs the blocks of both sides by position
where they line up (as many blocks, each position on as many wires on
both sides, and no wire-less scalar), and else groups them into the
finest parts that cover the same wires: a pair or part with the same
blocks on both sides is a common factor and contributes only its norm,
so only the parts where the sides differ are looked at.  Where those
hold no dense block they are compared column by column as index arrays,
and otherwise built densely, the same way.  A dense norm is one sum of
squares over the entries in memory order.  A dense or function block
holds mantissas, the largest in [1, 2) or all 0, and a binary exponent,
set once by ``_mantissas`` where the block is made.  Every product
multiplies mantissas and adds exponents, so no partial product
overflows and a 0 stays 0.  A matrix, norm or distance applies the
exponent where it is read, and refuses a result out of range there.

:func:`compare` decides every verdict on two arrows, matrices and
finite-set functions alike, from the distance and both side norms taken
in one pass; the rank count of the Faithful law is the one other place
a tolerance decides.  Both take their threshold from
:meth:`Tolerance.threshold`, which refuses one that is not finite.
:func:`compare_all` folds ``compare`` over a list of pairs.

``f >> g`` composes left to right ("f then g"); ``f @ g`` is the tensor
product.  Scalars are 1x1 morphisms on the empty factor list.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "WireError",
    "Tolerance",
    "DEFAULT_TOL",
    "TensorType",
    "UNIT",
    "Morphism",
    "compose",
    "tensor",
    "swap",
    "double_type",
    "double_blocks",
    "cup",
    "cap",
    "Comparison",
    "compare",
    "compare_all",
    "basis_state",
    "basis_effect",
    "scalar",
]


class WireError(ValueError):
    """Boundary types of a composite do not match."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute and relative bounds used when comparing matrices.

    A comparison of f and g holds when the Frobenius norm of f - g is at
    most ``absolute + relative * max(norm(f), norm(g))``.  At least one
    bound must be positive.
    """

    absolute: float = 1e-9
    relative: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.absolute) and math.isfinite(self.relative)):
            raise ValueError("tolerance bounds must be finite")
        if self.absolute < 0 or self.relative < 0:
            raise ValueError("tolerance bounds must be non-negative")
        if self.absolute == 0 and self.relative == 0:
            raise ValueError("at least one tolerance bound must be positive")
        # taken once: a tolerance is part of the key of every memoised verdict
        object.__setattr__(self, "_hash", hash((self.absolute, self.relative)))

    def __hash__(self) -> int:
        return self._hash

    def threshold(self, scale: float = 0.0) -> float:
        """``absolute + relative * scale``; raises ValueError where that is not finite, so
        no verdict can pass by overflow."""
        threshold = self.absolute + self.relative * scale
        if not math.isfinite(threshold):
            raise ValueError(f"threshold is not finite: {self} at scale {scale}")
        return threshold


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class TensorType:
    """Ordered list of wire dimensions; the empty list is the monoidal unit."""

    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            factors = tuple(map(operator.index, self.factors))
        except TypeError:
            raise ValueError(f"factor dimensions must be integers, got {self.factors}") from None
        if any(d < 1 for d in factors):
            raise ValueError(f"factor dimensions must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def unit(cls) -> "TensorType":
        return UNIT

    @property
    def dim(self) -> int:
        return math.prod(self.factors)

    def __matmul__(self, other: "TensorType") -> "TensorType":
        joined = object.__new__(TensorType)  # both factor lists are already checked
        object.__setattr__(joined, "factors", self.factors + other.factors)
        return joined

    def identity(self) -> "Morphism":
        return _new(self, self, _identity(self.factors))

    def swap(self, other: "TensorType") -> "Morphism":
        return swap(self, other)

    def __str__(self) -> str:
        return "I" if not self.factors else "[" + ", ".join(map(str, self.factors)) + "]"


UNIT = TensorType(())


def _fmt_entry(z: complex) -> str:
    re, im = z.real, z.imag
    if abs(im) < 1e-12:
        return f"{re:g}" if abs(re - round(re)) > 1e-12 else f"{int(round(re))}"
    if abs(re) < 1e-12:
        return f"{im:g}j"
    return f"{z:g}"


class _Block(NamedTuple):
    """One factor of a lazy product, of one of four kinds.

    - dense: ``array`` is the ``cod x dom`` matrix;
    - function: column j of the matrix, in the row-major enumeration of
      ``dom``, is ``weights[j]`` at row ``rows[j]`` and 0 elsewhere (a
      zero column made from a matrix points at row 0; one made by a
      gather keeps the row it reached);
    - permutation: output wire k is input wire ``perm[k]``, and column j
      is 1 at row ``rows[j]`` (``weights`` is None);
    - identity on the one wire ``dom``: all else is None.

    A dense or function block is its entries times ``2**exp``, the entries
    made mantissas by :func:`_normal` (a block that is all 0 keeps the
    exponent it was made with); a wiring block has ``exp`` 0.
    """

    dom: tuple[int, ...]
    cod: tuple[int, ...]
    array: np.ndarray | None
    perm: tuple[int, ...] | None = None
    rows: np.ndarray | None = None
    weights: np.ndarray | None = None
    exp: int = 0

    @property
    def is_identity(self) -> bool:
        return self.rows is None and self.array is None

    @property
    def is_wiring(self) -> bool:
        """An identity or a permutation: a block with no entries of its own."""
        return self.array is None and self.weights is None


class Morphism:
    """A complex matrix read as a linear map ``dom -> cod``.

    The matrix has shape ``(cod.dim, dom.dim)`` and column/row indices
    enumerate the factored basis lexicographically, leftmost factor most
    significant.  Morphisms are immutable and the constructor copies its
    array; a matrix with at most one nonzero entry in each column is kept
    as a function block, its row indices and weights, and any other as
    one dense block.  ``array`` is built from the blocks on its first read
    and kept.
    """

    __slots__ = ("dom", "cod", "_array", "_blocks")

    def __new__(cls, dom: TensorType, cod: TensorType, array) -> "Morphism":
        arr = np.array(array, dtype=np.complex128)
        if arr.shape != (cod.dim, dom.dim):
            raise WireError(f"matrix shape {arr.shape} does not match map {dom} -> {cod} "
                            f"(expected {(cod.dim, dom.dim)})")
        return _new(dom, cod, (_kept(dom.factors, cod.factors, arr),))

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: morphisms are immutable")

    @property
    def array(self) -> np.ndarray:
        """The dense, read-only matrix of shape ``(cod.dim, dom.dim)``, refused out of range."""
        if self._array is None:
            exp = sum(b.exp for b in self._blocks)
            object.__setattr__(self, "_array", _finite(_pow2(_kron(self._blocks), exp)))
        return self._array

    # diagram operators -------------------------------------------------
    def __rshift__(self, other: "Morphism") -> "Morphism":
        """``f >> g`` is "f then g"."""
        return compose(other, self)

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return tensor(self, other)

    def __rmul__(self, z: complex) -> "Morphism":
        """``z`` times the map: the first dense or function block's mantissas times z's, and
        z's exponent added to its own; with no such block, z as a wire-less scalar block."""
        (scalar_block,) = scalar(complex(z))._blocks
        blocks = list(self._blocks)
        for i, b in enumerate(blocks):
            if not b.is_wiring:  # the other blocks stay lazy
                scaled = _mapped(b, lambda entries: scalar_block.weights[0] * entries)
                blocks[i] = _normal(scaled._replace(exp=b.exp + scalar_block.exp))
                return _new(self.dom, self.cod, blocks)
        return _new(self.dom, self.cod, blocks + [scalar_block])

    def dagger(self) -> "Morphism":
        return _new(self.cod, self.dom, _transpose(self.conj()._blocks))

    def conj(self) -> "Morphism":
        return _new(self.dom, self.cod, [
            b if b.is_wiring else _mapped(b, np.conj) for b in self._blocks])

    def norm(self) -> float:
        """The Frobenius norm; of a lazy product, the product of its block norms."""
        exp = sum(b.exp for b in self._blocks)
        return _finite_norms(_scaled_prod(map(_block_norm, self._blocks), exp))[0]

    def distance(self, other: "Morphism") -> float:
        """The Frobenius norm of ``self - other``, building only where they differ."""
        return _distance_and_norms(self, other)[0]

    def __str__(self) -> str:
        rows = [" ".join(_fmt_entry(z).rjust(8) for z in row) for row in self.array]
        return f"{self.dom} -> {self.cod}\n" + "\n".join(rows)

    def __repr__(self) -> str:
        return f"Morphism({self.dom} -> {self.cod})"


# -- internal construction -------------------------------------------------


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only, after checking that every entry is finite."""
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


def _finite_norms(*norms: float) -> tuple[float, ...]:
    if not all(map(math.isfinite, norms)):
        raise ValueError("matrix norms must be finite")
    return norms


def _function_block(dom: tuple[int, ...], cod: tuple[int, ...], rows: np.ndarray,
                    weights: np.ndarray, exp: int = 0) -> _Block:
    rows.setflags(write=False)
    return _Block(dom, cod, None, None, rows, weights, exp)


def _crossing(dom: tuple[int, ...], cod: tuple[int, ...], perm: tuple[int, ...]) -> list[_Block]:
    """The wiring ``dom -> cod`` whose output wire k is input wire ``perm[k]``: one identity
    block per wire where ``perm`` keeps every wire in place, and else one permutation block."""
    if perm == tuple(range(len(perm))):
        return [_Block((d,), (d,), None) for d in dom]
    rows = np.arange(math.prod(cod)).reshape(cod).transpose(_inverse(perm)).ravel()
    rows.setflags(write=False)
    return [_Block(dom, cod, None, perm, rows)]


def _identity(wires: tuple[int, ...]) -> list[_Block]:
    return _crossing(wires, wires, tuple(range(len(wires))))


def _as_function(dom: tuple[int, ...], cod: tuple[int, ...], arr: np.ndarray,
                 exp: int = 0) -> _Block | None:
    """``arr * 2**exp`` as a function block, or None if a column has two nonzero entries."""
    if np.count_nonzero(arr) > arr.shape[1] or np.count_nonzero(arr, axis=0).max() > 1:
        return None  # the first test holds for most dense matrices, and is one count
    rows = np.argmax(arr != 0, axis=0)  # a zero column gives row 0
    return _function_block(dom, cod, rows, arr[rows, np.arange(arr.shape[1])], exp)


def _entries(b: _Block) -> np.ndarray:
    """The entries of a dense block, or the weights of a function block."""
    return b.array if b.array is not None else b.weights


def _mapped(b: _Block, fn) -> _Block:
    """A dense or function block with ``fn`` applied to its entries; its exponent stays."""
    if b.array is not None:
        return _Block(b.dom, b.cod, _finite(fn(b.array)), exp=b.exp)
    return _Block(b.dom, b.cod, None, None, b.rows, _finite(fn(b.weights)), b.exp)


def _mantissas(entries: np.ndarray) -> tuple[np.ndarray, int]:
    """``entries`` scaled by the power of two that brings the largest into [1, 2), checked by
    :func:`_finite`, and that power's exponent: the one scaling of block entries."""
    e = _exponent(entries)
    return _finite(_pow2(entries, -e)), e


def _normal(b: _Block) -> _Block:
    """A dense or function block with its entries made mantissas (:func:`_mantissas`) and the
    scale moved into ``exp``.  Refuses inf and NaN."""
    if b.array is None:
        weights, e = _mantissas(b.weights)
        return _Block(b.dom, b.cod, None, None, b.rows, weights, b.exp + e)
    array, e = _mantissas(b.array)
    return _Block(b.dom, b.cod, array, exp=b.exp + e)


def _kept(dom: tuple[int, ...], cod: tuple[int, ...], arr: np.ndarray, exp: int = 0) -> _Block:
    """The matrix ``arr * 2**exp`` as a block: a function block where it has at most one nonzero
    in each column, and else a dense block.  The one rule for a block's kind: the constructor
    and a transpose both make their blocks here."""
    return _normal(_as_function(dom, cod, arr, exp) or _Block(dom, cod, arr, exp=exp))


def _matrix(b: _Block) -> np.ndarray:
    """The mantissas of a dense block, or of a function block densified."""
    if b.array is not None:
        return b.array
    out = np.zeros((math.prod(b.cod), b.rows.size), dtype=np.complex128)
    out[b.rows, np.arange(b.rows.size)] = b.weights
    return out


_SET_DOM, _SET_COD = Morphism.dom.__set__, Morphism.cod.__set__
_SET_BLOCKS, _SET_ARRAY = Morphism._blocks.__set__, Morphism._array.__set__


def _new(dom: TensorType, cod: TensorType, blocks) -> Morphism:
    """The map ``dom -> cod`` held as the Kronecker product of ``blocks``, as they are."""
    m = object.__new__(Morphism)
    _SET_DOM(m, dom)
    _SET_COD(m, cod)
    _SET_BLOCKS(m, tuple(blocks))
    _SET_ARRAY(m, None)
    return m


# -- overflow-free products -------------------------------------------------


def _pow2(x, e: int):
    """``x * 2**e`` for a float or an array: exact where the result is a normal float, and not
    finite (for :func:`_finite` or :func:`_finite_norms` to refuse) where it is out of range.
    An array goes in steps of at most ``2**±1000``, all one way, so a step overflows only where
    the result does; a complex entry overflowing early is inf in one part and NaN in the other.
    One step down, the scaling :func:`_mantissas` makes of every block, cannot overflow and
    needs no error state."""
    if isinstance(x, float):
        try:
            return math.ldexp(x, e)
        except OverflowError:
            return math.inf
    if e == 0:
        return x
    if -1000 <= e < 0:
        return x * 2.0 ** e
    with np.errstate(over="ignore", invalid="ignore"):
        while e:
            step = max(-1000, min(e, 1000))
            x, e = x * 2.0 ** step, e - step
    return x


def _scaled_prod(values, exponent: int = 0, mantissa: float = 1.0) -> float:
    """The product of non-negative floats and ``mantissa * 2**exponent``."""
    return _pow2(*_mantissa_prod(values, exponent, mantissa))


def _mantissa_prod(values, exponent: int = 0, mantissa: float = 1.0) -> tuple[float, int]:
    """The product of non-negative floats and ``mantissa * 2**exponent``, as a mantissa and an
    exponent, so that no partial product leaves the float range."""
    for v in values:
        m, e = math.frexp(v)
        mantissa, shift = math.frexp(mantissa * m)
        exponent += e + shift
    return mantissa, exponent


def _exponent(arr: np.ndarray) -> int:
    """The ``e`` that brings the largest entry of ``arr / 2**e`` into [1, 2), or 0 if all are 0."""
    top = float(np.maximum.reduce(np.abs(arr), axis=None))
    return math.frexp(top)[1] - 1 if top else 0


def _fro(arr: np.ndarray) -> float:
    """The Frobenius norm, as one sum of squares over the entries in memory order, retaken at a
    power-of-two scale where the squares left the float range: the norm is inf, or below
    2**-500 with an entry that is not 0."""
    flat = arr.ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat).real)
    if 2.0 ** -500 < norm < math.inf or not arr.any():
        return norm
    e = _exponent(arr)
    return _pow2(float(np.linalg.norm(_pow2(arr, -e))), e)


def _kron(blocks) -> np.ndarray:
    """The mantissas of a Kronecker product of blocks, as their composite with the identity; of
    one dense or function block, its matrix (:func:`_matrix`)."""
    if len(blocks) == 1 and not blocks[0].is_wiring:
        return _matrix(blocks[0])
    return _einsum(blocks, _identity(tuple(d for b in blocks for d in b.dom)))


def _function_of(blocks) -> tuple[np.ndarray, np.ndarray | None, int]:
    """A Kronecker product of identity, permutation and function blocks as one function:
    its rows, the products of the blocks' weight mantissas (None where no block has weights),
    and the sum of their exponents.  One function or permutation block gives its own arrays."""
    if len(blocks) == 1 and blocks[0].rows is not None:
        return blocks[0].rows, blocks[0].weights, blocks[0].exp
    rows = weights = None
    for out, height, w in _function_factors(blocks):
        if rows is None:
            rows, weights = out, w
            continue
        if weights is not None:
            weights = np.repeat(weights, out.size) if w is None else (weights[:, None] * w).ravel()
        elif w is not None:
            weights = w[None, :].repeat(rows.size, axis=0).ravel()
        rows = (rows[:, None] * height + out).ravel()
    return rows, weights, sum(b.exp for b in blocks)


def _gather(g, f) -> tuple[np.ndarray, np.ndarray, int]:
    """Function ``g`` after function ``f``, each as :func:`_function_of` gives it and at least
    one with weights: one gather of g's rows and weights by f's rows, the weights multiplied."""
    (g_rows, g_weights, g_exp), (f_rows, f_weights, f_exp) = g, f
    if g_weights is None:
        weights = f_weights
    elif f_weights is None:
        weights = g_weights[f_rows]
    else:
        weights = g_weights[f_rows] * f_weights
    return g_rows[f_rows], weights, g_exp + f_exp


def _function_factors(blocks) -> list[tuple[np.ndarray, int, np.ndarray | None]]:
    """Each block as (rows, height, weights or None), a run of identities (no rows) as one."""
    factors, carried = [], 1
    for b in blocks:
        if b.rows is None:
            carried *= b.dom[0]
            continue
        if carried > 1:
            factors.append((np.arange(carried), carried, None))
            carried = 1
        factors.append((b.rows, math.prod(b.cod), b.weights))
    if carried > 1 or not factors:
        factors.append((np.arange(carried), carried, None))
    return factors


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _transpose(blocks) -> list[_Block]:
    """The transposed blocks: a crossing reversed, an identity kept, and a dense or function
    block's matrix transposed and kept by :func:`_kept`'s rule.  A function block whose nonzero
    entries sit on distinct rows is transposed as index arrays, into the block that ``_kept``
    makes of its densified transpose: row r becomes column r, and a row with no nonzero entry a
    zero column at row 0."""
    out: list[_Block] = []
    for b in blocks:
        if b.perm is not None:
            out += _crossing(b.cod, b.dom, _inverse(b.perm))
        elif b.is_identity:
            out.append(b)
        else:
            out.append(_function_transpose(b) or _kept(b.cod, b.dom, _matrix(b).T, b.exp))
    return out


def _function_transpose(b: _Block) -> _Block | None:
    """The transpose of function block ``b`` as a function block, or None if ``b`` is dense or
    has two nonzero entries on one row."""
    height = math.prod(b.cod)
    if b.weights is None or np.count_nonzero(b.weights) > height:
        return None
    (columns,) = b.weights.nonzero()
    at = b.rows[columns]
    weights = np.zeros(height, dtype=np.complex128)
    weights[at] = b.weights[columns]
    if np.count_nonzero(weights) < columns.size:  # two entries on one row: one overwrote
        return None
    rows = np.zeros(weights.size, dtype=np.intp)
    rows[at] = columns
    return _normal(_function_block(b.cod, b.dom, rows, weights, b.exp))


def _einsum(g_blocks, f_blocks) -> np.ndarray:
    """The mantissas of ``kron(g_blocks) @ kron(f_blocks)``, wire by wire, two dense at a time.

    It takes every piece of a composite that holds a dense block, a side
    of one block included, and every dense matrix of a product, as its
    composite with the identity (:func:`_kron`), so it is the one place
    where dense blocks meet in a product.  Every wire gets its own label.
    An identity or permutation block gives each output wire the label of
    the input wire it carries, so it takes no part in the sum, and the
    dense blocks are the operands (a function block among them is
    densified).  A label is on at most two operands, and a label that two
    operands share is a middle wire, never an output.  So any order of
    pairwise contractions is exact, with no batch labels and no path
    search: each step takes the pair with the smallest result and sums
    their shared labels in one matmul.  The operands are mantissas (the
    blocks' exponents are the caller's), so no partial product overflows.
    With no operand, where both sides are all wiring, the product is the
    scalar 1.  A wire carried through both sides is on no operand; the
    output is the identity on it, so the result is written onto the
    diagonal of its output and input axes.
    """
    label = itertools.count()
    operands: list[tuple[np.ndarray, list[int]]] = []
    middle: list[int] = []
    dom: list[int] = []
    for b in f_blocks:
        out = [next(label) for _ in b.cod]
        middle += out
        if b.is_wiring:
            dom += out if b.perm is None else [out[k] for k in _inverse(b.perm)]
        else:
            inputs = [next(label) for _ in b.dom]
            dom += inputs
            operands.append((_matrix(b).reshape(b.cod + b.dom), out + inputs))
    shared = iter(middle)
    cod: list[int] = []
    for b in g_blocks:
        inputs = [next(shared) for _ in b.dom]
        if b.is_wiring:
            cod += inputs if b.perm is None else [inputs[p] for p in b.perm]
        else:
            out = [next(label) for _ in b.cod]
            cod += out
            operands.append((_matrix(b).reshape(b.cod + b.dom), out + inputs))
    while len(operands) > 1:
        i, j = 0, 1
        if len(operands) > 2:  # the pair with the smallest result
            dims = {w: d for arr, wires in operands for w, d in zip(wires, arr.shape)}
            i, j = min(itertools.combinations(range(len(operands)), 2), key=lambda ij: math.prod(
                dims[w] for w in set(operands[ij[0]][1]).symmetric_difference(operands[ij[1]][1])))
        (y, y_wires), (x, x_wires) = operands.pop(j), operands.pop(i)
        summed = [w for w in x_wires if w in y_wires]
        x_kept = [w for w in x_wires if w not in summed]
        y_kept = [w for w in y_wires if w not in summed]
        x = x.transpose([x_wires.index(w) for w in x_kept + summed])
        y = y.transpose([y_wires.index(w) for w in summed + y_kept])
        n = math.prod(x.shape[:len(x_kept)])
        product = x.reshape(n, -1) @ y.reshape(x.size // n, -1)
        operands.append((product.reshape(x.shape[:len(x_kept)] + y.shape[len(summed):]),
                         x_kept + y_kept))
    (last, wires), = operands or [(np.ones((), dtype=np.complex128), [])]
    rows = math.prod(d for b in g_blocks for d in b.cod)
    through = [w for w in cod if w in dom]
    if not through:
        return last.transpose([wires.index(w) for w in cod + dom]).reshape(rows, -1)
    # written through a view whose axis for a carried wire steps along both of its axes
    result = np.zeros([d for b in g_blocks for d in b.cod] + [d for b in f_blocks for d in b.dom],
                      dtype=last.dtype)
    steps = dict.fromkeys(cod + dom, 0)
    for w, step in zip(cod + dom, result.strides):
        steps[w] += step
    view = np.ndarray(last.shape + tuple(result.shape[cod.index(w)] for w in through),
                      result.dtype, result, strides=[steps[w] for w in wires + through])
    view[...] = last.reshape(last.shape + (1,) * len(through))
    return result.reshape(rows, -1)


def _wire_perm(blocks) -> list[int]:
    """A product of identity and permutation blocks as one wire permutation."""
    perm: list[int] = []
    for b in blocks:
        perm += [len(perm) + (k if b.perm is None else b.perm[k]) for k in range(len(b.dom))]
    return perm


def _block_norm(b: _Block) -> float:
    if b.is_wiring:
        return math.sqrt(math.prod(b.dom))
    return _fro(_entries(b))


def _same_array(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether two arrays of one shape, or two Nones, hold equal entries (so 0 and -0 are)."""
    return a is b or (a is not None and b is not None
                      and (a.tobytes() == b.tobytes() or np.array_equal(a, b)))


def _same_block(x: _Block, y: _Block) -> bool:
    return x is y or (x.dom == y.dom and x.cod == y.cod and x.perm == y.perm and x.exp == y.exp
            and _same_array(x.array, y.array) and _same_array(x.rows, y.rows)
            and _same_array(x.weights, y.weights))


def _function_distance(x_rows, x, x_exp, y_rows, y, y_exp) -> list[tuple[float, int]]:
    """``norm(x - y)``, ``norm(x)`` and ``norm(y)``, each as (float, exponent), of two functions
    on the same wires with weights ``x * 2**x_exp`` and ``y * 2**y_exp``, compared column by
    column: a column whose rows agree contributes ``|x - y|**2``, and one whose rows differ
    ``|x|**2 + |y|**2``.  Weights None are all 1."""
    x = np.ones(x_rows.size, dtype=np.complex128) if x is None else x
    y = np.ones(y_rows.size, dtype=np.complex128) if y is None else y
    same = x_rows == y_rows
    x_at, y_at, e, norms = _aligned(x, x_exp, y, y_exp)
    return [(math.hypot(_fro(np.where(same, x_at - y_at, x_at)), _fro(y_at[~same])), e), *norms]


def _aligned(x: np.ndarray, x_exp: int, y: np.ndarray, y_exp: int):
    """Two mantissa arrays at the larger exponent of a side that is not all 0, that exponent,
    and each side's norm at its own exponent.  A side already there is not copied."""
    x_norm, y_norm = _fro(x), _fro(y)
    e = max(x_exp if x_norm else y_exp, y_exp if y_norm else x_exp)
    return _pow2(x, x_exp - e), _pow2(y, y_exp - e), e, [(x_norm, x_exp), (y_norm, y_exp)]


def _lined_up(a_blocks, b_blocks) -> bool:
    """Whether two products on the same wires have as many blocks, each position covering as
    many codomain and as many domain wires on both sides, and no wire-less scalar block."""
    if len(a_blocks) != len(b_blocks):
        return False
    for a, b in zip(a_blocks, b_blocks):
        if len(a.cod) != len(b.cod) or len(a.dom) != len(b.dom) or not (a.cod or a.dom):
            return False
    return True


def _part_keys(a_blocks, b_blocks) -> list[list]:
    """For each block of two products on the same wires, the part it belongs to.

    The codomain and the domain wire positions are the nodes of a
    union-find, and every block, on either side, joins all of its wires.
    So each part covers the same wires on both sides, and no finer split
    does.  Wire-less scalar blocks all get the key None.  Two products
    whose blocks line up (:func:`_lined_up`) need no such split: each
    position is a part of its own, and ``_distance_and_norms`` pairs
    their blocks by position.
    """
    n_cod = sum(len(b.cod) for b in a_blocks)
    root = list(range(n_cod + sum(len(b.dom) for b in a_blocks)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    wires = []
    for blocks in (a_blocks, b_blocks):
        side, c, d = [], 0, n_cod
        for b in blocks:
            w = [*range(c, c + len(b.cod)), *range(d, d + len(b.dom))]
            c, d = c + len(b.cod), d + len(b.dom)
            for i in w[1:]:
                root[find(i)] = find(w[0])
            side.append(w)
        wires.append(side)
    return [[find(w[0]) if w else None for w in side] for side in wires]


def _distance_and_norms(x: Morphism, y: Morphism) -> tuple[float, float, float]:
    """``norm(x - y)``, ``norm(x)`` and ``norm(y)``, building only where ``x`` and ``y`` differ.

    Of two products, a part with the same blocks on both sides is a common
    Kronecker factor, so it contributes only its norm.  Where the blocks
    line up (:func:`_lined_up`), the parts are the positions; otherwise
    they are the finest parts that cover the same wires (:func:`_part_keys`).
    The differing parts are taken together, each side's blocks in their
    order, which puts both sides' wires in the same order: as one function
    on each side where they hold no dense block, compared column by column
    (:func:`_function_distance`), and built densely otherwise, both at one
    exponent (:func:`_aligned`).  Raises ValueError when a result is not finite.
    """
    if x.dom.factors != y.dom.factors or x.cod.factors != y.cod.factors:
        raise WireError(f"cannot compare {x.dom} -> {x.cod} with {y.dom} -> {y.cod}")
    x_blocks, y_blocks = x._blocks, y._blocks
    common: list[_Block] = []
    if _lined_up(x_blocks, y_blocks):
        differing: tuple[list, list] = ([], [])
        for a, b in zip(x_blocks, y_blocks):
            if _same_block(a, b):
                common.append(a)
            else:
                differing[0].append(a)
                differing[1].append(b)
    else:
        keys = _part_keys(x_blocks, y_blocks)
        parts: dict = {}
        for side, blocks in enumerate((x_blocks, y_blocks)):
            for blk, k in zip(blocks, keys[side]):
                parts.setdefault(k, ([], []))[side].append(blk)
        differ = set()
        for k, (xs, ys) in parts.items():
            if len(xs) == len(ys) and all(map(_same_block, xs, ys)):
                common += xs
            else:
                differ.add(k)
        differing = tuple([blk for blk, k in zip(blocks, side_keys) if k in differ]
                          for blocks, side_keys in zip((x_blocks, y_blocks), keys))
    mantissa, exp = _mantissa_prod(map(_block_norm, common), sum(b.exp for b in common))
    if not differing[0] and not differing[1]:  # every part is common: the sides are equal
        norm = _finite_norms(_pow2(mantissa, exp))[0]
        return 0.0, norm, norm
    if all(blk.array is None for side in differing for blk in side):
        built = _function_distance(*_function_of(differing[0]), *_function_of(differing[1]))
    else:
        a, b = map(_kron, differing)
        a_exp, b_exp = (sum(blk.exp for blk in side) for side in differing)
        a_at, b_at, e, norms = _aligned(a, a_exp, b, b_exp)
        built = [(_fro(a_at - b_at), e), *norms]
    return _finite_norms(*(_scaled_prod((v,), exp + e, mantissa) for v, e in built))


def _compose_blocks(g_blocks, f_blocks) -> list[_Block]:
    """Blocks of ``kron(g_blocks) @ kron(f_blocks)``, composed piece by piece.

    One sweep over both block lists cuts the middle wires wherever both
    products have a block boundary: a piece takes the next block of
    whichever side covers fewer middle wires, until both sides cover the
    same number.  Each identity block covers one wire, so it never hides
    a boundary.  By the interchange law the composite is the Kronecker
    product of the pieces' composites.  A piece that is the identity on
    one side is just the other side's blocks.  Any other piece, a side of
    one block included, is contracted wire by wire (:func:`_einsum`) if it
    has a dense block, and else is one function block, a gather of both
    sides as :func:`_function_of` gives them, or, with no function block
    either, one permutation block, or identities where permutations cancel.
    Blocks with no middle wires (effects of f, states of g) that sit on a
    cut form a piece of their own, f's before g's, which is placed before
    the piece that starts at that cut; one inside a piece is part of it.
    """
    out: list[_Block] = []
    i = j = 0
    n = len(f_blocks)
    while True:
        while i < n and not f_blocks[i].cod:
            out.append(f_blocks[i])
            i += 1
        while j < len(g_blocks) and not g_blocks[j].dom:
            out.append(g_blocks[j])
            j += 1
        if i == n:  # so j == len(g_blocks): both sides end on the last wire
            return out
        fs, gs = [f_blocks[i]], [g_blocks[j]]
        f_wires, g_wires = len(fs[0].cod), len(gs[0].dom)
        i += 1
        j += 1
        while f_wires != g_wires:
            if f_wires < g_wires:
                fs.append(f_blocks[i])
                f_wires += len(f_blocks[i].cod)
                i += 1
            else:
                gs.append(g_blocks[j])
                g_wires += len(g_blocks[j].dom)
                j += 1
        out += _piece(gs, fs)


def _piece(gs: list[_Block], fs: list[_Block]) -> list[_Block]:
    """The blocks of one piece of :func:`_compose_blocks`, ``gs`` after ``fs``."""
    if all(b.rows is None and b.array is None for b in fs):  # all identities
        return gs
    if all(b.rows is None and b.array is None for b in gs):
        return fs
    dom, cod, dense, weighted = (), (), False, False
    for b in fs:
        dom += b.dom
        dense, weighted = dense or b.array is not None, weighted or b.weights is not None
    for b in gs:
        cod += b.cod
        dense, weighted = dense or b.array is not None, weighted or b.weights is not None
    if dense:
        return [_normal(_Block(dom, cod, _einsum(gs, fs), exp=sum(b.exp for b in fs + gs)))]
    if weighted:  # g after f by a gather
        return [_normal(_function_block(dom, cod, *_gather(_function_of(gs), _function_of(fs))))]
    f_perm = _wire_perm(fs)  # g's output k is f's input f_perm[g_perm[k]]
    return _crossing(dom, cod, tuple(f_perm[k] for k in _wire_perm(gs)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite ``g after f``, composed piece by piece (:func:`_compose_blocks`)."""
    if f.cod.factors != g.dom.factors:
        raise WireError(f"cannot compose: codomain {f.cod} does not match domain {g.dom}")
    return _new(f.dom, g.cod, _compose_blocks(g._blocks, f._blocks))


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """The tensor product, held lazily as the blocks of both factors."""
    return _new(f.dom @ g.dom, f.cod @ g.cod, f._blocks + g._blocks)


def swap(a: TensorType, b: TensorType) -> Morphism:
    """The crossing ``a (x) b -> b (x) a``: one permutation block, or identities where a
    side is empty."""
    n = len(a.factors)
    perm = (*range(n, n + len(b.factors)), *range(n))
    return _new(a @ b, b @ a, _crossing((a @ b).factors, (b @ a).factors, perm))


def double_type(t: TensorType) -> TensorType:
    """The doubled wires of ``t``: each wire followed by its conjugate copy."""
    return TensorType(tuple(d for d in t.factors for _ in (0, 1)))


def _pairing(wires: tuple[int, ...]) -> list[_Block]:
    """The crossing ``wires + wires -> double_type(wires)`` that puts each copy next to
    its original; identities on at most one wire."""
    n = len(wires)
    perm = tuple(k for i in range(n) for k in (i, n + i))
    return _crossing(wires * 2, double_type(TensorType(wires)).factors, perm)


def double_blocks(f: Morphism) -> Morphism:
    """``f (x) conj(f)``, each conjugate wire next to its original.

    Doubling is a monoidal functor, so a product is doubled block by
    block, each block ``b`` as the composite of ``b (x) conj(b)`` between
    the pairing crossings (:func:`_pairing`) of its domain and codomain.
    That composite keeps ``b``'s kind: the identity on a wire becomes the
    identity on each of its two wires, and a block with at most one wire
    on each side (a wire-less scalar, a state or effect on one wire) comes
    out as its pair ``b, conj(b)``.  A lazy product stays lazy.
    """
    blocks = []
    for b in f._blocks:
        pair = [b, b if b.is_wiring else _mapped(b, np.conj)]
        blocks += _compose_blocks(_pairing(b.cod),
                                  _compose_blocks(pair, _transpose(_pairing(b.dom))))
    return _new(double_type(f.dom), double_type(f.cod), blocks)


def cup(d: int) -> Morphism:
    """The Bell state ``I -> [d, d]``, sum over i of |ii>."""
    return Morphism(UNIT, TensorType((d, d)), np.eye(d).reshape(d * d, 1))


def cap(d: int) -> Morphism:
    """The Bell effect ``[d, d] -> I``; the dagger of :func:`cup`."""
    return cup(d).dagger()


def scalar(z: complex) -> Morphism:
    """The 1x1 map ``z``, one wire-less function block (as the constructor keeps it)."""
    weights = np.array([z], dtype=np.complex128)
    return _new(UNIT, UNIT, [_normal(_function_block((), (), np.zeros(1, np.intp), weights))])


def basis_state(d: int, i: int) -> Morphism:
    """The computational basis ket |i> as a map ``I -> [d]``."""
    try:
        d, i = operator.index(d), operator.index(i)
    except TypeError:
        raise ValueError(f"a basis state needs integers d and i, got {d!r} and {i!r}") from None
    if not 0 <= i < d:
        raise ValueError(f"no basis state {i} in dimension {d} (expected 0 <= i < {d})")
    col = np.zeros((d, 1))
    col[i, 0] = 1.0
    return Morphism(UNIT, TensorType((d,)), col)


def basis_effect(d: int, i: int) -> Morphism:
    return basis_state(d, i).dagger()


class Comparison(NamedTuple):
    """The outcome of :func:`compare`: ``holds`` iff ``residual <= threshold``."""

    holds: bool
    residual: float
    threshold: float

    @staticmethod
    def joint(results) -> "Comparison":
        """All of ``results`` must hold, as an empty list does; the first with the
        largest residual is reported."""
        results = list(results)
        worst = max(results, key=lambda r: r.residual, default=Comparison(True, 0.0, 0.0))
        return Comparison(all(r.holds for r in results), worst.residual, worst.threshold)


def compare(lhs, rhs, tol: Tolerance = DEFAULT_TOL) -> Comparison:
    """Compare two arrows on the same wires: within ``tol`` for matrices, exactly for sets.

    Matrices hold when their Frobenius distance is at most
    ``tol.threshold(max(norm(lhs), norm(rhs)))``; finite-set functions
    hold when no input disagrees, and their residual counts the inputs
    that do.  A residual, norm or threshold that is not finite raises
    ValueError, so no comparison can pass by overflow.
    """
    if isinstance(lhs, Morphism):
        residual, lhs_norm, rhs_norm = _distance_and_norms(lhs, rhs)
        threshold = tol.threshold(max(lhs_norm, rhs_norm))
    else:
        residual, threshold = lhs.distance(rhs), 0.0
    return Comparison(residual <= threshold, residual, threshold)


def compare_all(pairs, tol: Tolerance = DEFAULT_TOL) -> Comparison:
    """Compare every ``(lhs, rhs)`` pair: all must hold, and the worst pair is reported.

    Each pair is judged at its own threshold, so a pair of small norm can
    fail while the pair with the largest residual holds.
    """
    return Comparison.joint(compare(lhs, rhs, tol) for lhs, rhs in pairs)

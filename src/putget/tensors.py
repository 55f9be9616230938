"""Complex matrices over explicitly factored wire types.

Morphisms of the linear backend are matrices between finite-dimensional
spaces whose dimension is kept as an ordered list of tensor factors, so
``[2, 3]`` and ``[3, 2]`` are distinct types and every wire crossing is
an explicit swap.  Basis order is lexicographic with the leftmost factor
most significant, which is exactly the Kronecker product convention.

A morphism is held either as one dense matrix or as a lazy Kronecker
product: the list of its blocks.  A block is one of four kinds:

- a dense matrix;
- a function block, a matrix with at most one nonzero entry in each
  column, held as one row index and one weight per column.  The
  constructor keeps every such matrix this way (copy spiders,
  decoherence, computational-basis projectors, effects and scalars);
- a permutation block, a wire crossing (:func:`swap`) held as its wires,
  the permutation that takes inputs to outputs and the row of each input;
- an identity block, held as its wire: one block per wire.

``tensor``, ``swap`` and ``TensorType.identity`` build lazy products,
and ``compose`` works along the wires: one sweep over both operands'
blocks cuts the shared middle wires wherever both have a block boundary
and composes each piece on its own.  A piece with an identity on one
side is the other side's blocks, untouched.  A piece of function,
permutation and identity blocks composes into one function block by a
gather of index arrays, or, with no function block, into one permutation
block.  Every piece with a dense block, a side of one block included, is
contracted wire by wire on one path: a function block in it is
densified, the dense blocks are multiplied two at a time by matmul in
the order that keeps each result smallest, and a permutation block only
relabels wires.  ``tensor``, ``conj``, scalar multiples and
``double_blocks`` keep a function block a function block, and so does
``dagger`` where no two nonzero columns share a row.  A scalar multiple
scales one dense or function block, or else gains a wire-less 1x1
function block.  So neither ``1 (x) f`` nor a crossing is ever built as
a matrix, and ``Morphism.array`` builds the dense matrix only when
something reads it.

Comparisons work on the blocks too.  A product's norm is the product of
its block norms, and ``distance`` groups the blocks of both sides into
the finest parts that cover the same wires: a part with the same blocks
on both sides is a common factor and contributes only its norm, so only
the parts where the sides differ are looked at.  Where those hold no
dense block they are compared column by column as index arrays, and
otherwise built densely.  A dense norm is one sum of squares over the
entries in memory order.  Products and norms are taken with every
factor scaled by a power of two, which is exact, so no partial product
overflows unless the result does.

:func:`compare` is the only place in the library where a tolerance
decides a verdict, for matrices and for finite-set functions alike: it
takes the distance and both side norms in one pass and refuses results
that are not finite.  :func:`compare_all` folds it over a list of pairs.

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

    def threshold(self, scale: float = 0.0) -> float:
        return self.absolute + self.relative * scale


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
        return _new(self, self, None, tuple(_Block((d,), (d,), None) for d in self.factors))

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
      zero column points at row 0);
    - permutation: output wire k is input wire ``perm[k]``, and column j
      is 1 at row ``rows[j]`` (``weights`` is None);
    - identity on the one wire ``dom``: all else is None.
    """

    dom: tuple[int, ...]
    cod: tuple[int, ...]
    array: np.ndarray | None
    perm: tuple[int, ...] | None = None
    rows: np.ndarray | None = None
    weights: np.ndarray | None = None

    @property
    def is_identity(self) -> bool:
        return self.array is None and self.perm is None and self.rows is None

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
    as a function block, its row indices and weights.  Lazy products
    build ``array`` on its first read.
    """

    __slots__ = ("dom", "cod", "_array", "_blocks")

    def __new__(cls, dom: TensorType, cod: TensorType, array) -> "Morphism":
        arr = _checked(dom, cod, np.array(array, dtype=np.complex128))
        block = _as_function(dom.factors, cod.factors, arr)
        return _new(dom, cod, *((arr, None) if block is None else (None, (block,))))

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: morphisms are immutable")

    @property
    def array(self) -> np.ndarray:
        """The dense, read-only matrix of shape ``(cod.dim, dom.dim)``."""
        if self._array is None:
            object.__setattr__(self, "_array", _finite(_kron(self._blocks)))
        return self._array

    # diagram operators -------------------------------------------------
    def __rshift__(self, other: "Morphism") -> "Morphism":
        """``f >> g`` is "f then g"."""
        return compose(other, self)

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return tensor(self, other)

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.dom != other.dom or self.cod != other.cod:
            raise WireError(f"cannot add {self.dom} -> {self.cod} and {other.dom} -> {other.cod}")
        return _dense(self.dom, self.cod, self.array + other.array)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-1.0) * other

    def __rmul__(self, z: complex) -> "Morphism":
        z = complex(z)
        blocks = list(_blocks_of(self))
        for i, b in enumerate(blocks):
            if not b.is_wiring:  # scale one block with entries; the others stay lazy
                blocks[i] = _mapped(b, lambda arr: z * arr)
                return _product(self.dom, self.cod, blocks)
        scalar_block = _function_block((), (), np.zeros(1, dtype=np.intp), np.full(1, z))
        return _product(self.dom, self.cod, blocks + [scalar_block])

    def dagger(self) -> "Morphism":
        return _product(self.cod, self.dom, _transpose(_blocks_of(self.conj())))

    def conj(self) -> "Morphism":
        return _product(self.dom, self.cod, [
            b if b.is_wiring else _mapped(b, np.conj) for b in _blocks_of(self)])

    def norm(self) -> float:
        """The Frobenius norm; of a lazy product, the product of its block norms."""
        return _finite_norms(_scaled_prod(map(_block_norm, _blocks_of(self))))[0]

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
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


def _finite_norms(*norms: float) -> tuple[float, ...]:
    if not all(map(math.isfinite, norms)):
        raise ValueError("matrix norms must be finite")
    return norms


def _checked(dom: TensorType, cod: TensorType, arr: np.ndarray) -> np.ndarray:
    if arr.shape != (cod.dim, dom.dim):
        raise WireError(
            f"matrix shape {arr.shape} does not match map {dom} -> {cod} "
            f"(expected {(cod.dim, dom.dim)})"
        )
    return _finite(arr)


def _function_block(dom: tuple[int, ...], cod: tuple[int, ...], rows: np.ndarray,
                    weights: np.ndarray) -> _Block:
    rows.setflags(write=False)
    return _Block(dom, cod, None, None, rows, _finite(weights))


def _permutation(dom: tuple[int, ...], cod: tuple[int, ...], perm: tuple[int, ...]) -> _Block:
    """The permutation block ``dom -> cod`` whose output wire k is input wire ``perm[k]``."""
    rows = np.arange(math.prod(cod)).reshape(cod).transpose(_inverse(perm)).ravel()
    rows.setflags(write=False)
    return _Block(dom, cod, None, perm, rows)


def _as_function(dom: tuple[int, ...], cod: tuple[int, ...], arr: np.ndarray) -> _Block | None:
    """``arr`` as a function block, or None if a column has two nonzero entries."""
    if np.count_nonzero(arr, axis=0).max() > 1:
        return None
    rows = np.argmax(arr != 0, axis=0)  # a zero column gives row 0
    return _function_block(dom, cod, rows, arr[rows, np.arange(arr.shape[1])])


def _mapped(b: _Block, fn) -> _Block:
    """A dense or function block with ``fn`` applied to its entries."""
    if b.array is not None:
        return b._replace(array=_finite(fn(b.array)))
    return b._replace(weights=_finite(fn(b.weights)))


def _function_matrix(rows: np.ndarray, weights: np.ndarray, height: int) -> np.ndarray:
    out = np.zeros((height, rows.size), dtype=np.complex128)
    out[rows, np.arange(rows.size)] = weights
    return out


def _matrix(b: _Block) -> np.ndarray:
    """The matrix of a dense block, or a function block densified."""
    return b.array if b.array is not None else _function_matrix(b.rows, b.weights, math.prod(b.cod))


def _new(dom: TensorType, cod: TensorType, array, blocks) -> Morphism:
    m = object.__new__(Morphism)
    object.__setattr__(m, "dom", dom)
    object.__setattr__(m, "cod", cod)
    object.__setattr__(m, "_array", array)
    object.__setattr__(m, "_blocks", blocks)
    return m


def _dense(dom: TensorType, cod: TensorType, arr: np.ndarray) -> Morphism:
    """A computed matrix as a morphism: checked like a constructor argument, not copied."""
    return _new(dom, cod, _checked(dom, cod, arr), None)


def _product(dom: TensorType, cod: TensorType, blocks) -> Morphism:
    """The map ``dom -> cod`` held as the Kronecker product of ``blocks``, as they are;
    a product of a single dense block is that block's matrix."""
    if len(blocks) == 1 and blocks[0].array is not None:
        return _new(dom, cod, blocks[0].array, None)
    return _new(dom, cod, None, tuple(blocks))


def _blocks_of(m: Morphism) -> tuple[_Block, ...]:
    if m._blocks is not None:
        return m._blocks
    return (_Block(m.dom.factors, m.cod.factors, m._array),)


# -- overflow-free products -------------------------------------------------
#
# Multiplying by a power of two is exact, so a product of factors scaled
# by powers of two rounds exactly like the unscaled one wherever both
# stay in range.  Scaling every factor near 1 first keeps the partial
# products in range whenever the result is.


def _ldexp(x: float, e: int) -> float:
    """``x * 2**e``, or inf where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _scaled_prod(values) -> float:
    """The product of non-negative floats, kept as a mantissa and a binary exponent."""
    mantissa, exponent = 1.0, 0
    for v in values:
        m, e = math.frexp(v)
        mantissa, shift = math.frexp(mantissa * m)
        exponent += e + shift
    return _ldexp(mantissa, exponent)


def _exponent(arr: np.ndarray) -> int:
    """The ``e`` that brings the largest entry of ``arr / 2**e`` into [1, 2).

    Clamped so that ``2.0 ** -e`` is a float.
    """
    return min(max(math.frexp(float(np.abs(arr).max()))[1] - 1, -1022), 1023)


def _scaled(arr: np.ndarray, e: int) -> np.ndarray:
    return arr if e == 0 else arr * 2.0 ** -e


def _fro(arr: np.ndarray) -> float:
    """The Frobenius norm, as one sum of squares over the entries in memory order.

    It is retaken at a power-of-two scale where squaring the entries left
    the float range: the norm is inf, or below 2**-500 with an entry that
    is not 0."""
    flat = arr.ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat).real)
    if 2.0 ** -500 < norm < math.inf or not arr.any():
        return norm
    e = _exponent(arr)
    return _ldexp(float(np.linalg.norm(_scaled(arr, e))), e)


def _unscaled(arr: np.ndarray, exponent: int) -> np.ndarray:
    """``arr * 2**exponent``; an entry that overflows is left for :func:`_finite` to refuse."""
    return arr if exponent == 0 else arr * _ldexp(1.0, exponent)


def _kron(blocks) -> np.ndarray:
    """The dense matrix of a Kronecker product of blocks, each factor scaled near 1 on the
    way; a run of identity, permutation and function blocks is one factor."""
    out, exponent = np.ones((1, 1), dtype=np.complex128), 0
    for dense, run in itertools.groupby(blocks, key=lambda b: b.array is not None):
        run = list(run)
        if dense:
            factors = [(b.array, _exponent(b.array)) for b in run]
        else:  # scaled by the exponent of its weights, not of its matrix
            rows, weights, e = _function_of(run)
            s = _exponent(weights)
            height = math.prod(math.prod(b.cod) for b in run)
            factors = [(_function_matrix(rows, _scaled(weights, s), height), 0)]
            exponent += e + s
        for m, e in factors:
            exponent += e
            m = _scaled(m, e)
            # entry (i, j) of out times entry (k, l) of m lands at (i*K + k, j*L + l)
            out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
                out.shape[0] * m.shape[0], out.shape[1] * m.shape[1])
    return _unscaled(out, exponent)


def _function_of(blocks) -> tuple[np.ndarray, np.ndarray, int]:
    """A Kronecker product of identity, permutation and function blocks as one function.

    Returns its rows, and its weights as a mantissa array and a binary
    exponent: where several blocks have weights, each block's are scaled
    near 1 on the way, as in :func:`_kron`.  The first factor's rows and
    weights are the seed, so a sole function block is returned as it is.
    """
    factors = _function_factors(blocks)
    scale = sum(w is not None for _, _, w in factors) > 1
    rows, weights, exponent = None, None, 0
    for out, height, w in factors:
        if scale and w is not None:
            e = _exponent(w)
            exponent, w = exponent + e, _scaled(w, e)
        if rows is None:
            rows, weights = out, np.ones(out.size, dtype=np.complex128) if w is None else w
        else:
            rows = (rows[:, None] * height + out).ravel()
            weights = np.repeat(weights, out.size) if w is None else (weights[:, None] * w).ravel()
    return rows, weights, exponent


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
    return [_transposed_function(b) if b.weights is not None else
            _Block(b.cod, b.dom, b.array.T) if b.array is not None else
            _permutation(b.cod, b.dom, _inverse(b.perm)) if b.perm is not None else
            b for b in blocks]


def _transposed_function(b: _Block) -> _Block:
    """The transpose of a function block: a function block where no two nonzero
    columns share a row, and a dense block otherwise."""
    height = math.prod(b.cod)
    columns = np.flatnonzero(b.weights)
    hit = b.rows[columns]
    if np.bincount(hit, minlength=height).max() > 1:
        return _Block(b.cod, b.dom, _finite(_matrix(b).T))
    rows = np.zeros(height, dtype=np.intp)
    weights = np.zeros(height, dtype=np.complex128)
    rows[hit], weights[hit] = columns, b.weights[columns]
    return _function_block(b.cod, b.dom, rows, weights)


def _einsum(g_blocks, f_blocks) -> np.ndarray:
    """``kron(g_blocks) @ kron(f_blocks)``, summed wire by wire, two dense blocks at a time.

    It takes every piece of a composite that holds a dense block, a side
    of one block included.  Every wire gets its own label.  An identity or
    permutation block gives each output wire the label of the input wire
    it carries, so it takes no part in the sum, and the dense blocks are
    the operands (a function block among them is densified).  A label is
    on at most two operands, and a label that two operands share is a
    middle wire, never an output.  So any order of pairwise contractions
    is exact, with no batch labels and no path search: each step takes the
    pair with the smallest result and sums their shared labels in one
    matmul.  A wire carried through both sides is on no operand; the
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
    dims = {w: d for arr, wires in operands for w, d in zip(wires, arr.shape)}
    while len(operands) > 1:
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
    (last, wires), = operands
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
    view = np.lib.stride_tricks.as_strided(
        result, last.shape + tuple(result.shape[cod.index(w)] for w in through),
        [steps[w] for w in wires + through])
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
    return _fro(b.array if b.array is not None else b.weights)


def _same_array(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _same_block(x: _Block, y: _Block) -> bool:
    return (x.dom == y.dom and x.cod == y.cod and x.perm == y.perm
            and _same_array(x.array, y.array) and _same_array(x.rows, y.rows)
            and _same_array(x.weights, y.weights))


def _sole_function(m: Morphism) -> _Block | None:
    """The function block that ``m`` is, if it is one block of that kind."""
    blocks = m._blocks
    if blocks is not None and len(blocks) == 1 and blocks[0].weights is not None:
        return blocks[0]
    return None


def _function_distance(x_rows, x, y_rows, y) -> tuple[float, float, float]:
    """``norm(x - y)``, ``norm(x)`` and ``norm(y)`` of two functions on the same wires.

    They are compared column by column: a column whose rows agree
    contributes ``|x - y|**2``, and one whose rows differ ``|x|**2 + |y|**2``.
    """
    same = x_rows == y_rows
    return (math.hypot(_fro(np.where(same, x - y, x)), _fro(y[~same])), _fro(x), _fro(y))


def _part_keys(a_blocks, b_blocks) -> list[list]:
    """For each block of two products on the same wires, the part it belongs to.

    The codomain and the domain wire positions are the nodes of a
    union-find, and every block, on either side, joins all of its wires.
    So each part covers the same wires on both sides, and no finer split
    does.  Wire-less scalar blocks all get the key None.
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

    Of two products, a part (see :func:`_part_keys`) with the same blocks
    on both sides is a common Kronecker factor, so it contributes only its
    norm.  The other parts are taken together, each side's blocks in their
    order, which puts both sides' wires in the same order: as one function
    on each side where they hold no dense block, compared column by column
    (:func:`_function_distance`), and built densely otherwise.  Raises
    ValueError when a result is not finite.
    """
    if x.dom.factors != y.dom.factors or x.cod.factors != y.cod.factors:
        raise WireError(f"cannot compare {x.dom} -> {x.cod} with {y.dom} -> {y.cod}")
    if x._blocks is None and y._blocks is None:
        a, b = x._array, y._array
        return _finite_norms(_fro(a - b), _fro(a), _fro(b))
    fx, fy = _sole_function(x), _sole_function(y)
    if fx is not None and fy is not None:
        return _finite_norms(*_function_distance(fx.rows, fx.weights, fy.rows, fy.weights))
    x_blocks, y_blocks = _blocks_of(x), _blocks_of(y)
    keys = _part_keys(x_blocks, y_blocks)
    parts: dict = {}
    for side, blocks in enumerate((x_blocks, y_blocks)):
        for blk, k in zip(blocks, keys[side]):
            parts.setdefault(k, ([], []))[side].append(blk)
    common, differ = [], set()
    for k, (xs, ys) in parts.items():
        if len(xs) == len(ys) and all(map(_same_block, xs, ys)):
            common += map(_block_norm, xs)
        else:
            differ.add(k)
    differing = [[blk for blk, k in zip(blocks, side_keys) if k in differ]
                 for blocks, side_keys in zip((x_blocks, y_blocks), keys)]
    if not differ:  # every part is common: the sides are equal
        built = 0.0, 1.0, 1.0
    elif all(blk.array is None for side in differing for blk in side):
        (x_rows, *xw), (y_rows, *yw) = map(_function_of, differing)
        built = _function_distance(x_rows, _finite(_unscaled(*xw)), y_rows, _finite(_unscaled(*yw)))
    else:
        a, b = map(_kron, differing)
        built = _fro(a - b), _fro(a), _fro(b)
    return _finite_norms(*(_scaled_prod(common + [v]) for v in built))


def _compose_blocks(g_blocks, f_blocks) -> list[_Block]:
    """Blocks of ``kron(g_blocks) @ kron(f_blocks)``, composed piece by piece.

    One sweep over both block lists cuts the middle wires wherever both
    products have a block boundary: a piece takes the next block of
    whichever side covers fewer middle wires, until both sides cover the
    same number.  Each identity block covers one wire, so it never hides
    a boundary.  By the interchange law the composite is the Kronecker
    product of the pieces' composites.  A piece that is the identity on
    one side is just the other side's blocks.  A piece with a dense block
    is contracted wire by wire (:func:`_einsum`).  A piece with no dense
    block on either side is one function block, composed by a gather
    (:func:`_gathered`), or, if it has no function block either, one
    permutation block, or identities where the permutations cancel.
    Blocks with no middle wires (effects of f, states of g) that sit on a
    cut form a piece of their own, f's before g's, which is placed before
    the piece that starts at that cut; one inside a piece is part of it.
    """
    out: list[_Block] = []
    i = j = 0
    while True:
        while i < len(f_blocks) and not f_blocks[i].cod:
            out.append(f_blocks[i])
            i += 1
        while j < len(g_blocks) and not g_blocks[j].dom:
            out.append(g_blocks[j])
            j += 1
        if i == len(f_blocks):  # so j == len(g_blocks): both sides end on the last wire
            return out
        fs, gs, f_wires, g_wires = [], [], 0, 0
        while not fs or f_wires != g_wires:
            if f_wires <= g_wires:
                fs.append(f_blocks[i])
                f_wires += len(f_blocks[i].cod)
                i += 1
            else:
                gs.append(g_blocks[j])
                g_wires += len(g_blocks[j].dom)
                j += 1
        if all(b.is_identity for b in fs):
            out += gs
        elif all(b.is_identity for b in gs):
            out += fs
        else:
            dom = tuple(d for b in fs for d in b.dom)
            cod = tuple(d for b in gs for d in b.cod)
            if any(b.array is not None for b in fs + gs):
                out.append(_Block(dom, cod, _finite(_einsum(gs, fs))))
            elif any(b.weights is not None for b in fs + gs):
                out.append(_gathered(dom, cod, _function_of(gs), _function_of(fs)))
            else:  # g's output k is f's input f_perm[g_perm[k]]
                f_perm = _wire_perm(fs)
                perm = tuple(f_perm[k] for k in _wire_perm(gs))
                out += ([_Block((d,), (d,), None) for d in dom] if perm == tuple(sorted(perm))
                        else [_permutation(dom, cod, perm)])


def _gathered(dom, cod, g, f) -> _Block:
    """The function block of ``g after f``, for functions given as (rows, weights, exponent)."""
    (g_rows, g_weights, g_exp), (f_rows, f_weights, f_exp) = g, f
    weights = _unscaled(g_weights[f_rows] * f_weights, g_exp + f_exp)
    return _function_block(dom, cod, g_rows[f_rows], weights)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite ``g after f``."""
    if f.cod.factors != g.dom.factors:
        raise WireError(f"cannot compose: codomain {f.cod} does not match domain {g.dom}")
    if f._blocks is None and g._blocks is None:
        return _dense(f.dom, g.cod, g._array @ f._array)
    fb, gb = _sole_function(f), _sole_function(g)
    if fb is not None and gb is not None:
        block = _gathered(fb.dom, gb.cod, (gb.rows, gb.weights, 0), (fb.rows, fb.weights, 0))
        return _new(f.dom, g.cod, None, (block,))
    return _product(f.dom, g.cod, _compose_blocks(_blocks_of(g), _blocks_of(f)))


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """The tensor product, held lazily as the blocks of both factors."""
    return _product(f.dom @ g.dom, f.cod @ g.cod, _blocks_of(f) + _blocks_of(g))


def swap(a: TensorType, b: TensorType) -> Morphism:
    """The crossing ``a (x) b -> b (x) a``, held as one permutation block."""
    n, m = len(a.factors), len(b.factors)
    if not n or not m:
        return (a @ b).identity()
    perm = (*range(n, n + m), *range(n))
    return _product(a @ b, b @ a, (_permutation((a @ b).factors, (b @ a).factors, perm),))


def double_blocks(f: Morphism) -> Morphism:
    """``f (x) conj(f)``, each conjugate wire next to its original.

    Doubling is a monoidal functor: a wire ``d`` becomes the adjacent
    pair ``(d, d)``.  A dense block is doubled as a matrix
    (:func:`_double_matrix`) and a function block on its indices
    (:func:`_doubled_function`); the identity on a wire becomes the
    identity on each of its two wires; and a permutation ``p`` moves whole
    pairs, ``(2 p[k], 2 p[k] + 1)``.  A lazy product is mapped block by
    block, so it stays lazy.
    """
    blocks = []
    for b in _blocks_of(f):
        dom, cod = _pairs(b.dom), _pairs(b.cod)
        if b.is_identity:
            blocks += [b, b]
        elif b.weights is not None:
            blocks.append(_doubled_function(b, dom, cod))
        elif b.array is not None:
            blocks.append(_Block(dom, cod, _checked(TensorType(dom), TensorType(cod),
                                                    _double_matrix(b.array, b.dom, b.cod))))
        else:
            blocks.append(_permutation(
                dom, cod, tuple(i for p in b.perm for i in (2 * p, 2 * p + 1))))
    return _product(TensorType(_pairs(f.dom.factors)), TensorType(_pairs(f.cod.factors)), blocks)


def _pairs(wires: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(w for d in wires for w in (d, d))


def _double_matrix(arr: np.ndarray, dom: tuple[int, ...], cod: tuple[int, ...]) -> np.ndarray:
    """``arr (x) conj(arr)`` on factors ``dom -> cod``, each conjugate wire next to its original."""
    n, m = len(cod), len(dom)
    out = np.kron(arr, arr.conj()).reshape(cod + cod + dom + dom)
    cod_perm = [k for i in range(n) for k in (i, n + i)]
    dom_perm = [2 * n + k for i in range(m) for k in (i, m + i)]
    return out.transpose(cod_perm + dom_perm).reshape(arr.shape[0] ** 2, arr.shape[1] ** 2)


def _doubled_function(b: _Block, dom: tuple[int, ...], cod: tuple[int, ...]) -> _Block:
    """``b (x) conj(b)`` as a function block on the paired wires ``dom -> cod``.

    The product's columns and rows enumerate ``b.dom + b.dom`` and
    ``b.cod + b.cod``; moving the axes of its rows and weights puts each
    conjugate input wire next to its original, and a lookup table
    renumbers the rows the same way.
    """
    rows, weights, exponent = _function_of([b, b._replace(weights=b.weights.conj())])
    n, m = len(b.cod), len(b.dom)
    columns = [k for i in range(m) for k in (i, m + i)]  # paired axis -> axis of dom + dom
    rows, weights = (a.reshape(b.dom * 2).transpose(columns).ravel() for a in (rows, weights))
    renumber = np.arange(math.prod(cod)).reshape(cod).transpose(
        [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]).ravel()
    return _function_block(dom, cod, renumber[rows], _unscaled(weights, exponent))


def cup(d: int) -> Morphism:
    """The Bell state ``I -> [d, d]``, sum over i of |ii>."""
    return Morphism(UNIT, TensorType((d, d)), np.eye(d).reshape(d * d, 1))


def cap(d: int) -> Morphism:
    """The Bell effect ``[d, d] -> I``; the dagger of :func:`cup`."""
    return cup(d).dagger()


def scalar(z: complex) -> Morphism:
    return Morphism(UNIT, UNIT, np.array([[z]]))


def basis_state(d: int, i: int) -> Morphism:
    """The computational basis ket |i> as a map ``I -> [d]``."""
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
    that do.  A residual or threshold that is not finite raises
    ValueError, so no comparison can pass by overflow.
    """
    if isinstance(lhs, Morphism):
        residual, lhs_norm, rhs_norm = _distance_and_norms(lhs, rhs)
        threshold = tol.threshold(max(lhs_norm, rhs_norm))
    else:
        residual, threshold = lhs.distance(rhs), 0.0
    if not (math.isfinite(residual) and math.isfinite(threshold)):
        raise ValueError(f"comparison is not finite: residual {residual}, threshold {threshold}")
    return Comparison(residual <= threshold, residual, threshold)


def compare_all(pairs, tol: Tolerance = DEFAULT_TOL) -> Comparison:
    """Compare every ``(lhs, rhs)`` pair: all must hold, and the worst pair is reported.

    Each pair is judged at its own threshold, so a pair of small norm can
    fail while the pair with the largest residual holds.
    """
    return Comparison.joint(compare(lhs, rhs, tol) for lhs, rhs in pairs)

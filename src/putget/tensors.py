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
  column, held as one row index and one weight per column.  The
  constructor keeps every such matrix this way (copy spiders,
  decoherence, computational-basis projectors, effects and scalars);
- a permutation block, a wire crossing (:func:`swap`) held as its wires,
  the permutation that takes inputs to outputs and the row of each input;
- an identity block, held as its wire: one block per wire.

``tensor``, ``swap`` and ``TensorType.identity`` build lazy products,
and one constructor, ``_crossing``, makes every identity and
permutation block.  ``compose`` works along the wires, with no special
case for a dense or a function operand: one sweep over both operands'
blocks cuts the shared middle wires wherever both have a block boundary
and composes each piece on its own.  A piece with an identity on one
side is the other side's blocks, untouched.  A piece of function,
permutation and identity blocks composes into one function block by a
gather of index arrays, or, with no function block, into one
permutation block.  Every piece with a dense block, a side of one block
included, is contracted wire by wire on one path: a function block in it is
densified, the dense blocks are multiplied two at a time by matmul in
the order that keeps each result smallest, and a permutation block only
relabels wires.  ``double_blocks`` doubles each block as a composite
between two pairing crossings, so it is ``compose`` that keeps each
block's kind there.  ``tensor``, ``conj``, scalar multiples and
``double_blocks`` keep a function block a function block, and so does
``dagger`` where no two nonzero columns share a row.  A scalar multiple
scales one dense or function block, or else gains a wire-less 1x1
function block.  So neither ``1 (x) f`` nor a crossing is ever built as
a matrix.  ``Morphism.array`` builds the dense matrix only when something
reads it, as the composite of the blocks with the identity, so it takes
the one contraction path too.

Comparisons work on the blocks too.  A product's norm is the product of
its block norms, and ``distance`` groups the blocks of both sides into
the finest parts that cover the same wires: a part with the same blocks
on both sides is a common factor and contributes only its norm, so only
the parts where the sides differ are looked at.  Where those hold no
dense block they are compared column by column as index arrays, and
otherwise built densely, the same way.  A dense norm is one sum of
squares over the entries in memory order.  Every product (a contraction,
a gather, a product of norms) scales each factor near 1 by a power of two
and the result back once, through ``_pow2``.  That is
exact, so no partial product overflows unless the result does, a 0
stays 0, and a result out of range is refused as a ValueError.

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
        return _product(self, self, _identity(self.factors))

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
    as a function block, its row indices and weights, and any other as
    one dense block.  ``array`` is that block's matrix, or else is built
    from the blocks on its first read and kept.
    """

    __slots__ = ("dom", "cod", "_array", "_blocks")

    def __new__(cls, dom: TensorType, cod: TensorType, array) -> "Morphism":
        arr = _checked(dom, cod, np.array(array, dtype=np.complex128))
        block = _as_function(dom.factors, cod.factors, arr)
        return _new(dom, cod, (_Block(dom.factors, cod.factors, arr) if block is None else block,))

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
        arr = _finite(self.array + other.array)
        return _new(self.dom, self.cod, (_Block(self.dom.factors, self.cod.factors, arr),))

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-1.0) * other

    def __rmul__(self, z: complex) -> "Morphism":
        z = complex(z)
        blocks = list(self._blocks)
        weighted = [i for i, b in enumerate(blocks) if not b.is_wiring]
        if weighted:  # scale the first block with entries; the others stay lazy
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    blocks[weighted[0]] = _mapped(blocks[weighted[0]], lambda arr: z * arr)
            except ValueError:  # that block leaves the float range, but the product may not
                largest = (float(np.abs(_entries(blocks[i])).max()) for i in weighted)
                if not math.isfinite(_scaled_prod([abs(z), *largest])):
                    raise ValueError("matrix entries must be finite") from None
            else:
                return _product(self.dom, self.cod, blocks)
        scalar_block = _function_block((), (), np.zeros(1, dtype=np.intp), np.full(1, z))
        return _product(self.dom, self.cod, blocks + [scalar_block])

    def dagger(self) -> "Morphism":
        return _product(self.cod, self.dom, _transpose(self.conj()._blocks))

    def conj(self) -> "Morphism":
        return _product(self.dom, self.cod, [
            b if b.is_wiring else _mapped(b, np.conj) for b in self._blocks])

    def norm(self) -> float:
        """The Frobenius norm; of a lazy product, the product of its block norms."""
        return _finite_norms(_scaled_prod(map(_block_norm, self._blocks)))[0]

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


def _as_function(dom: tuple[int, ...], cod: tuple[int, ...], arr: np.ndarray) -> _Block | None:
    """``arr`` as a function block, or None if a column has two nonzero entries."""
    if np.count_nonzero(arr, axis=0).max() > 1:
        return None
    rows = np.argmax(arr != 0, axis=0)  # a zero column gives row 0
    return _function_block(dom, cod, rows, arr[rows, np.arange(arr.shape[1])])


def _entries(b: _Block) -> np.ndarray:
    """The entries of a dense block, or the weights of a function block."""
    return b.array if b.array is not None else b.weights


def _mapped(b: _Block, fn) -> _Block:
    """A dense or function block with ``fn`` applied to its entries."""
    if b.array is not None:
        return b._replace(array=_finite(fn(b.array)))
    return b._replace(weights=_finite(fn(b.weights)))


def _matrix(b: _Block) -> np.ndarray:
    """The matrix of a dense block, or a function block densified."""
    if b.array is not None:
        return b.array
    out = np.zeros((math.prod(b.cod), b.rows.size), dtype=np.complex128)
    out[b.rows, np.arange(b.rows.size)] = b.weights
    return out


def _new(dom: TensorType, cod: TensorType, blocks: tuple[_Block, ...]) -> Morphism:
    m = object.__new__(Morphism)
    object.__setattr__(m, "dom", dom)
    object.__setattr__(m, "cod", cod)
    object.__setattr__(m, "_blocks", blocks)
    object.__setattr__(m, "_array", blocks[0].array if len(blocks) == 1 else None)
    return m


def _product(dom: TensorType, cod: TensorType, blocks) -> Morphism:
    """The map ``dom -> cod`` held as the Kronecker product of ``blocks``, as they are; of
    one dense block, its ``array`` is that block's matrix from the start."""
    return _new(dom, cod, tuple(blocks))


# -- overflow-free products -------------------------------------------------


def _pow2(x, e: int):
    """``x * 2**e`` for a float or an array: exact where the result is a normal float, and
    not finite (for :func:`_finite` or :func:`_finite_norms` to refuse) where it is out of
    range.  An array goes in steps of at most ``2**±1000``, all in one direction, so a step
    overflows only where the result does; a complex entry that overflows before the last
    step is inf in one part and NaN in the other."""
    if isinstance(x, float):
        try:
            return math.ldexp(x, e)
        except OverflowError:
            return math.inf
    if e == 0:
        return x
    with np.errstate(over="ignore", invalid="ignore"):
        while e:
            step = max(-1000, min(e, 1000))
            x, e = x * 2.0 ** step, e - step
    return x


def _scaled_prod(values) -> float:
    """The product of non-negative floats, kept as a mantissa and a binary exponent."""
    mantissa, exponent = 1.0, 0
    for v in values:
        m, e = math.frexp(v)
        mantissa, shift = math.frexp(mantissa * m)
        exponent += e + shift
    return _pow2(mantissa, exponent)


def _exponent(arr: np.ndarray) -> int:
    """The ``e`` that brings the largest entry of ``arr / 2**e`` into [1, 2)."""
    return math.frexp(float(np.abs(arr).max()))[1] - 1


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
    return _pow2(float(np.linalg.norm(_pow2(arr, -e))), e)


def _kron(blocks) -> np.ndarray:
    """The dense matrix of a Kronecker product of blocks: their composite with the identity."""
    return _einsum(blocks, _identity(tuple(d for b in blocks for d in b.dom)))


def _function_of(blocks) -> tuple[np.ndarray, np.ndarray, int]:
    """A Kronecker product of identity, permutation and function blocks as one function.

    Returns its rows, and its weights as a mantissa array and a binary
    exponent: each block's weights are scaled near 1 on the way, as the
    operands of :func:`_einsum` are, so the mantissas are near 1 too.
    """
    rows, weights, exponent = None, None, 0
    for out, height, w in _function_factors(blocks):
        if w is not None:
            e = _exponent(w)
            exponent, w = exponent + e, _pow2(w, -e)
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
    out: list[_Block] = []
    for b in blocks:
        if b.perm is not None:
            out += _crossing(b.cod, b.dom, _inverse(b.perm))
        else:
            out.append(_transposed_function(b) if b.weights is not None else
                       _Block(b.cod, b.dom, b.array.T) if b.array is not None else b)
    return out


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
    their shared labels in one matmul.  Each operand is scaled near 1 first and the result scaled
    back once, so no partial product overflows unless the result does.
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
    exponents = [_exponent(arr) for arr, _ in operands]  # each operand scaled near 1
    operands = [(_pow2(arr, -e), wires) for (arr, wires), e in zip(operands, exponents)]
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
    (last, wires), = operands or [(np.ones((), dtype=np.complex128), [])]
    last = _pow2(last, sum(exponents))
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
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _same_block(x: _Block, y: _Block) -> bool:
    return (x.dom == y.dom and x.cod == y.cod and x.perm == y.perm
            and _same_array(x.array, y.array) and _same_array(x.rows, y.rows)
            and _same_array(x.weights, y.weights))


def _sole_function(m: Morphism) -> _Block | None:
    """The function block that ``m`` is, if it is one block of that kind."""
    blocks = m._blocks
    if len(blocks) == 1 and blocks[0].weights is not None:
        return blocks[0]
    return None


def _function_distance(x_rows, x, y_rows, y) -> tuple[float, float, float]:
    """``norm(x - y)``, ``norm(x)`` and ``norm(y)`` of two functions on the same wires.

    They are compared column by column: a column whose rows agree
    contributes ``|x - y|**2``, and one whose rows differ ``|x|**2 + |y|**2``.
    """
    same = x_rows == y_rows
    return math.hypot(_fro(np.where(same, _difference(x, y), x)), _fro(y[~same])), _fro(x), _fro(y)


def _difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a - b``; an entry out of range is not finite, for :func:`_finite_norms` to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a - b


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
    fx, fy = _sole_function(x), _sole_function(y)
    if fx is not None and fy is not None:
        return _finite_norms(*_function_distance(fx.rows, fx.weights, fy.rows, fy.weights))
    x_blocks, y_blocks = x._blocks, y._blocks
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
        built = _function_distance(x_rows, _finite(_pow2(*xw)), y_rows, _finite(_pow2(*yw)))
    else:
        a, b = map(_kron, differing)
        built = _fro(_difference(a, b)), _fro(a), _fro(b)
    return _finite_norms(*(_scaled_prod(common + [v]) for v in built))


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
            elif any(b.weights is not None for b in fs + gs):  # g after f by a gather
                (g_rows, g_weights, g_exp), (f_rows, f_weights, f_exp) = map(_function_of, (gs, fs))
                weights = _pow2(g_weights[f_rows] * f_weights, g_exp + f_exp)
                out.append(_function_block(dom, cod, g_rows[f_rows], weights))
            else:  # g's output k is f's input f_perm[g_perm[k]]
                f_perm = _wire_perm(fs)
                out += _crossing(dom, cod, tuple(f_perm[k] for k in _wire_perm(gs)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite ``g after f``, composed piece by piece (:func:`_compose_blocks`)."""
    if f.cod.factors != g.dom.factors:
        raise WireError(f"cannot compose: codomain {f.cod} does not match domain {g.dom}")
    return _product(f.dom, g.cod, _compose_blocks(g._blocks, f._blocks))


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """The tensor product, held lazily as the blocks of both factors."""
    return _product(f.dom @ g.dom, f.cod @ g.cod, f._blocks + g._blocks)


def swap(a: TensorType, b: TensorType) -> Morphism:
    """The crossing ``a (x) b -> b (x) a``: one permutation block, or identities where a
    side is empty."""
    n = len(a.factors)
    perm = (*range(n, n + len(b.factors)), *range(n))
    return _product(a @ b, b @ a, _crossing((a @ b).factors, (b @ a).factors, perm))


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
    return _product(double_type(f.dom), double_type(f.cod), blocks)


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

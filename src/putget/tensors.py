"""Complex matrices over explicitly factored wire types.

Morphisms of the linear backend are matrices between finite-dimensional
spaces whose dimension is kept as an ordered list of tensor factors, so
``[2, 3]`` and ``[3, 2]`` are distinct types and every wire crossing is
an explicit swap.  Basis order is lexicographic with the leftmost factor
most significant, which is exactly the Kronecker product convention.

A morphism is held either as one dense matrix or as a lazy Kronecker
product: the list of its blocks, in which an identity block is stored as
its wires only.  ``tensor`` and ``identity`` build lazy products, and
``compose`` works along the wires: it cuts the shared middle wires
wherever both operands have a block boundary and composes each piece on
its own.  A piece with an identity on one side is the other side's
blocks, untouched; a dense block is applied along its own axes by a
batched matmul; two larger products are contracted in one
``np.einsum(..., optimize=True)``.  So ``1 (x) f`` is never built as a
matrix, and ``Morphism.array`` builds the dense matrix only when
something reads it.

Comparisons work on the blocks too.  A product's norm is the product of
its block norms, and ``distance`` groups the blocks of both sides into
the finest parts that cover the same wires: a part with the same blocks
on both sides is a common factor and contributes only its norm, so only
the parts where the sides differ are built densely.  Products and norms
are taken with every factor scaled by a power of two, which is exact, so
no partial product overflows unless the result does.

:func:`compare` is the only place in the library where a tolerance
decides a verdict, for matrices and for finite-set functions alike: it
takes the distance and both side norms in one pass and refuses results
that are not finite.  :func:`compare_all` folds it over a list of pairs.

``f >> g`` composes left to right ("f then g"); ``f @ g`` is the tensor
product.  Scalars are 1x1 morphisms on the empty factor list.
"""
from __future__ import annotations

import bisect
import itertools
import math
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
    "identity",
    "swap",
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
        factors = tuple(int(d) for d in self.factors)
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
        return TensorType(self.factors + other.factors)

    def identity(self) -> "Morphism":
        return _product(self, self, (_Block(self.factors, self.factors, None),))

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
    """One factor of a lazy product: a dense ``cod x dom`` matrix, or the
    identity on ``dom`` (equal to ``cod``) when ``array`` is None."""

    dom: tuple[int, ...]
    cod: tuple[int, ...]
    array: np.ndarray | None


class Morphism:
    """A complex matrix read as a linear map ``dom -> cod``.

    The matrix has shape ``(cod.dim, dom.dim)`` and column/row indices
    enumerate the factored basis lexicographically, leftmost factor most
    significant.  Morphisms are immutable and the constructor copies its
    array.  Lazy products build ``array`` on its first read.
    """

    __slots__ = ("dom", "cod", "_array", "_blocks")

    def __init__(self, dom: TensorType, cod: TensorType, array) -> None:
        self._set(dom, cod, _checked(dom, cod, np.array(array, dtype=np.complex128)), None)

    def _set(self, dom, cod, array, blocks) -> None:
        for name, value in zip(Morphism.__slots__, (dom, cod, array, blocks)):
            object.__setattr__(self, name, value)

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
        blocks = list(_blocks_of(self))
        for i, b in enumerate(blocks):
            if b.array is not None:  # scale one dense block; identities stay lazy
                blocks[i] = b._replace(array=_finite(complex(z) * b.array))
                return _product(self.dom, self.cod, blocks)
        return _dense(self.dom, self.cod, complex(z) * self.array)

    def dagger(self) -> "Morphism":
        return _product(self.cod, self.dom, [
            _Block(b.cod, b.dom, None if b.array is None else _finite(b.array.conj().T))
            for b in _blocks_of(self)
        ])

    def conj(self) -> "Morphism":
        return _product(self.dom, self.cod, [
            b if b.array is None else b._replace(array=_finite(b.array.conj()))
            for b in _blocks_of(self)
        ])

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


def _new(dom: TensorType, cod: TensorType, array, blocks) -> Morphism:
    m = object.__new__(Morphism)
    m._set(dom, cod, array, blocks)
    return m


def _dense(dom: TensorType, cod: TensorType, arr: np.ndarray) -> Morphism:
    """A computed matrix as a morphism: checked like a constructor argument, not copied."""
    return _new(dom, cod, _checked(dom, cod, arr), None)


def _product(dom: TensorType, cod: TensorType, blocks) -> Morphism:
    """The map ``dom -> cod`` held as the Kronecker product of ``blocks``.

    Adjacent identity blocks are merged and empty ones dropped; a product
    of a single dense block is that block's matrix.
    """
    merged: list[_Block] = []
    for b in blocks:
        if b.array is None:
            if not b.dom:
                continue
            if merged and merged[-1].array is None:
                wires = merged.pop().dom + b.dom
                b = _Block(wires, wires, None)
        merged.append(b)
    if len(merged) == 1 and merged[0].array is not None:
        return _new(dom, cod, merged[0].array, None)
    return _new(dom, cod, None, tuple(merged))


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
    """The Frobenius norm, retaken at a power-of-two scale where squaring the entries
    left the float range: the norm is inf (NumPy warns of the overflow), or below
    2**-500 with an entry that is not 0."""
    norm = float(np.linalg.norm(arr))
    if 2.0 ** -500 < norm < math.inf or not arr.any():
        return norm
    e = _exponent(arr)
    return _ldexp(float(np.linalg.norm(_scaled(arr, e))), e)


def _kron(blocks) -> np.ndarray:
    """The dense matrix of a Kronecker product of blocks, each scaled near 1 on the way."""
    out, exponent = np.ones((1, 1), dtype=np.complex128), 0
    for b in blocks:
        if b.array is None:
            m = np.eye(math.prod(b.dom))
        else:
            e = _exponent(b.array)
            m, exponent = _scaled(b.array, e), exponent + e
        # entry (i, j) of out times entry (k, l) of m lands at (i*K + k, j*L + l)
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
            out.shape[0] * m.shape[0], out.shape[1] * m.shape[1])
    return out if exponent == 0 else out * _ldexp(1.0, exponent)


def _transpose(blocks) -> list[_Block]:
    return [_Block(b.cod, b.dom, None if b.array is None else b.array.T) for b in blocks]


def _apply(blocks, x: np.ndarray) -> np.ndarray:
    """``kron(blocks) @ x``, applying one dense block at a time along its own axes.

    Before block i, ``x`` is viewed as (outputs of the blocks before i,
    inputs of block i, inputs of the blocks after i times columns), so
    the block acts as one batched matmul; identity blocks are skipped.
    """
    columns = x.shape[1]
    done, rest = 1, x.size
    for b in blocks:
        width = math.prod(b.dom)
        rest //= width
        if b.array is not None:
            x = np.matmul(b.array, x.reshape(done, width, rest))
        done *= math.prod(b.cod)
    return x.reshape(done, columns)


def _einsum(g_blocks, f_blocks) -> np.ndarray:
    """``kron(g_blocks) @ kron(f_blocks)``, contracted wire by wire in one einsum.

    Every wire gets its own label.  An identity block gives its input and
    output wires the same label, so it takes no part in the contraction.
    """
    label = itertools.count()
    args: list = []
    middle: list[int] = []
    dom: list[int] = []
    for b in f_blocks:
        out = [next(label) for _ in b.cod]
        middle += out
        if b.array is None:
            dom += out
        else:
            inputs = [next(label) for _ in b.dom]
            dom += inputs
            args += [b.array.reshape(b.cod + b.dom), out + inputs]
    shared = iter(middle)
    cod: list[int] = []
    for b in g_blocks:
        inputs = [next(shared) for _ in b.dom]
        if b.array is None:
            cod += inputs
        else:
            out = [next(label) for _ in b.cod]
            cod += out
            args += [b.array.reshape(b.cod + b.dom), out + inputs]
    result = np.einsum(*args, cod + dom, optimize=True)
    rows = math.prod(d for b in g_blocks for d in b.cod)
    return result.reshape(rows, result.size // rows)


def _contract(g_blocks, f_blocks) -> np.ndarray:
    """``kron(g_blocks) @ kron(f_blocks)`` as a matrix; neither side is all identity.

    A side that is one dense block is the matrix the other side's blocks
    are applied to; two products of several blocks go to einsum, so that
    neither is built.
    """
    if len(f_blocks) == 1:
        return _apply(g_blocks, f_blocks[0].array)
    if len(g_blocks) == 1:
        return _apply(_transpose(f_blocks), g_blocks[0].array.T).T
    return _einsum(g_blocks, f_blocks)


def _split_identities(blocks) -> list[_Block]:
    out = []
    for b in blocks:
        if b.array is None:
            out.extend(_Block((d,), (d,), None) for d in b.dom)
        else:
            out.append(b)
    return out


def _block_norm(b: _Block) -> float:
    return math.sqrt(math.prod(b.dom)) if b.array is None else _fro(b.array)


def _same_block(x: _Block, y: _Block) -> bool:
    if x.dom != y.dom or x.cod != y.cod or (x.array is None) != (y.array is None):
        return False
    return x.array is y.array or np.array_equal(x.array, y.array)


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
    norm.  The other parts are built densely, each side's blocks in their
    order, which puts both sides' wires in the same order.  Raises
    ValueError when a result is not finite.
    """
    if x.dom != y.dom or x.cod != y.cod:
        raise WireError(f"cannot compare {x.dom} -> {x.cod} with {y.dom} -> {y.cod}")
    if x._blocks is None and y._blocks is None:
        a, b = x._array, y._array
        return _finite_norms(_fro(a - b), _fro(a), _fro(b))
    x_blocks = _split_identities(_blocks_of(x))
    y_blocks = _split_identities(_blocks_of(y))
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
    a, b = (_kron([blk for blk, k in zip(blocks, side_keys) if k in differ])
            for blocks, side_keys in zip((x_blocks, y_blocks), keys))
    return _finite_norms(*(_scaled_prod(common + [_fro(m)]) for m in (a - b, a, b)))


def _compose_blocks(g_blocks, f_blocks) -> list[_Block]:
    """Blocks of ``kron(g_blocks) @ kron(f_blocks)``, composed piece by piece.

    After identity blocks are split into single wires, the middle wires
    are cut wherever both products have a block boundary.  By the
    interchange law the composite is the Kronecker product of the pieces'
    composites, and a piece that is the identity on one side is just the
    other side's blocks.  Blocks with no middle wires (effects of f,
    states of g) that sit on a cut form a piece of their own, which is
    placed before the piece that starts at that cut.
    """
    f_blocks, g_blocks = _split_identities(f_blocks), _split_identities(g_blocks)
    f_starts = list(itertools.accumulate((len(b.cod) for b in f_blocks), initial=0))
    g_starts = list(itertools.accumulate((len(b.dom) for b in g_blocks), initial=0))
    cuts = sorted(set(f_starts) & set(g_starts))
    pieces: dict[tuple[int, bool], tuple[list[_Block], list[_Block]]] = {}
    for side, blocks, starts in ((0, f_blocks, f_starts), (1, g_blocks, g_starts)):
        for b, start, end in zip(blocks, starts, starts[1:]):
            if start == end and start in cuts:
                key = (start, False)
            else:
                key = (cuts[bisect.bisect_right(cuts, start) - 1], True)
            pieces.setdefault(key, ([], []))[side].append(b)
    out: list[_Block] = []
    for (_, has_wires), (fs, gs) in sorted(pieces.items()):
        if not has_wires:
            out += fs + gs
        elif all(b.array is None for b in fs):
            out += gs
        elif all(b.array is None for b in gs):
            out += fs
        else:
            dom = tuple(d for b in fs for d in b.dom)
            cod = tuple(d for b in gs for d in b.cod)
            out.append(_Block(dom, cod, _finite(_contract(gs, fs))))
    return out


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite ``g after f``."""
    if f.cod != g.dom:
        raise WireError(f"cannot compose: codomain {f.cod} does not match domain {g.dom}")
    if f._blocks is None and g._blocks is None:
        return _dense(f.dom, g.cod, g._array @ f._array)
    return _product(f.dom, g.cod, _compose_blocks(_blocks_of(g), _blocks_of(f)))


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """The tensor product, held lazily as the blocks of both factors."""
    return _product(f.dom @ g.dom, f.cod @ g.cod, _blocks_of(f) + _blocks_of(g))


def identity(t: TensorType) -> Morphism:
    return t.identity()


def swap(a: TensorType, b: TensorType) -> Morphism:
    """The crossing ``a (x) b -> b (x) a``."""
    n = a.dim * b.dim
    m = np.zeros((n, n))
    for i in range(a.dim):
        for j in range(b.dim):
            m[j * a.dim + i, i * b.dim + j] = 1.0
    return Morphism(a @ b, b @ a, m)


def cup(d: int) -> Morphism:
    """The Bell state ``I -> [d, d]``, sum over i of |ii>."""
    col = np.zeros((d * d, 1))
    for i in range(d):
        col[i * d + i, 0] = 1.0
    return Morphism(UNIT, TensorType((d, d)), col)


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
    results = [compare(lhs, rhs, tol) for lhs, rhs in pairs]
    worst = max(results, key=lambda r: r.residual)
    return Comparison(all(r.holds for r in results), worst.residual, worst.threshold)

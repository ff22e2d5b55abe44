"""Sparse order-k tensor data model and multilinear algebra.

Tensors are cubical (every mode has dimension n) and stored as a coordinate
list: 1-based integer coordinates sorted lexicographically, with float64
values and explicit zeros dropped.  The sorted entry list is the canonical
form, so two tensors are equal exactly when their entry lists are equal.

``OffsetTensor`` adds a scalar background c and represents ``sparse + c*J``
(J the all-ones tensor) without dense storage; it is how centered tensors
``T - p*J`` are held at sizes where n^k cannot be materialized.  Dense
materialization is gated at n^k <= 10^6 and exceeding the gate is an error,
never a silent fallback.

Contractions against vectors have one implementation, ``_Contraction``:
``multilinear_form``, ``contract_all_but_one``, higher-order power iteration
(one layout for all its sweeps) and the spectral module's matrix products
(an order-2 layout of any shape) all run on it.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence, Union

import numpy as np

DENSE_GATE = 10**6

_LINEAR_LIMIT = 1 << 63


class TensorError(Exception):
    """Base class for tensor contract violations."""


class ShapeMismatchError(TensorError, ValueError):
    """An operand's shape does not fit; caught as a ``ValueError`` too."""


class DenseGateError(TensorError):
    """Raised when an operation would require materializing n^k > 10^6 entries."""


@dataclass(frozen=True)
class TensorShape:
    """Order k >= 2 and shared mode dimension n >= 1: integers, read by
    ``operator.index`` (2.5 raises ``TypeError``) and stored as Python ints."""

    order: int
    dim: int

    def __post_init__(self):
        for name in ("order", "dim"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.order < 2:
            raise ValueError(f"tensor order must be >= 2, got {self.order}")
        if not 1 <= self.dim < 2**31:
            raise ValueError(f"mode dimension must be in [1, 2^31), got {self.dim}")

    @property
    def ncoords(self) -> int:
        return self.dim**self.order

    def require_dense_gate(self, what: str = "dense materialization") -> None:
        if self.ncoords > DENSE_GATE:
            raise DenseGateError(
                f"{what} needs n^k = {self.ncoords} entries; gate is {DENSE_GATE}"
            )


def _integers(a) -> np.ndarray:
    """``a`` as an array, which must have an integer dtype unless it is empty:
    1.5 or "2" raises ``TypeError`` rather than being cast to an index."""
    a = np.asarray(a)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"indices must be integers, got dtype {a.dtype}")
    return a


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class SparseTensor:
    """Coordinate-list tensor with canonical (sorted, unique, zero-free) entries.

    Coordinates are 1-based integers (any integer dtype, checked against
    [1, n] before they are stored as an int32 array of shape (nnz, k));
    values are float64.  Construction canonicalizes unless the caller asserts
    the entries are already in canonical order via ``presorted=True``.  With
    ``presorted=True``, int32 coords and float64 values are handed over, not
    copied: they become read-only, and the caller's arrays with them.
    """

    __slots__ = ("shape", "coords", "values")

    def __init__(self, shape: TensorShape, coords, values, *, presorted: bool = False):
        coords = _integers(coords)
        values = np.asarray(values, dtype=np.float64)
        if coords.size == 0:
            coords = coords.reshape(0, shape.order)
        if coords.ndim != 2 or coords.shape[1] != shape.order:
            raise ValueError(
                f"coords must have shape (nnz, {shape.order}), got {coords.shape}"
            )
        if values.shape != (coords.shape[0],):
            raise ValueError("values must be one float per coordinate")
        if coords.size and (coords.min() < 1 or coords.max() > shape.dim):
            raise ValueError(f"coordinates must lie in [1, {shape.dim}]")
        coords = coords.astype(np.int32, copy=False)
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not presorted:
            keep = values != 0.0
            coords, values = coords[keep], values[keep]
            if coords.shape[0] > 1:
                order = _lex_order(coords)
                coords, values = coords[order], values[order]
                dup = np.all(coords[1:] == coords[:-1], axis=1)
                if dup.any():
                    where = coords[1:][dup][0]
                    raise ValueError(f"duplicate coordinate {tuple(int(i) for i in where)}")
        coords = np.ascontiguousarray(coords)
        values = np.ascontiguousarray(values)
        coords.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("SparseTensor is immutable")

    @classmethod
    def empty(cls, shape: TensorShape) -> "SparseTensor":
        return cls(shape, np.empty((0, shape.order), dtype=np.int32), np.empty(0))

    @classmethod
    def from_entries(cls, shape: TensorShape, entries: Iterable[tuple]) -> "SparseTensor":
        entries = list(entries)
        coords = np.array([e[0] for e in entries]).reshape(len(entries), shape.order)
        values = np.array([e[1] for e in entries], dtype=np.float64)
        return cls(shape, coords, values)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SparseTensor":
        array = np.asarray(array, dtype=np.float64)
        dims = set(array.shape)
        if len(dims) != 1:
            raise ValueError("dense array must be cubical")
        shape = TensorShape(array.ndim, array.shape[0])
        idx = np.argwhere(array != 0.0)
        coords = (idx + 1).astype(np.int32)
        return cls(shape, coords, array[tuple(idx.T)])

    @classmethod
    def all_ones(cls, shape: TensorShape) -> "SparseTensor":
        shape.require_dense_gate("all-ones construction")
        lin = np.arange(shape.ncoords, dtype=np.uint64)
        return cls(shape, _coords_from_linear(lin, shape.order, shape.dim),
                   np.ones(shape.ncoords), presorted=True)

    @property
    def nnz(self) -> int:
        return self.coords.shape[0]

    def linear_indices(self) -> np.ndarray:
        """Row-major 0-based linear index per entry (requires n^k < 2^63)."""
        if self.shape.ncoords >= _LINEAR_LIMIT:
            raise ValueError("coordinate space too large for linear indexing")
        return linear_index(self.coords, self.shape.dim)

    def to_dense(self) -> np.ndarray:
        self.shape.require_dense_gate()
        out = np.zeros((self.shape.dim,) * self.shape.order)
        if self.nnz:
            out[tuple((self.coords - 1).T)] = self.values
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseTensor(k={self.shape.order}, n={self.shape.dim}, nnz={self.nnz})"


class OffsetTensor:
    """``sparse + background * J``: a sparse tensor over a constant offset."""

    __slots__ = ("sparse", "background")

    def __init__(self, sparse: SparseTensor, background: float = 0.0):
        background = float(background)
        if not np.isfinite(background):
            raise ValueError("background must be finite")
        object.__setattr__(self, "sparse", sparse)
        object.__setattr__(self, "background", background)

    def __setattr__(self, name, value):
        raise AttributeError("OffsetTensor is immutable")

    @property
    def shape(self) -> TensorShape:
        return self.sparse.shape

    @property
    def nnz(self) -> int:
        return self.sparse.nnz

    def materialize(self) -> np.ndarray:
        self.shape.require_dense_gate()
        return self.sparse.to_dense() + self.background

    def is_exactly_zero(self) -> bool:
        """True when every materialized entry is exactly 0 (checked sparsely)."""
        return _all_zero(self.sparse.values, self.background, self.shape.ncoords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OffsetTensor):
            return NotImplemented
        return self.background == other.background and self.sparse == other.sparse

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"OffsetTensor(k={self.shape.order}, n={self.shape.dim}, "
            f"nnz={self.nnz}, background={self.background!r})"
        )


TensorLike = Union[SparseTensor, OffsetTensor]


def _all_zero(values: np.ndarray, background: float, size: int) -> bool:
    """True when all ``size`` entries, ``values`` stored over ``background``, are exactly 0."""
    if background == 0.0:
        return len(values) == 0
    return len(values) == size and bool(np.all(values == -background))


def as_offset(t: TensorLike) -> OffsetTensor:
    return t if isinstance(t, OffsetTensor) else OffsetTensor(t, 0.0)


@dataclass(frozen=True)
class Homogeneous:
    """Every entry Bernoulli(p)."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.p}")


class DenseProbability:
    """Entrywise probability table, gated to n^k <= 10^6; the table is copied."""

    __slots__ = ("table", "shape")

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=np.float64)
        dims = set(table.shape)
        if len(dims) != 1 or table.ndim < 2:
            raise ValueError("probability table must be cubical of order >= 2")
        shape = TensorShape(table.ndim, table.shape[0])
        shape.require_dense_gate("dense probability table")
        if not np.all((table >= 0.0) & (table <= 1.0)):  # NaN fails both
            raise ValueError("probabilities must lie in [0, 1]")
        table = np.array(table, order="C")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "shape", shape)

    def __setattr__(self, name, value):
        raise AttributeError("DenseProbability is immutable")


ProbabilityModel = Union[Homogeneous, DenseProbability]


class VectorTuple:
    """k real vectors of length n, one per tensor mode, copied."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Sequence[np.ndarray]):
        vecs = tuple(np.array(v, dtype=np.float64) for v in vectors)
        if len(vecs) < 1:
            raise ValueError("need at least one vector")
        dim = vecs[0].shape
        for v in vecs:
            if v.ndim != 1 or v.shape != dim:
                raise ValueError("all vectors must be 1-d of equal length")
            if not np.all(np.isfinite(v)):
                raise ValueError("vectors must be finite")
        for v in vecs:
            v.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)

    def __setattr__(self, name, value):
        raise AttributeError("VectorTuple is immutable")

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, i):
        return self.vectors[i]

    @property
    def order(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]

    @property
    def unit(self) -> bool:
        """True when every vector has Euclidean norm within 1e-12 of 1."""
        return all(abs(np.sqrt(_dot(v, v)) - 1.0) <= 1e-12 for v in self.vectors)

    @classmethod
    def basis(cls, order: int, dim: int, indices: Sequence[int]) -> "VectorTuple":
        """Standard basis vectors e_{i}, one per mode: 1-based integer
        (``operator.index``) indices in [1, dim]."""
        indices = [operator.index(i) for i in indices]
        if len(indices) != order:
            raise ValueError("one index per mode required")
        if any(not 1 <= i <= dim for i in indices):
            raise ValueError(f"basis indices {indices} out of range [1, {dim}]")
        return cls([np.eye(1, dim, i - 1)[0] for i in indices])

    @classmethod
    def uniform(cls, order: int, dim: int) -> "VectorTuple":
        return cls([np.full(dim, dim**-0.5) for _ in range(order)])


def _vectors_of(xs, order: int | None, dim: int) -> tuple:
    vecs = tuple(xs) if not isinstance(xs, VectorTuple) else xs.vectors
    if order is not None and len(vecs) != order:
        raise ShapeMismatchError(f"expected {order} vectors, got {len(vecs)}")
    out = []
    for v in vecs:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (dim,):
            raise ShapeMismatchError(f"vectors must have length n = {dim}, got shape {v.shape}")
        out.append(v)
    return tuple(out)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a_i * b_i over 1-d arrays, by numpy's own loop rather than BLAS.

    BLAS ``ddot`` (behind ``np.dot`` and ``np.linalg.norm``) splits long sums
    across its threads, so its last bits depend on the BLAS thread count;
    this sum does not, which keeps every result a function of the input
    alone.  Every dot product and vector norm in the package uses it.
    """
    return float(np.einsum("i,i", a, b))


def _require_same_shape(a: TensorShape, b: TensorShape) -> None:
    if a != b:
        raise ShapeMismatchError(f"shape mismatch: {a} vs {b}")


def frobenius_inner(t: TensorLike, a: TensorLike) -> float:
    """Sum of entrywise products over all n^k coordinates.

    The sparse x sparse path merges the two sorted coordinate lists; if
    either operand carries a nonzero background the dense gate n^k <= 10^6
    applies (the background cross terms are still computed analytically).
    """
    t, a = as_offset(t), as_offset(a)
    _require_same_shape(t.shape, a.shape)
    if t.background != 0.0 or a.background != 0.0:
        t.shape.require_dense_gate("inner product with nonzero background")
    total = 0.0
    if t.nnz and a.nnz:
        lt, la = t.sparse.linear_indices(), a.sparse.linear_indices()
        _, it, ia = np.intersect1d(lt, la, assume_unique=True, return_indices=True)
        total += _dot(t.sparse.values[it], a.sparse.values[ia])
    if a.background != 0.0:
        total += a.background * float(t.sparse.values.sum())
    if t.background != 0.0:
        total += t.background * float(a.sparse.values.sum())
    if t.background != 0.0 and a.background != 0.0:
        total += t.background * a.background * t.shape.ncoords
    return total


def _frobenius_sq(t: OffsetTensor) -> float:
    """Sum of squares over all n^k entries in closed form, v.v + 2 b sum(v) + b^2 n^k,
    so no dense gate applies."""
    v, b = t.sparse.values, t.background
    total = _dot(v, v)
    if b != 0.0:
        total += 2.0 * b * float(v.sum()) + b * b * t.shape.ncoords
    return total


def frobenius_norm(t: TensorLike) -> float:
    return float(np.sqrt(max(_frobenius_sq(as_offset(t)), 0.0)))


class _Contraction:
    """Entries laid out for repeated contractions against vectors.

    Holds the 0-based ``intp`` index array of each mode (from 1-based
    ``coords``), the values, the background and the dimensions ``dims``;
    ``of`` lays out a tensor.  A vector enters a contraction as its mode-j
    *factor* (``factor``): the vector gathered at the entries' mode-j
    indices, and its sum.  A caller that changes one vector at a time (power
    iteration) refreshes only that factor.  Both contractions multiply the
    values by the factors in ascending mode order and add b * prod sum(x_j),
    also in mode order; ``all_but_one`` sums each output entry in entry
    order.  Vectors are trusted to be float64 of length ``dims[j]``.
    """

    __slots__ = ("index", "values", "background", "dims")

    def __init__(self, coords: np.ndarray, values: np.ndarray, background: float, dims: tuple):
        self.index = tuple(coords[:, j].astype(np.intp) - 1 for j in range(len(dims)))
        self.values = values
        self.background = background
        self.dims = dims

    @classmethod
    def of(cls, t: OffsetTensor) -> "_Contraction":
        return cls(t.sparse.coords, t.sparse.values, t.background, (t.shape.dim,) * t.shape.order)

    def is_zero(self) -> bool:
        """True when every entry is exactly 0 (``OffsetTensor.is_exactly_zero``)."""
        return _all_zero(self.values, self.background, math.prod(self.dims))

    def factor(self, j: int, v: np.ndarray) -> tuple:
        """(v at the 0-based mode ``j`` index of each entry, sum of v)."""
        return v[self.index[j]], float(v.sum()) if self.background != 0.0 else 0.0

    def _product(self, factors) -> np.ndarray:
        prod = self.values.copy()
        for gathered, _ in factors:
            prod *= gathered
        return prod

    def _background_term(self, factors) -> float:
        bg = self.background
        for _, total in factors:
            bg *= total
        return bg

    def form(self, factors) -> float:
        """sum_i T_i prod_j x_j[i_j] over the sparse part (pairwise summed),
        plus the background term; one factor per mode."""
        total = 0.0
        if len(self.values):
            total += float(self._product(factors).sum())
        if self.background != 0.0:
            total += self._background_term(factors)
        return total

    def all_but_one(self, factors, free: int) -> np.ndarray:
        """Contraction with every mode's factor but the 0-based mode ``free``
        (``factors[free]`` is not read), summed by ``bincount``."""
        others = [f for j, f in enumerate(factors) if j != free]
        if len(self.values):
            out = np.bincount(self.index[free], weights=self._product(others),
                              minlength=self.dims[free])
        else:
            out = np.zeros(self.dims[free])
        if self.background != 0.0:
            out = out + self._background_term(others)
        return out


def multilinear_form(t: TensorLike, xs) -> float:
    """Inner product of the tensor with the rank-1 tensor x_1 (x) ... (x) x_k.

    Cost O(nnz * k + n * k); never materializes the dense tensor.
    """
    t = as_offset(t)
    c = _Contraction.of(t)
    vecs = _vectors_of(xs, t.shape.order, t.shape.dim)
    return c.form([c.factor(j, v) for j, v in enumerate(vecs)])


def contract_all_but_one(t: TensorLike, xs, free_mode: int) -> np.ndarray:
    """Vector v with v[i] = form value when e_i is inserted at ``free_mode``.

    ``xs`` supplies the k-1 vectors for the other modes in ascending mode
    order; ``free_mode`` is 1-based.
    """
    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    if not 1 <= free_mode <= k:
        raise ValueError(f"free_mode must be in [1, {k}], got {free_mode}")
    others = [j for j in range(k) if j != free_mode - 1]
    c = _Contraction.of(t)
    factors = [c.factor(j, v) for j, v in zip(others, _vectors_of(xs, k - 1, n))]
    factors.insert(free_mode - 1, None)
    return c.all_but_one(factors, free_mode - 1)


def hadamard(a, t: SparseTensor) -> SparseTensor:
    """Entrywise product; ``a`` is a SparseTensor or a dense weight array."""
    if isinstance(a, np.ndarray):
        if a.shape != (t.shape.dim,) * t.shape.order:
            raise ShapeMismatchError(f"weight array shape {a.shape} mismatches {t.shape}")
        vals = t.values * a[tuple((t.coords - 1).T)] if t.nnz else t.values
        return SparseTensor(t.shape, t.coords, vals)
    if isinstance(a, OffsetTensor):
        raise TypeError("hadamard weights must be a SparseTensor or dense array")
    _require_same_shape(a.shape, t.shape)
    if a.nnz == 0 or t.nnz == 0:
        return SparseTensor.empty(t.shape)
    la, lt = a.linear_indices(), t.linear_indices()
    _, ia, it = np.intersect1d(la, lt, assume_unique=True, return_indices=True)
    return SparseTensor(t.shape, t.coords[it], a.values[ia] * t.values[it])


def center(t: SparseTensor, model: ProbabilityModel) -> OffsetTensor:
    """Subtract the expectation: the result materializes to ``t - p`` exactly.

    Homogeneous models yield an OffsetTensor with background -p at any size;
    a dense probability table requires the dense gate.
    """
    if isinstance(model, Homogeneous):
        return OffsetTensor(t, -model.p)
    if not isinstance(model, DenseProbability):
        raise TypeError(f"unsupported probability model: {type(model).__name__}")
    if model.shape != t.shape:
        raise ShapeMismatchError(f"model shape {model.shape} mismatches {t.shape}")
    t.shape.require_dense_gate("centering with a dense probability table")
    return OffsetTensor(SparseTensor.from_dense(t.to_dense() - model.table), 0.0)


def rank1(xs) -> np.ndarray:
    """Dense outer product x_1 (x) ... (x) x_k of equal-length vectors, gated to n^k <= 10^6."""
    vecs = list(xs)
    if len(vecs) < 2:
        raise ValueError("rank-1 tensor needs at least two vectors")
    vecs = _vectors_of(vecs, None, np.shape(vecs[0])[0])
    TensorShape(len(vecs), len(vecs[0])).require_dense_gate("rank-1 materialization")
    return reduce(np.multiply.outer, vecs)


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Stable permutation that sorts the rows of a 2-d array lexicographically."""
    return np.lexsort(rows.T[::-1])


def _runs(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices ``lo[r] + [0, lens[r])`` of every run r, laid end to end."""
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def linear_index(coords: np.ndarray, dim: int) -> np.ndarray:
    """Row-major 0-based uint64 linear index of each row of 1-based ``coords``
    over [dim]^columns; wraps modulo 2^64 past that."""
    base = np.uint64(dim)
    lin = np.zeros(coords.shape[0], dtype=np.uint64)
    for j in range(coords.shape[1]):
        lin = lin * base + (coords[:, j].astype(np.uint64) - np.uint64(1))
    return lin


def _coords_from_linear(lin: np.ndarray, order: int, dim: int) -> np.ndarray:
    """Invert the row-major linear index (below 2^63) back to 1-based
    coordinates."""
    out = np.empty((lin.shape[0], order), dtype=np.int32)
    rem = lin.astype(np.int64)
    for j in range(order - 1, -1, -1):
        np.divmod(rem, dim, out=(rem, out[:, j]))
    out += 1
    return out


# --- text serialization ----------------------------------------------------
#
# Header line "k n nnz background", then one line per entry
# "i1 i2 ... ik value" with 1-based indices in canonical sorted order and
# floats printed with 17 significant digits.


def dumps_tensor(t: TensorLike) -> str:
    t = as_offset(t)
    buf = io.StringIO()
    k, n = t.shape.order, t.shape.dim
    buf.write(f"{k} {n} {t.nnz} {_fmt(t.background)}\n")
    coords, values = t.sparse.coords, t.sparse.values
    for row, v in zip(coords, values):
        buf.write(" ".join(str(int(i)) for i in row))
        buf.write(f" {_fmt(v)}\n")
    return buf.getvalue()


def loads_tensor(text: str) -> OffsetTensor:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty tensor serialization")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"malformed header: {lines[0]!r}")
    k, n, nnz = int(head[0]), int(head[1]), int(head[2])
    background = float(head[3])
    if len(lines) - 1 != nnz:
        raise ValueError(f"expected {nnz} entries, found {len(lines) - 1}")
    shape = TensorShape(k, n)
    coords = np.empty((nnz, k), dtype=np.int32)
    values = np.empty(nnz)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != k + 1:
            raise ValueError(f"malformed entry line: {ln!r}")
        coords[i] = [int(x) for x in parts[:k]]
        values[i] = float(parts[k])
    return OffsetTensor(SparseTensor(shape, coords, values), background)

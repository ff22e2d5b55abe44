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
``multilinear_form``, higher-order power iteration (one layout for all its
sweeps, with one column per start in a lockstep batch) and the spectral
module's matrix products (an order-2 layout of any shape) all run on it.
A tensor whose values are all 1.0 skips multiplying by them.  ``_index`` is
the one conversion of 1-based coordinates to its 0-based indices, and
``_Contraction.is_zero`` the one exact-zero test.

All types are immutable after construction and safe to share across threads.
The array holders write their slots through one writer, ``_Frozen._set``, so
they pickle and copy (to a worker process too) with read-only arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

DENSE_GATE = 10**6

_LINEAR_LIMIT = 1 << 63

# Most 8-byte elements one numpy pass of a blocked kernel holds, read as
# ``core._PASS`` at call time: counters per hash block (rng), member counters
# per family-draw chunk, bits per ``_bit_rows`` array and fiber words per
# packed count (hypergraph), pair products per Gram pass (spectral).  A pass's
# arrays (512 KB each) stay in cache; no kernel's output depends on the size.
_PASS = 1 << 16


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


class _Frozen:
    """Immutable once built: ``_set``, the one writer, sets each slot with its arrays (alone
    or in a tuple) read-only, in ``__init__`` and when ``pickle`` or ``copy`` restores it."""

    __slots__ = ()

    def _set(self, **slots):
        for name, value in slots.items():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        self._set(**state[1])  # (None, slots), as ``object.__getstate__`` gives it

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class SparseTensor(_Frozen):
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
            order = _lex_order(coords)
            coords, values = coords[order], values[order]
            dup = np.all(coords[1:] == coords[:-1], axis=1)
            if dup.any():
                where = coords[1:][dup][0]
                raise ValueError(f"duplicate coordinate {tuple(int(i) for i in where)}")
        self._set(shape=shape, coords=np.ascontiguousarray(coords),
                  values=np.ascontiguousarray(values))

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

    def __repr__(self) -> str:
        return f"SparseTensor(k={self.shape.order}, n={self.shape.dim}, nnz={self.nnz})"


@dataclass(frozen=True)
class OffsetTensor:
    """``sparse + background * J``: a sparse tensor over a constant offset."""

    sparse: SparseTensor
    background: float = 0.0

    def __post_init__(self):
        background = float(self.background)
        if not np.isfinite(background):
            raise ValueError("background must be finite")
        object.__setattr__(self, "background", background)

    @property
    def shape(self) -> TensorShape:
        return self.sparse.shape

    @property
    def nnz(self) -> int:
        return self.sparse.nnz

    def materialize(self) -> np.ndarray:
        self.shape.require_dense_gate()
        return self.sparse.to_dense() + self.background

    def __repr__(self) -> str:
        return (
            f"OffsetTensor(k={self.shape.order}, n={self.shape.dim}, "
            f"nnz={self.nnz}, background={self.background!r})"
        )


TensorLike = Union[SparseTensor, OffsetTensor]


def as_offset(t: TensorLike) -> OffsetTensor:
    return t if isinstance(t, OffsetTensor) else OffsetTensor(t, 0.0)


@dataclass(frozen=True)
class Homogeneous:
    """Every entry Bernoulli(p)."""

    p: float

    def __post_init__(self):
        _check_probability(self.p)


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")


class DenseProbability(_Frozen):
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
        self._set(table=np.array(table, order="C"), shape=shape)


ProbabilityModel = Union[Homogeneous, DenseProbability]


def _probabilities(model: ProbabilityModel, shape: TensorShape | None = None):
    """The one reader of a model: the float p of a ``Homogeneous`` model, or
    the table of a ``DenseProbability``, whose shape must equal ``shape``
    unless that is None."""
    if isinstance(model, Homogeneous):
        return model.p
    if not isinstance(model, DenseProbability):
        raise TypeError(f"unsupported probability model: {type(model).__name__}")
    if shape is not None:
        _require_same_shape(model.shape, shape)
    return model.table


class VectorTuple(_Frozen):
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
        self._set(vectors=vecs)

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, i):
        return self.vectors[i]

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


def _index(coords: np.ndarray) -> tuple:
    """The 0-based ``intp`` index array of each column of 1-based ``coords``."""
    return tuple(coords[:, j].astype(np.intp) - 1 for j in range(coords.shape[1]))


class _Contraction:
    """Entries laid out for repeated contractions against vectors.

    Holds the 0-based ``intp`` index array of each mode (``_index`` of 1-based
    coordinates), the values, the background and the dimensions ``dims``;
    ``of`` lays out a tensor, and ``is_zero`` is the library's one test that
    every entry is exactly 0.  A vector enters a contraction as its mode-j
    *factor* (``factor``): the vector gathered at the entries' mode-j
    indices, and its sum.  A caller that changes one vector at a time (power
    iteration) refreshes only that factor.  Both contractions multiply the
    values by the factors in ascending mode order and add b * prod sum(x_j),
    also in mode order; ``all_but_one`` sums each output entry in entry
    order.  When every value is exactly 1.0 (``unit``) the product starts
    from the first factor instead, the same bits since 1.0 * x == x.
    Vectors are trusted to be float64 of length ``dims[j]``.
    """

    __slots__ = ("index", "values", "background", "dims", "unit")

    def __init__(self, index: tuple, values: np.ndarray, background: float, dims: tuple):
        self.index = index
        self.values = values
        self.background = background
        self.dims = dims
        self.unit = bool(np.all(values == 1.0))

    @classmethod
    def of(cls, t: OffsetTensor) -> "_Contraction":
        return cls(_index(t.sparse.coords), t.sparse.values, t.background, (t.shape.dim,) * t.shape.order)

    def is_zero(self) -> bool:
        """True when every entry, stored or background, is exactly 0."""
        if self.background == 0.0:
            return len(self.values) == 0
        return len(self.values) == math.prod(self.dims) and bool(np.all(self.values == -self.background))

    def factor(self, j: int, v: np.ndarray) -> tuple:
        """(v at the 0-based mode ``j`` index of each entry, sum of v).  An
        (n, A) ``v`` holds A vectors as columns: its factor is (nnz, A), and
        each column is summed as one vector."""
        if self.background == 0.0:
            total = 0.0
        else:
            total = float(v.sum()) if v.ndim == 1 else np.ascontiguousarray(v.T).sum(axis=1)
        return np.take(v, self.index[j], axis=0), total

    def _product(self, factors) -> np.ndarray:
        """The values times the gathered factors in mode order; the values
        are skipped when ``unit``."""
        gathered = [g for g, _ in factors]
        if self.unit:
            prod, rest = gathered[0], gathered[1:]
        else:
            prod, rest = self.values, gathered
            if gathered[0].ndim == 2:
                prod = prod[:, None]
        if rest:
            prod = prod * rest[0]
            for g in rest[1:]:
                prod *= g
        return prod

    def _background_term(self, factors) -> float:
        bg = self.background
        for _, total in factors:
            bg *= total
        return bg

    def form(self, factors) -> float:
        """sum_i T_i prod_j x_j[i_j] over the sparse part (pairwise summed),
        plus the background term; one factor per mode."""
        return float(self._product(factors).sum()) + self._background_term(factors)

    def all_but_one(self, factors, free: int, bins: np.ndarray | None = None) -> np.ndarray:
        """Contraction with every mode's factor but the 0-based mode ``free``
        (``factors[free]`` is not read), summed by ``bincount``.  Factors of
        A columns give an (n, A) result and need ``bins``, the flat bins
        index * A + s of the entries' products (``spectral.hopm_lower``)."""
        others = [f for j, f in enumerate(factors) if j != free]
        shape = (self.dims[free], *others[0][0].shape[1:])
        out = np.bincount(self.index[free] if bins is None else bins,
                          weights=self._product(others).ravel(),
                          minlength=math.prod(shape))
        out = out.astype(np.float64, copy=False).reshape(shape)  # int zeros when nnz = 0
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


def center(t: SparseTensor, model: ProbabilityModel) -> OffsetTensor:
    """Subtract the expectation: the result materializes to ``t - p`` exactly.

    Homogeneous models yield an OffsetTensor with background -p at any size;
    a dense probability table (gated when it was built) yields background 0.
    """
    p = _probabilities(model, t.shape)
    if np.ndim(p) == 0:
        return OffsetTensor(t, -p)
    return OffsetTensor(SparseTensor.from_dense(t.to_dense() - p), 0.0)


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Stable permutation that sorts the rows of a 2-d array lexicographically."""
    return np.lexsort(rows.T[::-1])


def _runs(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices ``lo[r] + [0, lens[r])`` of every run r, laid end to end."""
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def linear_index(coords: np.ndarray, dim: int) -> np.ndarray:
    """Row-major 0-based uint64 linear index of each row of 1-based ``coords``
    over [dim]^columns; wraps modulo 2^64 past that."""
    lin = np.zeros(coords.shape[0], dtype=np.uint64)
    for j in range(coords.shape[1]):  # in place: one column's temporary at a time
        lin *= np.uint64(dim)
        lin += coords[:, j].astype(np.uint64)
        lin -= np.uint64(1)
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


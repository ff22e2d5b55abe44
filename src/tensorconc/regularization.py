"""Tuple-degree computation, degree-threshold regularization, and the
bounded-degree expander construction built from them.

The degree of a (k-m)-tuple is the number of stored entries sharing that
prefix (equal to the value sum for 0/1 tensors).  Regularization zeroes
every entry whose prefix degree strictly exceeds 2 * n^m * p; ties at the
threshold are kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import SparseTensor, _check_p, _Frozen
from .hypergraph import Hypergraph, adjacency


@dataclass(frozen=True)
class DegreeMap(_Frozen):
    """Counts per (k-m)-prefix; prefixes with zero degree are implicit."""

    prefixes: np.ndarray  # (num, k - m) int32, sorted lexicographically
    counts: np.ndarray  # (num,) int64

    @property
    def max_degree(self) -> int:
        return int(self.counts.max(initial=0))


def degree_map(t: SparseTensor, m: int) -> DegreeMap:
    """Degrees of all (k-m)-prefixes in one pass over the sorted entries."""
    k = t.shape.order
    if not 1 <= m <= k - 1:
        raise ValueError(f"m must be in [1, {k - 1}], got {m}")
    plen = k - m
    pref = t.coords[:, :plen]
    # entries are lexicographically sorted, so equal prefixes are contiguous
    new = np.ones(t.nnz, dtype=bool)
    new[1:] = pref[1:, 0] != pref[:-1, 0]
    for j in range(1, plen):
        new[1:] |= pref[1:, j] != pref[:-1, j]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, t.nnz)).astype(np.int64)
    return DegreeMap(np.ascontiguousarray(pref[starts]), counts)


@dataclass(frozen=True)
class RegularizationResult(_Frozen):
    regularized: SparseTensor
    removed: np.ndarray  # (|S|, k-m) int32, sorted
    threshold: float
    m: int
    in_guarantee_regime: bool

    @property
    def removed_count(self) -> int:
        return self.removed.shape[0]


def regularize(t: SparseTensor, m: int, p: float) -> RegularizationResult:
    """Remove all entries whose (k-m)-prefix degree exceeds 2 * n^m * p.

    ``degree_map`` splits the sorted entries into one contiguous run per
    prefix, so an entry is kept exactly when its run is at most the
    threshold long.  The guarantee regime is k/2 <= m <= k-1; other m still
    run but are flagged (and warned) as outside it.
    """
    k, n = t.shape.order, t.shape.dim
    dm = degree_map(t, m)  # checks m before the regime warning
    _check_p(p)
    in_regime = 2 * m >= k
    if not in_regime:
        warnings.warn(
            f"regularization with m={m} < k/2={k / 2} is outside the guarantee regime",
            stacklevel=2,
        )
    threshold = 2.0 * n**m * p
    bad = dm.counts > threshold
    removed = np.ascontiguousarray(dm.prefixes[bad])
    keep = np.repeat(~bad, dm.counts)
    out = SparseTensor(t.shape, t.coords[keep], t.values[keep], presorted=True)
    return RegularizationResult(out, removed, threshold, m, in_regime)


@dataclass(frozen=True)
class RemovedCountCheck:
    count: int
    bound: float
    within: bool


def removed_count_check(result: RegularizationResult, p: float) -> RemovedCountCheck:
    """Compare |removed prefixes| against 1 / (n^(2m-k) * p)."""
    m = result.m
    k, n = result.regularized.shape.order, result.regularized.shape.dim
    if not result.in_guarantee_regime:
        raise ValueError(f"removed-count bound needs k/2 <= m <= k-1, got m={m}, k={k}")
    bound = 1.0 / (n ** (2 * m - k) * p)
    count = result.removed_count
    return RemovedCountCheck(count, bound, count <= bound)


def expander_construct(t: SparseTensor, p: float) -> SparseTensor:
    """Bounded-degree regularization of a symmetric 0/1 adjacency tensor.

    1. keep only strictly increasing coordinates, one per edge (the input,
       unit-valued with no repeated index, must equal their ``adjacency``);
    2. ``regularize`` them with m = k-1: every edge whose first vertex lies
       in more than 2 * n^(k-1) * p kept edges is dropped (ties kept);
    3. ``adjacency`` of the surviving edges, i.e. the sum over all index
       permutations.
    """
    k, n = t.shape.order, t.shape.dim
    if np.any(t.values != 1.0):
        raise ValueError("adjacency tensor has a value other than 1")
    if np.any(np.diff(np.sort(t.coords, axis=1), axis=1) == 0):
        raise ValueError("adjacency tensor has an entry with repeated indices")
    increasing = np.all(np.diff(t.coords, axis=1) > 0, axis=1)
    upper = SparseTensor(t.shape, t.coords[increasing], t.values[increasing], presorted=True)
    symmetric = adjacency(Hypergraph(k, n, upper.coords, presorted=True))
    if not np.array_equal(symmetric.coords, t.coords):
        raise ValueError("input tensor is not symmetric: incomplete permutation orbit")
    kept = regularize(upper, k - 1, p).regularized
    return adjacency(Hypergraph(k, n, kept.coords, presorted=True))

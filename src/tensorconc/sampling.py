"""Reproducible random generation: Bernoulli tensors, Erdos-Renyi
k-uniform hypergraphs, and uniform sparsification.

Every decision is keyed by (base_seed, stream_id, coordinate), so identical
seeds give byte-identical canonical output regardless of iteration order or
parallelism.  Homogeneous sampling over more than 2^21 coordinates skips
geometrically along the lexicographic coordinate stream; that matches the
per-coordinate keyed path in distribution (not byte-for-byte), and the size
of the space alone picks the path.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import rng
from .core import (
    ProbabilityModel,
    SparseTensor,
    TensorShape,
    _check_probability,
    _coords_from_linear,
    _probabilities,
)
from .hypergraph import Hypergraph
from .rng import SeedSpec

_INT64_MAX = np.iinfo(np.int64).max


def bernoulli_sample(shape: TensorShape, model: ProbabilityModel, seed: SeedSpec) -> SparseTensor:
    """Sample an order-k tensor with independent Bernoulli entries.

    Entry (i_1..i_k) is 1 exactly when its keyed uniform falls below its
    probability.  A homogeneous model samples the n^k coordinates through
    ``rng.bernoulli_positions``: per coordinate up to 2^21 of them, by
    geometric skipping above that.  A dense probability table is always
    sampled per coordinate.
    """
    p = _probabilities(model, shape)
    key = rng.stream_key(seed, rng.LBL_BERNOULLI)
    if np.ndim(p) == 0:
        positions = rng.bernoulli_positions(shape.ncoords, p, key)
    else:
        positions = rng._kept(key, range(shape.ncoords), p.reshape(-1))
    coords = _coords_from_linear(positions, shape.order, shape.dim)
    del positions  # freed before the values are allocated
    return SparseTensor(shape, coords, np.ones(len(coords)), presorted=True)


def sparsify_uniform(t: SparseTensor, p: float, seed: SeedSpec) -> SparseTensor:
    """Keep each entry of ``t`` independently with probability p, value intact.

    The keep decision is keyed by the entry's coordinate, so it does not
    depend on the entry's position in the list.
    """
    _check_probability(p)
    if t.nnz == 0 or p == 1.0:
        return t
    if p == 0.0:
        return SparseTensor.empty(t.shape)
    keep = rng._kept(rng.stream_key(seed, rng.LBL_SPARSIFY), t.linear_indices(), p)
    return SparseTensor(t.shape, t.coords[keep], t.values[keep], presorted=True)


def er_hypergraph(k: int, n: int, p: float, seed: SeedSpec) -> Hypergraph:
    """Erdos-Renyi k-uniform hypergraph: each k-subset of [n] is an edge
    independently with probability p.  Edges are vertex subsets, so
    repeated-vertex tuples never occur."""
    if k > n:
        raise ValueError(f"k = {k} exceeds vertex count n = {n}")
    edges = comb(n, k)
    if edges >= 1 << 63:
        raise ValueError(f"C({n}, {k}) = {edges} k-subsets of [{n}]: "
                         "the edge space must be below the 2^63 limit")
    key = rng.stream_key(seed, rng.LBL_HYPEREDGE)
    ranks = rng.bernoulli_positions(edges, p, key)
    return Hypergraph(k, n, _unrank_subsets(ranks, n, k), presorted=True)


def _unrank_subsets(ranks: np.ndarray, n: int, k: int) -> np.ndarray:
    """The k-subsets of [1, n] at the given lexicographic ranks, as int32 rows.

    Member j follows member v (0 before the first).  The subsets that put it
    at u pass over tail[v] - tail[u - 1] smaller ones, tail[u] = C(n - u, k - j),
    so it is the first u with tail[u] < tail[v] - r for the rank r left.  Each
    tail is at most C(n, k) < 2^63; the u < j that no member reaches hold the
    int64 maximum.
    """
    r = np.array(ranks, dtype=np.int64)
    out = np.empty((r.size, k), dtype=np.int32)
    v = np.zeros(r.size, dtype=np.intp)
    for j in range(k):
        tail = np.array([comb(n - u, k - j) if u >= j else _INT64_MAX for u in range(n + 1)],
                        dtype=np.int64)
        m = np.searchsorted(-tail, r - tail[v], side="right")
        r -= tail[v] - tail[m - 1]
        out[:, j] = v = m
    return out

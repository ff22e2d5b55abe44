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
    DenseProbability,
    Homogeneous,
    ProbabilityModel,
    SparseTensor,
    TensorShape,
    _coords_from_linear,
)
from .hypergraph import Hypergraph
from .rng import SeedSpec


def bernoulli_sample(shape: TensorShape, model: ProbabilityModel, seed: SeedSpec) -> SparseTensor:
    """Sample an order-k tensor with independent Bernoulli entries.

    Entry (i_1..i_k) is 1 exactly when its keyed uniform falls below its
    probability.  A homogeneous model samples the n^k coordinates through
    ``rng.bernoulli_positions``: per coordinate up to 2^21 of them, by
    geometric skipping above that.  A dense probability table is always
    sampled per coordinate.
    """
    key = rng.stream_key(seed, rng.LBL_BERNOULLI)
    if isinstance(model, Homogeneous):
        positions = rng.bernoulli_positions(shape.ncoords, model.p, key)
        coords = _coords_from_linear(positions, shape.order, shape.dim)
        return SparseTensor(shape, coords, np.ones(len(positions)), presorted=True)
    if not isinstance(model, DenseProbability):
        raise TypeError(f"unsupported probability model: {type(model).__name__}")
    if model.shape != shape:
        raise ValueError(f"model shape {model.shape} mismatches {shape}")
    positions = rng._positions_percoord(shape.ncoords, model.table.reshape(-1), key)
    coords = _coords_from_linear(positions, shape.order, shape.dim)
    return SparseTensor(shape, coords, np.ones(len(positions)), presorted=True)


def sparsify_uniform(t: SparseTensor, p: float, seed: SeedSpec) -> SparseTensor:
    """Keep each entry of ``t`` independently with probability p, value intact.

    The keep decision is keyed by the entry's coordinate, so it does not
    depend on the entry's position in the list.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if t.nnz == 0 or p == 1.0:
        return t
    if p == 0.0:
        return SparseTensor.empty(t.shape)
    key = rng.stream_key(seed, rng.LBL_SPARSIFY)
    u = rng.uniforms_at(key, t.linear_indices())
    keep = u < p
    return SparseTensor(t.shape, t.coords[keep], t.values[keep], presorted=True)


def er_hypergraph(k: int, n: int, p: float, seed: SeedSpec) -> Hypergraph:
    """Erdos-Renyi k-uniform hypergraph: each k-subset of [n] is an edge
    independently with probability p.  Edges are vertex subsets, so
    repeated-vertex tuples never occur."""
    if k > n:
        raise ValueError(f"k = {k} exceeds vertex count n = {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    key = rng.stream_key(seed, rng.LBL_HYPEREDGE)
    total = comb(n, k)
    ranks = rng.bernoulli_positions(total, p, key)
    edges = np.empty((len(ranks), k), dtype=np.int32)
    for row, r in enumerate(ranks):
        edges[row] = _unrank_combination(int(r), n, k)
    return Hypergraph(k, n, edges, presorted=True)


def _unrank_combination(rank: int, n: int, k: int) -> list:
    """Lexicographic unranking of k-subsets of [1, n]."""
    out = []
    v = 1
    r = rank
    for j in range(1, k + 1):
        while True:
            block = comb(n - v, k - j)
            if block <= r:
                r -= block
                v += 1
            else:
                break
        out.append(v)
        v += 1
    return out

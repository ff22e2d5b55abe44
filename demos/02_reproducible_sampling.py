"""Reproducible random generation with counter-based keyed randomness.

Every Bernoulli decision is a hash of (base_seed, stream_id, coordinate), so
samples are identical across runs, iteration orders, and worker counts.  The
homogeneous sampler switches to geometric skipping above 2^21 coordinates,
paying O(nnz) instead of O(n^k).
"""

import math
import time

from tensorconc import (
    Homogeneous,
    SeedSpec,
    SparseTensor,
    TensorShape,
    bernoulli_sample,
    er_hypergraph,
    sparsify_uniform,
)

shape = TensorShape(3, 50)
seed = SeedSpec(base_seed=2024, stream_id=0)

t = bernoulli_sample(shape, Homogeneous(0.01), seed)
print(f"Bernoulli(0.01) on 50^3 coordinates: nnz = {t.nnz} (mean {0.01 * 50**3:.0f})")

again = bernoulli_sample(shape, Homogeneous(0.01), seed)
print("same seed, same tensor:", t == again)

other = bernoulli_sample(shape, Homogeneous(0.01), SeedSpec(2024, 1))
print("next stream differs:", t.nnz != other.nnz or t != other)

# The skip path only touches kept coordinates: n^3 = 8e6 cells in ~no time.
big = TensorShape(3, 200)
t0 = time.perf_counter()
sample = bernoulli_sample(big, Homogeneous(1e-4), SeedSpec(7, 0))
print(f"200^3 cells at p=1e-4: nnz = {sample.nnz}, {time.perf_counter() - t0:.3f}s")

# Uniform sparsification keeps entries independently with probability p,
# keyed by the entry coordinate (not its list position).
base = SparseTensor.all_ones(TensorShape(3, 20))
kept = sparsify_uniform(base, 0.1, SeedSpec(5, 0))
print(f"sparsified all-ones 20^3 at p=0.1: kept {kept.nnz} of {base.nnz}")

# Erdos-Renyi k-uniform hypergraph: each k-subset of [n] independently.
h = er_hypergraph(3, 30, 0.01, SeedSpec(11, 0))
print(f"ER hypergraph: {h}, expected edges {math.comb(30, 3) * 0.01:.1f}")
print(f"k n m: {h.k} {h.n} {h.num_edges}")

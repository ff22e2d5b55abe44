"""Bounded-degree hypergraph expanders and the mixing inequality.

Start from an Erdos-Renyi k-uniform hypergraph at p = c/n^(k-1), keep one
increasing representative per edge, drop vertices whose first-mode degree
exceeds 2 n^(k-1) p, and symmetrize.  The result has bounded degrees and the
ordered edge counts between any k vertex subsets track p|V_1|...|V_k| to
within C sqrt(c) sqrt(|V_1|...|V_k|).
"""

import math

from tensorconc import (
    SeedSpec,
    SubsetFamilies,
    adjacency,
    count_edges,
    degree_map,
    er_hypergraph,
    expander_construct,
    matrix_mixing_check,
    mixing_check,
)
import numpy as np

k, n, c = 3, 60, 40.0
p = c / n ** (k - 1)
seed = SeedSpec(66, 0)

h = er_hypergraph(k, n, p, seed)
t = adjacency(h)
tprime = expander_construct(t, p)
print(f"ER hypergraph: {h.num_edges} edges; after regularization "
      f"{tprime.nnz // math.factorial(k)} edges survive")

dmax = degree_map(tprime, k - 1).max_degree
print(f"max first-mode degree {dmax} <= 2 k! c = {2 * math.factorial(k) * c:.0f}")

# Ordered counting: a full box counts every edge k! times.
full = [np.arange(1, n + 1)] * k
print(f"e([n],[n],[n]) = {count_edges(tprime, full)} vs p*n^k = {p * n**k:.0f}")

report = mixing_check(tprime, p, SubsetFamilies.sampled(2000), seed)
print(f"sampled 2000 subset triples: max ratio {report.max_ratio:.3f}, "
      f"fitted C = {report.fitted_c:.3f}")
singles = mixing_check(tprime, p, SubsetFamilies.singletons())
print(f"exhaustive singletons: max ratio {singles.max_ratio:.3f}")
print(f"summary: max_ratio {report.max_ratio}, fitted_C {report.fitted_c}, "
      f"families {len(report.ratio)}")

# The classical two-set mixing inequality, for comparison, on a complete
# graph (lambda = 1): the margin never goes positive.
import itertools

from tensorconc import Hypergraph

edges = list(itertools.combinations(range(1, 13), 2))
g = Hypergraph(2, 12, edges)
mm = matrix_mixing_check(g, d=11, families=100, seed=seed)
print(f"K_12 mixing: lambda = {mm.lam:.4f}, max margin {mm.max_margin:.2e} (<= 0)")

"""Checks of the concentration proof's events.

The bounded-degree and bounded-discrepancy events, which the `diagnostics`
sweep checks on every trial, and the Bernoulli KL bound are each computed
exactly and compared against their claimed bound.
"""

import math

import numpy as np

from tensorconc import (
    DenseProbability,
    Homogeneous,
    SeedSpec,
    TensorShape,
    bernoulli_sample,
    bounded_degree_check,
    discrepancy_check,
    kl_bernoulli,
)

# Degree and discrepancy events at p = 5 log n / n.
n = 80
p = 5 * math.log(n) / n
t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(78, 0))
bd = bounded_degree_check(t, p, c1=3.0)
print(f"max (k-1)-degree {bd.max_degree} vs c1*n*p = {bd.bound:.1f}: within = {bd.within}")
disc = discrepancy_check(t, p, c2=20.0, c3=20.0, families=2000, seed=SeedSpec(78, 0))
print(f"discrepancy over 2000 families: {disc.violations} violations, "
      f"minimal c2 given c3 = {disc.fitted_c2:.2f}")

# Bernoulli KL divergence against the Frobenius bound.
rec = kl_bernoulli(Homogeneous(0.5), Homogeneous(0.25), 0.2, 0.8)
print(f"KL(Ber(1/2) || Ber(1/4)) = {rec.kl:.6f} (= ln(4/3)/2), "
      f"bound {rec.bound:.3f}, within = {rec.within}")
gen = np.random.default_rng(9)
tables = gen.uniform(0.2, 0.8, size=(2, 2, 2))
rec = kl_bernoulli(DenseProbability(tables[0]), DenseProbability(tables[1]), 0.2, 0.8)
print(f"entrywise table KL = {rec.kl:.4f} <= {rec.bound:.4f}")

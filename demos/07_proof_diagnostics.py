"""Desk-scale instruments for the concentration proof machinery.

Each device in the argument -- the lattice net, the light/heavy split of
coordinate products, the dyadic magnitude classes, the bounded-degree and
bounded-discrepancy events, the Bernoulli KL bound -- is computable exactly
on small instances and checkable against its claimed bound.
"""

import math

import numpy as np

from tensorconc import (
    DenseProbability,
    Homogeneous,
    SeedSpec,
    SparseTensor,
    TensorShape,
    bernoulli_sample,
    bounded_degree_check,
    center,
    discrepancy_check,
    dyadic_profile,
    kl_bernoulli,
    lattice_net,
    light_contribution_check,
    net_supremum_check,
    split_tuples,
)

# Lattice net: grid points of pitch delta/sqrt(n) inside the unit ball.
net = lattice_net(2, 0.5)
print(f"net(n=2, delta=0.5): {net.size} points, "
      f"volume bound {math.exp(2 * math.log(7 / 0.5)):.0f}")

# The net supremum dominates the spectral norm after a (1-delta)^-k blowup.
t = SparseTensor.all_ones(TensorShape(3, 2))
rec = net_supremum_check(t, 0.5)
print(f"net supremum {rec.sup_net:.3f}, bound {rec.bound:.3f}, "
      f"achieved lower {rec.lower:.3f}, within = {rec.within}")

# Light/heavy split at threshold sqrt(np)/n.
n, p = 16, 0.2
gen = np.random.default_rng(3)
ys = [v / np.linalg.norm(v) for v in gen.standard_normal((3, n))]
split = split_tuples(ys, n, p)
print(f"heavy tuples: {split.heavy_count} of {n**3}, threshold {split.threshold:.4f}")

w = center(bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(77, 0)),
           Homogeneous(p))
light = light_contribution_check(w, ys, p, c=6.0)
print(f"light-tuple contribution ratio |sum|/sqrt(np) = {light.ratio:.3f} (c = 6)")

# Dyadic classes partition the large-coordinate indices by magnitude.
prof = dyadic_profile([np.abs(y) for y in ys], 0.5, w.sparse, p)
alpha_tot = max(sum(a for (j, s), a in prof.alpha.items() if j == mode) for mode in (1, 2, 3))
print(f"dyadic classes: {len(prof.classes)}, worst alpha sum {alpha_tot:.2f} "
      f"<= (2/delta)^2 = {(2 / 0.5)**2:.0f}")

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

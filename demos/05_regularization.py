"""Degree-threshold regularization in the ultra-sparse regime.

When p drops below log(n)/n^m the (k-m)-tuple degrees stop concentrating and
the sqrt(n^m p) spectral bound fails.  Removing every prefix whose degree
exceeds 2 n^m p restores it, and only about 1/(n^(2m-k) p) prefixes go.
"""

import math

from tensorconc import (
    Homogeneous,
    PowerIterConfig,
    SeedSpec,
    TensorShape,
    bernoulli_sample,
    center,
    degree_map,
    regularize,
    removed_count_check,
    spectral_sandwich,
)

k, m, n = 4, 2, 25
p = 3 / n**2  # c/n^m regime with c = 3
shape = TensorShape(k, n)

t = bernoulli_sample(shape, Homogeneous(p), SeedSpec(55, 0))
before = degree_map(t, m)
print(f"sampled k={k}, n={n}, p={p:.4f}: nnz={t.nnz}, "
      f"max 2-prefix degree {before.max_degree} (threshold {2 * n**m * p:.1f})")

reg = regularize(t, m, p)
after = degree_map(reg.regularized, m)
print(f"regularized: removed {reg.removed_count} prefixes, "
      f"max degree now {after.max_degree}")

chk = removed_count_check(reg, p)
print(f"removed-count bound 1/(n^(2m-k) p) = {chk.bound:.1f}: within = {chk.within}")

cfg = PowerIterConfig(restarts=6, seed=SeedSpec(55, 0))
w_before = center(t, Homogeneous(p))
w_after = center(reg.regularized, Homogeneous(p))
scale = math.sqrt(n**m * p)
est_b = spectral_sandwich(w_before, m, cfg)
est_a = spectral_sandwich(w_after, m, cfg)
print(f"upper bound / sqrt(n^m p): raw {est_b.upper / scale:.2f} "
      f"-> regularized {est_a.upper / scale:.2f}")
print("every surviving prefix degree <= threshold:",
      after.max_degree <= reg.threshold)

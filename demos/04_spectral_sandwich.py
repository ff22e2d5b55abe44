"""Spectral-norm sandwich estimation.

Computing a tensor spectral norm exactly is NP-hard for k >= 3, so the
package brackets it: lower bounds are achieved multilinear-form values
(higher-order power iteration plus pinned-slice matrices), upper bounds are
operator norms of matrix unfoldings, of which the least certified one is
reported.  On centered sparse Bernoulli tensors the bracket scales like
sqrt(n^m p), with the m = k-1 slice bound kicking in from below at sqrt(np).
"""

import math

from tensorconc import (
    Homogeneous,
    PowerIterConfig,
    SeedSpec,
    SparseTensor,
    TensorShape,
    bernoulli_sample,
    center,
    multilinear_form,
    slice_lower,
    spectral_sandwich,
)

# Rank-1 instance where the sandwich closes: all-ones 2x2x2 has norm 2*sqrt(2).
j = SparseTensor.all_ones(TensorShape(3, 2))
est = spectral_sandwich(j, m=1)
print(f"all-ones 2x2x2: lower {est.lower:.6f} <= upper {est.upper:.6f} "
      f"(exact {2 * math.sqrt(2):.6f})")

# Centered sparse Bernoulli sweep: ratios to sqrt(n^2 p) stay order-one.
cfg = lambda s: PowerIterConfig(restarts=6, seed=SeedSpec(44, s))
print(f"{'n':>5} {'p':>9} {'lower':>8} {'upper':>8} {'upper/sqrt(n^2 p)':>18}")
for n in (20, 40, 80):
    p = 5 * math.log(n) / n**2
    t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(44, n))
    w = center(t, Homogeneous(p))
    est = spectral_sandwich(w, m=2, config=cfg(n))
    scale = math.sqrt(n**2 * p)
    print(f"{n:>5} {p:>9.5f} {est.lower:>8.3f} {est.upper:>8.3f} {est.upper / scale:>18.3f}")

# The witness is a certificate: re-evaluating the form reproduces the bound.
achieved = abs(multilinear_form(w, est.lower_witness))
print(f"witness re-evaluation: {achieved:.6f} vs lower {est.lower:.6f}")

# upper is the least certified unfolding norm the sandwich solved.  At k=4,
# m=1 the chain {1,2 | 3,4} beats the paper's balanced {1,2,3 | 4} unfolding,
# whose value the bounds keep as balanced_upper.
n, p = 12, 2 * math.log(12) / 12
w4 = center(bernoulli_sample(TensorShape(4, n), Homogeneous(p), SeedSpec(46, 0)), Homogeneous(p))
est = spectral_sandwich(w4, m=1, config=cfg(0))
print(f"k=4 m=1 n={n}: lower {est.lower:.3f}, upper {est.upper:.3f} by {est.upper_partition}, "
      f"balanced_upper {est.bounds.get('balanced_upper', est.upper):.3f}")

# Slice bound alone: pin all but two modes to basis vectors and take the
# best n x n matrix norm; already >= sqrt(np) on dense-enough instances.
n, p = 100, 0.1
t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(45, 0))
w = center(t, Homogeneous(p))
sl = slice_lower(w, num_slices=4, seed=SeedSpec(45, 0), config=PowerIterConfig(restarts=4))
print(f"slice lower bound {sl.value:.3f} vs sqrt(np) = {math.sqrt(n * p):.3f}")

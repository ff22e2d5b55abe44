"""Mode partitions and tensor unfolding.

A partition of the mode set [k] induces a bijective remap of coordinates
into a lower-order tensor.  Unfolding preserves the Frobenius norm exactly
and can only increase the spectral norm -- the heart of every upper bound
in this package.
"""

import itertools
import math

import numpy as np

from tensorconc import (
    Homogeneous,
    Partition,
    SeedSpec,
    TensorShape,
    balanced_partition,
    bernoulli_sample,
    center,
    frobenius_norm,
    hopm_lower,
    matrix_op_norm,
    phi_array,
    unfold,
)

part = Partition([[1, 2], [3]])
print("(2,1,2) under {{1,2},{3}} with n=2:", phi_array(part, np.array([[2, 1, 2]]), 2)[0].tolist())

# The map is a bijection: all 8 coordinates of a 2x2x2 tensor land on the
# 8 cells of the 4x2 matrix with no collisions.
coords = np.array(list(itertools.product((1, 2), repeat=3)))
images = sorted(map(tuple, phi_array(part, coords, 2).tolist()))
print("images:", images)

print("balanced_partition(5, 3):", balanced_partition(5, 3))

# Norm bookkeeping on a centered random tensor.
n, p = 24, 0.15
t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(33, 0))
w = center(t, Homogeneous(p))
view = unfold(w, balanced_partition(3, 2))
print(f"unfolded dims: {view.dims}, background carried: {view.background}")
print("Frobenius preserved exactly:",
      math.sqrt(view.frobenius_sq()) == frobenius_norm(w))

# The unfolded matrix norm dominates every achieved form value.
lower = hopm_lower(w).value
upper = matrix_op_norm(view).value
print(f"achieved form value {lower:.4f} <= unfolded matrix norm {upper:.4f}")
print(f"scale sqrt(n^2 p) = {np.sqrt(n**2 * p):.4f}")

"""Sparse tensor data model: coordinate lists, offsets, multilinear algebra.

An order-k tensor with all modes of dimension n is stored as a sorted list of
1-based coordinates with float64 values.  Adding a scalar background turns it
into an OffsetTensor representing `sparse + c * J` -- which is how centered
tensors T - p*J stay sparse at sizes where n^k entries could never be stored.
"""

import numpy as np

from tensorconc import (
    Homogeneous,
    SparseTensor,
    TensorShape,
    VectorTuple,
    center,
    contract_all_but_one,
    frobenius_norm,
    multilinear_form,
    rank1,
)

shape = TensorShape(order=3, dim=4)
t = SparseTensor.from_entries(shape, [
    ((1, 1, 2), 1.0),
    ((2, 3, 4), 1.0),
    ((4, 4, 4), 1.0),
    ((1, 3, 2), 1.0),
])
print("tensor:", t)
print("Frobenius norm:", frobenius_norm(t))

# Multilinear form T(x1, x2, x3) = <T, x1 (x) x2 (x) x3>, never densified.
xs = VectorTuple.uniform(3, 4)
print("T(u, u, u) with uniform unit vectors:", multilinear_form(t, xs))

# Contracting all modes but one gives the gradient vector used by the
# higher-order power iteration: entry i equals the form with e_i inserted.
v = contract_all_but_one(t, [xs[0], xs[1]], free_mode=3)
print("contraction along mode 3:", np.round(v, 4))

# Centering subtracts the Bernoulli mean exactly; the -p goes into the
# background slot, so a million-entry coordinate space costs nothing extra.
w = center(t, Homogeneous(0.25))
print("centered:", w)
print("materialized centered tensor equals t - p:",
      np.array_equal(w.materialize(), t.to_dense() - 0.25))

# Rank-1 tensors materialize densely (gated to n^k <= 1e6).
r = rank1([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
print("rank-1 [[3,4],[6,8]]:", r.tolist())

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
    frobenius_norm,
    multilinear_form,
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

# Centering subtracts the Bernoulli mean exactly; the -p goes into the
# background slot, so a million-entry coordinate space costs nothing extra.
w = center(t, Homogeneous(0.25))
print("centered:", w)
print("materialized centered tensor equals t - p:",
      np.array_equal(w.materialize(), t.to_dense() - 0.25))

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_form, dense_inner
from conftest import COPIERS, assert_equal_copy, random_sparse
from tensorconc import (
    DenseGateError,
    DenseProbability,
    Homogeneous,
    Hypergraph,
    OffsetTensor,
    SeedSpec,
    ShapeMismatchError,
    SparseTensor,
    TensorShape,
    VectorTuple,
    balanced_partition,
    bernoulli_sample,
    center,
    frobenius_norm,
    kl_bernoulli,
    multilinear_form,
    unfold,
)
from tensorconc.core import _Contraction, as_offset


class TestShapesAndConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TensorShape(1, 4)
        with pytest.raises(ValueError):
            TensorShape(3, 0)
        with pytest.raises(ValueError):
            TensorShape(2, 2**31)

    @pytest.mark.parametrize("dim", [np.int16(200), np.int32(2000), np.uint64(300)])
    def test_numpy_integer_sizes_stored_as_ints(self, dim):
        sh = TensorShape(np.int64(3), dim)
        assert type(sh.order) is int and type(sh.dim) is int
        assert sh.ncoords == int(dim) ** 3
        with pytest.raises(DenseGateError):
            SparseTensor.all_ones(sh)

    @pytest.mark.parametrize("order,dim", [(3, 2.5), (2.0, 4), (3, np.float64(4))])
    def test_non_integer_sizes_rejected(self, order, dim):
        with pytest.raises(TypeError):
            TensorShape(order, dim)

    def test_canonical_sorting_and_zero_drop(self):
        sh = TensorShape(2, 3)
        t = SparseTensor(sh, [[3, 1], [1, 2], [2, 2]], [1.0, 2.0, 0.0])
        assert t.coords.tolist() == [[1, 2], [3, 1]]
        assert t.values.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("coords,values,want", [
        (np.empty((0, 3)), [], []),
        ([[2, 1, 3], [1, 1, 1]], [0.0, 0.0], []),
        ([[2, 1, 3]], [1.5], [[2, 1, 3]]),
        ([[2, 1, 3], [1, 1, 1]], [1.5, 0.0], [[2, 1, 3]]),
    ])
    def test_zero_and_one_entries_canonicalized(self, coords, values, want):
        t = SparseTensor(TensorShape(3, 3), coords, values)
        assert t.coords.dtype == np.int32 and t.coords.shape == (len(want), 3)
        assert t.coords.tolist() == want and t.values.tolist() == [1.5] * len(want)
        assert t.coords.flags.c_contiguous and not t.coords.flags.writeable
        assert not t.values.flags.writeable

    def test_duplicate_coordinate_rejected(self):
        sh = TensorShape(2, 3)
        with pytest.raises(ValueError, match="duplicate"):
            SparseTensor(sh, [[1, 2], [1, 2]], [1.0, 2.0])

    def test_out_of_range_coordinate_rejected(self):
        sh = TensorShape(2, 3)
        with pytest.raises(ValueError):
            SparseTensor(sh, [[0, 1]], [1.0])
        with pytest.raises(ValueError):
            SparseTensor(sh, [[1, 4]], [1.0])

    def test_non_integer_coordinate_rejected(self):
        sh = TensorShape(2, 3)
        for coords in ([[1.7, 2]], [["1", 2]], np.array([[1.0, 2.0]])):
            with pytest.raises(TypeError, match="integers"):
                SparseTensor(sh, coords, [1.0])
        with pytest.raises(TypeError, match="integers"):
            SparseTensor.from_entries(sh, [((1.5, 2), 1.0)])

    def test_coordinates_range_checked_before_narrowing(self):
        # 2^32 + 1 would wrap to 1 in int32
        sh = TensorShape(2, 3)
        for coords in (np.array([[2**32 + 1, 2]]), np.array([[2**32 + 1, 2]], dtype=np.uint64)):
            with pytest.raises(ValueError, match=r"lie in \[1, 3\]"):
                SparseTensor(sh, coords, [1.0])

    def test_any_integer_dtype_accepted(self):
        sh = TensorShape(2, 3)
        want = SparseTensor(sh, [[1, 2], [3, 1]], [1.0, 2.0])
        for dtype in (np.uint8, np.int16, np.int64, np.uint64):
            t = SparseTensor(sh, np.array([[3, 1], [1, 2]], dtype=dtype), [2.0, 1.0])
            assert t.coords.dtype == np.int32 and t == want
        assert SparseTensor.from_entries(sh, [((3, 1), 2.0), ((1, 2), 1.0)]) == want
        assert SparseTensor(sh, np.empty((0, 2)), np.empty(0)).nnz == 0

    def test_unranking_exact_below_2_63(self):
        # n^3 = (2^21 - 1)^3 is just below 2^63: positions near both ends
        from tensorconc.core import _coords_from_linear, linear_index

        n = 2**21 - 1
        lin = [0, 1, n, n**2 - 1, n**3 // 2, n**3 - n - 1, n**3 - 1]
        got = _coords_from_linear(np.array(lin, dtype=np.uint64), 3, n)
        want = [[r // n**2 + 1, r // n % n + 1, r % n + 1] for r in lin]
        assert got.dtype == np.int32 and got.tolist() == want
        assert linear_index(got, n).tolist() == lin

    def test_immutability(self):
        t = SparseTensor.all_ones(TensorShape(2, 2))
        with pytest.raises(AttributeError):
            t.values = None
        with pytest.raises(ValueError):
            t.values[0] = 5.0

    def test_presorted_arrays_handed_over(self):
        coords, values = np.array([[1, 2], [2, 1]], dtype=np.int32), np.array([1.0, 2.0])
        SparseTensor(TensorShape(2, 2), coords, values)
        assert coords.flags.writeable and values.flags.writeable  # canonicalizing copies
        t = SparseTensor(TensorShape(2, 2), coords, values, presorted=True)
        assert np.shares_memory(t.coords, coords) and np.shares_memory(t.values, values)
        assert not coords.flags.writeable and not values.flags.writeable

    def test_empty_to_dense(self):
        assert np.array_equal(SparseTensor.empty(TensorShape(3, 2)).to_dense(), np.zeros((2, 2, 2)))

    def test_dense_gate(self):
        big = OffsetTensor(SparseTensor.empty(TensorShape(4, 200)), 1.0)
        with pytest.raises(DenseGateError):
            big.materialize()


class TestFrobenius:
    def test_norm_all_ones(self):
        j = SparseTensor.all_ones(TensorShape(3, 4))
        assert frobenius_norm(j) == pytest.approx(4 ** 1.5)

    def test_norm_single_entry(self):
        t = SparseTensor(TensorShape(3, 5), [[2, 3, 4]], [1.0])
        assert frobenius_norm(t) == 1.0

    def test_norm_matches_bruteforce(self, rng):
        t = random_sparse(rng, 3, 2, values="float")
        expected = np.sqrt(dense_inner(t.to_dense(), t.to_dense()))
        assert frobenius_norm(t) == pytest.approx(expected, rel=1e-12)

    def test_norm_independent_of_blas_threads(self):
        # a million-term sum is long enough for BLAS to split it across threads
        script = ("import numpy as np; from tensorconc import SparseTensor, frobenius_norm; "
                  "t = SparseTensor.from_dense(np.random.default_rng(3).standard_normal((1000, 1000))); "
                  "print(repr(frobenius_norm(t)))")
        outputs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                 env=env)
            assert res.returncode == 0, res.stderr
            outputs.add(res.stdout)
        assert len(outputs) == 1

    def test_norm_of_centered_tensor_above_dense_gate(self):
        # 120^3 coordinates: above the dense gate, which the closed form never needs
        p = 0.001
        t = bernoulli_sample(TensorShape(3, 120), Homogeneous(p), SeedSpec(1, 0))
        w = center(t, Homogeneous(p))
        expected = np.sqrt(t.nnz * (1 - p) ** 2 + (120**3 - t.nnz) * p**2)
        assert frobenius_norm(w) == pytest.approx(expected, rel=1e-12)
        assert frobenius_norm(w) == np.sqrt(unfold(w, balanced_partition(3, 2)).frobenius_sq())

    def test_background_inner_above_dense_gate(self):
        # a background's inner product with itself, b^2 n^k, is in closed form
        small = OffsetTensor(SparseTensor.empty(TensorShape(2, 3)), 2.0)
        assert frobenius_norm(small) == pytest.approx(2.0 * 3)
        big = OffsetTensor(SparseTensor.empty(TensorShape(4, 200)), 1.0)
        assert frobenius_norm(big) == 200.0**2


class TestMultilinearForm:
    def test_basis_vectors_select_entry(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        xs = VectorTuple.basis(3, 2, [1, 1, 1])
        assert multilinear_form(j, xs) == 1.0

    def test_uniform_vectors_on_ones(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        xs = VectorTuple.uniform(3, 2)
        assert multilinear_form(j, xs) == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            t = random_sparse(rng, 3, 2, values="float")
            xs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 2))]
            assert multilinear_form(t, xs) == pytest.approx(
                dense_form(t.to_dense(), xs), rel=1e-10, abs=1e-12
            )

    def test_background_form(self, rng):
        t = random_sparse(rng, 2, 4)
        w = OffsetTensor(t, -0.25)
        xs = [rng.standard_normal(4) for _ in range(2)]
        assert multilinear_form(w, xs) == pytest.approx(
            dense_form(w.materialize(), xs), rel=1e-10, abs=1e-12
        )

    def test_form_bounded_by_frobenius(self, rng):
        for _ in range(50):
            t = random_sparse(rng, 3, 3, values="float")
            xs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 3))]
            assert abs(multilinear_form(t, xs)) <= frobenius_norm(t) + 1e-10

    def test_multilinearity_in_each_slot(self, rng):
        t = random_sparse(rng, 3, 3, values="float")
        base = [rng.standard_normal(3) for _ in range(3)]
        for slot in range(3):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            a, b = 0.7, -1.3
            combo = list(base)
            combo[slot] = a * x + b * y
            xs_x, xs_y = list(base), list(base)
            xs_x[slot], xs_y[slot] = x, y
            lhs = multilinear_form(t, combo)
            rhs = a * multilinear_form(t, xs_x) + b * multilinear_form(t, xs_y)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def _all_but_one(t, xs, free):
    """``_Contraction.all_but_one`` of ``t`` at the 0-based mode ``free``;
    ``xs[free]`` is not read."""
    c = _Contraction.of(as_offset(t))
    return c.all_but_one([c.factor(j, x) for j, x in enumerate(xs)], free)


class TestContract:
    def test_ones_uniform(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        u = np.full(2, 2 ** -0.5)
        v = _all_but_one(j, [u, u, u], 0)
        assert v == pytest.approx(np.full(2, 2.0))

    def test_zero_tensor(self):
        z = SparseTensor.empty(TensorShape(3, 4))
        v = _all_but_one(z, [np.ones(4), np.ones(4), np.ones(4)], 1)
        assert np.all(v == 0.0)

    def test_definition_replay(self, rng):
        t = random_sparse(rng, 3, 2, values="float")
        xs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 2))]
        for mode in range(1, 4):
            v = _all_but_one(t, xs, mode - 1)
            for i in range(2):
                probe = list(xs)
                e = np.zeros(2)
                e[i] = 1.0
                probe[mode - 1] = e
                assert v[i] == pytest.approx(multilinear_form(t, probe), rel=1e-12, abs=1e-12)


    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("background", [0.0, -0.3])
    @pytest.mark.parametrize("empty", [False, True])
    def test_matches_dense_einsum(self, rng, k, background, empty):
        n = 3
        sparse = SparseTensor.empty(TensorShape(k, n)) if empty else random_sparse(
            rng, k, n, values="float")
        t = OffsetTensor(sparse, background)
        dense = t.materialize()
        xs = list(rng.standard_normal((k, n)))
        modes = "abcde"[:k]
        want = np.einsum(f"{modes},{','.join(modes)}->", dense, *xs)
        assert multilinear_form(t, xs) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert multilinear_form(t, (x for x in xs)) == multilinear_form(t, xs)  # any iterable
        for free in range(k):
            others = [xs[j] for j in range(k) if j != free]
            spec = f"{modes},{','.join(modes[:free] + modes[free + 1:])}->{modes[free]}"
            got = _all_but_one(t, xs, free)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got == pytest.approx(np.einsum(spec, dense, *others), rel=1e-12, abs=1e-12)


class TestCenter:
    def test_full_tensor_probability_one(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        w = center(j, Homogeneous(1.0))
        assert np.all(w.materialize() == 0.0)
        xs = VectorTuple.uniform(3, 2)
        assert multilinear_form(w, xs) == pytest.approx(0.0, abs=1e-12)

    def test_empty_probability_zero(self):
        z = SparseTensor.empty(TensorShape(2, 3))
        w = center(z, Homogeneous(0.0))
        assert w.background == 0.0 and w.nnz == 0

    def test_matches_dense_subtraction(self, rng):
        t = random_sparse(rng, 2, 4, values="binary")
        w = center(t, Homogeneous(0.3))
        assert np.array_equal(w.materialize(), t.to_dense() - 0.3)

    def test_dense_model(self, rng):
        t = random_sparse(rng, 2, 4, values="binary")
        table = rng.random((4, 4))
        w = center(t, DenseProbability(table))
        assert np.allclose(w.materialize(), t.to_dense() - table)

    def test_dense_model_nan_rejected(self):
        table = np.full((4, 4, 4), 0.5)
        table[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            DenseProbability(table)

    def test_dense_model_gate(self):
        with pytest.raises(DenseGateError):
            DenseProbability(np.broadcast_to(0.0, (200, 200, 200, 200)))

    def test_dense_model_copies_table(self):
        table = np.full((3, 3), 0.5)
        model = DenseProbability(table)
        table[0, 0] = 0.25
        assert model.table[0, 0] == 0.5 and not model.table.flags.writeable


class TestModelReader:
    """The sampler, ``center`` and ``kl_bernoulli`` read a model one way."""

    @pytest.mark.parametrize("read", [
        lambda model: bernoulli_sample(TensorShape(2, 3), model, SeedSpec(0, 0)),
        lambda model: center(SparseTensor.empty(TensorShape(2, 3)), model),
        lambda model: kl_bernoulli(model, Homogeneous(0.5), 0.2, 0.8),
        lambda model: kl_bernoulli(Homogeneous(0.5), model, 0.2, 0.8),
    ], ids=["bernoulli_sample", "center", "kl_bernoulli", "kl_bernoulli-prime"])
    def test_same_type_error(self, read):
        with pytest.raises(TypeError, match=r"^unsupported probability model: float$"):
            read(0.5)

    def test_center_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="shape mismatch"):
            center(SparseTensor.empty(TensorShape(2, 3)), DenseProbability(np.full((3, 3, 3), 0.5)))


class TestVectorTuple:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            VectorTuple([np.array([np.nan, 1.0])])

    def test_callers_arrays_copied(self):
        a = np.ones(3)
        xs = VectorTuple([a, a])
        a[0] = 2.0
        assert xs[0][0] == xs[1][0] == 1.0 and not xs[0].flags.writeable

    def test_basis(self):
        xs = VectorTuple.basis(3, 4, [1, np.int64(4), 2])
        assert [v.tolist() for v in xs] == [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]]

    @pytest.mark.parametrize("indices", [[0, 1, 2], [1, 5, 2], [-1, 1, 1]])
    def test_basis_index_out_of_range(self, indices):
        # index 0 would wrap to the last entry
        with pytest.raises(ValueError, match="out of range"):
            VectorTuple.basis(3, 4, indices)

    @pytest.mark.parametrize("indices", [[1.5, 1, 1], ["2", 1, 1], [np.float64(1.0), 1, 1]])
    def test_basis_non_integer_index(self, indices):
        with pytest.raises(TypeError):
            VectorTuple.basis(3, 4, indices)

    def test_basis_index_count(self):
        with pytest.raises(ValueError, match="one index per mode"):
            VectorTuple.basis(3, 4, [1, 1])


class TestChecks:
    """Each input check raises its own exception and message."""

    @pytest.mark.parametrize("coords,values,message", [
        ([[1, 2]], [1.0, 2.0], "values must be one float per coordinate"),
        ([[1, 2]], [np.inf], "values must be finite"),
        ([[1, 2]], [np.nan], "values must be finite"),
    ])
    def test_sparse_values(self, coords, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SparseTensor(TensorShape(2, 3), coords, values)

    def test_from_dense_not_cubical(self):
        with pytest.raises(ValueError, match="^dense array must be cubical$"):
            SparseTensor.from_dense(np.ones((2, 3)))

    def test_linear_indices_above_2_63(self):
        # n^k = (2^21)^3 = 2^63 is the first size that does not fit
        t = SparseTensor(TensorShape(3, 2**21), [[1, 1, 1]], [1.0])
        with pytest.raises(ValueError, match="^coordinate space too large for linear indexing$"):
            t.linear_indices()

    @pytest.mark.parametrize("background", [np.inf, -np.inf, np.nan])
    def test_offset_background_not_finite(self, background):
        with pytest.raises(ValueError, match="^background must be finite$"):
            OffsetTensor(SparseTensor.empty(TensorShape(2, 3)), background)

    @pytest.mark.parametrize("table", [np.full(3, 0.5), np.full((2, 3), 0.5)], ids=["order-1", "not-cubical"])
    def test_dense_probability_shape(self, table):
        with pytest.raises(ValueError, match=r"^probability table must be cubical of order >= 2$"):
            DenseProbability(table)

    @pytest.mark.parametrize("vectors,message", [
        ([], "need at least one vector"),
        ([np.ones(2), np.ones(3)], "all vectors must be 1-d of equal length"),
    ], ids=["empty", "ragged"])
    def test_vector_tuple_shape(self, vectors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            VectorTuple(vectors)

    def test_form_vector_count(self):
        t = SparseTensor.all_ones(TensorShape(3, 2))
        with pytest.raises(ShapeMismatchError, match="^expected 3 vectors, got 2$"):
            multilinear_form(t, [np.ones(2)] * 2)
        with pytest.raises(ValueError, match="length n = 2") as info:  # caught as a ValueError too
            multilinear_form(t, [np.ones(2), np.ones(3), np.ones(2)])
        assert isinstance(info.value, ShapeMismatchError)


class TestOffsetTensorValue:
    """``OffsetTensor`` is a frozen value: equal by value, not hashable."""

    def test_equal_by_value(self):
        sh = TensorShape(2, 3)
        a = OffsetTensor(SparseTensor(sh, [[1, 2]], [1.5]), -0.25)
        assert a == OffsetTensor(SparseTensor(sh, [[1, 2]], [1.5]), -0.25)
        assert a != OffsetTensor(SparseTensor(sh, [[1, 2]], [1.5]), 0.25)
        assert a != OffsetTensor(SparseTensor(sh, [[2, 1]], [1.5]), -0.25)
        assert OffsetTensor(SparseTensor.empty(sh)) == OffsetTensor(SparseTensor.empty(sh), 0)
        assert a != a.sparse

    def test_background_stored_as_float(self):
        t = OffsetTensor(SparseTensor.empty(TensorShape(2, 3)), np.float32(-1))
        assert type(t.background) is float and t.background == -1.0

    def test_frozen(self):
        t = OffsetTensor(SparseTensor.empty(TensorShape(2, 3)), 0.5)
        with pytest.raises(AttributeError):
            t.background = 0.0
        assert t.background == 0.5

    @pytest.mark.parametrize("value", [
        OffsetTensor(SparseTensor.empty(TensorShape(2, 3))),
        SparseTensor.empty(TensorShape(2, 3)),
        Hypergraph(3, 4, [[1, 2, 3]]),
    ], ids=["OffsetTensor", "SparseTensor", "Hypergraph"])
    def test_unhashable(self, value):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)

    def test_repr(self):
        t = OffsetTensor(SparseTensor(TensorShape(3, 4), [[1, 2, 3]], [1.0]), -0.125)
        assert repr(t) == "OffsetTensor(k=3, n=4, nnz=1, background=-0.125)"


_HOLDERS = {
    "SparseTensor": lambda: bernoulli_sample(TensorShape(3, 6), Homogeneous(0.3), SeedSpec(1, 0)),
    "OffsetTensor": lambda: center(SparseTensor(TensorShape(3, 4), [[1, 2, 3], [4, 1, 2]],
                                                [1.5, -2.0]), Homogeneous(0.25)),
    "DenseProbability": lambda: DenseProbability(np.linspace(0.0, 1.0, 27).reshape(3, 3, 3)),
    "VectorTuple": lambda: VectorTuple([np.arange(4.0), -np.ones(4), np.full(4, 0.5)]),
}


class TestCopies:
    """A value pickles (as a worker process receives it) and copies equal to
    itself, with read-only arrays and slots that still refuse assignment."""

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
    @pytest.mark.parametrize("make", _HOLDERS.values(), ids=_HOLDERS.keys())
    def test_roundtrip(self, make, copier):
        value = make()
        assert_equal_copy(value, copier(value))


class TestSerialization:
    """A tensor's canonical form is its sorted entry list."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  st.floats(-8, 8, allow_nan=False).filter(lambda v: v != 0.0)),
        max_size=6, unique_by=lambda e: e[0]))
    def test_roundtrip_identity_property(self, entries):
        t = SparseTensor.from_entries(TensorShape(2, 3), entries)
        listed = list(zip(map(tuple, t.coords.tolist()), t.values.tolist()))
        assert listed == sorted(entries)
        assert SparseTensor.from_entries(t.shape, listed) == t

    def test_entry_list_order_irrelevant(self, rng):
        sh = TensorShape(2, 4)
        entries = [((1, 2), 1.5), ((3, 1), -2.0), ((2, 2), 4.0)]
        perm = [entries[i] for i in rng.permutation(3)]
        assert SparseTensor.from_entries(sh, entries) == SparseTensor.from_entries(sh, perm)

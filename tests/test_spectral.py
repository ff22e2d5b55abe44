import numpy as np
import pytest

from conftest import random_sparse
from oracles import grid_rank1_max_2x2x2, jacobi_spectral_norm
from tensorconc import (
    Homogeneous,
    OffsetTensor,
    PowerIterConfig,
    SeedSpec,
    SparseTensor,
    TensorShape,
    bernoulli_sample,
    center,
    hopm_lower,
    matrix_op_norm,
    multilinear_form,
    rank1,
    slice_lower,
    spectral_sandwich,
    unfold,
)
from tensorconc.unfolding import Partition, balanced_partition, multiway_partition


def _matrix_tensor(m: np.ndarray) -> SparseTensor:
    return SparseTensor.from_dense(m)


class TestMatrixOpNorm:
    def test_identity(self):
        eye = _matrix_tensor(np.eye(5))
        assert matrix_op_norm(eye).value == pytest.approx(1.0, abs=1e-10)

    def test_all_ones_rectangular(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        view = unfold(j, balanced_partition(3, 2))  # 2 x 4 all-ones
        assert matrix_op_norm(view).value == pytest.approx(np.sqrt(8), rel=1e-10)

    def test_all_ones_square_background(self):
        ones = OffsetTensor(SparseTensor.empty(TensorShape(2, 7)), 1.0)
        assert matrix_op_norm(ones).value == pytest.approx(7.0, rel=1e-10)

    def test_matches_jacobi_oracle(self, rng):
        for n in (3, 5, 8):
            m = rng.standard_normal((n, n))
            got = matrix_op_norm(_matrix_tensor(m)).value
            assert got == pytest.approx(jacobi_spectral_norm(m), rel=1e-8)

    def test_matches_jacobi_oracle_n50(self, rng):
        m = rng.standard_normal((50, 50))
        got = matrix_op_norm(_matrix_tensor(m), PowerIterConfig(max_iterations=3000)).value
        assert got == pytest.approx(jacobi_spectral_norm(m), rel=1e-8)

    def test_objective_monotone(self, rng):
        m = rng.standard_normal((12, 12))
        res = matrix_op_norm(_matrix_tensor(m), collect_trace=True)
        trace = np.asarray(res.trace)
        assert np.all(trace[1:] >= trace[:-1] * (1 - 1e-12))

    def test_witness_achieves_value(self, rng):
        m = rng.standard_normal((6, 6))
        res = matrix_op_norm(_matrix_tensor(m))
        achieved = abs(res.left @ m @ res.right)
        assert achieved == pytest.approx(res.value, rel=1e-10)

    def test_zero_matrix(self):
        res = matrix_op_norm(SparseTensor.empty(TensorShape(2, 4)))
        assert res.value == 0.0 and res.converged

    def test_nonconvergence_flagged(self, rng):
        m = rng.standard_normal((30, 30))
        res = matrix_op_norm(_matrix_tensor(m), PowerIterConfig(max_iterations=2, restarts=1))
        assert not res.converged

    def test_rejects_non_matrix_inputs(self):
        t = SparseTensor.all_ones(TensorShape(3, 2))
        with pytest.raises(ValueError, match="arity-2 unfolding, got 3"):
            matrix_op_norm(unfold(t, multiway_partition(3, 1)))
        with pytest.raises(ValueError, match="order-2 tensor, got order 3"):
            matrix_op_norm(t)


class TestHopm:
    def test_rank1_tensor(self):
        u = np.array([2.0, 0.0])
        v = np.array([0.0, 3.0])
        w = np.array([1.0, 0.0])
        t = SparseTensor.from_dense(rank1([u, v, w]))
        res = hopm_lower(t)
        assert res.value == pytest.approx(6.0, abs=1e-6)
        assert res.witness.unit

    def test_all_ones(self):
        j = SparseTensor.all_ones(TensorShape(3, 3))
        assert hopm_lower(j).value == pytest.approx(3**1.5, abs=1e-6)

    def test_matches_grid_search_2x2x2(self, rng):
        for _ in range(5):
            dense = rng.standard_normal((2, 2, 2))
            t = SparseTensor.from_dense(dense)
            got = hopm_lower(t, PowerIterConfig(restarts=16, seed=SeedSpec(1, 0))).value
            expected = grid_rank1_max_2x2x2(dense)
            assert got == pytest.approx(expected, abs=1e-4)

    def test_witness_reproduces_value(self, rng):
        t = random_sparse(rng, 3, 4, values="float")
        res = hopm_lower(t)
        assert abs(multilinear_form(t, res.witness)) == pytest.approx(res.value, rel=1e-8)

    def test_lower_bounds_frobenius(self, rng):
        from tensorconc import frobenius_norm

        t = random_sparse(rng, 3, 4, values="float")
        assert hopm_lower(t).value <= frobenius_norm(t) + 1e-9


class TestSliceLower:
    def test_only_nonzero_slice(self, rng):
        m = rng.standard_normal((4, 4))
        dense = np.zeros((4, 4, 4))
        dense[:, :, 0] = m
        t = SparseTensor.from_dense(dense)
        res = slice_lower(t, num_slices=1)
        assert res.value == pytest.approx(jacobi_spectral_norm(m), rel=1e-8)
        assert abs(multilinear_form(t, res.witness)) == pytest.approx(res.value, rel=1e-8)

    def test_zero_tensor(self):
        res = slice_lower(SparseTensor.empty(TensorShape(3, 3)))
        assert res.value == 0.0

    def test_requires_order_three(self):
        with pytest.raises(ValueError):
            slice_lower(SparseTensor.empty(TensorShape(2, 3)))

    def test_slice_below_hopm_on_random_instances(self):
        cfg = PowerIterConfig(restarts=8, seed=SeedSpec(0, 0))
        violations = 0
        for s in range(100):
            t = bernoulli_sample(TensorShape(3, 3), Homogeneous(0.4), SeedSpec(123, s))
            w = center(t, Homogeneous(0.4))
            sl = slice_lower(w, num_slices=3, seed=SeedSpec(123, s), config=cfg)
            ho = hopm_lower(w, cfg)
            if sl.value > ho.value + 1e-8:
                violations += 1
        assert violations == 0


class TestSandwich:
    def test_all_ones_tight(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        est = spectral_sandwich(j, 1)
        assert est.lower == pytest.approx(2 * np.sqrt(2), abs=1e-6)
        assert est.upper == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_zero_tensor(self):
        est = spectral_sandwich(SparseTensor.empty(TensorShape(3, 4)), 2)
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_exactly_cancelled_tensor(self):
        w = center(SparseTensor.all_ones(TensorShape(2, 5)), Homogeneous(1.0))
        est = spectral_sandwich(w, 1)
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_centered_bernoulli_consistent(self):
        t = bernoulli_sample(TensorShape(3, 40), Homogeneous(0.2), SeedSpec(5, 0))
        w = center(t, Homogeneous(0.2))
        est = spectral_sandwich(w, 2, PowerIterConfig(restarts=6, seed=SeedSpec(5, 0)))
        assert 0 < est.lower <= est.upper + 1e-8
        assert np.isfinite(est.upper)
        assert est.upper_capped >= est.upper
        assert abs(multilinear_form(w, est.lower_witness)) == pytest.approx(est.lower, rel=1e-8)

    def test_multiway_chain_recorded(self):
        t = bernoulli_sample(TensorShape(3, 10), Homogeneous(0.3), SeedSpec(6, 0))
        w = center(t, Homogeneous(0.3))
        est = spectral_sandwich(w, 1, PowerIterConfig(restarts=4, seed=SeedSpec(6, 0)))
        assert est.chain_upper is not None
        assert est.chain_upper >= est.lower - 1e-8

    def test_chain_is_coarsened_unfolding(self):
        # k=3, m=1: both splits of {1}{2}{3} are equally balanced; rounding in
        # the float-log comparison picks one of them, depending on n
        t = bernoulli_sample(TensorShape(3, 10), Homogeneous(0.3), SeedSpec(6, 0))
        w = center(t, Homogeneous(0.3))
        cfg = PowerIterConfig(restarts=4, seed=SeedSpec(6, 0))
        est = spectral_sandwich(w, 1, cfg)
        coarse = [matrix_op_norm(unfold(w, Partition(b)), cfg).value
                  for b in ([[1, 2], [3]], [[1], [2, 3]])]
        assert est.chain_upper in coarse

    def test_upper_bounds_both_partitions_dominate_lower(self):
        t = bernoulli_sample(TensorShape(4, 6), Homogeneous(0.2), SeedSpec(7, 1))
        w = center(t, Homogeneous(0.2))
        cfg = PowerIterConfig(restarts=4, seed=SeedSpec(7, 1))
        for m in (1, 2, 3):
            est = spectral_sandwich(w, m, cfg)
            assert est.lower <= est.upper + 1e-8

    def test_m_out_of_range(self):
        t = SparseTensor.all_ones(TensorShape(3, 2))
        with pytest.raises(ValueError):
            spectral_sandwich(t, 3)

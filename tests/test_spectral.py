import subprocess
import sys
import textwrap

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
    spectral,
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

    def test_objective_monotone(self, rng, monkeypatch):
        monkeypatch.setattr(spectral, "_GRAM_MAX", 0)  # the iterative path
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
        cancelled = center(SparseTensor.all_ones(TensorShape(2, 5)), Homogeneous(1.0))
        assert matrix_op_norm(cancelled).value == 0.0

    def test_nonconvergence_flagged(self, rng, monkeypatch):
        monkeypatch.setattr(spectral, "_GRAM_MAX", 0)  # the iterative path
        m = rng.standard_normal((30, 30))
        res = matrix_op_norm(_matrix_tensor(m), PowerIterConfig(max_iterations=2, restarts=1))
        assert not res.converged

    def test_gram_and_iterative_paths_agree(self, rng, monkeypatch):
        t = _matrix_tensor(rng.standard_normal((30, 30)))
        cfg = PowerIterConfig(max_iterations=3000)
        dense = matrix_op_norm(t, cfg)
        assert (dense.iterations, dense.converged, dense.trace) == (1, True, None)
        monkeypatch.setattr(spectral, "_GRAM_MAX", 0)
        iterative = matrix_op_norm(t, cfg)
        assert iterative.converged and iterative.iterations > 1
        assert dense.value == pytest.approx(iterative.value, rel=1e-8)

    def test_rejects_non_matrix_inputs(self):
        t = SparseTensor.all_ones(TensorShape(3, 2))
        with pytest.raises(ValueError, match="arity-2 unfolding, got 3"):
            matrix_op_norm(unfold(t, multiway_partition(3, 1)))
        with pytest.raises(ValueError, match="order-2 tensor, got order 3"):
            matrix_op_norm(t)


def _svd_norm(dense: np.ndarray) -> float:
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def _dense_unfolding(w, part) -> np.ndarray:
    view = unfold(w, part)
    dense = np.full(view.dims, view.background)
    dense[view.coords[:, 0] - 1, view.coords[:, 1] - 1] += view.values
    return dense


def _assert_certified(upper: float, sigma: float):
    assert sigma <= upper <= sigma * (1 + 1e-8), (upper, sigma)


class TestCertifiedUpper:
    """The Gram path's value is at least the SVD norm, and barely above it."""

    def test_concentration_trials(self):
        n, p = 120, 5.0 * np.log(120) / 120**2  # the conc-k3 benchmark workload
        for trial in range(4):
            t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(1, trial))
            w = center(t, Homogeneous(p))
            est = spectral_sandwich(w, 2, PowerIterConfig(restarts=6, seed=SeedSpec(1, trial)))
            _assert_certified(est.upper, _svd_norm(_dense_unfolding(w, balanced_partition(3, 2))))
            assert est.upper_converged

    def test_k4_balanced(self):
        t = bernoulli_sample(TensorShape(4, 8), Homogeneous(0.2), SeedSpec(9, 0))
        w = center(t, Homogeneous(0.2))
        est = spectral_sandwich(w, 2, PowerIterConfig(restarts=3, seed=SeedSpec(9, 0)))
        _assert_certified(est.upper, _svd_norm(_dense_unfolding(w, balanced_partition(4, 2))))

    def test_k3_chain(self):
        t = bernoulli_sample(TensorShape(3, 12), Homogeneous(0.3), SeedSpec(6, 1))
        w = center(t, Homogeneous(0.3))
        est = spectral_sandwich(w, 1, PowerIterConfig(restarts=3, seed=SeedSpec(6, 1)))
        _assert_certified(est.upper, _svd_norm(_dense_unfolding(w, balanced_partition(3, 1))))
        _assert_certified(est.chain_upper, _svd_norm(_dense_unfolding(w, Partition([[1], [2, 3]]))))

    def test_order2_with_background(self, rng):
        m = np.where(rng.random((9, 9)) < 0.4, rng.standard_normal((9, 9)), 0.0)
        t = OffsetTensor(SparseTensor.from_dense(m), -0.3)
        _assert_certified(matrix_op_norm(t).value, _svd_norm(m - 0.3))

    def test_degenerate_inputs(self):
        zero_row = np.arange(1.0, 26.0).reshape(5, 5)
        zero_row[2] = 0.0
        cases = [
            (_matrix_tensor(np.eye(5)), np.eye(5)),
            (_matrix_tensor(np.ones((6, 6))), np.ones((6, 6))),
            (OffsetTensor(SparseTensor.empty(TensorShape(2, 7)), 1.0), np.ones((7, 7))),
            (_matrix_tensor(zero_row), zero_row),
        ]
        for t, dense in cases:
            res = matrix_op_norm(t)
            _assert_certified(res.value, _svd_norm(dense))
            achieved = abs(res.left @ dense @ res.right)
            assert achieved == pytest.approx(_svd_norm(dense), rel=1e-12)

    def test_slice_witness_reproduces_value(self):
        t = bernoulli_sample(TensorShape(3, 30), Homogeneous(0.2), SeedSpec(4, 0))
        w = center(t, Homogeneous(0.2))
        res = slice_lower(w, num_slices=4, seed=SeedSpec(4, 0))
        assert abs(multilinear_form(w, res.witness)) == pytest.approx(res.value, rel=1e-12)

    def test_no_lapack_import(self):
        script = textwrap.dedent("""
            import sys, tempfile, os
            import tensorconc.cli
            from tensorconc.harness import config_from_dict, run
            with tempfile.TemporaryDirectory() as tmp:
                run(config_from_dict({
                    "command": "concentration", "k": 3, "m": 2, "n_list": [120],
                    "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 2}, "trials": 1,
                    "estimator": {"restarts": 2}, "out": os.path.join(tmp, "r.csv")}))
            print(sorted(m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules))
        """)
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


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
        assert abs(multilinear_form(w, est.lower_witness)) == pytest.approx(est.lower, rel=1e-8)

    def test_multiway_chain_recorded(self):
        t = bernoulli_sample(TensorShape(3, 10), Homogeneous(0.3), SeedSpec(6, 0))
        w = center(t, Homogeneous(0.3))
        est = spectral_sandwich(w, 1, PowerIterConfig(restarts=4, seed=SeedSpec(6, 0)))
        assert est.chain_upper is not None
        assert est.chain_upper >= est.lower - 1e-8

    def test_chain_is_coarsened_unfolding(self):
        # k=3, m=1: both splits of {1}{2}{3} are equally balanced; the tie
        # goes to the first, {1 | 2,3}, whatever n is
        cfg = PowerIterConfig(restarts=4, seed=SeedSpec(6, 0))
        for n in (6, 8, 12, 13):
            t = bernoulli_sample(TensorShape(3, n), Homogeneous(0.3), SeedSpec(6, 0))
            w = center(t, Homogeneous(0.3))
            est = spectral_sandwich(w, 1, cfg)
            first = matrix_op_norm(unfold(w, Partition([[1], [2, 3]])), cfg).value
            assert est.chain_upper == first, n

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

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import random_sparse
from oracles import (
    grid_rank1_max_2x2x2,
    jacobi_spectral_norm,
    reference_chain_partition,
    reference_fold_witness,
    reference_slice_lower,
)
from tensorconc import (
    Homogeneous,
    OffsetTensor,
    PowerIterConfig,
    SeedSpec,
    ShapeMismatchError,
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
from tensorconc.harness import _run_trial, config_from_dict
from tensorconc.spectral import kron_lift
from tensorconc.unfolding import Partition, UnfoldedView, balanced_partition, multiway_partition


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
        got = matrix_op_norm(_matrix_tensor(m)).value
        assert got == pytest.approx(jacobi_spectral_norm(m), rel=1e-8)

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

    def test_truncated_lanczos_still_certified(self, rng, monkeypatch):
        m = rng.standard_normal((30, 30))
        monkeypatch.setattr(spectral, "_MAX_STEPS", 2)
        res = matrix_op_norm(_matrix_tensor(m))
        assert res.iterations == 2 and res.converged
        assert res.value >= _svd_norm(m)

    def test_above_dense_cap_not_certified(self, rng, monkeypatch):
        t = _matrix_tensor(rng.standard_normal((30, 30)))
        dense = matrix_op_norm(t)
        monkeypatch.setattr(spectral, "_DENSE_MAX", 29)  # two sparse products per step
        sparse = matrix_op_norm(t)
        assert dense.converged and not sparse.converged
        assert sparse.value <= dense.value
        assert sparse.value == pytest.approx(dense.value, rel=1e-8)

    def test_rejects_wrong_length_start(self):
        view = unfold(SparseTensor.all_ones(TensorShape(3, 2)), balanced_partition(3, 2))  # 2 x 4
        assert matrix_op_norm(view, extra_inits=[np.ones(4)]).value == pytest.approx(np.sqrt(8))
        with pytest.raises(ShapeMismatchError, match=r"length n = 4, got shape \(2,\)"):
            matrix_op_norm(view, extra_inits=[np.ones(2)])
        # a bad vector after the first usable start is still checked
        with pytest.raises(ShapeMismatchError, match=r"length n = 4, got shape \(7,\)"):
            matrix_op_norm(view, extra_inits=[np.ones(4), np.ones(7)])

    def test_rejects_non_matrix_inputs(self):
        t = SparseTensor.all_ones(TensorShape(3, 2))
        with pytest.raises(ValueError, match="arity-2 unfolding, got 3"):
            matrix_op_norm(unfold(t, multiway_partition(3, 1)))
        with pytest.raises(ValueError, match="order-2 tensor, got order 3"):
            matrix_op_norm(t)


def _wide_range_tensor(rng, k: int, n: int, density: float) -> SparseTensor:
    """Gaussian entries over six decades, so that summation order shows in the bits."""
    dense = rng.standard_normal((n,) * k) * 10.0 ** rng.uniform(-3, 3, (n,) * k)
    dense[rng.random(dense.shape) >= density] = 0.0
    return SparseTensor.from_dense(dense)


class TestMatrixProductsMatchScipy:
    """The order-2 contraction products and the Gram matrix, bit for bit
    against scipy's CSR/CSC kernels on the same entries."""

    @pytest.fixture(params=[0.0, -0.37], ids=["b0", "b-0.37"])
    def cases(self, request, rng):
        b = request.param
        return [
            unfold(OffsetTensor(_wide_range_tensor(rng, 3, 7, 0.5), b), balanced_partition(3, 2)),
            unfold(OffsetTensor(_wide_range_tensor(rng, 3, 6, 0.6), b), balanced_partition(3, 1)),
            OffsetTensor(_wide_range_tensor(rng, 2, 23, 0.7), b),
            unfold(OffsetTensor(SparseTensor.empty(TensorShape(3, 4)), b), balanced_partition(3, 1)),
        ]

    @staticmethod
    def _scipy(m):
        """CSR of the matrix and of its transpose, built from the unsorted entries."""
        sp = pytest.importorskip("scipy.sparse")
        if isinstance(m, UnfoldedView):
            coords, values, dims = m.coords, m.values, m.dims
        else:
            coords, values, dims = m.sparse.coords, m.sparse.values, (m.shape.dim,) * 2
        coo = sp.coo_matrix((values, (coords[:, 0] - 1, coords[:, 1] - 1)), shape=dims)
        return coo.tocsr(), coo.T.tocsr()

    def test_products(self, cases, rng):
        for m in cases:
            csr, csc = self._scipy(m)
            b = m.background
            mat = spectral._as_matrix(m)
            v, u = rng.standard_normal(csr.shape[1]), rng.standard_normal(csr.shape[0])
            want_mv, want_rmv = csr @ v, csc @ u
            if b != 0.0:
                want_mv, want_rmv = want_mv + b * v.sum(), want_rmv + b * u.sum()
            assert spectral._times(mat, v, 1).tobytes() == want_mv.tobytes()
            assert spectral._times(mat, u, 0).tobytes() == want_rmv.tobytes()

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_gram(self, cases, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(spectral, "_PAIR_CHUNK", chunk)
        for m in cases:
            csr, csc = self._scipy(m)
            b = m.background
            mat = spectral._as_matrix(m)
            for short in (0, 1):
                s, st = (csr, csc) if short == 0 else (csc, csr)
                r, big = s.shape
                want = (s @ st).toarray()
                if b != 0.0:
                    sums = s @ np.ones(big)
                    want += b * np.add.outer(sums, sums) + b * b * big
                mags = np.abs(s.data) + abs(b)
                frob = float(np.einsum("i,i", mags, mags)) + b * b * (r * big - s.nnz)
                g, form_err = spectral._gram(mat, short)
                assert g.tobytes() == want.tobytes()
                assert form_err == spectral._gamma(big + 4) * frob


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
    """The certified value is at least the SVD norm, and barely above it."""

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

    @pytest.mark.parametrize("n", [24, 30])
    def test_k4_balanced_large(self, n):
        # the n^2 x n^2 unfolding of the paper's balanced k=4, m=2 case
        p = 5.0 * np.log(n) / n**2
        t = bernoulli_sample(TensorShape(4, n), Homogeneous(p), SeedSpec(1, 0))
        w = center(t, Homogeneous(p))
        est = spectral_sandwich(w, 2, PowerIterConfig(restarts=6, seed=SeedSpec(1, 0)))
        _assert_certified(est.upper, _svd_norm(_dense_unfolding(w, balanced_partition(4, 2))))
        assert est.upper_converged

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
        # the uniform start is this Gram matrix's eigenvector for 1, not for the top 9
        second = np.array([[2.0, -1.0], [-1.0, 2.0]])
        cases = [
            (_matrix_tensor(np.eye(5)), np.eye(5)),
            (_matrix_tensor(np.ones((6, 6))), np.ones((6, 6))),
            (OffsetTensor(SparseTensor.empty(TensorShape(2, 7)), 1.0), np.ones((7, 7))),
            (_matrix_tensor(zero_row), zero_row),
            (_matrix_tensor(second), second),
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
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestHopm:
    def test_restarts_read_as_integer(self):
        for bad in (2.5, "3", np.float64(2.0)):
            with pytest.raises(TypeError):
                PowerIterConfig(restarts=bad)
        cfg = PowerIterConfig(restarts=np.int64(3))
        assert type(cfg.restarts) is int and cfg == PowerIterConfig(restarts=3)

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

    @pytest.mark.parametrize("count", [0, -2])
    def test_slice_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="num_slices must be >= 1"):
            slice_lower(SparseTensor.all_ones(TensorShape(3, 3)), num_slices=count)

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

    def test_chain_partition_matches_merged_multiway(self):
        for k in range(3, 15):
            for m in range(1, (k + 1) // 2):
                assert spectral._chain_partition(k, m) == reference_chain_partition(k, m), (k, m)

    def test_chain_k4_m1_splits_in_the_middle(self):
        # {1}{2}{3}{4} splits after the second block, not the first
        cfg = PowerIterConfig(restarts=2, seed=SeedSpec(8, 0))
        w = _centered(4, 5, 0.3, SeedSpec(8, 0))
        assert spectral._chain_partition(4, 1) == Partition([[1, 2], [3, 4]])
        est = spectral_sandwich(w, 1, cfg)
        assert est.chain_upper == matrix_op_norm(unfold(w, Partition([[1, 2], [3, 4]])), cfg).value

    def test_upper_bounds_both_partitions_dominate_lower(self):
        t = bernoulli_sample(TensorShape(4, 6), Homogeneous(0.2), SeedSpec(7, 1))
        w = center(t, Homogeneous(0.2))
        cfg = PowerIterConfig(restarts=4, seed=SeedSpec(7, 1))
        for m in (1, 2, 3):
            est = spectral_sandwich(w, m, cfg)
            assert est.lower <= est.upper + 1e-8

    def test_public_call_sequence_reproduces_sandwich(self):
        # a traced replay of a trial calls these public functions in this
        # order and must reproduce the sandwich bit for bit
        n, p = 120, 5.0 * np.log(120) / 120**2
        t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(3, 1))
        w = center(t, Homogeneous(p))
        cfg = PowerIterConfig(restarts=6, seed=SeedSpec(3, 1))
        est = spectral_sandwich(w, 2, cfg)
        part = balanced_partition(3, 2)
        sl = slice_lower(w, num_slices=4, seed=cfg.seed, config=cfg)
        hopm = hopm_lower(w, cfg, extra_inits=[sl.witness])
        lower, witness = (sl.value, sl.witness) if sl.value > hopm.value else (hopm.value, hopm.witness)
        lift = kron_lift(list(witness), part.blocks[1])
        upper = matrix_op_norm(unfold(w, part), cfg, extra_inits=[lift])
        assert (est.lower, est.upper, est.iterations_used) == (
            lower, upper.value, hopm.iterations + upper.iterations)

    def test_m_out_of_range(self):
        t = SparseTensor.all_ones(TensorShape(3, 2))
        with pytest.raises(ValueError):
            spectral_sandwich(t, 3)


def _certify_calls(monkeypatch) -> list:
    """Record the Gram side of every ``_certify`` call from now on."""
    calls, real = [], spectral._certify

    def spy(g, theta, form_err):
        calls.append(g.shape[0])
        return real(g, theta, form_err)

    monkeypatch.setattr(spectral, "_certify", spy)
    return calls


def _centered(k, n, p, seed):
    return center(bernoulli_sample(TensorShape(k, n), Homogeneous(p), seed), Homogeneous(p))


class TestCertificateOnlyForReportedValues:
    # upper always; the chain's value too when m < k/2.  Slices and the HOPM
    # seed use only vectors and are not certified.
    @pytest.mark.parametrize("k, n, m, want", [(3, 12, 2, 1), (3, 12, 1, 2), (4, 6, 1, 2),
                                               (4, 6, 2, 1), (4, 6, 3, 1)])
    def test_sandwich(self, monkeypatch, k, n, m, want):
        w = _centered(k, n, 0.3, SeedSpec(9, k))
        calls = _certify_calls(monkeypatch)
        spectral_sandwich(w, m, PowerIterConfig(restarts=2, seed=SeedSpec(9, 0)))
        assert len(calls) == want

    def test_conc_k3_trial(self, monkeypatch):
        cfg = config_from_dict({
            "command": "concentration", "k": 3, "m": 2, "n_list": [120], "trials": 1,
            "p_rule": {"kind": "c_logn_over_nm", "c": 5.0, "m": 2}, "estimator": {"restarts": 6}})
        calls = _certify_calls(monkeypatch)
        _run_trial(cfg, 120, 0)
        assert calls == [120]

    def test_partition_override_trial(self, monkeypatch):
        cfg = config_from_dict({
            "command": "concentration", "k": 3, "m": 2, "n_list": [8], "trials": 1,
            "p_rule": {"kind": "fixed", "p": 0.3}, "partition": [[1, 3], [2]]})
        calls = _certify_calls(monkeypatch)
        assert "partition_upper" in _run_trial(cfg, 8, 0).aux
        assert calls == [8, 8]


def _empty_slices_tensor() -> SparseTensor:
    # background 0; nothing on mode-3 index 1 (the first pin) nor 2
    coords = [[1, 2, 3], [2, 1, 3], [4, 4, 5], [3, 1, 6], [6, 6, 6]]
    return SparseTensor(TensorShape(3, 6), coords, [1.0, -2.0, 0.5, 3.0, -1.0])


_REFERENCE_INPUTS = {
    "centered-k3": lambda: _centered(3, 20, 0.2, SeedSpec(11, 3)),
    "centered-k4": lambda: _centered(4, 8, 0.2, SeedSpec(11, 4)),
    "empty-slices": _empty_slices_tensor,
}


def _same_bits(a, b):
    return len(a) == len(b) and all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
                                    for x, y in zip(a, b))


class TestUncertifiedPairsMatchReference:
    """Slices and the HOPM seed take their pairs from ``_top_pair`` without a
    certificate; they must equal the certified ``matrix_op_norm`` pairs of
    the reference construction bit for bit."""

    CFG = PowerIterConfig(restarts=3, seed=SeedSpec(3, 1))

    def _check(self, w, num_slices):
        sl = slice_lower(w, num_slices=num_slices, seed=self.CFG.seed, config=self.CFG)
        ref = reference_slice_lower(w, num_slices, self.CFG.seed, self.CFG)
        assert sl.value.hex() == ref.value.hex() and sl.converged == ref.converged
        assert _same_bits(sl.witness, ref.witness)
        seed = spectral._fold_unfolding_witness(w, self.CFG)
        assert _same_bits(seed, reference_fold_witness(w, self.CFG))
        return sl

    def _hopm_with_reference_seed(self, monkeypatch, w, extra):
        got = hopm_lower(w, self.CFG, extra_inits=extra)
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "_fold_unfolding_witness", reference_fold_witness)
            want = hopm_lower(w, self.CFG, extra_inits=extra)
        assert (got.value.hex(), got.iterations, got.converged) == (
            want.value.hex(), want.iterations, want.converged)
        assert _same_bits(got.witness, want.witness)

    @pytest.mark.parametrize("name", sorted(_REFERENCE_INPUTS))
    @pytest.mark.parametrize("num_slices", [1, 5])
    def test_dense_path(self, monkeypatch, name, num_slices):
        w = _REFERENCE_INPUTS[name]()
        sl = self._check(w, num_slices)
        assert sl.converged
        self._hopm_with_reference_seed(monkeypatch, w, [sl.witness])

    def test_all_slices_empty(self):
        sl = self._check(_empty_slices_tensor(), 1)
        assert sl.value == 0.0 and all(v[0] == 1.0 for v in sl.witness)

    @pytest.mark.parametrize("name", sorted(_REFERENCE_INPUTS))
    def test_sparse_product_path(self, monkeypatch, name):
        # every slice and unfolding is past the cap: two sparse products per step
        monkeypatch.setattr(spectral, "_DENSE_MAX", 5)
        w = _REFERENCE_INPUTS[name]()
        sl = self._check(w, 4)
        assert not sl.converged
        self._hopm_with_reference_seed(monkeypatch, w, [sl.witness])

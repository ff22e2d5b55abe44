import dataclasses
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import COPIERS, assert_equal_copy, assert_read_only, random_sparse
from oracles import (
    dense_rank1,
    grid_rank1_max_2x2x2,
    jacobi_spectral_norm,
    reference_chain_partition,
    reference_fold_witness,
    reference_hopm_lower,
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
    core,
    hopm_lower,
    matrix_op_norm,
    multilinear_form,
    slice_lower,
    spectral,
    spectral_sandwich,
    unfold,
    unfolding,
)
from tensorconc.core import _Contraction
from tensorconc.harness import _run_trial, config_from_dict
from tensorconc.spectral import kron_lift
from tensorconc.unfolding import Partition, UnfoldedView, balanced_partition


def _matrix_tensor(m: np.ndarray) -> SparseTensor:
    return SparseTensor.from_dense(m)


@pytest.mark.parametrize("restarts", [0, -1])
def test_power_iter_config_restarts(restarts):
    with pytest.raises(ValueError, match="^restarts must be >= 1$"):
        PowerIterConfig(restarts=restarts)


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
            matrix_op_norm(unfold(t, Partition([[1], [2], [3]])))
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
            monkeypatch.setattr(core, "_PASS", chunk)
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

    def test_no_certificate_after_every_attempt(self):
        # a zero Gram matrix with theta 0 keeps the shift at 0, so each of
        # the attempts factors the zero matrix and fails
        with pytest.raises(ArithmeticError, match="^no Cholesky certificate for the Gram matrix$"):
            spectral._certify(np.zeros((3, 3)), 0.0, 0.0)

    @pytest.mark.parametrize("g, theta, form_err", [
        (np.full((3, 3), np.nan), 1.0, 0.0),
        (np.eye(3), np.nan, 0.0),
        (np.eye(3), 1.0, np.nan),
        (np.full((3, 3), np.inf), 1.0, 0.0),
    ], ids=["nan-gram", "nan-theta", "nan-form-err", "inf-gram"])
    def test_non_finite_input_refused(self, g, theta, form_err):
        # refused before any factorization, whatever LAPACK makes of a NaN
        with pytest.raises(ArithmeticError, match="^Gram certificate needs finite inputs$"):
            spectral._certify(g, theta, form_err)

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
        _assert_certified(est.upper, _svd_norm(_dense_unfolding(w, est.upper_partition)))
        _assert_certified(est.bounds.get("balanced_upper", est.upper),
                          _svd_norm(_dense_unfolding(w, balanced_partition(3, 1))))
        _assert_certified(est.bounds["chain_upper"],
                          _svd_norm(_dense_unfolding(w, Partition([[1], [2, 3]]))))

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
            assert res.converged
            _assert_certified(res.value, _svd_norm(dense))

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
        t = SparseTensor.from_dense(dense_rank1([u, v, w]))
        res = hopm_lower(t)
        assert res.value == pytest.approx(6.0, abs=1e-6)
        assert [np.linalg.norm(v) for v in res.witness] == pytest.approx([1.0] * 3, abs=1e-12)

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

    @pytest.mark.parametrize("count", [2.5, 1.0, "4"])
    def test_slice_count_read_as_integer(self, count):
        with pytest.raises(TypeError):
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


class TestExtremeScale:
    """Squares of entries below about 1e-154 underflow and above about 1e154
    overflow; each solver runs on its input scaled by a power of two."""

    def test_tiny_background_matrix_certified(self):
        # 4 x 4, every entry -1e-160: the norm is 4e-160
        res = matrix_op_norm(OffsetTensor(SparseTensor.empty(TensorShape(2, 4)), -1e-160))
        assert res.converged and res.value >= 4 * 1e-160
        assert res.value == pytest.approx(4e-160, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_diagonal_matrix_at_extreme_scale(self, scale):
        t = SparseTensor(TensorShape(2, 3), [[1, 1], [2, 2]], [1.0 * scale, 2.0 * scale])
        res = matrix_op_norm(t)
        assert res.converged and res.value >= 2.0 * scale
        assert res.value == pytest.approx(2.0 * scale, rel=1e-12, abs=0)
        assert hopm_lower(t).value == pytest.approx(2.0 * scale, rel=1e-12, abs=0)

    def test_tiny_background_slices(self):
        # every 4 x 4 slice of -1e-160 J has norm 4e-160
        res = slice_lower(OffsetTensor(SparseTensor.empty(TensorShape(3, 4)), -1e-160))
        assert res.value == pytest.approx(4e-160, rel=1e-12, abs=0)

    def test_unit_tensor_used_as_is(self):
        w = center(SparseTensor.all_ones(TensorShape(3, 3)), Homogeneous(0.25))
        for t in (w, OffsetTensor(w.sparse, -1.5)):
            c = _Contraction.of(t)
            scaled, e = spectral._unit_scaled(c)
            assert scaled is c and e == 0
        c = _Contraction.of(OffsetTensor(SparseTensor.empty(TensorShape(3, 3)), 3e-5))
        scaled, e = spectral._unit_scaled(c)
        assert e == 16 and scaled.background == 3e-5 * 2.0**16
        assert scaled.dims == c.dims and all(map(np.array_equal, scaled.index, c.index))

    @pytest.mark.parametrize("background", [0.0, -0.3])
    def test_scaled_layout_is_the_scaled_tensors_layout(self, background):
        # 1e-300 underflows at 2^-998 and leaves, as the scaled tensor drops it
        values = np.array([3e300, -1e-300, 2.0, 1e-300, -5e299])
        coords = [[1, 1, 1], [1, 2, 3], [2, 2, 2], [3, 1, 2], [3, 3, 3]]
        t = OffsetTensor(SparseTensor(TensorShape(3, 3), coords, values), background)
        got, e = spectral._unit_scaled(_Contraction.of(t))
        want = _Contraction.of(OffsetTensor(SparseTensor(t.shape, coords, np.ldexp(values, e)),
                                            math.ldexp(background, e)))
        assert e == -998 and len(got.values) == 3
        assert got.values.tobytes() == want.values.tobytes() and got.background == want.background
        assert all(np.array_equal(a, b) for a, b in zip(got.index, want.index))

    @staticmethod
    def _weighted():
        # entries -3..3 over a background of -0.3: every solver scales by 2^-1
        return OffsetTensor(SparseTensor.from_dense((np.arange(64) % 7 - 3.0).reshape(4, 4, 4)), -0.3)

    def test_scaled_unfolding_is_not_unfolded_again(self, monkeypatch):
        view = unfold(self._weighted(), balanced_partition(3, 1))
        calls = []
        phi_array = unfolding.phi_array
        monkeypatch.setattr(unfolding, "phi_array", lambda *a: calls.append(a) or phi_array(*a))
        matrix_op_norm(view)
        assert calls == []

    @pytest.mark.parametrize("solve", [
        lambda t: matrix_op_norm(unfold(t, balanced_partition(3, 1))), hopm_lower, slice_lower,
    ], ids=["matrix_op_norm", "hopm_lower", "slice_lower"])
    def test_scaled_input_builds_no_tensor(self, monkeypatch, solve):
        t = self._weighted()
        built = []
        init = SparseTensor.__init__
        monkeypatch.setattr(SparseTensor, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        solve(t)
        assert built == []


class TestSandwich:
    def test_all_ones_tight(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        est = spectral_sandwich(j, 1)
        assert est.lower == pytest.approx(2 * np.sqrt(2), abs=1e-6)
        assert est.upper == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_zero_tensor(self):
        est = spectral_sandwich(SparseTensor.empty(TensorShape(3, 4)), 2)
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_bracket_rule_is_relative_below_one(self):
        est = spectral_sandwich(SparseTensor.empty(TensorShape(3, 4)), 2)
        dataclasses.replace(est, lower=1e-159 * (1 + 1e-9), upper=1e-159)
        with pytest.raises(ValueError, match="sandwich violated"):
            dataclasses.replace(est, lower=1.0000001e-159, upper=1e-159)

    def test_exactly_cancelled_tensor(self):
        w = center(SparseTensor.all_ones(TensorShape(2, 5)), Homogeneous(1.0))
        est = spectral_sandwich(w, 1)
        assert (est.lower, est.upper) == (0.0, 0.0)

    @pytest.mark.parametrize("k, m", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kind", ["empty", "cancelled"])
    def test_exactly_zero_tensor_takes_the_general_path(self, k, m, n, kind):
        # the callees' own zero answers, with the chain recorded as 0.0
        # wherever 2m < k, as for any nonzero tensor
        shape = TensorShape(k, n)
        t = (SparseTensor.empty(shape) if kind == "empty"
             else center(SparseTensor.all_ones(shape), Homogeneous(1.0)))
        est = spectral_sandwich(t, m)
        assert (est.lower, est.upper, est.bounds["hopm"]) == (0.0, 0.0, 0.0)
        assert est.bounds.get("slice") == (0.0 if k >= 3 else None)
        assert est.bounds.get("chain_upper") == (0.0 if 2 * m < k else None)
        assert est.iterations_used == 0
        assert est.lower_converged and est.upper_converged
        assert est.upper_partition == balanced_partition(k, m)
        basis = np.eye(1, n)[0]
        assert all(np.array_equal(x, basis) for x in est.lower_witness)

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
        assert "chain_upper" in est.bounds
        assert est.bounds["chain_upper"] >= est.lower - 1e-8

    def test_chain_is_coarsened_unfolding(self):
        # k=3, m=1: both splits of {1}{2}{3} are equally balanced; the tie
        # goes to the first, {1 | 2,3}, whatever n is
        cfg = PowerIterConfig(restarts=4, seed=SeedSpec(6, 0))
        for n in (6, 8, 12, 13):
            t = bernoulli_sample(TensorShape(3, n), Homogeneous(0.3), SeedSpec(6, 0))
            w = center(t, Homogeneous(0.3))
            est = spectral_sandwich(w, 1, cfg)
            first = matrix_op_norm(unfold(w, Partition([[1], [2, 3]])), cfg).value
            assert est.bounds["chain_upper"] == first, n

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
        assert est.bounds["chain_upper"] == matrix_op_norm(unfold(w, Partition([[1, 2], [3, 4]])), cfg).value

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

    def test_kron_lift_rejects_modes_out_of_range(self):
        # unchecked, mode 0 would read xs[-1], the last vector
        xs = [np.ones(2), 2 * np.ones(2)]
        assert np.array_equal(kron_lift(xs, [1]), [1.0, 1.0])
        assert np.array_equal(kron_lift(xs, [2, 1]), [2.0, 2.0, 2.0, 2.0])
        for modes in ([0], [1, 3], [-1]):
            with pytest.raises(ValueError, match=r"modes must be in \[1, 2\]"):
                kron_lift(xs, modes)


class TestCandidateTable:
    """``upper`` is the least certified upper candidate, and ``bounds`` names
    every candidate's value."""

    @pytest.mark.parametrize("k, n", [(4, 6), (5, 4)])
    def test_chain_wins_at_m1(self, k, n):
        w = _centered(k, n, 2 * np.log(n) / n, SeedSpec(3, k))
        est = spectral_sandwich(w, 1, PowerIterConfig(restarts=2, seed=SeedSpec(3, 0)))
        assert est.upper == min(est.bounds["balanced_upper"], est.bounds["chain_upper"])
        assert est.bounds["chain_upper"] < est.bounds["balanced_upper"]
        assert est.upper_partition == spectral._chain_partition(k, 1)
        assert est.upper_converged
        _assert_certified(est.upper, _svd_norm(_dense_unfolding(w, est.upper_partition)))

    def test_certified_candidate_beats_uncertified(self, monkeypatch):
        # the chain's n^2 = 36 side is above the cap, the balanced n = 6 side is not
        monkeypatch.setattr(spectral, "_DENSE_MAX", 20)
        w = _centered(4, 6, 2 * np.log(6) / 6, SeedSpec(3, 4))
        est = spectral_sandwich(w, 1, PowerIterConfig(restarts=2, seed=SeedSpec(3, 0)))
        assert est.bounds["chain_upper"] < est.upper
        assert est.upper_partition == balanced_partition(4, 1)
        assert "balanced_upper" not in est.bounds
        assert est.upper_converged
        _assert_certified(est.upper, _svd_norm(_dense_unfolding(w, balanced_partition(4, 1))))

    def test_least_candidate_when_none_certified(self, monkeypatch):
        monkeypatch.setattr(spectral, "_DENSE_MAX", 3)
        w = _centered(4, 6, 2 * np.log(6) / 6, SeedSpec(3, 4))
        est = spectral_sandwich(w, 1, PowerIterConfig(restarts=2, seed=SeedSpec(3, 0)))
        assert est.upper == min(est.bounds["balanced_upper"], est.bounds["chain_upper"])
        assert est.upper_partition == spectral._chain_partition(4, 1)
        assert not est.upper_converged

    @pytest.mark.parametrize("k, m, n", [(3, 1, 12), (3, 2, 8), (4, 1, 6), (4, 2, 5), (5, 2, 4)])
    def test_balanced_upper_only_when_another_wins(self, k, m, n):
        cfg = PowerIterConfig(restarts=2, seed=SeedSpec(12, 0))
        for trial in range(3):
            est = spectral_sandwich(_centered(k, n, 0.3, SeedSpec(12, trial)), m, cfg)
            won = est.upper_partition != balanced_partition(k, m)
            assert ("balanced_upper" in est.bounds) == won
            uppers = [v for key, v in est.bounds.items() if key.endswith("_upper")]
            assert est.upper == min([est.upper, *uppers])


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


_RESULTS = ["SpectralEstimate", "HopmResult", "SliceResult", "MatrixNormResult"]


class TestFrozenResults:
    """The results that carry a bracket refuse assignment, so nothing undoes
    the check ``SpectralEstimate`` makes when built, and they cross to a
    worker process and back by pickle."""

    @pytest.fixture(scope="class")
    def results(self):
        w = _centered(3, 12, 0.3, SeedSpec(4, 0))
        config = PowerIterConfig(restarts=2, seed=SeedSpec(4, 0))
        return {
            "SpectralEstimate": spectral_sandwich(w, 1, config),
            "HopmResult": hopm_lower(w, config),
            "SliceResult": slice_lower(w, config=config),
            "MatrixNormResult": matrix_op_norm(unfold(w, balanced_partition(3, 1)), config),
        }

    @pytest.mark.parametrize("name", _RESULTS)
    def test_fields_frozen(self, results, name):
        result = results[name]
        assert type(result).__name__ == name
        for f in dataclasses.fields(result):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, f.name, getattr(result, f.name))

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
    @pytest.mark.parametrize("name", _RESULTS)
    def test_copies(self, results, name, copier):
        assert_equal_copy(results[name], copier(results[name]), by_eq=False)

    def test_bounds_read_only(self):
        # a candidate set after the bracket check could read far above upper
        est = spectral_sandwich(SparseTensor.all_ones(TensorShape(3, 2)), 1)
        for copier in (lambda x: x, *COPIERS.values()):
            assert_read_only(copier(est).bounds)
        assert est.bounds["hopm"] <= est.upper


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
    """Slices and the HOPM seed take their pairs from ``_top_pair`` and
    ``_singular_pair`` without a certificate; they must equal the pairs of
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


def _lockstep_input(k, n, values, background, seed):
    """A random tensor with a nonzero entry at (1, ..., 1): 0/1 or weighted
    values, with the given background."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n,) * k) < 0.3, 1.0, 0.0)
    if values == "weighted":
        dense *= rng.standard_normal(dense.shape)
    dense[(0,) * k] = 1.0
    return OffsetTensor(SparseTensor.from_dense(dense), background)


def _zero_exit_starts(k, n):
    """Starts whose contraction is exactly 0: at mode 1 of the first sweep
    (the last mode's vector is 0), and for k >= 3 at mode 2, where the
    squares of a nonzero contraction of size 1e-300 underflow."""
    e1 = np.eye(1, n)[0]
    starts = [[np.ones(n)] * (k - 1) + [np.zeros(n)]]
    if k >= 3:
        tiny = 1e-300 ** (1.0 / (k - 2))
        starts.append([np.ones(n), 1e200 * e1] + [tiny * e1] * (k - 2))
    return starts


class TestHopmLockstep:
    """The lockstep batch gives every start the arithmetic of a run of its
    own: value, witness bits, sweeps and convergence equal the one-start-at-
    a-time loop of ``reference_hopm_lower``."""

    INPUTS = {
        "k2-binary": (2, 30, "binary", 0.0),
        "k2-weighted-bg": (2, 30, "weighted", 0.3),
        "k3-binary-centered": (3, 12, "binary", -0.05),
        "k3-weighted": (3, 10, "weighted", 0.0),
        "k4-binary": (4, 6, "binary", 0.0),
        "k4-weighted-bg": (4, 6, "weighted", -0.1),
    }
    # scenario -> module constant overrides, given the tensor's nnz and the
    # most sweeps a start takes uncapped
    SCENARIOS = {
        "one-batch": lambda nnz, most: {},
        "cap-hit": lambda nnz, most: {"_MAX_STEPS": most - 1},
        "batches-of-two": lambda nnz, most: {"_HOPM_BATCH": 2 * nnz + 1},
        "batches-of-one": lambda nnz, most: {"_HOPM_BATCH": 1},
        "rows-one-by-one": lambda nnz, most: {"_EINSUM_ROW": 3},
    }

    @staticmethod
    def _spied(monkeypatch, t, cfg, extra):
        """hopm_lower, each start's run, each batch sweep's width and the
        sweep at which each start went on by itself."""
        widths, runs, alone = [], [], []
        row_norms, lockstep, by_itself = (spectral._row_norms, spectral._hopm_lockstep,
                                          spectral._hopm_alone)
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "_row_norms", lambda a: widths.append(len(a)) or row_norms(a))
            mp.setattr(spectral, "_hopm_lockstep",
                       lambda c, starts: runs.extend(lockstep(c, starts)) or runs[-len(starts):])
            mp.setattr(spectral, "_hopm_alone",
                       lambda c, xs, sweep, *state: alone.append(sweep) or by_itself(c, xs, sweep, *state))
            return hopm_lower(t, cfg, extra_inits=extra), runs, widths, alone

    @staticmethod
    def _assert_same(got, want):
        assert (got.value.hex(), got.iterations, got.converged) == (
            want.value.hex(), want.iterations, want.converged)
        assert _same_bits(got.witness, want.witness)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_matches_reference(self, monkeypatch, name, scenario):
        k, n, values, background = self.INPUTS[name]
        t = _lockstep_input(k, n, values, background, seed=len(name))
        cfg = PowerIterConfig(restarts=5, seed=SeedSpec(7, k))
        extra = _zero_exit_starts(k, n)
        _, runs, _, _ = self._spied(monkeypatch, t, cfg, extra)
        for attr, value in self.SCENARIOS[scenario](t.nnz, max(r[2] for r in runs)).items():
            monkeypatch.setattr(spectral, attr, value)
        got, runs, widths, alone = self._spied(monkeypatch, t, cfg, extra)
        self._assert_same(got, reference_hopm_lower(t, cfg, extra_inits=extra))
        # the zero exits stop in the first sweep
        assert [r[2:] for r in runs[2:2 + len(extra)]] == [(1, True)] * len(extra)
        if scenario == "one-batch":
            assert max(widths) == len(runs) == 2 + len(extra) + cfg.restarts
        if scenario == "cap-hit":
            assert {r[3] for r in runs} == {True, False}
        if scenario == "batches-of-two":
            # a zero exit in the first sweep leaves its partner alone mid-sweep
            assert max(widths) == 2 and min(widths) == 1
        if scenario == "batches-of-one":
            assert widths == [] and alone == [1] * len(runs)

    def test_centered_bernoulli(self, monkeypatch):
        # the starts stop at different sweeps, and the last goes on by itself
        cfg = PowerIterConfig(restarts=6, seed=SeedSpec(1, 2))
        t = _centered(3, 40, 0.05, SeedSpec(1, 2))
        extra = [slice_lower(t, seed=cfg.seed, config=cfg).witness]
        got, _, widths, alone = self._spied(monkeypatch, t, cfg, extra)
        self._assert_same(got, reference_hopm_lower(t, cfg, extra_inits=extra))
        assert max(widths) == 9 and min(widths) == 2 and len(alone) == 1 and alone[0] > 1

    @pytest.mark.parametrize("n", [1, 7, 120, 8192, 8193, 20000])
    def test_row_reductions_match_one_vector(self, n):
        # the lockstep's norms and sums of one start per row must equal
        # those of the start's own vector on every SIMD dispatch target
        a = np.random.default_rng(n).standard_normal((5, n)) * np.array([[1e-3], [1], [1e5], [7], [1]])
        assert spectral._row_norms(a).tobytes() == np.array([spectral._norm(r) for r in a]).tobytes()
        c = _Contraction(core._index(np.ones((1, 2), dtype=np.int64)), np.ones(1), 0.5, (n, n))
        sums = c.factor(0, np.ascontiguousarray(a.T))[1]
        assert sums.tobytes() == np.array([c.factor(0, r)[1] for r in a]).tobytes()


class TestUnitValueProduct:
    """Unit values skip the multiply by 1.0: every contraction equals the
    general product bit for bit, signed zeros included."""

    @pytest.mark.parametrize("background", [0.0, -0.25])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_same_bits_as_general_product(self, k, background):
        rng = np.random.default_rng(k)
        t = OffsetTensor(random_sparse(rng, k, 5, values="binary"), background)
        unit = _Contraction.of(t)
        general = _Contraction.of(t)
        general.unit = False
        assert unit.unit
        xs = [rng.standard_normal(5) for _ in range(k)]
        for x in xs:
            x[rng.random(5) < 0.4] = -0.0
        fu = [unit.factor(j, x) for j, x in enumerate(xs)]
        fg = [general.factor(j, x) for j, x in enumerate(xs)]
        assert unit.form(fu).hex() == general.form(fg).hex()
        for j in range(k):
            assert unit.all_but_one(fu, j).tobytes() == general.all_but_one(fg, j).tobytes()
        cols = np.stack(xs[:2], axis=1)  # a lockstep factor, one start per column
        two = [unit.factor(0, cols)] * 2
        assert unit._product(two).tobytes() == general._product(two).tobytes()

    def test_weighted_values_are_not_unit(self):
        assert not _Contraction.of(OffsetTensor(SparseTensor.from_dense(np.diag([1.0, 2.0])))).unit


class TestLanczos:
    """``_lanczos`` returns the top pair of the tridiagonal matrix of its
    whole run, bisected once."""

    @staticmethod
    def _run(monkeypatch, diag, start):
        """The result, the recorded ``_tridiagonal_top`` arguments and the
        basis vectors the operator was applied to."""
        calls, basis, real = [], [], spectral._tridiagonal_top

        def spy(d, e):
            calls.append((list(d), list(e)))
            return real(d, e)

        def op(q):
            basis.append(q.copy())
            return diag * q

        monkeypatch.setattr(spectral, "_tridiagonal_top", spy)
        return spectral._lanczos(op, start, SeedSpec(4, 0)), calls, np.array(basis)

    @staticmethod
    def _check_fresh(result, calls, basis):
        theta, vec, steps = result
        d, e = calls[-1]
        assert (len(d), len(e), len(basis)) == (steps, steps - 1, steps)
        want, s = spectral._tridiagonal_top(d, e)
        assert theta == want
        ritz = np.einsum("ij,i->j", basis, s)
        assert np.array_equal(vec, ritz / spectral._norm(ritz))

    def test_converged_first_run_bisected_once(self, monkeypatch):
        diag = np.linspace(0.0, 1.0, 200)
        diag[17] = 10.0
        result, calls, basis = self._run(monkeypatch, diag, np.ones(200))
        assert result[2] < 200
        assert [len(d) for d, _ in calls].count(result[2]) == 1
        self._check_fresh(result, calls, basis)
        assert result[0] == pytest.approx(10.0, rel=1e-12)

    def test_restart_ended_by_convergence(self, monkeypatch):
        # e_1 spans an invariant space: the first run breaks down at once,
        # and the second converges on the rest of the spectrum
        diag = np.concatenate([[1.0], np.linspace(0.0, 2.0, 199)])
        diag[60] = 5.0
        start = np.eye(1, 200)[0]
        result, calls, basis = self._run(monkeypatch, diag, start)
        self._check_fresh(result, calls, basis)
        assert calls[-1][1][0] == 0.0  # the restart's zero coupling
        assert result[0] == pytest.approx(5.0, rel=1e-12)

    def test_restart_ended_by_breakdown(self, monkeypatch):
        diag = np.concatenate([[3.0, 2.0], np.ones(18)])
        start = np.zeros(20)
        start[:2] = 1.0
        result, calls, basis = self._run(monkeypatch, diag, start)
        self._check_fresh(result, calls, basis)
        assert 0.0 in calls[-1][1]
        assert result[0] == pytest.approx(3.0, rel=1e-12)

"""Spectral-norm sandwich estimation.

The tensor spectral norm is NP-hard to compute exactly for k >= 3, so the
contract here is a certified bracket:

  * lower bounds are achieved multilinear-form values, found by alternating
    rank-1 maximization (higher-order power iteration) and by slice matrices
    with basis vectors pinned on modes 3..k;
  * upper bounds are operator norms of matrix unfoldings, estimated by
    alternating power iteration (whose Rayleigh objective is monotone
    non-decreasing, hence itself a certified lower bound for the matrix
    norm it approximates).

The unfolded-matrix iteration is additionally seeded with the Kronecker lift
of the best witness found on the lower side, which pins the estimated upper
bound above the lower bound up to floating-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import rng
from .core import (
    OffsetTensor,
    TensorLike,
    VectorTuple,
    as_offset,
    contract_all_but_one,
    multilinear_form,
)
from .rng import SeedSpec
from .unfolding import GroupedMatrix, Partition, UnfoldedView, balanced_partition, multiway_partition, unfold

SANDWICH_SLACK = 1e-8


@dataclass(frozen=True)
class PowerIterConfig:
    matrix_tol: float = 1e-10
    tensor_tol: float = 1e-8
    max_iterations: int = 500
    restarts: int = 16
    seed: SeedSpec = SeedSpec()

    def __post_init__(self):
        if self.matrix_tol <= 0 or self.tensor_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class _Matrix:
    """Sparse rectangular matrix plus rank-1 background, with fast matvecs."""

    __slots__ = ("nrows", "ncols", "csr", "csc", "background", "nnz")

    def __init__(self, nrows, ncols, rows, cols, values, background):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.nnz = len(values)
        m = sp.coo_matrix((values, (rows, cols)), shape=(self.nrows, self.ncols))
        self.csr = m.tocsr()
        self.csc = m.T.tocsr()
        self.background = float(background)

    def mv(self, v: np.ndarray) -> np.ndarray:
        out = self.csr @ v
        if self.background != 0.0:
            out = out + self.background * v.sum()
        return out

    def rmv(self, u: np.ndarray) -> np.ndarray:
        out = self.csc @ u
        if self.background != 0.0:
            out = out + self.background * u.sum()
        return out

    def is_zero(self) -> bool:
        return self.nnz == 0 and self.background == 0.0


def _as_matrix(m) -> _Matrix:
    if isinstance(m, _Matrix):
        return m
    if isinstance(m, GroupedMatrix):
        return _Matrix(m.nrows, m.ncols, m.rows, m.cols, m.values, m.background)
    if isinstance(m, UnfoldedView):
        if m.arity != 2:
            raise ValueError(f"matrix operations need an arity-2 unfolding, got {m.arity}")
        coords = m.coords
        return _Matrix(m.dims[0], m.dims[1], coords[:, 0] - 1, coords[:, 1] - 1,
                       m.values, m.background)
    t = as_offset(m)
    if t.shape.order != 2:
        raise ValueError(f"matrix operations need an order-2 tensor, got order {t.shape.order}")
    n = t.shape.dim
    return _Matrix(n, n, t.sparse.coords[:, 0] - 1, t.sparse.coords[:, 1] - 1,
                   t.sparse.values, t.background)


@dataclass
class MatrixNormResult:
    value: float
    left: np.ndarray
    right: np.ndarray
    iterations: int
    converged: bool
    trace: Optional[list] = None


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, summed by numpy rather than BLAS.

    BLAS ``ddot`` (behind ``np.linalg.norm``) splits long sums across its
    threads, so its last bits depend on the BLAS thread count; this sum
    does not, which keeps every estimate a function of the input alone.
    """
    return math.sqrt(float(np.einsum("i,i", x, x)))


def _init_vectors(dim: int, config: PowerIterConfig, label: int, count: int) -> list:
    """Deterministic start vectors: uniform first, then keyed random."""
    inits = [np.full(dim, dim**-0.5)]
    key = rng.stream_key(config.seed, label)
    for r in range(count - 1):
        u = rng.uniform_block(key, r * dim, dim)
        v = 2.0 * u - 1.0
        nv = _norm(v)
        if nv == 0.0:
            v = np.zeros(dim)
            v[r % dim] = 1.0
            nv = 1.0
        inits.append(v / nv)
    return inits


def matrix_op_norm(
    m,
    config: PowerIterConfig = PowerIterConfig(),
    extra_inits: Sequence[np.ndarray] = (),
    collect_trace: bool = False,
) -> MatrixNormResult:
    """Dominant singular value via alternating power iteration on v -> M^T(M v).

    Accepts an order-2 OffsetTensor, an arity-2 UnfoldedView, or a grouped
    matrix.  Matrix-vector products cost O(nnz) for the sparse part plus
    O(rows + cols) for the rank-1 background.  Returns the best value over
    restarts; the recorded objective is monotone non-decreasing per
    iteration, so the value is always an achieved |u^T M v| with unit u, v.
    Non-convergence within max_iterations is reported via ``converged``.
    """
    mat = _as_matrix(m)
    if mat.is_zero():
        e1r = np.zeros(mat.nrows)
        e1r[0] = 1.0
        e1c = np.zeros(mat.ncols)
        e1c[0] = 1.0
        return MatrixNormResult(0.0, e1r, e1c, 0, True, [] if collect_trace else None)
    starts = [np.asarray(v, dtype=np.float64) for v in extra_inits]
    starts += _init_vectors(mat.ncols, config, rng.LBL_POWER_INIT, config.restarts)
    best = None
    total_iter = 0
    for v0 in starts:
        if v0.shape != (mat.ncols,):
            continue
        nv0 = _norm(v0)
        if nv0 == 0.0:
            continue
        res = _power_iterate(mat, v0 / nv0, config, collect_trace)
        total_iter += res.iterations
        if best is None or res.value > best.value:
            best = res
    best.iterations = total_iter
    return best


def _power_iterate(mat: _Matrix, v: np.ndarray, config: PowerIterConfig,
                   collect_trace: bool) -> MatrixNormResult:
    trace = [] if collect_trace else None
    prev = -np.inf
    hits = 0
    nu = 0.0
    u = np.zeros(mat.nrows)
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        w = mat.mv(v)
        sigma = _norm(w)
        if sigma == 0.0:
            return MatrixNormResult(0.0, u, v, it, True, trace)
        u = w / sigma
        z = mat.rmv(u)
        nu = _norm(z)
        if nu == 0.0:
            return MatrixNormResult(0.0, u, v, it, True, trace)
        v = z / nu
        if trace is not None:
            trace.append(nu)
        if prev > -np.inf and abs(nu - prev) <= config.matrix_tol * max(nu, 1e-300):
            hits += 1
            if hits >= 2:
                converged = True
                break
        else:
            hits = 0
        prev = nu
    return MatrixNormResult(nu, u, v, it, converged, trace)


@dataclass
class HopmResult:
    value: float
    witness: VectorTuple
    iterations: int
    converged: bool


def _fold_unfolding_witness(t: OffsetTensor, config: PowerIterConfig) -> Optional[list]:
    """Start vectors from the dominant singular pair of the {1 | 2..k} unfolding.

    The left vector seeds mode 1; the right vector (length n^(k-1)) is peeled
    one mode at a time by dominant-singular-vector extraction of its n-column
    reshape, mirroring the digit order of the unfolding map.
    """
    k, n = t.shape.order, t.shape.dim
    sub = PowerIterConfig(matrix_tol=config.matrix_tol, tensor_tol=config.tensor_tol,
                          max_iterations=config.max_iterations, restarts=2, seed=config.seed)
    res = matrix_op_norm(unfold(t, balanced_partition(k, k - 1)), sub)
    if res.value == 0.0:
        return None
    xs = [None] * k
    xs[0] = res.left
    v = res.right
    for j in range(1, k):
        if v.shape[0] == n:
            nv = _norm(v)
            xs[j] = v / nv if nv > 0 else np.full(n, n**-0.5)
            break
        mat = v.reshape(-1, n)
        x = np.full(n, n**-0.5)
        for _ in range(20):
            u = mat @ x
            nu = _norm(u)
            if nu == 0.0:
                break
            u /= nu
            x = mat.T @ u
            nx = _norm(x)
            if nx == 0.0:
                break
            x /= nx
        nx = _norm(x)
        xs[j] = x / nx if nx > 0 else np.full(n, n**-0.5)
        v = mat @ xs[j]
    for j in range(k):
        if xs[j] is None:
            xs[j] = np.full(n, n**-0.5)
    return xs


def hopm_lower(
    t: TensorLike,
    config: PowerIterConfig = PowerIterConfig(),
    extra_inits: Sequence[VectorTuple] = (),
) -> HopmResult:
    """Best rank-1 correlation by alternating maximization; a lower bound
    on the spectral norm because the returned value is the achieved form
    value at the (unit) witness vectors.

    Starts: a uniform start, the unfolding-seeded start, ``config.restarts``
    keyed random starts, and any ``extra_inits``.
    """
    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    if t.is_exactly_zero():
        return HopmResult(0.0, VectorTuple.basis(k, n, [1] * k), 0, True)
    key = rng.stream_key(config.seed, rng.LBL_HOPM_INIT)
    starts = [[np.full(n, n**-0.5) for _ in range(k)]]
    folded = _fold_unfolding_witness(t, config)
    if folded is not None:
        starts.append(folded)
    for x in extra_inits:
        starts.append([np.asarray(v, dtype=np.float64) for v in x])
    for r in range(config.restarts):
        xs = []
        for j in range(k):
            u = rng.uniform_block(key, (r * k + j) * n, n)
            v = 2.0 * u - 1.0
            nv = _norm(v)
            xs.append(v / nv if nv > 0 else np.full(n, n**-0.5))
        starts.append(xs)
    best_val = -1.0
    best_xs = None
    best_conv = False
    total_iter = 0
    for xs in starts:
        xs = [x.copy() for x in xs]
        prev = -np.inf
        hits = 0
        obj = 0.0
        converged = False
        for sweep in range(1, config.max_iterations + 1):
            total_iter += 1
            dead = False
            for j in range(1, k + 1):
                others = [xs[i] for i in range(k) if i != j - 1]
                v = contract_all_but_one(t, others, j)
                nv = _norm(v)
                if nv == 0.0:
                    dead = True
                    break
                xs[j - 1] = v / nv
                obj = nv
            if dead:
                obj = abs(multilinear_form(t, xs))
                converged = True
                break
            if prev > -np.inf and abs(obj - prev) <= config.tensor_tol * max(obj, 1e-300):
                hits += 1
                if hits >= 2:
                    converged = True
                    break
            else:
                hits = 0
            prev = obj
        val = abs(multilinear_form(t, xs))
        if val > best_val:
            best_val = val
            best_xs = xs
            best_conv = converged
    return HopmResult(best_val, VectorTuple(best_xs), total_iter, best_conv)


@dataclass
class SliceResult:
    value: float
    witness: VectorTuple
    assignments: list
    converged: bool


def slice_lower(
    t: TensorLike,
    num_slices: int = 4,
    seed: SeedSpec = SeedSpec(),
    config: PowerIterConfig = PowerIterConfig(),
) -> SliceResult:
    """Lower bound from n x n slices with basis vectors pinned on modes 3..k.

    The all-ones assignment (1, ..., 1) is always evaluated first; the
    remaining assignments are keyed random.  The maximum slice operator norm
    is a valid spectral-norm lower bound since it is a form value at unit
    vectors.
    """
    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    if k < 3:
        raise ValueError(f"slice bound needs order >= 3, got {k}")
    assignments = [np.ones(k - 2, dtype=np.int64)]
    if num_slices > 1:
        key = rng.stream_key(seed, rng.LBL_SLICE)
        u = rng.uniform_block(key, 0, (num_slices - 1) * (k - 2))
        extra = np.minimum(n, (u * n).astype(np.int64) + 1).reshape(num_slices - 1, k - 2)
        assignments.extend(list(extra))
    seen = set()
    best_val = -1.0
    best = None
    converged = True
    for a in assignments:
        tup = tuple(int(x) for x in a)
        if tup in seen:
            continue
        seen.add(tup)
        if t.nnz:
            mask = np.all(t.sparse.coords[:, 2:] == np.asarray(tup, dtype=np.int32), axis=1)
            sub_coords = t.sparse.coords[mask][:, :2]
            sub_values = t.sparse.values[mask]
        else:
            sub_coords = np.empty((0, 2), dtype=np.int32)
            sub_values = np.empty(0)
        mat = _Matrix(n, n, sub_coords[:, 0] - 1, sub_coords[:, 1] - 1, sub_values, t.background)
        res = matrix_op_norm(mat, config)
        converged = converged and res.converged
        if res.value > best_val:
            best_val = res.value
            best = (res, tup)
    res, tup = best
    vecs = [res.left, res.right]
    for j, idx in enumerate(tup):
        e = np.zeros(n)
        e[idx - 1] = 1.0
        vecs.append(e)
    return SliceResult(best_val, VectorTuple(vecs), [tuple(int(x) for x in a) for a in assignments],
                       converged)


def kron_lift(xs: Sequence[np.ndarray], modes: Sequence[int]) -> np.ndarray:
    """Kronecker product of the given (1-based) modes' vectors in unfolding
    digit order: the first block member is the least significant index."""
    vecs = [np.asarray(xs[r - 1], dtype=np.float64) for r in modes]
    return reduce(np.kron, list(reversed(vecs)))


@dataclass
class SpectralEstimate:
    """Certified bracket around an (intractable) tensor spectral norm."""

    lower: float
    upper: float
    lower_witness: VectorTuple
    upper_partition: Partition
    iterations_used: int
    upper_capped: float
    hopm_value: float
    slice_value: Optional[float]
    chain_upper: Optional[float]
    lower_converged: bool
    upper_converged: bool

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + SANDWICH_SLACK):
            raise ValueError(
                f"sandwich violated: lower={self.lower!r} > upper={self.upper!r}"
            )


def spectral_sandwich(
    t: TensorLike,
    m: int,
    config: PowerIterConfig = PowerIterConfig(),
    num_slices: int = 4,
) -> SpectralEstimate:
    """Bracket the spectral norm: achieved-form lower bound and balanced
    {1..k-m | k-m+1..k} unfolding upper bound.

    For m < k/2 the multiway-unfolding chain (unfold by consecutive blocks
    of size m, then group to a matrix) is recorded as a diagnostic upper
    bound.  ``upper_capped`` inflates the power-iteration value by
    1/(1 - 10*matrix_tol) for reporting; assertions use the raw value.
    """
    t = as_offset(t)
    k = t.shape.order
    if not 1 <= m <= k - 1:
        raise ValueError(f"m must be in [1, {k - 1}], got {m}")
    part = balanced_partition(k, m)
    if t.is_exactly_zero():
        wit = VectorTuple.basis(k, t.shape.dim, [1] * k)
        return SpectralEstimate(0.0, 0.0, wit, part, 0, 0.0, 0.0,
                                0.0 if k >= 3 else None, None, True, True)
    iterations = 0
    slice_res = None
    extra = []
    if k >= 3:
        slice_res = slice_lower(t, num_slices=num_slices, seed=config.seed, config=config)
        extra.append(slice_res.witness)
    hopm = hopm_lower(t, config, extra_inits=extra)
    iterations += hopm.iterations
    if slice_res is not None and slice_res.value > hopm.value:
        lower, witness, lower_conv = slice_res.value, slice_res.witness, slice_res.converged
    else:
        lower, witness, lower_conv = hopm.value, hopm.witness, hopm.converged
    lift = kron_lift(list(witness), part.blocks[1])
    upper_res = matrix_op_norm(unfold(t, part), config, extra_inits=[lift])
    iterations += upper_res.iterations
    chain = None
    if 2 * m < k:
        pi2 = multiway_partition(k, m)
        view2 = unfold(t, pi2)
        # most balanced two-group split of the multiway modes
        logs = np.log([float(d) for d in view2.dims])
        total = logs.sum()
        split = min(range(1, view2.arity),
                    key=lambda s: abs(2.0 * logs[:s].sum() - total))
        chain_res = matrix_op_norm(view2.group_modes(split), config)
        iterations += chain_res.iterations
        chain = chain_res.value
    check = abs(multilinear_form(t, witness))
    if lower > 0 and abs(check - lower) > 1e-8 * max(lower, 1.0):
        raise AssertionError(f"witness does not reproduce lower bound: {check} vs {lower}")
    return SpectralEstimate(
        lower=lower,
        upper=upper_res.value,
        lower_witness=witness,
        upper_partition=part,
        iterations_used=iterations,
        upper_capped=upper_res.value / (1.0 - 10.0 * config.matrix_tol),
        hopm_value=hopm.value,
        slice_value=None if slice_res is None else slice_res.value,
        chain_upper=chain,
        lower_converged=lower_conv,
        upper_converged=upper_res.converged,
    )

"""Spectral-norm sandwich estimation.

The tensor spectral norm is NP-hard to compute exactly for k >= 3, so the
contract here is a certified bracket:

  * lower bounds are achieved multilinear-form values, found by alternating
    rank-1 maximization (higher-order power iteration) and by slice matrices
    with basis vectors pinned on modes 3..k;
  * upper bounds are operator norms of matrix unfoldings.  When the smaller
    side of the unfolding is at most ``_GRAM_MAX`` the norm is computed from
    the Gram matrix of that side by a dense eigen-kernel that makes no BLAS
    call, and rounded up past a stated error bound: a certified upper bound.
    Above the cap it is estimated by alternating power iteration, whose
    Rayleigh objective is monotone non-decreasing: a lower estimate of the
    matrix norm, seeded with the Kronecker lift of the best witness found on
    the lower side, which pins it above the lower bound up to
    floating-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import rng
from .core import (
    OffsetTensor,
    SparseTensor,
    TensorLike,
    TensorShape,
    VectorTuple,
    as_offset,
    contract_all_but_one,
    multilinear_form,
)
from .rng import SeedSpec
from .unfolding import Partition, UnfoldedView, balanced_partition, multiway_partition, unfold

SANDWICH_SLACK = 1e-8

# Largest smaller side solved densely through its Gram matrix.  The dense
# kernel costs O(r^3): on a 2-core x86-64 host it took 6 ms at r = 120,
# 0.21 s at 512 and 1.6 s at 1024.  At n = 512 the k = 3, m = 2 unfolding
# of a centered Bernoulli tensor (p = 5 log n / n^2) took 0.74 s by 6-restart
# power iteration and 0.21 s by the Gram path, whose r x r Gram is 2 MB.
_GRAM_MAX = 512


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
        """True when every entry, background included, is exactly 0."""
        if self.background == 0.0:
            return self.nnz == 0
        return self.csr.nnz == self.nrows * self.ncols and bool(
            np.all(self.csr.data == -self.background))


def _as_matrix(m) -> _Matrix:
    """The one route to a ``_Matrix``: an arity-2 unfolding or an order-2 tensor."""
    if isinstance(m, UnfoldedView):
        if m.arity != 2:
            raise ValueError(f"matrix operations need an arity-2 unfolding, got {m.arity}")
        (nrows, ncols), coords, values = m.dims, m.coords, m.values
    else:
        m = as_offset(m)
        if m.shape.order != 2:
            raise ValueError(f"matrix operations need an order-2 tensor, got order {m.shape.order}")
        nrows = ncols = m.shape.dim
        coords, values = m.sparse.coords, m.sparse.values
    return _Matrix(nrows, ncols, coords[:, 0] - 1, coords[:, 1] - 1, values, m.background)


@dataclass
class MatrixNormResult:
    """Operator norm of a matrix and its top singular pair.

    On the Gram path ``value`` is a certified upper bound on the norm,
    ``iterations`` is 1 and ``converged`` is True.  On the power-iteration
    path ``value`` is the achieved |left^T M right|, ``iterations`` counts
    every restart's iterations and ``trace`` holds the objective when asked.
    """

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


def _e1(dim: int) -> np.ndarray:
    return np.eye(1, dim)[0]


def _top_eigenpair(g: np.ndarray) -> tuple:
    """Largest eigenvalue of the symmetric matrix ``g`` and a unit eigenvector.

    Householder reduction g = Q T Q^T to tridiagonal T, Sturm-count bisection
    for the largest eigenvalue of T, inverse iteration on T for its
    eigenvector y, and back-transformation Q y.  Only elementwise numpy,
    ``einsum`` and outer products are used, so no bit depends on BLAS or on
    its thread count.  The eigenvalue returned is the upper end of the final
    bisection interval; tiny pivots in inverse iteration are replaced by
    eps * ||T|| as in LAPACK ``dstein``.
    """
    # an exact power-of-two scaling to entries <= 1, so no squared entry overflows
    exp = math.frexp(float(np.max(np.abs(g))))[1]
    a = np.ldexp(np.asarray(g, dtype=np.float64), -exp)
    r = a.shape[0]
    e = np.zeros(max(r - 1, 0))
    reflectors = []
    for k in range(r - 2):
        x = a[k + 1:, k]
        nx = _norm(x)
        if nx == 0.0:
            reflectors.append(None)
            continue
        e[k] = -math.copysign(nx, x[0])
        v = x.copy()
        v[0] -= e[k]
        v /= _norm(v)
        sub = a[k + 1:, k + 1:]
        p = np.einsum("ij,j->i", sub, v)
        w = 2.0 * p - (2.0 * float(np.einsum("i,i", v, p))) * v
        sub -= np.multiply.outer(v, w) + np.multiply.outer(w, v)
        reflectors.append(v)
    if r > 1:
        e[r - 2] = a[r - 1, r - 2]
    d = np.diagonal(a).copy()
    rad = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    lo, hi = float(np.min(d - rad)), float(np.max(d + rad))
    tnorm = max(abs(lo), abs(hi))
    if tnorm == 0.0:
        return 0.0, _e1(r)
    eps, tiny = float(np.finfo(np.float64).eps), float(np.finfo(np.float64).tiny)
    lo, hi = lo - eps * tnorm, hi + eps * tnorm
    dl, el = d.tolist(), e.tolist()
    e2 = [x * x for x in el]
    pivmin = tiny * max(1.0, max(e2, default=0.0))

    def all_below(x: float) -> bool:
        """Every Sturm pivot of T - x I is negative: all eigenvalues are < x."""
        q = 1.0
        for i in range(r):
            q = dl[i] - x - (e2[i - 1] / q if i else 0.0)
            if abs(q) < pivmin:
                q = -pivmin
            if q >= 0.0:
                return False
        return True

    mid = 0.5 * (lo + hi)
    while hi - lo > 2.0 * eps * tnorm and lo < mid < hi:
        if all_below(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    # LU of the positive definite hi*I - T needs no pivoting; floor tiny pivots
    floor = eps * tnorm
    piv, mult = [], []
    for i in range(r):
        p = hi - dl[i]
        if i:
            mult.append(-el[i - 1] / piv[-1])
            p += mult[-1] * el[i - 1]
        piv.append(p if abs(p) >= floor else floor)
    y = [1.0 / (i + 1) for i in range(r)]
    for _ in range(3):
        for i in range(1, r):
            y[i] -= mult[i - 1] * y[i - 1]
        y[r - 1] /= piv[r - 1]
        for i in range(r - 2, -1, -1):
            y[i] = (y[i] + el[i] * y[i + 1]) / piv[i]
        scale = max(abs(t) for t in y)
        y = [t / scale for t in y]
    vec = np.array(y)
    for k in range(len(reflectors) - 1, -1, -1):
        v = reflectors[k]
        if v is not None:
            seg = vec[k + 1:]
            seg -= (2.0 * float(np.einsum("i,i", v, seg))) * v
    return math.ldexp(hi, exp), vec / _norm(vec)


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
    """Operator norm of an order-2 tensor or an arity-2 UnfoldedView.

    When the smaller side is at most ``_GRAM_MAX``, the norm comes from the
    Gram matrix of that side (see ``_gram_norm``): ``value`` is then a
    certified upper bound on the norm, ``left``/``right`` are the computed
    top singular pair, ``iterations`` is 1 and ``converged`` is True.

    Above the cap it is the best value over restarts of alternating power
    iteration on v -> M^T(M v), seeded with ``extra_inits`` and then keyed
    random starts.  Matrix-vector products cost O(nnz) for the sparse part
    plus O(rows + cols) for the rank-1 background.  The recorded objective
    (``collect_trace``) is monotone non-decreasing per iteration, so the
    value is an achieved |u^T M v| with unit u, v: a lower estimate of the
    norm.  Non-convergence within max_iterations is reported via
    ``converged``.  ``extra_inits`` and ``collect_trace`` apply only to this
    path.
    """
    mat = _as_matrix(m)
    if mat.is_zero():
        return MatrixNormResult(0.0, _e1(mat.nrows), _e1(mat.ncols), 0, True,
                                [] if collect_trace else None)
    if min(mat.nrows, mat.ncols) <= _GRAM_MAX:
        return _gram_norm(mat)
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


def _gram_norm(mat: _Matrix) -> MatrixNormResult:
    """Certified norm of A = S + b 11^T from the Gram matrix of its smaller side.

    With r the smaller side, N the other, s the sums of S along N and
    G = S S^T + b (s 1^T + 1 s^T) + b^2 N 11^T (or the S^T S form), the value
    is sqrt(lam + delta) rounded up, where lam is the eigenvalue returned by
    ``_top_eigenpair(G)`` and delta = (N + 10 r^2) u F, with u the unit
    roundoff and F = sum over all entries of (|S_ij| + |b|)^2 >= ||A||_F^2.
    Forming G perturbs it by at most gamma_{N+4} F in norm (each entry is a
    sum of at most N + 4 rounded terms bounded by (|A| |A|^T)_ij); Householder
    tridiagonalization is backward stable with a perturbation of order
    r^2 u ||G||_F and the Sturm count with one of order u ||T||, and
    ||G||_F <= F.  By Weyl's inequality the norm squared is then at most
    lam + delta (Golub & Van Loan, Matrix Computations, sections 8.1 and 8.3).
    """
    rows_side = mat.nrows <= mat.ncols
    s, st = (mat.csr, mat.csc) if rows_side else (mat.csc, mat.csr)
    r, big = s.shape
    g = (s @ st).toarray()
    b = mat.background
    if b != 0.0:
        sums = s @ np.ones(big)
        g += b * np.add.outer(sums, sums) + b * b * big
    mags = np.abs(s.data) + abs(b)
    frob = float(np.einsum("i,i", mags, mags)) + b * b * (r * big - s.nnz)
    lam, vec = _top_eigenpair(g)
    delta = (big + 10.0 * r * r) * (np.finfo(np.float64).eps / 2) * frob
    value = math.nextafter(math.sqrt(max(lam, 0.0) + delta), math.inf)
    other = mat.rmv(vec) if rows_side else mat.mv(vec)
    norm = _norm(other)
    other = other / norm if norm > 0.0 else _e1(big)
    left, right = (vec, other) if rows_side else (other, vec)
    return MatrixNormResult(value, left, right, 1, True)


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
    res = matrix_op_norm(unfold(t, balanced_partition(k, k - 1)), replace(config, restarts=2))
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
    remaining assignments are keyed random.  Each slice is ranked by the
    form value |u^T S v| achieved at the singular pair that
    ``matrix_op_norm`` returns for it, not by that call's ``value`` (an
    upper bound on the dense path); the best achieved value is a valid
    spectral-norm lower bound since it is a form value at unit vectors.
    """
    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    if k < 3:
        raise ValueError(f"slice bound needs order >= 3, got {k}")
    slice_shape = TensorShape(2, n)
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
        mask = np.all(t.sparse.coords[:, 2:] == np.asarray(tup, dtype=np.int32), axis=1)
        # a subset of canonical entries stays canonical
        piece = OffsetTensor(SparseTensor(slice_shape, t.sparse.coords[mask][:, :2],
                                          t.sparse.values[mask], presorted=True), t.background)
        res = matrix_op_norm(piece, config)
        converged = converged and res.converged
        achieved = abs(multilinear_form(piece, [res.left, res.right]))
        if achieved > best_val:
            best_val = achieved
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

    For m < k/2 the multiway chain is recorded as a diagnostic upper bound:
    the unfolding by the coarsened two-block partition that merges the
    consecutive size-m blocks on either side of their most balanced split,
    the first s minimizing |2 (|B_1| + ... + |B_s|) - k| (so {1 | 2,3} for
    k = 3, m = 1).
    """
    t = as_offset(t)
    k = t.shape.order
    if not 1 <= m <= k - 1:
        raise ValueError(f"m must be in [1, {k - 1}], got {m}")
    part = balanced_partition(k, m)
    if t.is_exactly_zero():
        wit = VectorTuple.basis(k, t.shape.dim, [1] * k)
        return SpectralEstimate(0.0, 0.0, wit, part, 0, 0.0,
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
        # most balanced two-group split of the multiway blocks, first on ties
        split = min(range(1, pi2.arity),
                    key=lambda s: abs(2 * sum(map(len, pi2.blocks[:s])) - k))
        coarse = Partition([sum(pi2.blocks[:split], ()), sum(pi2.blocks[split:], ())])
        chain_res = matrix_op_norm(unfold(t, coarse), config)
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
        hopm_value=hopm.value,
        slice_value=None if slice_res is None else slice_res.value,
        chain_upper=chain,
        lower_converged=lower_conv,
        upper_converged=upper_res.converged,
    )

"""Spectral-norm sandwich estimation.

The tensor spectral norm is NP-hard to compute exactly for k >= 3, so the
contract here is a certified bracket:

  * lower bounds are achieved multilinear-form values, found by alternating
    rank-1 maximization (higher-order power iteration) and by slice matrices
    with basis vectors pinned on modes 3..k;
  * upper bounds are operator norms of matrix unfoldings.  Every matrix
    eigen-solve here is one Lanczos routine that makes no BLAS call.  When
    the smaller side of the unfolding is at most ``_DENSE_MAX`` its Gram
    matrix is formed densely and the Lanczos value is certified by a
    Cholesky factorization: a certified upper bound.  Above the cap the
    Lanczos value is a lower estimate of the matrix norm, flagged as not
    converged.

A matrix is an order-2 ``core._Contraction`` of its entries sorted by
(row, col); its products and its Gram matrix are formed in numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from . import rng
from .core import (
    OffsetTensor,
    TensorLike,
    VectorTuple,
    _Contraction,
    _dot,
    _runs,
    _vectors_of,
    as_offset,
    multilinear_form,
)
from .rng import SeedSpec
from .unfolding import Partition, UnfoldedView, balanced_partition, unfold

SANDWICH_SLACK = 1e-8

# Largest smaller side whose r x r Gram matrix is formed densely and
# certified; at 4096 the Gram matrix, its shifted copy and the Cholesky
# factor take 128 MB each.
_DENSE_MAX = 4096

# Most products _gram adds per pass: a memory cap, and small enough that a
# pass's arrays (512 KB each) stay in cache, which made dense inputs 2x faster.
_PAIR_CHUNK = 1 << 16

_EPS = float(np.finfo(np.float64).eps)

# Lanczos tests its Ritz residual every this many steps: each test is a
# bisection costing O(steps) Python work per Sturm count.
_CHECK_EVERY = 8

# Stopping rules: a Lanczos solve ends at a Ritz residual of _LANCZOS_TOL times
# its Ritz value, a HOPM start after two sweeps in a row that each move its
# value by at most _HOPM_TOL (relative); each gets at most _MAX_STEPS steps.
_LANCZOS_TOL = 1e-10
_HOPM_TOL = 1e-8
_MAX_STEPS = 500


@dataclass(frozen=True)
class PowerIterConfig:
    restarts: int = 16
    seed: SeedSpec = SeedSpec()

    def __post_init__(self):
        object.__setattr__(self, "restarts", operator.index(self.restarts))
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _as_matrix(m) -> _Contraction:
    """The one route to a matrix, from an arity-2 unfolding or an order-2
    tensor: a ``_Contraction`` of its entries sorted by (row, col)."""
    if isinstance(m, UnfoldedView):
        if m.arity != 2:
            raise ValueError(f"matrix operations need an arity-2 unfolding, got {m.arity}")
        coords, values = m.canonical_entries()
        return _Contraction(coords, values, m.background, m.dims)
    m = as_offset(m)
    if m.shape.order != 2:
        raise ValueError(f"matrix operations need an order-2 tensor, got order {m.shape.order}")
    return _Contraction.of(m)


def _times(mat: _Contraction, v: np.ndarray, mode: int) -> np.ndarray:
    """``v`` contracted on the 0-based ``mode``: A v for mode 1, A^T v for 0."""
    factors = [mat.factor(0, v), None] if mode == 0 else [None, mat.factor(1, v)]
    return mat.all_but_one(factors, 1 - mode)


@dataclass
class MatrixNormResult:
    """Operator norm of a matrix and its top singular pair.

    ``converged`` means certified: ``value`` is then an upper bound on the
    norm.  It is False only above ``_DENSE_MAX``, where ``value`` is a Lanczos
    estimate from below.  ``iterations`` counts Lanczos steps.
    """

    value: float
    left: np.ndarray
    right: np.ndarray
    iterations: int
    converged: bool


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, summed by ``_dot``, not BLAS."""
    return math.sqrt(_dot(x, x))


def _e1(dim: int) -> np.ndarray:
    return np.eye(1, dim)[0]


def _tridiagonal_top(d: list, e: list) -> tuple:
    """Largest eigenvalue of the symmetric tridiagonal matrix T with diagonal
    ``d`` and off-diagonal ``e``, and a unit eigenvector.

    Sturm-count bisection for the eigenvalue and inverse iteration on T for
    its eigenvector, in Python floats and elementwise numpy, so no bit
    depends on BLAS.  The eigenvalue returned is the upper end of the final
    bisection interval; tiny pivots in inverse iteration are replaced by
    eps * ||T|| as in LAPACK ``dstein``.
    """
    r = len(d)
    # an exact power-of-two scaling to entries <= 1, so no squared entry overflows
    exp = math.frexp(max(map(abs, d + e)))[1]
    dv, ev = np.ldexp(d, -exp), np.ldexp(e, -exp)
    rad = np.abs(np.append(ev, 0.0)) + np.abs(np.append(0.0, ev))
    lo, hi = float(np.min(dv - rad)), float(np.max(dv + rad))
    tnorm = max(abs(lo), abs(hi))
    if tnorm == 0.0:
        return 0.0, _e1(r)
    lo, hi = lo - _EPS * tnorm, hi + _EPS * tnorm
    dl, el = dv.tolist(), ev.tolist()
    e2 = [x * x for x in el]
    pivmin = float(np.finfo(np.float64).tiny) * max(1.0, max(e2, default=0.0))
    pairs = list(zip(dl, [0.0] + e2))

    def all_below(x: float) -> bool:
        """Every Sturm pivot of T - x I is negative: all eigenvalues are < x."""
        q = -1.0
        for di, e2i in pairs:
            q = di - x - e2i / q
            if q >= pivmin:
                return False
            if q > -pivmin:
                q = -pivmin
        return True

    mid = 0.5 * (lo + hi)
    while hi - lo > 2.0 * _EPS * tnorm and lo < mid < hi:
        if all_below(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    # LU of the positive definite hi*I - T needs no pivoting; floor tiny pivots
    floor = _EPS * tnorm
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
    return math.ldexp(hi, exp), vec / _norm(vec)


def _lanczos(op, start: np.ndarray, seed: SeedSpec) -> tuple:
    """Top eigenpair of the symmetric positive semidefinite operator ``op``.

    Lanczos from the unit vector along ``start``, with full
    reorthogonalization (Gram-Schmidt twice) in ``einsum``, so no bit
    depends on BLAS.  It stops once the top Ritz pair's residual
    |beta_j s_j| is at most ``_LANCZOS_TOL`` times its Ritz value, or after
    min(dim, ``_MAX_STEPS``) steps.  A breakdown (beta at rounding level:
    the Krylov space is invariant) of the first run continues from a vector
    keyed by ``seed``, orthogonalized against the basis; a breakdown of that
    second run ends the solve, whose top Ritz value then is the top
    eigenvalue.  Returns the largest Ritz value over both runs, its unit
    Ritz vector and the step count.
    """
    dim = start.shape[0]
    limit = min(dim, _MAX_STEPS)
    basis = np.empty((min(limit, 64), dim))
    basis[0] = start / _norm(start)
    alphas, betas = [], []
    first, scale = 0, 0.0  # first: index of the current run's first vector
    for j in range(limit):
        q = basis[:j + 1]
        w = op(basis[j])
        alphas.append(_dot(basis[j], w))
        for _ in range(2):
            w = w - np.einsum("ij,i->j", q, np.einsum("ij,j->i", q, w))
        beta = _norm(w)
        scale = max(scale, abs(alphas[-1]) + beta)
        if j + 1 == limit:
            break
        if beta <= dim * _EPS * scale:
            if first:
                break
            first, beta = j + 1, 0.0
            w = 2.0 * rng.uniform_block(rng.stream_key(seed, rng.LBL_POWER_INIT), 0, dim) - 1.0
            for _ in range(2):
                w = w - np.einsum("ij,i->j", q, np.einsum("ij,j->i", q, w))
        elif (j + 1 - first) % _CHECK_EVERY == 0:
            theta, s = _tridiagonal_top(alphas[first:], betas[first:])
            if beta * abs(s[-1]) <= _LANCZOS_TOL * theta:
                break
        betas.append(beta)
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])[:limit]
        basis[j + 1] = w / _norm(w)
    steps = len(alphas)
    theta, s = _tridiagonal_top(alphas, betas[:steps - 1])
    vec = np.einsum("ij,i->j", basis[:steps], s)
    return theta, vec / _norm(vec), steps


def _top_pair(mat: _Contraction, short: int, start: np.ndarray, seed: SeedSpec) -> tuple:
    """``_lanczos`` from ``start`` on the Gram matrix G of ``mat`` on its
    0-based mode ``short``: G formed densely up to ``_DENSE_MAX``, two sparse
    products above.  Returns the top Ritz value, its unit Ritz vector, the
    step count and (G, its forming error), or None above the cap."""
    if mat.dims[short] > _DENSE_MAX:
        return (*_lanczos(lambda q: _times(mat, _times(mat, q, short), 1 - short), start, seed), None)
    g, form_err = _gram(mat, short)
    return (*_lanczos(lambda q: np.einsum("ij,j->i", g, q), start, seed), (g, form_err))


def _singular_pair(mat: _Contraction, short: int, vec: np.ndarray) -> tuple:
    """(left, right) singular pair of ``mat`` from a unit vector ``vec`` on
    its 0-based mode ``short``: the other side is ``vec`` mapped through the
    matrix and normalized (e_1 if that is zero)."""
    other = _times(mat, vec, short)
    norm = _norm(other)
    other = other / norm if norm > 0.0 else _e1(other.shape[0])
    return (other, vec) if short else (vec, other)


def matrix_op_norm(
    m,
    config: PowerIterConfig = PowerIterConfig(),
    extra_inits: Sequence[np.ndarray] = (),
) -> MatrixNormResult:
    """Operator norm of an order-2 tensor or an arity-2 UnfoldedView.

    The norm squared is the top eigenvalue of the Gram matrix G of the
    smaller side, found by ``_top_pair``.  The start is the first vector of
    ``extra_inits`` that is nonzero once mapped onto the rows by the matrix
    when the rows are the smaller side, else the uniform vector; any vector
    whose length is not ``ncols`` raises ``ShapeMismatchError``.

    When the smaller side is at most ``_DENSE_MAX``, G is formed densely and
    ``value`` is a certified upper bound on the norm (see ``_certify``);
    ``converged`` is then True.  Above the cap the operator is two sparse
    products, ``value`` is the square root of the top Ritz value, a lower
    estimate of the norm, and ``converged`` is False.  ``left``/``right``
    are the computed top singular pair and ``iterations`` counts Lanczos
    steps.  Only this function certifies: solves that need only the
    singular vectors call ``_top_pair`` themselves.
    """
    mat = _as_matrix(m)
    nrows, ncols = mat.dims
    if mat.is_zero():
        return MatrixNormResult(0.0, _e1(nrows), _e1(ncols), 0, True)
    short = 0 if nrows <= ncols else 1
    r = mat.dims[short]
    start = np.full(r, r**-0.5)
    for v in _vectors_of(extra_inits, None, ncols):
        q = v if short else _times(mat, v, 1)
        if _norm(q) > 0.0:
            start = q
            break
    theta, vec, steps, gram = _top_pair(mat, short, start, config.seed)
    value = math.sqrt(max(theta, 0.0)) if gram is None else _certify(gram[0], theta, gram[1])
    # the long-side vector comes after the certificate, the step that needs the most memory
    left, right = _singular_pair(mat, short, vec)
    return MatrixNormResult(value, left, right, steps, gram is not None)


def _gram(mat: _Contraction, short: int) -> tuple:
    """Dense Gram matrix of A = S + b 11^T on its smaller side, the 0-based
    mode ``short`` of ``mat``, and a bound on the error of forming it.

    With r the smaller side, N the other and s the sums of S along N,
    G = S S^T + b (s 1^T + 1 s^T) + b^2 N 11^T (or the S^T S form).  S S^T
    adds the product of each pair of entries that share a long-side index,
    in ascending long-side order, and s adds each row in that order, as CSR
    kernels do.  Each entry is a sum of at most N + 4 rounded terms bounded
    by (|A| |A|^T)_ij, so the computed G is within gamma_{N+4} F of the
    exact one in norm, where F = sum over all entries of (|S_ij| + |b|)^2
    >= ||A||_F^2, summed in row-major order of S.
    """
    r, big = mat.dims[short], mat.dims[1 - short]
    by_col = np.argsort(mat.index[1], kind="stable")
    # entries by ascending long-side index, and S's row-major order
    grouped, summed = (by_col, slice(None)) if short == 0 else (slice(None), by_col)
    idx, vals, longs = (a[grouped] for a in (mat.index[short], mat.values, mat.index[1 - short]))
    start = np.searchsorted(longs, longs)
    counts = np.searchsorted(longs, longs, "right") - start
    g = np.zeros((r, r))
    # an entry adds one product per entry of its run
    step = max(1, _PAIR_CHUNK // counts.max(initial=1))
    for lo in range(0, len(vals), step):
        e = slice(lo, lo + step)
        c = counts[e]
        right = _runs(start[e], c)
        np.add.at(g.reshape(-1), np.repeat(idx[e] * r, c) + idx[right],
                  np.repeat(vals[e], c) * vals[right])
    b = mat.background
    if b != 0.0:
        sums = np.bincount(mat.index[short], weights=mat.values, minlength=r)
        g += b * np.add.outer(sums, sums) + b * b * big
    mags = np.abs(mat.values[summed]) + abs(b)
    frob = _dot(mags, mags) + b * b * (r * big - len(vals))
    return g, _gamma(big + 4) * frob


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * _EPS / 2 / (1.0 - k * _EPS / 2)


def _certify(g: np.ndarray, theta: float, form_err: float) -> float:
    """Certified upper bound on ||A|| from a Ritz value ``theta`` of the
    computed Gram matrix ``g`` of A.

    A shift nu >= theta is accepted when the floating-point Cholesky
    factorization of H = fl((nu - c) I - g) succeeds, with
    c = gamma_{r+1} / (1 - gamma_{r+1}) r nu + 3 u (nu + max_i g_ii).
    Success gives R^T R = H + E with
    ||E|| <= gamma_{r+1} ||R||_F^2 <= gamma_{r+1} / (1 - gamma_{r+1}) tr H
    and tr H <= r nu (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3; Rump, BIT 46, 2006); the 3 u term covers rounding
    the diagonal of H.  So nu bounds the top eigenvalue of g, and
    nu + ``form_err`` that of A A^T, barring underflow.  The value is the
    square root of that sum, each step rounded up.  The first nu tried is
    theta + 2c; each failure quadruples the excess.  Cholesky is only a
    yes/no gate: the bits of the value come from ``theta`` and this rule,
    not from LAPACK.
    """
    r = g.shape[0]
    coef = _gamma(r + 1) / (1.0 - _gamma(r + 1)) * r
    top = float(np.max(np.diagonal(g)))
    theta = max(theta, 0.0)

    def margin(nu: float) -> float:
        # the 1.01 absorbs the rounding of this sum
        return 1.01 * (coef * nu + 1.5 * _EPS * (nu + top))

    excess = 2.0 * margin(theta)
    for _ in range(200):
        nu = theta + excess
        h = -g
        h[np.diag_indices(r)] += nu - margin(nu)
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            excess *= 4.0
        else:
            return math.nextafter(math.sqrt(math.nextafter(nu + form_err, math.inf)), math.inf)
    raise ArithmeticError("no Cholesky certificate for the Gram matrix")


@dataclass
class HopmResult:
    value: float
    witness: VectorTuple
    iterations: int
    converged: bool


def _fold_unfolding_witness(t: OffsetTensor, config: PowerIterConfig) -> list:
    """Start vectors from the uncertified top singular pair of the
    {1 | 2..k} unfolding (``_top_pair`` from the uniform start).

    The left vector seeds mode 1; the right vector (length n^(k-1)) is peeled
    one mode at a time: the top right singular vector of its n-column
    reshape, found by ``_lanczos`` from the uniform start, seeds the next
    mode, mirroring the digit order of the unfolding map.
    """
    k, n = t.shape.order, t.shape.dim
    unf = _as_matrix(unfold(t, balanced_partition(k, k - 1)))
    left, v = _singular_pair(unf, 0, _top_pair(unf, 0, np.full(n, n**-0.5), config.seed)[1])
    xs = [left]
    for _ in range(k - 2):
        mat = v.reshape(-1, n)
        _, x, _ = _lanczos(lambda x: np.einsum("ij,i->j", mat, np.einsum("ij,j->i", mat, x)),
                           np.full(n, n**-0.5), config.seed)
        xs.append(x)
        v = np.einsum("ij,j->i", mat, x)
    nv = _norm(v)
    xs.append(v / nv if nv > 0 else np.full(n, n**-0.5))
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
    starts = [[np.full(n, n**-0.5) for _ in range(k)], _fold_unfolding_witness(t, config)]
    for x in extra_inits:
        starts.append(list(_vectors_of(x, k, n)))
    # restart r's mode-j vector is drawn at counters (r * k + j) * n + [0, n)
    key = rng.stream_key(config.seed, rng.LBL_HOPM_INIT)
    u = rng.uniform_block(key, 0, config.restarts * k * n).reshape(config.restarts, k, n)
    for vs in 2.0 * u - 1.0:
        norms = [_norm(v) for v in vs]
        starts.append([v / nv if nv > 0 else np.full(n, n**-0.5) for v, nv in zip(vs, norms)])
    contraction = _Contraction.of(t)
    best_val, best_xs, best_conv = -1.0, None, False
    total_iter = 0
    for xs in starts:
        xs = [x.copy() for x in xs]
        factors = [contraction.factor(j, x) for j, x in enumerate(xs)]
        prev = -np.inf
        hits = 0
        converged = False
        for _ in range(_MAX_STEPS):
            total_iter += 1
            for j in range(k):
                v = contraction.all_but_one(factors, j)
                obj = _norm(v)
                if obj == 0.0:
                    break
                xs[j] = v / obj
                factors[j] = contraction.factor(j, xs[j])
            if obj == 0.0:  # the form is 0 whatever the vector on mode j
                converged = True
                break
            if prev > -np.inf and abs(obj - prev) <= _HOPM_TOL * max(obj, 1e-300):
                hits += 1
                if hits >= 2:
                    converged = True
                    break
            else:
                hits = 0
            prev = obj
        val = abs(contraction.form(factors))
        if val > best_val:
            best_val, best_xs, best_conv = val, xs, converged
    return HopmResult(best_val, VectorTuple(best_xs), total_iter, best_conv)


@dataclass
class SliceResult:
    value: float
    witness: VectorTuple
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
    form value |u^T S v| achieved at the uncertified singular pair that
    ``_top_pair`` finds for it (e_1, e_1 for an exactly-zero slice); the
    best achieved value is a valid spectral-norm lower bound since it is a
    form value at unit vectors.  ``converged`` is False when a slice was
    solved above ``_DENSE_MAX``.
    """
    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    if k < 3:
        raise ValueError(f"slice bound needs order >= 3, got {k}")
    if num_slices < 1:
        raise ValueError(f"num_slices must be >= 1, got {num_slices}")
    assignments = [np.ones(k - 2, dtype=np.int64)]
    if num_slices > 1:
        key = rng.stream_key(seed, rng.LBL_SLICE)
        u = rng.uniform_block(key, 0, (num_slices - 1) * (k - 2))
        extra = np.minimum(n, (u * n).astype(np.int64) + 1).reshape(num_slices - 1, k - 2)
        assignments.extend(list(extra))
    best_val, best, converged = -1.0, None, True
    for tup in dict.fromkeys(tuple(int(x) for x in a) for a in assignments):
        mask = np.all(t.sparse.coords[:, 2:] == np.asarray(tup, dtype=np.int32), axis=1)
        # a subset of canonical entries stays sorted by (row, col)
        mat = _Contraction(t.sparse.coords[mask][:, :2], t.sparse.values[mask], t.background, (n, n))
        if mat.is_zero():
            pair = (_e1(n), _e1(n))
        else:
            pair = _singular_pair(mat, 0, _top_pair(mat, 0, np.full(n, n**-0.5), config.seed)[1])
            converged = converged and n <= _DENSE_MAX
        achieved = abs(mat.form([mat.factor(j, x) for j, x in enumerate(pair)]))
        if achieved > best_val:
            best_val, best = achieved, (pair, tup)
    pair, tup = best
    return SliceResult(best_val, VectorTuple([*pair, *VectorTuple.basis(k - 2, n, tup)]), converged)


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


def _chain_partition(k: int, m: int) -> Partition:
    """``balanced_partition(k, k - s m)``, the first s in [1, ceil(k/m)) minimizing |2sm - k|."""
    s = min(range(1, -(-k // m)), key=lambda s: abs(2 * s * m - k))
    return balanced_partition(k, k - s * m)


def spectral_sandwich(
    t: TensorLike,
    m: int,
    config: PowerIterConfig = PowerIterConfig(),
    num_slices: int = 4,
) -> SpectralEstimate:
    """Bracket the spectral norm: achieved-form lower bound and balanced
    {1..k-m | k-m+1..k} unfolding upper bound.

    For m < k/2 the multiway chain is recorded as a diagnostic upper bound:
    the unfolding by ``_chain_partition(k, m)``, the two-block partition
    ``balanced_partition(k, k - s m)`` that splits the consecutive size-m
    blocks at their most balanced point (so {1 | 2,3} for k = 3, m = 1).
    """
    t = as_offset(t)
    k = t.shape.order
    part = balanced_partition(k, m)
    if t.is_exactly_zero():
        wit = VectorTuple.basis(k, t.shape.dim, [1] * k)
        return SpectralEstimate(0.0, 0.0, wit, part, 0, 0.0,
                                0.0 if k >= 3 else None, None, True, True)
    slice_res = None
    extra = []
    if k >= 3:
        slice_res = slice_lower(t, num_slices=num_slices, seed=config.seed, config=config)
        extra.append(slice_res.witness)
    hopm = hopm_lower(t, config, extra_inits=extra)
    iterations = hopm.iterations
    if slice_res is not None and slice_res.value > hopm.value:
        lower, witness, lower_conv = slice_res.value, slice_res.witness, slice_res.converged
    else:
        lower, witness, lower_conv = hopm.value, hopm.witness, hopm.converged
    lift = kron_lift(list(witness), part.blocks[1])
    upper_res = matrix_op_norm(unfold(t, part), config, extra_inits=[lift])
    iterations += upper_res.iterations
    chain = None
    if 2 * m < k:
        chain_res = matrix_op_norm(unfold(t, _chain_partition(k, m)), config)
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

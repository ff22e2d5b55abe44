"""Spectral-norm sandwich estimation.

The tensor spectral norm is NP-hard to compute exactly for k >= 3, so the
contract here is a certified bracket:

  * lower bounds are achieved multilinear-form values, found by alternating
    rank-1 maximization (higher-order power iteration, all starts advanced
    in lockstep with each start's own arithmetic) and by slice matrices
    with basis vectors pinned on modes 3..k;
  * upper bounds are operator norms of matrix unfoldings.  Every matrix
    eigen-solve here is one Lanczos routine that makes no BLAS call.  When
    the smaller side of the unfolding is at most ``_DENSE_MAX`` its Gram
    matrix is formed densely and the Lanczos value is certified by a
    Cholesky factorization: a certified upper bound.  Above the cap the
    Lanczos value is a lower estimate of the matrix norm, flagged as not
    converged.

A matrix is an order-2 ``core._Contraction`` of its entries sorted by
(row, col), indexed by ``core._index``; its products and its Gram matrix are
formed in numpy.  ``matrix_op_norm``, ``hopm_lower`` and ``slice_lower`` each
zero-test the layout they build (``_Contraction.is_zero``) and solve it scaled
by the power of two that puts its largest magnitude in [1, 2) (``_unit_scaled``
scales the layout; no tensor is rebuilt), so its squares neither overflow nor
vanish whatever its scale, and scale their value back (``_scaled_back``): a
certified upper bound rounds up and a lower bound toward zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import core, rng
from .core import (
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
NUM_SLICES = 4

# Largest smaller side whose r x r Gram matrix is formed densely and
# certified; at 4096 the Gram matrix, its shifted copy and the Cholesky
# factor take 128 MB each.
_DENSE_MAX = 4096

# Most entry-by-start products a lockstep HOPM batch holds: a batch takes
# as many starts as keep nnz * starts within it, so memory does not grow
# with the number of starts.
_HOPM_BATCH = 1 << 16

# Longest row that np.einsum sums in one pass (its buffer size).
_EINSUM_ROW = 8192

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
        return _Contraction(core._index(coords), values, m.background, m.dims)
    m = as_offset(m)
    if m.shape.order != 2:
        raise ValueError(f"matrix operations need an order-2 tensor, got order {m.shape.order}")
    return _Contraction.of(m)


def _unit_scaled(c: _Contraction) -> tuple:
    """(c times 2^e, e), 2^e putting the largest magnitude of the layout's values
    and background in [1, 2) as ``_tridiagonal_top`` scales its tridiagonal: c
    itself at e = 0, as for a 0/1 tensor centered at its p.  Values scale exactly;
    one that underflows to 0 leaves the layout, as a tensor drops a stored 0."""
    v = c.values
    e = 1 - math.frexp(max(v.max(initial=0.0), -v.min(initial=0.0), abs(c.background)))[1]
    if e == 0:
        return c, 0
    v = np.ldexp(v, e)
    keep = slice(None) if v.all() else v != 0.0
    return _Contraction(tuple(ix[keep] for ix in c.index), v[keep], math.ldexp(c.background, e), c.dims), e


def _times(mat: _Contraction, v: np.ndarray, mode: int) -> np.ndarray:
    """``v`` contracted on the 0-based ``mode``: A v for mode 1, A^T v for 0."""
    factors = [mat.factor(0, v), None] if mode == 0 else [None, mat.factor(1, v)]
    return mat.all_but_one(factors, 1 - mode)


def _scaled_back(x: float, e: int, toward: float) -> float:
    """x times 2^-e, stepped once toward ``toward`` (0 or inf) where rounding
    moved it the other way; only a subnormal or overflowing result rounds."""
    value = math.ldexp(x, -e)
    back = math.ldexp(value, e)
    if (back < x and toward > value) or (back > x and toward < value):
        value = math.nextafter(value, toward)
    return value


@dataclass(frozen=True)
class MatrixNormResult:
    """Operator norm of a matrix.

    ``converged`` means certified: ``value`` is then an upper bound on the
    norm.  It is False only above ``_DENSE_MAX``, where ``value`` is a Lanczos
    estimate from below.  ``iterations`` counts Lanczos steps.
    """

    value: float
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
    # rows that are never written are never committed
    basis = np.empty((limit, dim))
    basis[0] = start / _norm(start)
    alphas, betas = [], []
    first, scale = 0, 0.0  # first: index of the current run's first vector
    top = None  # the passing test's Ritz pair, when it ends the first run

    def orthogonalized(w: np.ndarray) -> np.ndarray:
        q = basis[:j + 1]
        for _ in range(2):
            w = w - np.einsum("ij,i->j", q, np.einsum("ij,j->i", q, w))
        return w

    for j in range(limit):
        w = op(basis[j])
        alphas.append(_dot(basis[j], w))
        w = orthogonalized(w)
        beta = _norm(w)
        scale = max(scale, abs(alphas[-1]) + beta)
        if j + 1 == limit:
            break
        if beta <= dim * _EPS * scale:
            if first:
                break
            first, beta = j + 1, 0.0
            key = rng.stream_key(seed, rng.LBL_POWER_INIT)
            w = orthogonalized(2.0 * rng.uniforms(key, range(dim)) - 1.0)
        elif (j + 1 - first) % _CHECK_EVERY == 0:
            theta, s = _tridiagonal_top(alphas[first:], betas[first:])
            if beta * abs(s[-1]) <= _LANCZOS_TOL * theta:
                top = None if first else (theta, s)
                break
        betas.append(beta)
        basis[j + 1] = w / (beta or _norm(w))  # beta is 0 only after a restart
    steps = len(alphas)
    theta, s = top or _tridiagonal_top(alphas, betas)
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
    estimate of the norm, and ``converged`` is False.  ``iterations``
    counts Lanczos steps.  Only this function certifies, and it returns no
    vectors: solves that need a singular pair call ``_top_pair`` and
    ``_singular_pair`` themselves.  Scaling back (see the module notes)
    rounds a certified value up and an estimate toward zero.
    """
    mat, e = _unit_scaled(_as_matrix(m))
    nrows, ncols = mat.dims
    if mat.is_zero():
        return MatrixNormResult(0.0, 0, True)
    short = 0 if nrows <= ncols else 1
    r = mat.dims[short]
    start = np.full(r, r**-0.5)
    for v in _vectors_of(extra_inits, None, ncols):
        q = v if short else _times(mat, v, 1)
        if _norm(q) > 0.0:
            start = q
            break
    theta, _, steps, gram = _top_pair(mat, short, start, config.seed)
    if gram is None:
        return MatrixNormResult(_scaled_back(math.sqrt(max(theta, 0.0)), e, 0.0), steps, False)
    return MatrixNormResult(_scaled_back(_certify(gram[0], theta, gram[1]), e, math.inf), steps, True)


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
    # an entry adds one product per entry of its run; a pass adds about core._PASS of them
    step = max(1, core._PASS // counts.max(initial=1))
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
    not from LAPACK, and a non-finite input is refused before it runs.
    """
    if not (np.all(np.isfinite(g)) and math.isfinite(theta) and math.isfinite(form_err)):
        raise ArithmeticError("Gram certificate needs finite inputs")
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


@dataclass(frozen=True)
class HopmResult:
    value: float
    witness: VectorTuple
    iterations: int
    converged: bool


def _fold_unfolding_witness(t: TensorLike, config: PowerIterConfig) -> list:
    """Start vectors from the uncertified top singular pair of the
    {1 | 2..k} unfolding, scaled (``_top_pair`` from the uniform start).

    The left vector seeds mode 1; the right vector (length n^(k-1)) is peeled
    one mode at a time: the top right singular vector of its n-column
    reshape, found by ``_lanczos`` from the uniform start, seeds the next
    mode, mirroring the digit order of the unfolding map.
    """
    k, n = t.shape.order, t.shape.dim
    unf = _unit_scaled(_as_matrix(unfold(t, balanced_partition(k, k - 1))))[0]
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


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``_norm`` of each row of the C-contiguous 2-d ``a``, bit for bit.
    einsum sums each row in one pass, as ``_dot`` sums a vector, only up to
    its ``_EINSUM_ROW``-element buffer, so longer rows go one at a time."""
    if a.shape[1] <= _EINSUM_ROW:
        return np.sqrt(np.einsum("ij,ij->i", a, a))
    return np.array([_norm(r) for r in a])


def _finish(c: _Contraction, xs: list, sweeps: int, converged: bool) -> tuple:
    """A start's result: (|form| at its vectors, vectors, sweeps, converged)."""
    return abs(c.form([c.factor(j, x) for j, x in enumerate(xs)])), xs, sweeps, converged


def _hopm_alone(c: _Contraction, xs: list, sweep: int, prev: float, hits: int) -> tuple:
    """One start run by itself from sweep ``sweep``, with the stopping
    state it has reached (``prev`` is NaN before its first sweep):
    ``_finish``'s tuple."""
    factors = [c.factor(j, x) for j, x in enumerate(xs)]
    for sweep in range(sweep, _MAX_STEPS + 1):
        for j in range(len(xs)):
            v = c.all_but_one(factors, j)
            obj = _norm(v)
            if obj == 0.0:  # the form is 0 whatever the vector on mode j
                return _finish(c, xs, sweep, True)
            xs[j] = v / obj
            factors[j] = c.factor(j, xs[j])
        if abs(obj - prev) <= _HOPM_TOL * max(obj, 1e-300):
            hits += 1
            if hits >= 2:
                return _finish(c, xs, sweep, True)
        else:
            hits = 0
        prev = obj
    return _finish(c, xs, _MAX_STEPS, False)


def _hopm_lockstep(c: _Contraction, starts: list) -> list:
    """HOPM from every start at once: ``_finish``'s tuple for each start,
    in order.

    Mode j's vectors are an (n, A) array, one column per active start, and
    their factor is the (nnz, A) gather of its rows.  ``bincount`` adds the
    product into the flat bins index_j * A + s, so neighbouring entries
    never share a bin and each bin adds its entries in entry order: every
    start gets the arithmetic of ``_Contraction.all_but_one`` on its own
    vectors, bit for bit.  A start that stops leaves the batch; the last one
    goes on by itself (``_hopm_alone``), which costs less than a batch of one.
    """
    k = len(c.dims)
    done = [None] * len(starts)
    ids = np.arange(len(starts))
    xs = [np.stack([x[j] for x in starts], axis=1) for j in range(k)]
    prev = np.full(len(starts), np.nan)  # no value yet: no comparison holds
    hits = np.zeros(len(starts), dtype=np.int64)

    def leave(rows: np.ndarray, sweeps: int, converged: bool) -> bool:
        """Record the starts in ``rows`` and drop them; False when none is left."""
        nonlocal ids, xs, prev, hits, factors
        for s in np.flatnonzero(rows):
            done[ids[s]] = _finish(c, [x[:, s].copy() for x in xs], sweeps, converged)
        keep = ~rows
        ids, prev, hits, xs = ids[keep], prev[keep], hits[keep], [x[:, keep] for x in xs]
        factors = None
        return len(ids) > 0

    factors = None  # the factors and flat bins are laid out again when the batch changes
    for sweep in range(1, _MAX_STEPS + 1):
        if len(ids) == 1:
            done[ids[0]] = _hopm_alone(c, [x[:, 0].copy() for x in xs], sweep,
                                       float(prev[0]), int(hits[0]))
            return done
        for j in range(k):
            if factors is None:
                factors = [c.factor(i, x) for i, x in enumerate(xs)]
                a = len(ids)
                bins = [(np.arange(a)[:, None] + ix * a).T.ravel() for ix in c.index]
            v = c.all_but_one(factors, j, bins[j])
            obj = _row_norms(np.ascontiguousarray(v.T))
            if not obj.all():  # the form is 0 whatever the vector on mode j
                zero = obj == 0.0
                if not leave(zero, sweep, True):
                    return done
                v, obj = v[:, ~zero], obj[~zero]
            xs[j] = v / obj
            if factors is not None:
                factors[j] = c.factor(j, xs[j])
        hits = np.where(np.abs(obj - prev) <= _HOPM_TOL * np.maximum(obj, 1e-300), hits + 1, 0)
        prev = obj
        stop = hits >= 2
        if stop.any() and not leave(stop, sweep, True):
            return done
    leave(np.ones(len(ids), dtype=bool), _MAX_STEPS, False)
    return done


def hopm_lower(
    t: TensorLike,
    config: PowerIterConfig = PowerIterConfig(),
    extra_inits: Sequence[VectorTuple] = (),
) -> HopmResult:
    """Best rank-1 correlation by alternating maximization; a lower bound
    on the spectral norm because the returned value is the achieved form
    value at the (unit) witness vectors.

    Starts, in this order: a uniform start, the unfolding-seeded start, the
    ``extra_inits``, then ``config.restarts`` keyed random starts.  The best
    value wins and a tie goes to the earlier start, so the order is part of
    the result.  A start stops after two sweeps in a row that each move its
    value by at most ``_HOPM_TOL`` (relative), when a contraction is exactly
    0, or after ``_MAX_STEPS`` sweeps.  The starts advance in lockstep
    (``_hopm_lockstep``), in batches of max(1, ``_HOPM_BATCH`` // nnz), each
    with the arithmetic of a run of its own.
    """
    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    contraction = _Contraction.of(t)
    if contraction.is_zero():
        return HopmResult(0.0, VectorTuple.basis(k, n, [1] * k), 0, True)
    contraction, e = _unit_scaled(contraction)
    starts = [[np.full(n, n**-0.5) for _ in range(k)], _fold_unfolding_witness(t, config)]
    for x in extra_inits:
        starts.append(list(_vectors_of(x, k, n)))
    # restart r's mode-j vector is drawn at counters (r * k + j) * n + [0, n)
    key = rng.stream_key(config.seed, rng.LBL_HOPM_INIT)
    u = rng.uniforms(key, range(config.restarts * k * n)).reshape(config.restarts, k, n)
    for vs in 2.0 * u - 1.0:
        norms = [_norm(v) for v in vs]
        starts.append([v / nv if nv > 0 else np.full(n, n**-0.5) for v, nv in zip(vs, norms)])
    size = max(1, _HOPM_BATCH // max(1, len(contraction.values)))
    runs = [r for lo in range(0, len(starts), size)
            for r in _hopm_lockstep(contraction, starts[lo:lo + size])]
    val, xs, _, converged = max(runs, key=lambda r: r[0])
    return HopmResult(_scaled_back(val, e, 0.0), VectorTuple(xs), sum(r[2] for r in runs), converged)


@dataclass(frozen=True)
class SliceResult:
    value: float
    witness: VectorTuple
    converged: bool


def slice_lower(
    t: TensorLike,
    num_slices: int = NUM_SLICES,
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
    num_slices = operator.index(num_slices)
    if num_slices < 1:
        raise ValueError(f"num_slices must be >= 1, got {num_slices}")
    u = rng.uniforms(rng.stream_key(seed, rng.LBL_SLICE), range((num_slices - 1) * (k - 2)))
    extra = np.minimum(n, (u * n).astype(np.int64) + 1).reshape(num_slices - 1, k - 2)
    assignments = [np.ones(k - 2, dtype=np.int64), *extra]
    c, e = _unit_scaled(_Contraction.of(t))
    best_val, best, converged = -1.0, None, True
    for tup in dict.fromkeys(tuple(int(x) for x in a) for a in assignments):
        mask = np.logical_and.reduce([ix == i - 1 for ix, i in zip(c.index[2:], tup)])
        # a subset of canonical entries stays sorted by (row, col)
        mat = _Contraction(tuple(ix[mask] for ix in c.index[:2]), c.values[mask], c.background, (n, n))
        if mat.is_zero():
            pair = (_e1(n), _e1(n))
        else:
            pair = _singular_pair(mat, 0, _top_pair(mat, 0, np.full(n, n**-0.5), config.seed)[1])
            converged = converged and n <= _DENSE_MAX
        achieved = abs(mat.form([mat.factor(j, x) for j, x in enumerate(pair)]))
        if achieved > best_val:
            best_val, best = achieved, (pair, tup)
    pair, tup = best
    witness = VectorTuple([*pair, *VectorTuple.basis(k - 2, n, tup)])
    return SliceResult(_scaled_back(best_val, e, 0.0), witness, converged)


def kron_lift(xs: Sequence[np.ndarray], modes: Sequence[int]) -> np.ndarray:
    """Kronecker product of the given (1-based) modes' vectors in unfolding
    digit order: the first block member is the least significant index."""
    if not all(1 <= r <= len(xs) for r in modes):
        raise ValueError(f"modes must be in [1, {len(xs)}], got {list(modes)}")
    vecs = [np.asarray(xs[r - 1], dtype=np.float64) for r in modes]
    return reduce(np.kron, list(reversed(vecs)))


def brackets(lower: float, upper: float) -> bool:
    """The bracket rule: 0 <= lower <= upper + ``SANDWICH_SLACK`` min(1, upper),
    an absolute slack from a norm of 1 up and a relative one below; a NaN
    fails it."""
    return 0.0 <= lower <= upper + SANDWICH_SLACK * min(1.0, upper)


@dataclass(frozen=True)
class SpectralEstimate:
    """Certified bracket around an (intractable) tensor spectral norm, with
    each candidate's value in ``bounds`` by name (see ``spectral_sandwich``)."""

    lower: float
    upper: float
    lower_witness: VectorTuple
    upper_partition: Partition
    iterations_used: int
    bounds: dict
    lower_converged: bool
    upper_converged: bool

    def __post_init__(self):
        object.__setattr__(self, "bounds", core._FrozenDict(self.bounds))
        if not brackets(self.lower, self.upper):
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
) -> SpectralEstimate:
    """Bracket the spectral norm by the best of its candidates.

    Lower candidates: ``hopm`` and, for k >= 3, ``slice`` (``NUM_SLICES``
    slices), whose witness also seeds HOPM; ``lower`` is the largest, a tie
    going to HOPM.  Upper candidates are unfolding norms: ``balanced_upper``
    (by ``balanced_partition(k, m)``, from the lift of the lower witness) and,
    for m < k/2, ``chain_upper`` (by ``_chain_partition(k, m)``: {1 | 2,3}
    for k = 3, m = 1).  ``upper`` is the least certified candidate, or the
    least of all with ``upper_converged`` False when none is certified; a tie
    goes to the earlier one.  ``bounds`` maps each candidate to its value,
    ``balanced_upper`` only when another wins.
    """
    t = as_offset(t)
    k = t.shape.order
    part = balanced_partition(k, m)
    slices = {}
    if k >= 3:
        slices["slice"] = slice_lower(t, seed=config.seed, config=config)
    hopm = hopm_lower(t, config, extra_inits=[r.witness for r in slices.values()])
    lowers = {"hopm": hopm, **slices}
    best = max(lowers.values(), key=lambda r: r.value)
    lift = kron_lift(list(best.witness), part.blocks[1])
    parts = {"balanced_upper": part}
    if 2 * m < k:
        parts["chain_upper"] = _chain_partition(k, m)
    uppers = {key: matrix_op_norm(unfold(t, p), config,
                                  extra_inits=[lift] if key == "balanced_upper" else ())
              for key, p in parts.items()}
    name = min(uppers, key=lambda key: (not uppers[key].converged, uppers[key].value))
    check = abs(multilinear_form(t, best.witness))
    if best.value > 0 and abs(check - best.value) > 1e-8 * max(best.value, 1.0):
        raise AssertionError(f"witness does not reproduce lower bound: {check} vs {best.value}")
    bounds = {key: r.value for key, r in {**lowers, **uppers}.items()
              if not key == name == "balanced_upper"}
    return SpectralEstimate(
        lower=best.value, upper=uppers[name].value, lower_witness=best.witness,
        upper_partition=parts[name], bounds=bounds,
        iterations_used=hopm.iterations + sum(r.iterations for r in uppers.values()),
        lower_converged=best.converged, upper_converged=uppers[name].converged)

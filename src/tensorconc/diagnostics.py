"""Empirical verification of the concentration-proof machinery: lattice
nets, light/heavy tuple decomposition, bounded-degree and bounded-discrepancy
checks, dyadic magnitude profiles, and the Bernoulli KL-divergence bound.

These are desk-scale instruments: gated, enumerable instances where the
quantities inside the probabilistic argument can be computed exactly and
compared against their claimed bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProbabilityModel,
    SparseTensor,
    TensorLike,
    _check_p,
    _dot,
    _lex_order,
    _probabilities,
    _runs,
    _vectors_of,
    as_offset,
    linear_index,
    multilinear_form,
)
from .hypergraph import _box_sums, _family_batch, _packed_batch, _scaled_volume
from .rng import SeedSpec
from .spectral import PowerIterConfig, hopm_lower


@dataclass(frozen=True)
class LatticeNet:
    """Grid points x in the unit ball with sqrt(n) * x_i / delta integral."""

    n: int
    delta: float
    points: np.ndarray  # (N, n) float64, lexicographically sorted integer grid

    @property
    def size(self) -> int:
        return self.points.shape[0]


def lattice_net(n: int, delta: float) -> LatticeNet:
    """Exhaustive enumeration of the lattice net; gated to n <= 4
    (cardinality grows like exp(n * log(7/delta)))."""
    if not 1 <= n <= 4:
        raise ValueError(f"lattice net enumeration is gated to n <= 4, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    radius = math.sqrt(n) / delta
    bound = int(math.floor(radius + 1e-12))
    axes = [np.arange(-bound, bound + 1, dtype=np.int64)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    sq = (grid.astype(np.float64) ** 2).sum(axis=1)
    keep = sq * delta * delta <= n * (1.0 + 1e-12)
    points = grid[keep].astype(np.float64) * (delta / math.sqrt(n))
    points.flags.writeable = False
    return LatticeNet(n, delta, points)


@dataclass(frozen=True)
class NetSupremumRecord:
    sup_net: float
    bound: float  # (1-delta)^{-k} * sup_net
    lower: float  # achieved-form estimate of the spectral norm
    within: bool
    slack: float


def net_supremum_check(
    t: TensorLike,
    delta: float = 0.5,
    config: PowerIterConfig = PowerIterConfig(),
) -> NetSupremumRecord:
    """Exhaustive check that (1-delta)^{-k} * sup over net tuples dominates
    the achieved spectral lower bound.  Gated to n <= 3, k <= 3."""
    t = as_offset(t)
    k, n = t.shape.order, t.shape.dim
    if n > 3 or k > 3:
        raise ValueError(f"net supremum check gated to n <= 3, k <= 3, got n={n}, k={k}")
    y = lattice_net(n, delta).points  # never empty: the net holds the origin
    dense = t.materialize()
    mats = [dense] if k == 2 else (np.einsum("a,abc->bc", x, dense) for x in y)
    sup = max(float(np.abs(np.einsum("ia,ab,jb->ij", y, m, y)).max()) for m in mats)
    bound = (1.0 - delta) ** (-k) * sup
    lower = hopm_lower(t, config).value
    return NetSupremumRecord(sup, bound, lower, lower <= bound + 1e-8, bound - lower)


@dataclass(frozen=True)
class TupleSplit:
    """Coordinates split by rank-1 product magnitude at sqrt(np)/n.

    Heavy tuples (|prod_j y_{j,i_j}| strictly above the threshold) are
    enumerated explicitly; light tuples are the implicit complement.
    light/heavy contributions are the signed sums of the products alone.
    """

    threshold: float
    heavy_coords: np.ndarray  # (H, k) int32, 1-based
    heavy_products: np.ndarray  # (H,) float64
    light_contribution: float
    heavy_contribution: float

    @property
    def heavy_count(self) -> int:
        return self.heavy_coords.shape[0]


def _kept(prods: np.ndarray, y: np.ndarray, rest: float, threshold: float) -> np.ndarray:
    """Per frontier row, how many entries of ``y`` (descending |y|, NaNs last)
    precede its first with abs(prod * y) * rest <= threshold; all, if none
    does (a NaN never does).  The test is monotone in |prod| and in |y|, so
    the largest |prod| bounds every cut and bisection finds each one."""
    finite = int(np.count_nonzero(~np.isnan(y)))
    cut = np.abs(np.max(np.abs(prods), initial=0.0) * y[:finite]) * rest <= threshold
    bound = int(np.argmax(cut)) if cut.any() else finite
    kept = np.zeros(prods.shape[0], dtype=np.intp)
    for step in reversed([1 << b for b in range(bound.bit_length())]):
        nxt = kept + step
        ok = (nxt <= bound) & ~(np.abs(prods * y[np.minimum(nxt, bound) - 1]) * rest <= threshold)
        kept = np.where(ok, nxt, kept)
    return np.where(kept == finite, y.shape[0], kept)


def split_tuples(ys, n: int, p: float) -> TupleSplit:
    """Enumerate heavy tuples by per-mode magnitude pruning, one frontier per mode.

    The frontier holds each index prefix whose |product| times the remaining
    modes' maxima exceeds the threshold, extended by the next mode's entries
    in descending |y| order up to the first that fails.  Only kept entries
    are multiplied out, so time and memory follow the output.
    """
    _check_p(p)
    vecs = _vectors_of(ys, None, n)
    if not vecs or n < 1:
        raise ValueError(f"need at least one vector of length n >= 1, got {len(vecs)} of n = {n}")
    k = len(vecs)
    threshold = math.sqrt(n * p) / n
    orders = [np.argsort(-np.abs(v), kind="stable") for v in vecs]
    suffix_max = np.ones(k + 1)
    for j in range(k - 1, -1, -1):
        suffix_max[j] = suffix_max[j + 1] * abs(vecs[j][orders[j][0]])
    live = int(not suffix_max[0] <= threshold)  # the empty prefix, if it can grow heavy
    idx, heavy_products = np.zeros((live, 0), dtype=np.intp), np.ones(live)
    for j in range(k):
        y = vecs[j][orders[j]]
        kept = _kept(heavy_products, y, suffix_max[j + 1], threshold)
        rows, pos = np.repeat(np.arange(kept.shape[0]), kept), _runs(np.zeros_like(kept), kept)
        idx = np.column_stack([idx[rows], orders[j][pos]])
        heavy_products = heavy_products[rows] * y[pos]
    heavy_coords = (idx + 1).astype(np.int32)
    order = _lex_order(heavy_coords)
    heavy_coords, heavy_products = heavy_coords[order], heavy_products[order]
    total = math.prod(float(v.sum()) for v in vecs)
    heavy_sum = float(heavy_products.sum())
    return TupleSplit(threshold, heavy_coords, heavy_products, total - heavy_sum, heavy_sum)


@dataclass(frozen=True)
class LightContributionRecord:
    light_sum: float
    ratio: float  # |light sum| / sqrt(np)
    c: float
    within: bool
    heavy_count: int


def light_contribution_check(w: TensorLike, ys, p: float, c: float) -> LightContributionRecord:
    """|sum over light tuples of prod(y) * w| / sqrt(np), versus constant c.

    The light sum is the full form value minus the explicitly enumerated
    heavy part, so the tensor is never densified.
    """
    w = as_offset(w)
    n = w.shape.dim
    ys = _vectors_of(ys, w.shape.order, n)
    split = split_tuples(ys, n, p)
    total = multilinear_form(w, ys)
    vals = np.full(split.heavy_count, w.background)
    if split.heavy_count and w.nnz:  # linear_indices raises at n^k >= 2^63
        _, ih, iw = np.intersect1d(linear_index(split.heavy_coords, n), w.sparse.linear_indices(),
                                   assume_unique=True, return_indices=True)
        vals[ih] += w.sparse.values[iw]
    heavy_part = _dot(split.heavy_products, vals)
    light_sum = total - heavy_part
    ratio = abs(light_sum) / math.sqrt(n * p)
    return LightContributionRecord(light_sum, ratio, c, ratio <= c, split.heavy_count)


@dataclass(frozen=True)
class BoundedDegreeRecord:
    max_degree: int
    bound: float  # c1 * n * p
    within: bool


def bounded_degree_check(t: SparseTensor, p: float, c1: float) -> BoundedDegreeRecord:
    """Maximum (k-1)-prefix degree versus c1 * n * p."""
    from .regularization import degree_map

    _check_p(p)
    dm = degree_map(t, 1)
    bound = c1 * t.shape.dim * p
    return BoundedDegreeRecord(dm.max_degree, bound, dm.max_degree <= bound)


@dataclass(frozen=True)
class DiscrepancyReport:
    """The two bounded-discrepancy cases evaluated per family, one array row each.

    Case 1: e / mu_bar <= exp(1) * c2.
    Case 2: e * log(e / mu_bar) <= c3 * |I_k| * log(n / |I_k|), with the
    conventions 0 * log(.) = 0 and e = 0 => case 2 holds.

    ``fitted_c2`` is the smallest c2 covering every family that case 2 (at
    the given c3) does not; ``fitted_c3`` symmetrically.  A joint minimal
    pair is not unique, so both one-sided minima are reported.
    """

    c2: float
    c3: float
    sizes: np.ndarray  # (F, k) int64, each row ascending: |I_1| <= ... <= |I_k|
    e: np.ndarray  # box sums
    mu_bar: np.ndarray  # p * |I_1| * ... * |I_k|
    lam: np.ndarray  # e / mu_bar
    case1: np.ndarray  # bool
    case2: np.ndarray  # bool
    violations: int
    fitted_c2: float
    fitted_c3: float

    @property
    def within(self) -> bool:
        return self.violations == 0


def _logs(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry: unlike ``np.log``, not dispatched by host CPU."""
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)


def discrepancy_check(
    t: SparseTensor,
    p: float,
    c2: float,
    c3: float,
    families,
    seed: SeedSpec = SeedSpec(),
) -> DiscrepancyReport:
    """Evaluate both discrepancy cases over index-set families.

    ``families`` is either an integer (that many sampled families, sizes
    log-uniform, keyed by seed) or an explicit nonempty list of k-tuples of
    index sets, each a set of distinct integers.  Sets are sorted by size
    internally so |I_1| <= ... <= |I_k|, ties keeping their mode order.
    """
    _check_p(p)
    n = t.shape.dim
    sizes, starts, members, masks = _family_batch(t.shape, families, seed)
    order = np.argsort(sizes, axis=1, kind="stable")  # by size, ties in mode order
    sizes, starts = (np.take_along_axis(a, order, axis=1) for a in (sizes, starts))
    if masks is not None:
        masks = np.take_along_axis(masks, order[:, :, None], axis=1)
    e = _box_sums(t, sizes, starts, members, masks)
    mu_bar = _scaled_volume(p, sizes)
    lam = e / mu_bar
    case1 = lam <= math.e * c2
    # case 2 holds where e * log(lam) <= 0; elsewhere it compares with
    # |I_k| log(n / |I_k|), which is 0 (case 2 fails) when |I_k| = n
    case2 = np.ones(e.size, dtype=bool)
    ratio2 = np.zeros(e.size)
    rows = np.flatnonzero((e > 0.0) & (lam > 0.0))
    lhs2 = e[rows] * _logs(lam[rows])
    rows, lhs2 = rows[lhs2 > 0.0], lhs2[lhs2 > 0.0]
    top = sizes[rows, -1]
    denom = top * _logs(n / top)
    case2[rows] = lhs2 <= c3 * denom
    ratio2[rows] = np.divide(lhs2, denom, out=np.full(rows.size, np.inf), where=denom > 0.0)
    return DiscrepancyReport(c2, c3, sizes, e, mu_bar, lam, case1, case2,
                             int(np.count_nonzero(~(case1 | case2))),
                             float(np.max(lam[~case2] / math.e, initial=0.0)),
                             float(np.max(ratio2[~case1], initial=0.0)))


@dataclass(frozen=True)
class DyadicProfile:
    """Dyadic magnitude classes and their edge-count statistics, one array row
    per nonempty class tuple.

    Classes use half-open intervals [2^(s-1) d/sqrt(n), 2^s d/sqrt(n)),
    compared exactly, for s = 1 .. ceil(log2(sqrt(n)/d)), the last one
    unbounded above; only indices with y_{j,i} >= d/sqrt(n) (the
    positive-part branch) qualify.
    """

    delta: float
    smax: int
    classes: dict  # (mode j 1-based, s) -> int32 array of 1-based indices
    alpha: dict  # (j, s) -> |D_j^s| * 2^(2s) / n
    levels: np.ndarray  # (F, k) int64 class tuples s_1 .. s_k
    sizes: np.ndarray  # (F, k) int64 class sizes
    e: np.ndarray  # box sums
    mu_bar: np.ndarray  # p * |D_1| * ... * |D_k|
    lam: np.ndarray  # e / mu_bar
    sigma: np.ndarray  # lam * n^(k/2-1) * sqrt(np) * 2^-(s_1 + ... + s_k)


def dyadic_profile(ys, delta: float, t: SparseTensor, p: float) -> DyadicProfile:
    """Classify indices by dyadic magnitude and tabulate e, mu-bar, lambda,
    sigma over all nonempty class tuples."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_p(p)
    k, n = t.shape.order, t.shape.dim
    vecs = _vectors_of(ys, k, n)
    base = delta / math.sqrt(n)
    smax = max(1, math.ceil(math.log2(math.sqrt(n) / delta)))
    edges = np.ldexp(base, np.arange(smax))  # class s starts at 2^(s-1) * base, exactly
    classes = {}
    alpha = {}
    for j, v in enumerate(vecs, start=1):
        qual = np.flatnonzero(v >= base)
        s = np.searchsorted(edges, v[qual], side="right")
        for level in range(1, smax + 1):
            members = (qual[s == level] + 1).astype(np.int32)
            if members.size:
                classes[(j, level)] = members
                alpha[(j, level)] = members.size * 2.0 ** (2 * level) / n
    per_mode = [[lvl for (j, lvl) in classes if j == mode] for mode in range(1, k + 1)]
    levels = np.array(list(itertools.product(*per_mode)), dtype=np.int64).reshape(-1, k)
    sets = [classes[(j, s)] for row in levels.tolist() for j, s in enumerate(row, start=1)]
    sizes = np.array([s.size for s in sets], dtype=np.int64).reshape(-1, k)
    e = _box_sums(t, *_packed_batch(n, sizes, np.concatenate([np.empty(0, np.int32)] + sets)))
    mu_bar = _scaled_volume(p, sizes)
    lam = e / mu_bar
    sigma = lam * n ** (k / 2.0 - 1.0) * math.sqrt(n * p) * np.ldexp(1.0, -levels.sum(axis=1))
    return DyadicProfile(delta, smax, classes, alpha, levels, sizes, e, mu_bar, lam, sigma)


@dataclass(frozen=True)
class KLRecord:
    kl: float
    bound: float
    within: bool


def kl_bernoulli(theta: ProbabilityModel, theta_prime: ProbabilityModel,
                 a: float, b: float) -> KLRecord:
    """Entrywise Bernoulli KL divergence against ||theta - theta'||_F^2 / (a(1-b)).

    Two homogeneous models are a single Bernoulli pair; a homogeneous model
    paired with a dense one broadcasts, and two dense tables must have the
    same shape (``ShapeMismatchError``).  Terms with theta in {0, 1} use
    their one-sided limits; theta' in {0, 1} with theta != theta' gives
    +infinity.
    """
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    p = _probabilities(theta)
    q = _probabilities(theta_prime, theta.shape if np.ndim(p) else None)
    pt, qt = (x.reshape(-1) for x in np.broadcast_arrays(p, q))
    lo = min(pt.min(), qt.min())
    hi = max(pt.max(), qt.max())
    if lo < a - 1e-15 or hi > b + 1e-15:
        raise ValueError(f"entries must lie in [{a}, {b}]")
    kl = 0.0
    for p_, q_ in zip(pt, qt):
        if p_ == q_:
            continue
        if q_ <= 0.0 or q_ >= 1.0:
            kl = float("inf")
            break
        if p_ > 0.0:
            kl += p_ * math.log(p_ / q_)
        if p_ < 1.0:
            kl += (1.0 - p_) * math.log((1.0 - p_) / (1.0 - q_))
    denom = a * (1.0 - b)
    diff = pt - qt
    fro_sq = _dot(diff, diff)
    bound = fro_sq / denom if denom > 0 else float("inf")
    return KLRecord(float(kl), float(bound), bool(kl <= bound + 1e-12))

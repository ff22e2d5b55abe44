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
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseProbability,
    Homogeneous,
    ProbabilityModel,
    SparseTensor,
    TensorLike,
    VectorTuple,
    _dot,
    _lex_order,
    as_offset,
    linear_index,
    multilinear_form,
)
from .hypergraph import _BoxCounter, _scaled_volume, _validate_families, sample_subset_families
from .rng import SeedSpec
from .spectral import PowerIterConfig, hopm_lower


def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")


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
    net = lattice_net(n, delta)
    y = net.points
    dense = t.materialize()
    if k == 2:
        sup = float(np.abs(y @ dense @ y.T).max()) if net.size else 0.0
    else:
        sup = 0.0
        for a in range(net.size):
            m = np.tensordot(y[a], dense, axes=(0, 0))
            sup = max(sup, float(np.abs(y @ m @ y.T).max()))
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

    def is_heavy(self, coord) -> bool:
        coord = np.asarray(coord, dtype=np.int32)
        if self.heavy_coords.size == 0:
            return False
        return bool(np.any(np.all(self.heavy_coords == coord, axis=1)))


def split_tuples(ys, n: int, p: float) -> TupleSplit:
    """Enumerate heavy tuples by per-mode magnitude pruning.

    Modes are scanned in descending |y| order; a branch is pruned as soon as
    the running |product| times the remaining modes' maxima cannot exceed
    the threshold.  Cost is output-sensitive.
    """
    _check_p(p)
    vecs = list(ys.vectors) if isinstance(ys, VectorTuple) else [np.asarray(v, float) for v in ys]
    k = len(vecs)
    for v in vecs:
        if v.shape != (n,):
            raise ValueError("vectors must have length n")
    threshold = math.sqrt(n * p) / n
    orders = [np.argsort(-np.abs(v), kind="stable") for v in vecs]
    sorted_abs = [np.abs(v)[o] for v, o in zip(vecs, orders)]
    suffix_max = np.ones(k + 1)
    for j in range(k - 1, -1, -1):
        mx = sorted_abs[j][0] if n else 0.0
        suffix_max[j] = suffix_max[j + 1] * mx
    heavy = []
    prods = []

    def descend(j: int, idx: list, prod: float):
        if abs(prod) * suffix_max[j] <= threshold:
            return
        if j == k:
            heavy.append([orders[jj][ii] + 1 for jj, ii in enumerate(idx)])
            prods.append(prod)
            return
        for pos in range(n):
            new = prod * vecs[j][orders[j][pos]]
            if abs(new) * suffix_max[j + 1] <= threshold:
                break  # scanned in descending |y|: later positions only smaller
            descend(j + 1, idx + [pos], new)

    descend(0, [], 1.0)
    heavy_coords = np.array(heavy, dtype=np.int32).reshape(len(heavy), k)
    heavy_products = np.array(prods, dtype=np.float64)
    if len(heavy) > 1:
        order = _lex_order(heavy_coords)
        heavy_coords, heavy_products = heavy_coords[order], heavy_products[order]
    total = 1.0
    for v in vecs:
        total *= float(v.sum())
    heavy_sum = float(heavy_products.sum())
    return TupleSplit(threshold, heavy_coords, heavy_products, total - heavy_sum, heavy_sum)


@dataclass(frozen=True)
class LightContributionRecord:
    light_sum: float
    ratio: float  # |light sum| / sqrt(np)
    c: float
    within: bool
    heavy_count: int


def light_contribution_check(
    w: TensorLike, ys, n: int, p: float, c: float
) -> LightContributionRecord:
    """|sum over light tuples of prod(y) * w| / sqrt(np), versus constant c.

    The light sum is the full form value minus the explicitly enumerated
    heavy part, so the tensor is never densified.
    """
    w = as_offset(w)
    split = split_tuples(ys, n, p)
    total = multilinear_form(w, ys)
    heavy_part = 0.0
    if split.heavy_count:
        vals = np.full(split.heavy_count, w.background)
        if w.nnz:
            heavy_lin = linear_index(split.heavy_coords, n)
            tensor_lin = w.sparse.linear_indices()
            pos = np.searchsorted(tensor_lin, heavy_lin)
            pos = np.minimum(pos, len(tensor_lin) - 1)
            hit = tensor_lin[pos] == heavy_lin
            vals[hit] += w.sparse.values[pos[hit]]
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
    index sets, each a set of distinct members.  Sets are sorted by size
    internally so |I_1| <= ... <= |I_k|.
    """
    _check_p(p)
    k, n = t.shape.order, t.shape.dim
    if isinstance(families, numbers.Integral) and not isinstance(families, bool):
        fams = sample_subset_families(k, n, int(families), seed)
    else:
        fams = _validate_families(t.shape, families, "index sets must be nonempty")
    fams = [tuple(sorted(fam, key=len)) for fam in fams]
    sizes, e = _BoxCounter(t).counts(fams)
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
    vecs = list(ys.vectors) if isinstance(ys, VectorTuple) else [np.asarray(v, float) for v in ys]
    k, n = t.shape.order, t.shape.dim
    if len(vecs) != k:
        raise ValueError(f"expected {k} vectors")
    if any(v.shape != (n,) for v in vecs):
        raise ValueError("vectors must have length n")
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
    fams = [tuple(classes[(j, s)] for j, s in enumerate(row, start=1)) for row in levels.tolist()]
    sizes, e = _BoxCounter(t).counts(fams)
    mu_bar = _scaled_volume(p, sizes)
    lam = e / mu_bar
    sigma = lam * n ** (k / 2.0 - 1.0) * math.sqrt(n * p) * np.ldexp(1.0, -levels.sum(axis=1))
    return DyadicProfile(delta, smax, classes, alpha, levels, sizes, e, mu_bar, lam, sigma)


@dataclass(frozen=True)
class KLRecord:
    kl: float
    bound: float
    within: bool


def _model_table(model: ProbabilityModel) -> np.ndarray:
    if isinstance(model, Homogeneous):
        return np.asarray([model.p])
    if isinstance(model, DenseProbability):
        return model.table.reshape(-1)
    raise TypeError(f"unsupported probability model: {type(model).__name__}")


def kl_bernoulli(theta: ProbabilityModel, theta_prime: ProbabilityModel,
                 a: float, b: float) -> KLRecord:
    """Entrywise Bernoulli KL divergence against ||theta - theta'||_F^2 / (a(1-b)).

    Homogeneous models are treated as a single Bernoulli pair; a homogeneous
    model paired with a dense one broadcasts.  Terms with theta in {0, 1}
    use their one-sided limits; theta' in {0, 1} with theta != theta' gives
    +infinity.
    """
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    pt = _model_table(theta)
    qt = _model_table(theta_prime)
    if pt.size != qt.size:
        if pt.size == 1:
            pt = np.full_like(qt, pt[0])
        elif qt.size == 1:
            qt = np.full_like(pt, qt[0])
        else:
            raise ValueError("probability tables have incompatible shapes")
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

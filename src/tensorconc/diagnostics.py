"""Empirical checks of the concentration proof's events: bounded degree,
bounded discrepancy over index-set families, and the Bernoulli
KL-divergence bound.

The degree and discrepancy checks run at a sweep's n (the ``diagnostics``
command runs both on every trial); each compares the quantity inside the
probabilistic argument, computed exactly, against its claimed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProbabilityModel, SparseTensor, _check_p, _dot, _probabilities
from .hypergraph import _box_sums, _family_batch, _scaled_volume
from .rng import SeedSpec


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

"""k-uniform hypergraphs, hyperedge counting between vertex subsets, and
empirical expander-mixing verification.

Counting semantics are ordered: e(V_1, ..., V_k) is the number of tuples
(v_1, ..., v_k) in V_1 x ... x V_k whose entry is 1, so for the adjacency
tensor of a hypergraph e([n], ..., [n]) = k! * |E|.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng
from .core import DENSE_GATE, SparseTensor, TensorShape, _lex_order
from .rng import SeedSpec


class Hypergraph:
    """Vertex set [1, n] plus a sorted set of strictly increasing k-tuples."""

    __slots__ = ("k", "n", "edges")

    def __init__(self, k: int, n: int, edges, *, presorted: bool = False):
        if k < 2:
            raise ValueError(f"edge size must be >= 2, got {k}")
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        edges = np.asarray(edges, dtype=np.int32)
        if edges.size == 0:
            edges = edges.reshape(0, k)
        if edges.ndim != 2 or edges.shape[1] != k:
            raise ValueError(f"edges must have shape (m, {k})")
        if edges.size:
            if edges.min() < 1 or edges.max() > n:
                raise ValueError(f"vertices must lie in [1, {n}]")
            if np.any(np.diff(edges, axis=1) <= 0):
                raise ValueError("each edge must be a strictly increasing vertex tuple")
        if not presorted and edges.shape[0] > 1:
            edges = edges[_lex_order(edges)]
            if np.any(np.all(edges[1:] == edges[:-1], axis=1)):
                raise ValueError("duplicate edge")
        edges = np.ascontiguousarray(edges)
        edges.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.k == other.k and self.n == other.n and np.array_equal(self.edges, other.edges)

    __hash__ = None

    def __repr__(self):
        return f"Hypergraph(k={self.k}, n={self.n}, m={self.num_edges})"


def dumps_hypergraph(h: Hypergraph) -> str:
    buf = io.StringIO()
    buf.write(f"{h.k} {h.n} {h.num_edges}\n")
    for row in h.edges:
        buf.write(" ".join(str(int(v)) for v in row))
        buf.write("\n")
    return buf.getvalue()


def loads_hypergraph(text: str) -> Hypergraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty hypergraph serialization")
    k, n, m = (int(x) for x in lines[0].split())
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edges, found {len(lines) - 1}")
    edges = np.array([[int(v) for v in ln.split()] for ln in lines[1:]], dtype=np.int32)
    return Hypergraph(k, n, edges.reshape(m, k))


def adjacency(h: Hypergraph) -> SparseTensor:
    """Symmetric adjacency tensor: each edge contributes k! unit entries."""
    shape = TensorShape(h.k, h.n)
    if h.num_edges == 0:
        return SparseTensor.empty(shape)
    perms = list(itertools.permutations(range(h.k)))
    coords = np.concatenate([h.edges[:, perm] for perm in perms], axis=0)
    return SparseTensor(shape, coords, np.ones(coords.shape[0]))


def _validate_families(shape: TensorShape, families, empty: str = "subsets must be nonempty") -> list:
    """Each of one or more families as a tuple of int64 arrays, checked in one
    vectorized pass: ``shape.order`` nonempty sets of distinct members of [1, n]."""
    k, n = shape.order, shape.dim
    fams = []
    for fam in families:
        if len(fam) != k:
            raise ValueError(f"expected {k} subsets, got {len(fam)}")
        fams.append(tuple(np.asarray(s, dtype=np.int64) for s in fam))
    if not fams:
        raise ValueError("need at least one family")
    sets = [s for fam in fams for s in fam]
    sizes = np.array([s.size for s in sets])
    if not sizes.all():
        raise ValueError(empty)
    members = np.concatenate(sets, axis=None)
    if members.min() < 1 or members.max() > n:
        raise ValueError(f"subset members must lie in [1, {n}]")
    # set number * (n + 1) + member rises strictly iff no set repeats a member
    keys = np.repeat(np.arange(len(sets)) * (n + 1), sizes) + members
    if np.any(keys[1:] <= keys[:-1]):
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("subset members must be distinct")
    return fams


def _table(dim: int, subset: np.ndarray) -> np.ndarray:
    table = np.zeros(dim + 1, dtype=bool)
    table[subset] = True
    return table


class _BoxCounter:
    """Reusable box-sum evaluator: pays layout cost once so that many subset
    families can be scored against one tensor cheaply.

    A 0/1 tensor with n^k <= ``DENSE_GATE`` is held as a dense bool bitmap.
    A box sum takes the box out of it one mode at a time, smallest set
    first, masks the largest set's mode and counts the ones: an exact
    integer, with no BLAS.  Any other tensor keeps its sorted entries, whose
    rows with mode-1 index v form the run ``starts[v - 1]:starts[v]``.  A
    box sum gathers the runs of V_1's members with one ``np.repeat``, masks
    modes 2..k on those rows alone, and counts them (unit values, exact) or
    sums their values.
    """

    __slots__ = ("shape", "bits", "cols", "values", "unit_values", "starts")

    def __init__(self, t: SparseTensor):
        self.shape = t.shape
        self.values = t.values
        self.unit_values = bool(t.nnz) and bool(np.all(t.values == 1.0))
        self.bits = self.cols = self.starts = None
        if self.unit_values and t.shape.ncoords <= DENSE_GATE:
            bits = np.zeros(t.shape.ncoords, dtype=bool)
            bits[t.linear_indices()] = True
            self.bits = bits.reshape((t.shape.dim,) * t.shape.order)
            return
        self.cols = [np.ascontiguousarray(t.coords[:, j]) for j in range(t.shape.order)]
        self.starts = np.searchsorted(self.cols[0], np.arange(1, t.shape.dim + 2))

    def sum(self, subsets: Sequence[np.ndarray]) -> float:
        return self.count(_validate_families(self.shape, [subsets])[0])

    def count(self, subsets: Sequence[np.ndarray]) -> float:
        """Box sum over subsets already known to be valid (``_validate_families``)."""
        if self.values.size == 0:
            return 0.0
        k, n = self.shape.order, self.shape.dim
        if self.bits is not None:
            *small, last = sorted(range(k), key=lambda j: len(subsets[j]))
            box = self.bits
            for j in small:
                box = box.take(subsets[j] - 1, axis=j)
            # the largest set masks its mode in place: cheaper than a gather
            inside = _table(n, subsets[last])[1:].reshape((n,) + (1,) * (k - 1 - last))
            return float(np.count_nonzero(box & inside))
        lo = self.starts[subsets[0] - 1]
        lens = self.starts[subsets[0]] - lo
        # run r's rows are lo[r] + [0, lens[r]), laid end to end
        idx = np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        mask = _table(n, subsets[1])[self.cols[1][idx]]
        for j in range(2, k):
            mask &= _table(n, subsets[j])[self.cols[j][idx]]
        if self.unit_values:
            return float(np.count_nonzero(mask))
        return float(np.sum(self.values[idx], where=mask))


def box_sum(t: SparseTensor, subsets: Sequence[np.ndarray]) -> float:
    """Sum of entry values over the box V_1 x ... x V_k.

    Each V_j is a nonempty set of members of [1, n]; a repeated member
    raises ``ValueError``."""
    return _BoxCounter(t).sum(subsets)


def count_edges(t: SparseTensor, subsets: Sequence[np.ndarray]) -> int:
    """Ordered tuple count over V_1 x ... x V_k for a 0/1-valued tensor."""
    total = box_sum(t, subsets)
    rounded = int(round(total))
    if abs(total - rounded) > 1e-6:
        raise ValueError(f"count_edges needs integer-valued entries, box sum = {total}")
    return rounded


@dataclass(frozen=True)
class SubsetFamilies:
    """Which subset tuples a mixing check evaluates.

    kinds:
      sampled    -- ``count`` families; sizes log-uniform on [1, n], members
                    uniform without replacement, keyed by the check's seed
      singletons -- all n^k singleton tuples, evaluated in closed form
      explicit   -- a fixed list of subset tuples; every tuple of a product
                    of per-mode candidate lists is
                    ``explicit(itertools.product(*candidates))``
    """

    kind: str
    count: int = 0
    families: Optional[tuple] = None

    @classmethod
    def sampled(cls, count: int) -> "SubsetFamilies":
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(kind="sampled", count=count)

    @classmethod
    def singletons(cls) -> "SubsetFamilies":
        return cls(kind="singletons")

    @classmethod
    def explicit(cls, families) -> "SubsetFamilies":
        fams = tuple(tuple(np.asarray(s, dtype=np.int64) for s in fam) for fam in families)
        return cls(kind="explicit", families=fams)


_MEMBER_CHUNK = 1 << 16  # member counters drawn and ranked at a time


def _smallest(u: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mask of the ``sizes[r]`` smallest entries of each row ``u[r]``; ties
    go to the earlier position, as a stable argsort ranks them."""
    cut = np.take_along_axis(np.sort(u, axis=1), sizes[:, None] - 1, axis=1)
    below = u < cut
    tied = u == cut
    room = sizes[:, None] - np.count_nonzero(below, axis=1, keepdims=True)
    return below | (tied & (np.cumsum(tied, axis=1) <= room))


def sample_subset_families(k: int, n: int, count: int, seed: SeedSpec) -> list:
    """``count`` tuples of k subsets of [1, n]; deterministic under seed.

    Set j of family t has a log-uniform size and holds the members whose
    uniforms at counters ``(t * k + j) * n + [0, n)`` rank below that size,
    ascending, as int32.  All sets are drawn as one run of counters,
    ``_MEMBER_CHUNK`` counters at a time.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    size_key = rng.stream_key(seed, rng.LBL_SUBSET_SIZE)
    member_key = rng.stream_key(seed, rng.LBL_SUBSET_MEMBERS)
    u = rng.uniform_block(size_key, 0, count * k)
    sizes = np.minimum(n, np.maximum(1, np.rint(np.exp(u * math.log(n))).astype(np.int64)))
    rows = max(1, _MEMBER_CHUNK // n)
    sets = []
    for lo in range(0, count * k, rows):
        hi = min(count * k, lo + rows)
        draws = rng.uniform_block(member_key, lo * n, (hi - lo) * n).reshape(hi - lo, n)
        members = np.nonzero(_smallest(draws, sizes[lo:hi]))[1].astype(np.int32) + 1
        ends = np.cumsum(sizes[lo:hi]).tolist()
        sets.extend(members[a:b] for a, b in zip([0] + ends[:-1], ends))
    return [tuple(sets[t * k:(t + 1) * k]) for t in range(count)]


@dataclass(frozen=True)
class MixingTrial:
    sizes: tuple
    e: float
    expected: float
    ratio: float


@dataclass
class MixingReport:
    """Discrepancy statistics |e - p * prod|V_i|| / sqrt(prod|V_i|) over families."""

    k: int
    n: int
    p: float
    c: float
    seed: SeedSpec
    trials: list = field(default_factory=list)
    max_ratio: float = 0.0

    @property
    def fitted_c(self) -> float:
        return self.max_ratio / math.sqrt(self.c) if self.c > 0 else float("inf")

    def to_json_summary(self) -> str:
        return json.dumps(
            {
                "max_ratio": self.max_ratio,
                "fitted_C": self.fitted_c,
                "trials": len(self.trials),
                "seed": [self.seed.base_seed, self.seed.stream_id],
            },
            sort_keys=True,
        )

    def to_csv_rows(self) -> list:
        rows = [["sizes", "e", "expected", "ratio"]]
        for t in self.trials:
            rows.append(["x".join(str(s) for s in t.sizes),
                         format(t.e, ".17g"), format(t.expected, ".17g"),
                         format(t.ratio, ".17g")])
        return rows


def _mixing_trial(counter: "_BoxCounter", p: float, fam) -> MixingTrial:
    sizes = tuple(int(len(s)) for s in fam)
    e = counter.count(fam)
    vol = 1.0
    for s in sizes:
        vol *= s
    expected = p * vol
    ratio = abs(e - expected) / math.sqrt(vol)
    return MixingTrial(sizes, e, expected, ratio)


def _singleton_trials(t: SparseTensor, p: float) -> list:
    """Exact evaluation over all n^k singleton tuples without enumerating them.

    A singleton tuple's ratio is |value - p|, which takes one value per
    stored entry value plus p itself whenever an unstored (zero) coordinate
    exists; the maximum over all n^k tuples is therefore exact.
    """
    trials = []
    ncoords = t.shape.ncoords
    if t.nnz:
        i = int(np.argmax(np.abs(t.values - p)))
        v = float(t.values[i])
        trials.append(MixingTrial((1,) * t.shape.order, v, p, abs(v - p)))
    if t.nnz < ncoords:
        trials.append(MixingTrial((1,) * t.shape.order, 0.0, p, p))
    return trials


def mixing_check(
    t: SparseTensor,
    p: float,
    families: SubsetFamilies,
    seed: SeedSpec = SeedSpec(),
) -> MixingReport:
    """Evaluate mixing discrepancy ratios for a 0/1 symmetric tensor.

    c = p * n^(k-1) is the degree scale; ``fitted_c`` is max_ratio / sqrt(c).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    k, n = t.shape.order, t.shape.dim
    report = MixingReport(k=k, n=n, p=p, c=p * n ** (k - 1), seed=seed)
    if families.kind == "singletons":
        report.trials = _singleton_trials(t, p)
        report.max_ratio = max((tr.ratio for tr in report.trials), default=0.0)
        return report
    if families.kind == "sampled":
        fams = sample_subset_families(k, n, families.count, seed)
    elif families.kind == "explicit":
        fams = _validate_families(t.shape, families.families)
    else:
        raise ValueError(f"unknown family kind {families.kind!r}")
    counter = _BoxCounter(t)
    for fam in fams:
        report.trials.append(_mixing_trial(counter, p, fam))
    report.max_ratio = max((tr.ratio for tr in report.trials), default=0.0)
    return report


@dataclass(frozen=True)
class MatrixMixingTrial:
    sizes: tuple
    e: int
    expected: float
    bound: float
    margin: float


@dataclass
class MatrixMixingReport:
    n: int
    d: int
    lam: float
    trials: list
    max_margin: float


def matrix_mixing_check(
    g: Hypergraph,
    d: int,
    num_pairs: int = 200,
    seed: SeedSpec = SeedSpec(),
    pairs: Optional[list] = None,
) -> MatrixMixingReport:
    """Classical two-set mixing check for a (nominally d-regular) graph.

    lam is the operator norm of A - (d/n) * J from ``matrix_op_norm``: a
    certified upper bound for n up to its dense cap, a Lanczos estimate from
    below above it.  For each pair (V1, V2) the margin
    |e(V1,V2) - d|V1||V2|/n| minus lam * sqrt(|V1||V2|(1-|V1|/n)(1-|V2|/n))
    is reported; for genuinely d-regular graphs the margin is <= 0.  A
    certified lam is at least the true norm, so its slack can only lower a
    margin: the check "margin <= 0" is then conservative, and a margin > 0
    is a real violation.
    """
    from .core import OffsetTensor
    from .spectral import PowerIterConfig, matrix_op_norm

    if g.k != 2:
        raise ValueError(f"matrix mixing check needs a 2-uniform graph, got k = {g.k}")
    n = g.n
    a = adjacency(g)
    lam = matrix_op_norm(OffsetTensor(a, -d / n), PowerIterConfig(seed=seed)).value
    if pairs is None:
        fams = sample_subset_families(2, n, num_pairs, seed)
    else:
        fams = _validate_families(a.shape, pairs)
    counter = _BoxCounter(a)
    trials = []
    for v1, v2 in fams:
        e = int(counter.count((v1, v2)))  # adjacency entries are 1: an exact count
        s1, s2 = len(v1), len(v2)
        expected = d * s1 * s2 / n
        bound = lam * math.sqrt(s1 * s2 * (1 - s1 / n) * (1 - s2 / n))
        trials.append(MatrixMixingTrial((s1, s2), e, expected, bound, abs(e - expected) - bound))
    max_margin = max((t.margin for t in trials), default=float("-inf"))
    return MatrixMixingReport(n=n, d=d, lam=lam, trials=trials, max_margin=max_margin)

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


def _runs(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices ``lo[r] + [0, lens[r])`` of every run r, laid end to end."""
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _bit_rows(rows: int, words: int, bit: np.ndarray) -> np.ndarray:
    """``rows`` x ``words`` uint64 words with the flat bits ``bit`` set: bit
    ``b % 64`` of word ``b // 64``, counting words row by row."""
    bits = np.zeros(rows * words * 64, dtype=bool)
    bits[bit] = True
    return np.packbits(bits.reshape(rows, -1), axis=1, bitorder="little").view("<u8")


# Fiber words gathered per pass of the bit-packed kernel.  It keeps each of a
# pass's arrays near 256 KB; at n = 100, k = 3, counting 5000 sampled families
# in one pass allocated 43 MB at its peak, against 4.3 MB in passes.
_PASS_WORDS = 1 << 15


class _BoxCounter:
    """Reusable box-sum evaluator: pays layout cost once so that many subset
    families can be scored against one tensor cheaply.

    A 0/1 tensor with n^k <= ``DENSE_GATE`` is counted on its fibers packed
    into uint64 words.  Mode j's layout, built when a family first needs it,
    has one row of ceil(n/64) words per tuple of the other k-1 indices
    (row-major flat index), whose bit i is the entry with mode-j index i + 1.
    ``counts`` groups families by the mode of their largest set (the last of
    equal sizes).  In passes of at most ``_PASS_WORDS`` gathered words (a
    family with more gets a pass to itself), it gathers the rows of every
    member tuple of the other k-1 sets, ANDs each with its family's packed
    largest set, and adds the set bits per family: exact integers, with no
    BLAS.

    Any other tensor keeps its sorted entries, whose rows with mode-1 index v
    form the run ``starts[v - 1]:starts[v]``.  A box sum gathers the runs of
    V_1's members with one ``np.repeat``, masks modes 2..k on those rows
    alone, and counts them (unit values, exact) or sums their values.
    """

    __slots__ = ("shape", "coords", "fibers", "cols", "values", "unit_values", "starts")

    def __init__(self, t: SparseTensor):
        self.shape = t.shape
        self.values = t.values
        self.unit_values = bool(t.nnz) and bool(np.all(t.values == 1.0))
        self.coords = self.fibers = self.cols = self.starts = None
        if self.unit_values and t.shape.ncoords <= DENSE_GATE:
            self.coords = t.coords
            self.fibers = [None] * t.shape.order
            return
        self.cols = [np.ascontiguousarray(t.coords[:, j]) for j in range(t.shape.order)]
        self.starts = np.searchsorted(self.cols[0], np.arange(1, t.shape.dim + 2))

    def counts(self, families: Sequence) -> np.ndarray:
        """Box sum of each family, all already known to be valid
        (``_validate_families``), as float64."""
        out = np.zeros(len(families))
        if self.values.size == 0 or not len(families):
            return out
        if self.fibers is not None:
            return self._bit_counts(families).astype(np.float64)
        n = self.shape.dim
        for f, subsets in enumerate(families):
            lo = self.starts[subsets[0] - 1]
            idx = _runs(lo, self.starts[subsets[0]] - lo)
            mask = _table(n, subsets[1])[self.cols[1][idx]]
            for j in range(2, self.shape.order):
                mask &= _table(n, subsets[j])[self.cols[j][idx]]
            if self.unit_values:
                out[f] = np.count_nonzero(mask)
            else:
                out[f] = np.sum(self.values[idx], where=mask)
        return out

    def _layout(self, mode: int) -> np.ndarray:
        if self.fibers[mode] is None:
            k, n = self.shape.order, self.shape.dim
            words = -(-n // 64)
            # each entry's row (its other indices, row-major), then its bit in the row
            bit = np.zeros(self.coords.shape[0], dtype=np.intp)
            for j in range(k):
                if j != mode:
                    bit *= n
                    bit += self.coords[:, j] - 1
            bit *= words * 64
            bit += self.coords[:, mode] - 1
            self.fibers[mode] = _bit_rows(n ** (k - 1), words, bit)
        return self.fibers[mode]

    def _bit_counts(self, families: Sequence) -> np.ndarray:
        k, n = self.shape.order, self.shape.dim
        sets = list(itertools.chain.from_iterable(families))
        sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
        starts = (np.cumsum(sizes) - sizes).reshape(-1, k)
        sizes = sizes.reshape(-1, k)
        members = np.concatenate(sets)
        widest = k - 1 - np.argmax(sizes[:, ::-1], axis=1)
        out = np.zeros(len(families), dtype=np.int64)
        for mode in np.unique(widest).tolist():
            others = [j for j in range(k) if j != mode]
            group = np.flatnonzero(widest == mode)
            tuples = np.prod(sizes[group][:, others], axis=1)
            ends = np.cumsum(tuples)
            fibers = self._layout(mode)
            words = fibers.shape[1]
            a = 0
            while a < group.size:
                first = ends[a] - tuples[a]
                b = max(a + 1, int(np.searchsorted(ends, first + _PASS_WORDS // words, "right")))
                fams = group[a:b]
                # the flat row of every member tuple of the other sets, family by family
                row, own = np.zeros(fams.size, dtype=np.intp), fams
                for j in others:
                    lens = sizes[own, j]
                    row = np.repeat(row * n, lens) + members[_runs(starts[own, j], lens)]
                    row -= 1
                    own = np.repeat(own, lens)
                lens = sizes[fams, mode]
                bit = np.repeat(np.arange(fams.size) * (words * 64) - 1, lens)
                bit += members[_runs(starts[fams, mode], lens)]
                widest_sets = _bit_rows(fams.size, words, bit)
                hits = np.bitwise_count(np.take(fibers, row, axis=0)
                                        & np.repeat(widest_sets, tuples[a:b], axis=0))
                out[fams] = np.add.reduceat(hits.reshape(-1), (ends[a:b] - tuples[a:b] - first) * words,
                                            dtype=np.int64)
                a = b
        return out


def box_sum(t: SparseTensor, subsets: Sequence[np.ndarray]) -> float:
    """Sum of entry values over the box V_1 x ... x V_k.

    Each V_j is a nonempty set of members of [1, n]; a repeated member
    raises ``ValueError``."""
    return float(_BoxCounter(t).counts(_validate_families(t.shape, [subsets]))[0])


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
    # only rows with more than one value at the cut need their ties ranked
    many = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
    if many.size:
        room = sizes[many, None] - np.count_nonzero(below[many], axis=1, keepdims=True)
        tied[many] &= np.cumsum(tied[many], axis=1) <= room
    return below | tied


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
        members = (np.flatnonzero(_smallest(draws, sizes[lo:hi])) % n).astype(np.int32) + 1
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


def _mixing_trial(p: float, fam, e: float) -> MixingTrial:
    sizes = tuple(int(len(s)) for s in fam)
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
    counts = _BoxCounter(t).counts(fams).tolist()
    report.trials = [_mixing_trial(p, fam, e) for fam, e in zip(fams, counts)]
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
    counts = _BoxCounter(a).counts(fams).astype(np.int64).tolist()  # unit entries: exact
    trials = []
    for (v1, v2), e in zip(fams, counts):
        s1, s2 = len(v1), len(v2)
        expected = d * s1 * s2 / n
        bound = lam * math.sqrt(s1 * s2 * (1 - s1 / n) * (1 - s2 / n))
        trials.append(MatrixMixingTrial((s1, s2), e, expected, bound, abs(e - expected) - bound))
    max_margin = max((t.margin for t in trials), default=float("-inf"))
    return MatrixMixingReport(n=n, d=d, lam=lam, trials=trials, max_margin=max_margin)

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
import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .core import OffsetTensor, SparseTensor, TensorShape, _integers, _runs
from .rng import SeedSpec
from .spectral import PowerIterConfig, matrix_op_norm


class Hypergraph:
    """Vertex set [1, n] plus a sorted set of strictly increasing k-tuples,
    validated as the support of a 0/1 ``SparseTensor`` of order k."""

    __slots__ = ("k", "n", "edges")

    def __init__(self, k: int, n: int, edges, *, presorted: bool = False):
        shape = TensorShape(k, n)
        edges = SparseTensor(shape, edges, np.ones(np.shape(edges)[:1]), presorted=presorted).coords
        if np.any(np.diff(edges, axis=1) <= 0):
            raise ValueError("each edge must be a strictly increasing vertex tuple")
        object.__setattr__(self, "k", shape.order)
        object.__setattr__(self, "n", shape.dim)
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


def _validate_families(shape: TensorShape, families) -> tuple:
    """One or more families as a batch ``(sizes, members)``, checked in one
    vectorized pass: ``shape.order`` nonempty sets of distinct integers in
    [1, n] each.  ``sizes`` is F x k int64; ``members`` (int64) holds the sets
    end to end, family by family and mode by mode."""
    k, n = shape.order, shape.dim
    sets = []
    for fam in families:
        if len(fam) != k:
            raise ValueError(f"expected {k} subsets, got {len(fam)}")
        sets.extend(map(_integers, fam))
    if not sets:
        raise ValueError("need at least one family")
    if any(s.ndim != 1 for s in sets):
        raise ValueError("each subset must be a one-dimensional array")
    sizes = np.array([s.size for s in sets], dtype=np.int64)
    if not sizes.all():
        raise ValueError("index sets must be nonempty")
    members = np.concatenate(sets)
    if members.min() < 1 or members.max() > n:
        raise ValueError(f"subset members must lie in [1, {n}]")
    members = members.astype(np.int64)
    # set number * (n + 1) + member rises strictly iff no set repeats a member
    keys = np.repeat(np.arange(len(sets)) * (n + 1), sizes) + members
    if np.any(keys[1:] <= keys[:-1]):
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("subset members must be distinct")
    return sizes.reshape(-1, k), members


def _table(dim: int, subset: np.ndarray) -> np.ndarray:
    table = np.zeros(dim + 1, dtype=bool)
    table[subset] = True
    return table


def _bit_rows(rows: int, words: int, bit: np.ndarray) -> np.ndarray:
    """``rows`` x ``words`` uint64 words with the distinct flat bits ``bit``
    set: bit ``b % 64`` of word ``b // 64``, counting words row by row.

    Distinct bits are set by adding them, since no two of them carry into
    each other, and ``np.add.at`` adds fast; ``_BIT_CHUNK`` bits at a time
    bound its temporaries.
    """
    out = np.zeros(rows * words, dtype=np.uint64)
    for lo in range(0, bit.size, _BIT_CHUNK):
        part = bit[lo:lo + _BIT_CHUNK]
        np.add.at(out, part >> 6, np.left_shift(np.uint64(1), (part & 63).astype(np.uint64)))
    return out.reshape(rows, words)


# Bits set per step of ``_bit_rows``: 256 KB of uint64 masks.
_BIT_CHUNK = 1 << 15

# Bits of the largest bit-packed layout, n^(k-1) * 64 * ceil(n/64) (n = 256 at
# k = 3): 2 MB of words.  It is the most any 0/1 tensor with
# n^k <= ``core.DENSE_GATE`` needs (n = 2, k = 19).
_PACKED_BITS = 1 << 24

# Fiber words gathered per pass of the bit-packed kernel.  It keeps each of a
# pass's arrays near 256 KB; at n = 100, k = 3, counting 5000 sampled families
# in one pass allocated 43 MB at its peak, against 4.3 MB in passes.
_PASS_WORDS = 1 << 15


def _box_sums(t: SparseTensor, sizes: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Box sum (float64) of every family of a valid batch ``(sizes, members)``
    (``_validate_families``).

    A 0/1 tensor whose layout takes at most ``_PACKED_BITS`` bits is counted
    by ``_packed_counts``.  Any other tensor is counted family by family from
    its sorted entries, whose rows with mode-1 index v form the run
    ``starts[v - 1]:starts[v]``: a box sum gathers the runs of V_1's members
    with one ``np.repeat``, masks modes 2..k on those rows alone, and sums
    their values.
    """
    k, n = t.shape.order, t.shape.dim
    out = np.zeros(sizes.shape[0])
    if t.nnz == 0 or not out.size:
        return out
    if n ** (k - 1) * 64 * -(-n // 64) <= _PACKED_BITS and np.all(t.values == 1.0):
        return _packed_counts(t, sizes, members).astype(np.float64)
    cols = t.coords.T
    starts = np.searchsorted(cols[0], np.arange(1, n + 2))
    sets = np.split(members, np.cumsum(sizes)[:-1])
    for f in range(out.size):
        subsets = sets[f * k:(f + 1) * k]
        lo = starts[subsets[0] - 1]
        idx = _runs(lo, starts[subsets[0]] - lo)
        mask = _table(n, subsets[1])[cols[1][idx]]
        for j in range(2, k):
            mask &= _table(n, subsets[j])[cols[j][idx]]
        out[f] = np.sum(t.values[idx], where=mask)
    return out


def _packed_counts(t: SparseTensor, sizes: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Box counts (int64) of a batch against a 0/1 tensor, on its fibers
    packed into uint64 words.

    Families are grouped by the mode of their largest set (the last of equal
    sizes).  Each such mode's layout has one row of ceil(n/64) words per
    tuple of the other k-1 indices (row-major flat index), whose bit i is the
    entry with that mode's index i + 1.  In passes of at most ``_PASS_WORDS``
    gathered words (a family with more gets a pass to itself), the rows of
    every member tuple of the other k-1 sets are gathered, ANDed with their
    family's packed largest set, and their set bits added per family: exact
    integers, with no BLAS.
    """
    k, n = t.shape.order, t.shape.dim
    words = -(-n // 64)
    starts = np.cumsum(sizes).reshape(sizes.shape) - sizes
    widest = k - 1 - np.argmax(sizes[:, ::-1], axis=1)
    out = np.zeros(sizes.shape[0], dtype=np.int64)
    for mode in np.unique(widest).tolist():
        others = [j for j in range(k) if j != mode]
        # each entry's row (its other indices, row-major), then its bit in the row
        bit = np.zeros(t.nnz, dtype=np.int32)  # below _PACKED_BITS
        for j in others:
            bit *= n
            bit += t.coords[:, j] - 1
        bit *= words * 64
        bit += t.coords[:, mode] - 1
        fibers = _bit_rows(n ** (k - 1), words, bit)
        group = np.flatnonzero(widest == mode)
        tuples = np.prod(sizes[group][:, others], axis=1)
        ends = np.cumsum(tuples)
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

    Each V_j is a nonempty set of distinct integers in [1, n]; a repeated
    member raises ``ValueError``, a non-integer one ``TypeError``."""
    return float(_box_sums(t, *_validate_families(t.shape, [subsets]))[0])


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
        count = operator.index(count)
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(kind="sampled", count=count)

    @classmethod
    def singletons(cls) -> "SubsetFamilies":
        return cls(kind="singletons")

    @classmethod
    def explicit(cls, families) -> "SubsetFamilies":
        fams = tuple(tuple(map(_integers, fam)) for fam in families)
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


def _draw_families(k: int, n: int, count: int, seed: SeedSpec) -> tuple:
    """``count`` tuples of k subsets of [1, n] as a batch ``(sizes, members)``
    (see ``_validate_families``); deterministic under seed.

    Set j of family t has a log-uniform size and holds the members whose
    uniforms at counters ``(t * k + j) * n + [0, n)`` rank below that size,
    ascending, as int32.  All sets are drawn as one run of counters,
    ``_MEMBER_CHUNK`` counters at a time.
    """
    k, n, count = map(operator.index, (k, n, count))
    if count < 1:
        raise ValueError("count must be >= 1")
    size_key = rng.stream_key(seed, rng.LBL_SUBSET_SIZE)
    member_key = rng.stream_key(seed, rng.LBL_SUBSET_MEMBERS)
    u = rng.uniform_block(size_key, 0, count * k)
    sizes = np.minimum(n, np.maximum(1, np.rint(np.exp(u * math.log(n))).astype(np.int64)))
    rows = max(1, _MEMBER_CHUNK // n)
    members = []
    for lo in range(0, count * k, rows):
        hi = min(count * k, lo + rows)
        draws = rng.uniform_block(member_key, lo * n, (hi - lo) * n).reshape(hi - lo, n)
        members.append((np.flatnonzero(_smallest(draws, sizes[lo:hi])) % n).astype(np.int32) + 1)
    return sizes.reshape(count, k), np.concatenate(members)


def _family_batch(shape: TensorShape, families, seed: SeedSpec) -> tuple:
    """A batch ``(sizes, members)`` from a count, drawn under seed by
    ``_draw_families``, or from a list, checked by ``_validate_families``."""
    if isinstance(families, numbers.Integral) and not isinstance(families, bool):
        return _draw_families(shape.order, shape.dim, families, seed)
    return _validate_families(shape, families)


def sample_subset_families(k: int, n: int, count: int, seed: SeedSpec) -> list:
    """``count`` tuples of k subsets of [1, n], each an ascending int32 array:
    the batch of ``_draw_families`` split into its sets."""
    sizes, members = _draw_families(k, n, count, seed)
    sets = np.split(members, np.cumsum(sizes)[:-1])
    return [tuple(sets[t * k:(t + 1) * k]) for t in range(count)]


def _scaled_volume(scale: float, sizes: np.ndarray) -> np.ndarray:
    """scale * |V_1| * ... * |V_k| per row of ``sizes``, multiplied from the left."""
    out = np.full(sizes.shape[0], scale)
    for col in sizes.T:
        out *= col
    return out


@dataclass(frozen=True)
class MixingReport:
    """Discrepancy statistics |e - p * prod|V_i|| / sqrt(prod|V_i|), one array
    row per family."""

    k: int
    n: int
    p: float
    c: float
    seed: SeedSpec
    sizes: np.ndarray  # (F, k) int64: |V_1|, ..., |V_k|
    e: np.ndarray  # box sums
    expected: np.ndarray  # p * (|V_1| * ... * |V_k|)
    ratio: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratio, initial=0.0))

    @property
    def fitted_c(self) -> float:
        return self.max_ratio / math.sqrt(self.c) if self.c > 0 else float("inf")

    def to_json_summary(self) -> str:
        return json.dumps(
            {
                "max_ratio": self.max_ratio,
                "fitted_C": self.fitted_c,
                "trials": len(self.ratio),
                "seed": [self.seed.base_seed, self.seed.stream_id],
            },
            sort_keys=True,
        )

    def to_csv_rows(self) -> list:
        rows = [["sizes", "e", "expected", "ratio"]]
        for sizes, *stats in zip(self.sizes.tolist(), self.e.tolist(),
                                 self.expected.tolist(), self.ratio.tolist()):
            rows.append(["x".join(map(str, sizes))] + [format(v, ".17g") for v in stats])
        return rows


def _singleton_trials(t: SparseTensor, p: float) -> tuple:
    """Exact evaluation over all n^k singleton tuples without enumerating them,
    as ``MixingReport`` rows for one or two of them.

    A singleton tuple's ratio is |value - p|, which takes one value per
    stored entry value plus p itself whenever an unstored (zero) coordinate
    exists; the maximum over all n^k tuples is therefore exact.
    """
    e = []
    if t.nnz:
        e.append(t.values[np.argmax(np.abs(t.values - p))])
    if t.nnz < t.shape.ncoords:
        e.append(0.0)
    e = np.array(e, dtype=np.float64)
    return np.ones((e.size, t.shape.order), dtype=np.int64), e, np.full(e.size, p), np.abs(e - p)


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
    c = p * n ** (k - 1)
    if families.kind == "singletons":
        return MixingReport(k, n, p, c, seed, *_singleton_trials(t, p))
    if families.kind not in ("sampled", "explicit"):
        raise ValueError(f"unknown family kind {families.kind!r}")
    chosen = families.count if families.kind == "sampled" else families.families
    sizes, members = _family_batch(t.shape, chosen, seed)
    e = _box_sums(t, sizes, members)
    vol = _scaled_volume(1.0, sizes)
    expected = p * vol
    return MixingReport(k, n, p, c, seed, sizes, e, expected, np.abs(e - expected) / np.sqrt(vol))


@dataclass(frozen=True)
class MatrixMixingReport:
    """Two-set mixing margins, one array row per pair (V1, V2)."""

    n: int
    d: int
    lam: float
    sizes: np.ndarray  # (F, 2) int64: |V1|, |V2|
    e: np.ndarray  # int64 e(V1, V2)
    expected: np.ndarray  # d |V1| |V2| / n
    bound: np.ndarray  # lam * sqrt(|V1| |V2| (1 - |V1|/n) (1 - |V2|/n))
    margin: np.ndarray  # |e - expected| - bound

    @property
    def max_margin(self) -> float:
        return float(np.max(self.margin, initial=-np.inf))


def matrix_mixing_check(
    g: Hypergraph,
    d: int,
    families=200,
    seed: SeedSpec = SeedSpec(),
) -> MatrixMixingReport:
    """Classical two-set mixing check for a (nominally d-regular) graph, over
    ``families`` pairs (V1, V2): a count drawn under seed, or a list.

    lam is the operator norm of A - (d/n) * J from ``matrix_op_norm``: a
    certified upper bound for n up to its dense cap, a Lanczos estimate from
    below above it.  For each pair (V1, V2) the margin
    |e(V1,V2) - d|V1||V2|/n| minus lam * sqrt(|V1||V2|(1-|V1|/n)(1-|V2|/n))
    is reported; for genuinely d-regular graphs the margin is <= 0.  A
    certified lam is at least the true norm, so its slack can only lower a
    margin: the check "margin <= 0" is then conservative, and a margin > 0
    is a real violation.
    """
    if g.k != 2:
        raise ValueError(f"matrix mixing check needs a 2-uniform graph, got k = {g.k}")
    n = g.n
    a = adjacency(g)
    lam = matrix_op_norm(OffsetTensor(a, -d / n), PowerIterConfig(seed=seed)).value
    sizes, members = _family_batch(a.shape, families, seed)
    e = _box_sums(a, sizes, members).astype(np.int64)  # unit entries: exact
    s1, s2 = sizes.T
    expected = d * s1 * s2 / n
    bound = lam * np.sqrt(s1 * s2 * (1 - s1 / n) * (1 - s2 / n))
    return MatrixMixingReport(n, d, lam, sizes, e, expected, bound, np.abs(e - expected) - bound)

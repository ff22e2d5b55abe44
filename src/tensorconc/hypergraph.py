"""k-uniform hypergraphs, hyperedge counting between vertex subsets, and
empirical expander-mixing verification.

Counting semantics are ordered: e(V_1, ..., V_k) is the number of tuples
(v_1, ..., v_k) in V_1 x ... x V_k whose entry is 1, so for the adjacency
tensor of a hypergraph e([n], ..., [n]) = k! * |E|.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core, rng
from .core import OffsetTensor, SparseTensor, TensorShape, _Frozen, _integers, _runs, linear_index
from .rng import SeedSpec
from .spectral import PowerIterConfig, matrix_op_norm


class Hypergraph(_Frozen):
    """Vertex set [1, n] plus a sorted set of strictly increasing k-tuples,
    validated as the support of a 0/1 ``SparseTensor`` of order k."""

    __slots__ = ("k", "n", "edges")

    def __init__(self, k: int, n: int, edges, *, presorted: bool = False):
        shape = TensorShape(k, n)
        edges = SparseTensor(shape, edges, np.ones(np.shape(edges)[:1]), presorted=presorted).coords
        if np.any(np.diff(edges, axis=1) <= 0):
            raise ValueError("each edge must be a strictly increasing vertex tuple")
        self._set(k=shape.order, n=shape.dim, edges=edges)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.k == other.k and self.n == other.n and np.array_equal(self.edges, other.edges)

    def __repr__(self):
        return f"Hypergraph(k={self.k}, n={self.n}, m={self.num_edges})"


def adjacency(h: Hypergraph) -> SparseTensor:
    """Symmetric adjacency tensor: each edge contributes k! unit entries."""
    perms = list(itertools.permutations(range(h.k)))
    coords = np.concatenate([h.edges[:, perm] for perm in perms], axis=0)
    return SparseTensor(TensorShape(h.k, h.n), coords, np.ones(coords.shape[0]))


def _validate_families(shape: TensorShape, families) -> tuple:
    """One or more families as a batch (``_packed_batch``), checked in one
    vectorized pass: ``shape.order`` nonempty sets of distinct integers in
    [1, n] each.  ``members`` is int64, in the order the sets list them;
    a repeated member shows as equal neighbours once each set is sorted."""
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
    members = np.concatenate(sets).astype(np.int64)
    if members.min() < 1 or members.max() > n:
        raise ValueError(f"subset members must lie in [1, {n}]")
    if np.any(np.diff(np.sort(np.repeat(np.arange(sizes.size) * (n + 1), sizes) + members)) == 0):
        raise ValueError("subset members must be distinct")
    return _packed_batch(n, sizes.reshape(-1, k), members)


def _packed_batch(n: int, sizes: np.ndarray, members: np.ndarray) -> tuple:
    """The batch ``(sizes, starts, members, masks)`` of the F x k sets of
    [1, n] that ``members`` holds end to end, family by family and mode by
    mode, with ``sizes`` (F x k int64) members each.  ``starts`` (F x k
    int64) is each set's offset into ``members``; ``masks`` (F x k x
    ceil(n/64) uint64, or None where ``_packed_words`` is 0) packs each
    set's members as ``_bit_rows`` does, bit i of word w for member 64 w + i + 1."""
    words = _packed_words(sizes.shape[1], n)
    flat = sizes.ravel()
    starts = np.cumsum(flat) - flat
    bit = np.repeat(np.arange(flat.size) * (words * 64) - 1, flat) + members
    bits = np.split(bit, range(core._PASS, bit.size, core._PASS))
    masks = _bit_rows(flat.size, words, bits).reshape(*sizes.shape, words) if words else None
    return sizes, starts.reshape(sizes.shape), members, masks


def _bit_rows(rows: int, words: int, bits) -> np.ndarray:
    """``rows`` x ``words`` uint64 words with the distinct flat bits of the
    arrays ``bits`` set: bit ``b % 64`` of word ``b // 64``, words row by row.

    Distinct bits are set by adding them, since no two of them carry into
    each other, and ``np.add.at`` adds fast; callers pass at most
    ``core._PASS`` bits an array, which bounds its temporaries.
    """
    out = np.zeros(rows * words, dtype=np.uint64)
    for part in bits:
        np.add.at(out, part >> 6, np.left_shift(np.uint64(1), (part & 63).astype(np.uint64)))
    return out.reshape(rows, words)


# Bits of the largest bit-packed layout, n^(k-1) * 64 * ceil(n/64) (n = 256 at
# k = 3): 2 MB of words.  It is the most any 0/1 tensor with
# n^k <= ``core.DENSE_GATE`` needs (n = 2, k = 19).
_PACKED_BITS = 1 << 24


def _packed_words(k: int, n: int) -> int:
    """Words per row, ceil(n/64), of the bit-packed layout of an order-k
    tensor over [n]; 0 where the layout takes more than ``_PACKED_BITS`` bits."""
    words = -(-n // 64)
    return words if n ** (k - 1) * 64 * words <= _PACKED_BITS else 0


def _box_sums(t: SparseTensor, sizes: np.ndarray, starts: np.ndarray, members: np.ndarray,
              masks: Optional[np.ndarray]) -> np.ndarray:
    """Box sum (float64) of every family of a valid batch ``(sizes, starts,
    members, masks)`` (``_packed_batch``).

    A 0/1 tensor whose batch has ``masks`` (its layout fits, see
    ``_packed_words``) is counted by ``_packed_counts``.  Any other tensor is
    counted family by family from its sorted entries, in work sized by the
    members and the rows the families read, never by n: the runs of the
    distinct first-set members, whose modes 2..k indices are ranked among
    the values those rows hold.  A box sum marks the ranks of V_2..V_k in
    turn, keeps the rows of V_1's runs whose ranks are all marked, and sums
    their values in the order V_1 lists its members.
    """
    k = t.shape.order
    if masks is not None and np.all(t.values == 1.0):
        return _packed_counts(t, sizes, starts, members, masks).astype(np.float64)
    out = np.zeros(sizes.shape[0])
    cols = t.coords.T
    # the distinct first-set members, sorted; np.unique with no return_* flag imports numpy.ma
    firsts = np.sort(members[_runs(starts[:, 0], sizes[:, 0])])
    firsts = firsts[np.append(True, firsts[1:] != firsts[:-1])]
    lo = np.searchsorted(cols[0], firsts)
    lens = np.searchsorted(cols[0], firsts, "right") - lo
    rows, at = _runs(lo, lens), np.cumsum(lens) - lens
    held, row_ranks = np.unique(cols[1:, rows], return_inverse=True)
    row_ranks = row_ranks.reshape(k - 1, rows.size)
    r = np.searchsorted(held, members)
    # the appended 0 equals no member (all are >= 1): a value no row holds ranks held.size
    rank = np.where(np.append(held, 0)[r] == members, r, held.size)
    marked = np.zeros(held.size + 1, dtype=bool)
    for f, (begin, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        i = np.searchsorted(firsts, members[begin[0]:begin[0] + size[0]])
        pos = _runs(at[i], lens[i])  # V_1's runs, as positions in rows
        mask = True
        for j in range(1, k):
            ranks = rank[begin[j]:begin[j] + size[j]]
            marked[ranks] = True
            mask = mask & marked[row_ranks[j - 1][pos]]
            marked[ranks] = False
        out[f] = np.sum(t.values[rows[pos]], where=mask)
    return out


def _packed_counts(t: SparseTensor, sizes: np.ndarray, starts: np.ndarray, members: np.ndarray,
                   masks: np.ndarray) -> np.ndarray:
    """Box counts (int64) of a batch against a 0/1 tensor, on its fibers
    packed into uint64 words.

    Families are grouped by the mode of their largest set (the last of equal
    sizes).  Each such mode's layout has one row of ceil(n/64) words per
    tuple of the other k-1 indices (row-major flat index), whose bit i is the
    entry with that mode's index i + 1.  In passes of at most ``core._PASS``
    gathered words (a family with more gets a pass to itself), the rows of
    every member tuple of the other k-1 sets are gathered, ANDed with their
    family's largest set as the batch packed it (``masks``), and their set
    bits added per family: exact integers, with no BLAS.
    """
    k, n = t.shape.order, t.shape.dim
    words = masks.shape[2]
    widest = k - 1 - np.argmax(sizes[:, ::-1], axis=1)
    out = np.zeros(sizes.shape[0], dtype=np.int64)
    # each mode that is some family's widest, ascending (np.unique would import numpy.ma)
    for mode in np.flatnonzero(np.bincount(widest, minlength=k)).tolist():
        others = [j for j in range(k) if j != mode]
        # each entry's row (its other indices, row-major), then its bit in it, by chunks
        fibers = _bit_rows(n ** (k - 1), words, (
            linear_index(c[:, others], n).view(np.int64) * (words * 64) + c[:, mode] - 1
            for c in np.split(t.coords, range(core._PASS, t.nnz, core._PASS))))
        group = np.flatnonzero(widest == mode)
        tuples = np.prod(sizes[group][:, others], axis=1)
        ends = np.cumsum(tuples)
        a = 0
        while a < group.size:
            first = ends[a] - tuples[a]
            b = max(a + 1, int(np.searchsorted(ends, first + core._PASS // words, "right")))
            fams = group[a:b]
            # the flat row of every member tuple of the other sets, family by
            # family; ``own`` is each partial tuple's family
            row, own = np.zeros(fams.size, dtype=np.intp), fams
            for j in others:
                if j != others[0]:
                    own = np.repeat(own, lens)
                lens = sizes[own, j]
                row = np.repeat(row * n - 1, lens) + members[_runs(starts[own, j], lens)]
            hits = np.take(fibers, row, axis=0)
            hits &= np.repeat(masks[fams, mode], tuples[a:b], axis=0)
            out[fams] = np.add.reduceat(np.bitwise_count(hits).reshape(-1),
                                        (ends[a:b] - tuples[a:b] - first) * words, dtype=np.int64)
            a = b
    return out


def count_edges(t: SparseTensor, subsets: Sequence[np.ndarray]) -> int:
    """Ordered tuple count over V_1 x ... x V_k for a 0/1-valued tensor.

    Each V_j is a nonempty set of distinct integers in [1, n]; a repeated
    member raises ``ValueError``, a non-integer one ``TypeError``."""
    total = float(_box_sums(t, *_validate_families(t.shape, [subsets]))[0])
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


def _smallest(u: np.ndarray, sizes: np.ndarray, fine: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the ``sizes[r]`` smallest entries of each row ``u[r]``; ties
    go to the earlier position, as a stable argsort ranks them.  Given
    ``fine``, ``u`` is a coarsening of it that keeps its order, and the
    ranks are those of ``fine``: a row whose cut ``u`` ties is ranked again
    on ``fine``."""
    cut = np.take_along_axis(np.sort(u, axis=1), sizes[:, None] - 1, axis=1)
    keep = u <= cut
    # a row keeps at least its size, and more only where values tie at its cut
    if np.count_nonzero(keep) > sizes.sum():
        many = np.flatnonzero(np.count_nonzero(keep, axis=1) > sizes)
        if fine is not None:
            keep[many] = _smallest(fine[many], sizes[many])
        else:
            below = u[many] < cut[many]
            tied = keep[many] & ~below
            room = sizes[many, None] - np.count_nonzero(below, axis=1, keepdims=True)
            keep[many] = below | (tied & (np.cumsum(tied, axis=1) <= room))
    return keep


@functools.lru_cache(maxsize=None)
def _size_cuts(n: int) -> np.ndarray:
    """c_s for s in [1, n - 1], the least double >= log_n(s + 1/2), ascending.

    A set drawn at u in [0, 1) has size rint(n^u) = 1 + #{s : u >= c_s}, so
    ``searchsorted`` on the cuts gives it without a transcendental whose last
    bit depends on the host.  Each cut is found to 40 digits with ``decimal``,
    once per n and process; n^u = s + 1/2 has no dyadic solution u, so no
    draw ties a cut.
    """
    cuts = np.empty(n - 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        log_n = decimal.Decimal(n).ln()
        for s in range(1, n):
            cut = decimal.Decimal(s + 0.5).ln() / log_n
            c = float(cut)
            cuts[s - 1] = c if decimal.Decimal(c) >= cut else math.nextafter(c, math.inf)
    cuts.flags.writeable = False
    return cuts


def _draw_families(k: int, n: int, count: int, seed: SeedSpec) -> tuple:
    """``count`` tuples of k subsets of [1, n] as a batch ``(sizes, starts,
    members, masks)`` (see ``_packed_batch``); deterministic under seed.

    Set j of family t has a log-uniform size (``_size_cuts``) and holds
    the members whose hashes at counters ``(t * k + j) * n + [0, n)`` rank
    below that size, ascending, as int32; the same keep-row is packed into
    its mask where the bit-packed layout fits (``masks`` is None
    elsewhere).  All sets are drawn as one run of counters, ``core._PASS``
    counters at a time.
    """
    k, n, count = map(operator.index, (k, n, count))
    if count < 1:
        raise ValueError("count must be >= 1")
    size_key = rng.stream_key(seed, rng.LBL_SUBSET_SIZE)
    member_key = rng.stream_key(seed, rng.LBL_SUBSET_MEMBERS)
    u = rng.uniforms(size_key, range(count * k))
    sizes = 1 + np.searchsorted(_size_cuts(n), u, side="right")
    rows = max(1, core._PASS // n)
    starts = np.cumsum(sizes) - sizes
    members = np.empty(starts[-1] + sizes[-1], dtype=np.int32)
    words = _packed_words(k, n)
    # little-endian bytes of each set's words; packbits leaves the pad bits 0
    masks = np.zeros((count * k, words * 8), dtype=np.uint8)
    for lo in range(0, count * k, rows):
        hi = min(count * k, lo + rows)
        h = rng.hashes(member_key, range(lo * n, hi * n)).reshape(hi - lo, n)
        # ranked on the top 32 of the 53 bits first: np.sort on uint32 takes
        # half the time, and a tie at a row's cut (about n / 2^32 a row) is
        # ranked again on all 53
        keep = _smallest((h >> np.uint64(21)).astype(np.uint32), sizes[lo:hi], h)
        # row r keeps sizes[r] flat indices r * n + member - 1
        members[starts[lo]:starts[hi - 1] + sizes[hi - 1]] = (
            np.flatnonzero(keep) - np.repeat(np.arange(hi - lo) * n - 1, sizes[lo:hi]))
        if words:
            masks[lo:hi, :(n + 7) // 8] = np.packbits(keep, axis=1, bitorder="little")
    return (sizes.reshape(count, k), starts.reshape(count, k), members,
            masks.view("<u8").astype(np.uint64, copy=False).reshape(count, k, words) if words else None)


def _family_batch(shape: TensorShape, families, seed: SeedSpec) -> tuple:
    """A batch ``(sizes, starts, members, masks)`` from a count, drawn under
    seed by ``_draw_families``, or from a list, checked by
    ``_validate_families``."""
    if isinstance(families, numbers.Integral) and not isinstance(families, bool):
        return _draw_families(shape.order, shape.dim, families, seed)
    return _validate_families(shape, families)


def sample_subset_families(k: int, n: int, count: int, seed: SeedSpec) -> list:
    """``count`` tuples of k subsets of [1, n], each an ascending int32 array:
    the batch of ``_draw_families`` split into its sets."""
    _, starts, members, _ = _draw_families(k, n, count, seed)
    sets = np.split(members, starts.ravel()[1:])
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
    sizes, *rest = _family_batch(t.shape, chosen, seed)
    e = _box_sums(t, sizes, *rest)
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
    sizes, *rest = _family_batch(a.shape, families, seed)
    e = _box_sums(a, sizes, *rest).astype(np.int64)  # unit entries: exact
    s1, s2 = sizes.T
    expected = d * s1 * s2 / n
    bound = lam * np.sqrt(s1 * s2 * (1 - s1 / n) * (1 - s2 / n))
    return MatrixMixingReport(n, d, lam, sizes, e, expected, bound, np.abs(e - expected) - bound)

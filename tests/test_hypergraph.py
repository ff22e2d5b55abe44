import decimal
import hashlib
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import COPIERS, assert_equal_copy, random_sparse
from oracles import dense_count_edges
from tensorconc import (
    Hypergraph,
    SeedSpec,
    SparseTensor,
    SubsetFamilies,
    TensorShape,
    adjacency,
    count_edges,
    er_hypergraph,
    expander_construct,
    matrix_mixing_check,
    mixing_check,
    multilinear_form,
    sample_subset_families,
)
from tensorconc import core, hypergraph, rng
from tensorconc.diagnostics import discrepancy_check


class TestHypergraph:
    def test_non_integer_vertex_rejected(self):
        for edges in ([[1.5, 2, 3]], [["1", 2, 3]], np.array([[1.0, 2.0, 3.0]])):
            with pytest.raises(TypeError, match="integers"):
                Hypergraph(3, 5, edges)

    def test_vertices_range_checked_before_narrowing(self):
        with pytest.raises(ValueError, match=r"lie in \[1, 5\]"):
            Hypergraph(3, 5, np.array([[2**32 + 1, 2, 3]]))
        h = Hypergraph(3, 5, np.array([[3, 4, 5], [1, 2, 3]], dtype=np.uint16))
        assert h.edges.dtype == np.int32 and h.edges.tolist() == [[1, 2, 3], [3, 4, 5]]

    @pytest.mark.parametrize("edges,want", [
        ([[2, 4, 5], [1, 2, 3], [1, 3, 5]], [[1, 2, 3], [1, 3, 5], [2, 4, 5]]),  # unsorted
        (np.array([[3, 4, 5], [1, 2, 3]], dtype=np.uint16), [[1, 2, 3], [3, 4, 5]]),
        (np.array([[1, 2, 5]], dtype=np.int64), [[1, 2, 5]]),
        ([], np.empty((0, 3))),
        (np.empty((0, 3), dtype=np.int8), np.empty((0, 3))),
    ])
    def test_edges_bytes(self, edges, want):
        h = Hypergraph(3, 5, edges)
        want = np.asarray(want, dtype=np.int32).reshape(-1, 3)
        assert h.edges.dtype == np.int32 and h.edges.shape == want.shape
        assert h.edges.tobytes() == want.tobytes()
        assert h.edges.flags.c_contiguous and not h.edges.flags.writeable

    @pytest.mark.parametrize("k,n,edges,error", [
        (3, 5, [[1, 2, 3], [2, 3, 4], [1, 2, 3]], ValueError),  # duplicate
        (3, 5, [[2, 3, 4], [1, 2, 3], [2, 3, 4]], ValueError),  # duplicate, unsorted
        (3, 5, [[1, 3, 2]], ValueError),  # not increasing
        (3, 5, [[1, 1, 2]], ValueError),  # repeated vertex
        (3, 5, [[0, 1, 2]], ValueError),  # below range
        (3, 5, [[1, 2, 6]], ValueError),  # above range
        (3, 5, [[1, 2]], ValueError),  # wrong width
        (3, 5, [1, 2, 3], ValueError),  # not 2-d
        (3, 5, np.array([[1, 2, 3]], dtype=np.float32), TypeError),
        (1, 5, [[1]], ValueError),  # edge size
        (3, 0, [], ValueError),  # vertex count
    ])
    def test_error_types(self, k, n, edges, error):
        with pytest.raises(error):
            Hypergraph(k, n, edges)

    def test_numpy_integer_sizes_stored_as_ints(self):
        h = Hypergraph(np.int64(3), np.int16(5), [[1, 2, 3]])
        assert type(h.k) is int and type(h.n) is int
        assert h == Hypergraph(3, 5, [[1, 2, 3]])

    def test_presorted_edges_kept_in_given_order(self):
        edges = np.array([[1, 2, 3], [2, 3, 4]], dtype=np.int32)
        assert Hypergraph(3, 4, edges, presorted=True).edges.tobytes() == edges.tobytes()

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
    def test_copies(self, copier):
        h = Hypergraph(3, 6, [[1, 2, 3], [2, 4, 6], [1, 5, 6]])
        assert_equal_copy(h, copier(h))


class TestAdjacency:
    def test_empty(self):
        t = adjacency(Hypergraph(3, 5, np.empty((0, 3))))
        assert t == SparseTensor.empty(TensorShape(3, 5))
        assert t.coords.dtype == np.int32 and t.coords.shape == (0, 3)

    def test_single_edge_full_orbit(self):
        h = Hypergraph(3, 4, [[1, 2, 3]])
        t = adjacency(h)
        assert t.nnz == 6
        expected = sorted(itertools.permutations((1, 2, 3)))
        assert t.coords.tolist() == [list(c) for c in expected]

    def test_symmetric_under_permutations(self, rng):
        h = er_hypergraph(3, 8, 0.3, SeedSpec(21, 0))
        dense = adjacency(h).to_dense()
        for _ in range(20):
            perm = rng.permutation(3)
            assert np.array_equal(dense, np.transpose(dense, perm))


class TestCountEdges:
    def test_non_integer_entries_rejected(self):
        t = SparseTensor(TensorShape(3, 4), [[1, 2, 3], [2, 3, 4]], [1.0, 0.5])
        with pytest.raises(ValueError, match=r"^count_edges needs integer-valued entries, box sum = 1\.5$"):
            count_edges(t, [np.arange(1, 5)] * 3)

    def test_falling_factorial_on_distinct_pattern(self):
        n, k = 6, 3
        edges = np.array(list(itertools.combinations(range(1, n + 1), k)), dtype=np.int32)
        t = adjacency(Hypergraph(k, n, edges))
        full = [np.arange(1, n + 1)] * k
        assert count_edges(t, full) == n * (n - 1) * (n - 2)

    def test_empty_tensor(self):
        t = SparseTensor.empty(TensorShape(3, 5))
        assert count_edges(t, [np.array([1, 2])] * 3) == 0

    def test_matches_bruteforce(self, rng):
        h = er_hypergraph(3, 10, 0.2, SeedSpec(23, 0))
        t = adjacency(h)
        dense = t.to_dense()
        for _ in range(20):
            subsets = [rng.choice(np.arange(1, 11), size=rng.integers(1, 10), replace=False)
                       for _ in range(3)]
            assert count_edges(t, subsets) == dense_count_edges(dense, subsets)

    def test_equals_indicator_form(self, rng):
        h = er_hypergraph(3, 9, 0.25, SeedSpec(24, 0))
        t = adjacency(h)
        subsets = [np.array([1, 4, 7]), np.array([2, 3]), np.array([5, 6, 8, 9])]
        ind = []
        for s in subsets:
            v = np.zeros(9)
            v[s - 1] = 1.0
            ind.append(v)
        assert count_edges(t, subsets) == int(round(multilinear_form(t, ind)))

    def test_monotone_in_each_subset(self, rng):
        h = er_hypergraph(3, 8, 0.4, SeedSpec(25, 0))
        t = adjacency(h)
        base = [np.array([1, 2]), np.array([3, 4]), np.array([5, 6])]
        for j in range(3):
            bigger = list(base)
            bigger[j] = np.concatenate([base[j], [7, 8]])
            assert count_edges(t, bigger) >= count_edges(t, base)

    def test_permutation_invariance_for_symmetric(self, rng):
        h = er_hypergraph(3, 8, 0.4, SeedSpec(26, 0))
        t = adjacency(h)
        subsets = [np.array([1, 2, 3]), np.array([4, 5]), np.array([6, 7, 8])]
        counts = {count_edges(t, [subsets[i] for i in perm])
                  for perm in itertools.permutations(range(3))}
        assert len(counts) == 1

    def test_empty_subset_rejected(self):
        t = SparseTensor.empty(TensorShape(3, 5))
        with pytest.raises(ValueError):
            count_edges(t, [np.array([1]), np.array([], dtype=int), np.array([2])])


class TestMixingCheck:
    def test_p_one_rejected(self):
        t = adjacency(er_hypergraph(3, 6, 0.3, SeedSpec(1, 0)))
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\), got 1\.0$"):
            mixing_check(t, 1.0, SubsetFamilies.sampled(4))

    def test_unknown_family_kind(self):
        # a value that is neither a count nor a list of k-tuples is refused by
        # the one family reader: "bogus" reads as families of one subset each
        t = adjacency(er_hypergraph(3, 6, 0.3, SeedSpec(1, 0)))
        with pytest.raises(ValueError, match="^expected 3 subsets, got 1$"):
            mixing_check(t, 0.3, SubsetFamilies("bogus"))

    def test_constant_tensor_zero_ratio(self):
        # entries exactly p everywhere: every discrepancy vanishes
        p = 0.3
        dense = np.full((4, 4, 4), p)
        t = SparseTensor.from_dense(dense)
        rep = mixing_check(t, p, SubsetFamilies.sampled(50), SeedSpec(31, 0))
        assert rep.max_ratio == pytest.approx(0.0, abs=1e-12)

    def test_singleton_ratio_bounded_by_one(self):
        h = er_hypergraph(3, 10, 0.2, SeedSpec(32, 0))
        t = adjacency(h)
        rep = mixing_check(t, 0.2, SubsetFamilies.singletons())
        assert 0.0 < rep.max_ratio <= 1.0
        assert rep.sizes.shape[1] == 3 and np.all(rep.sizes == 1)

    def test_singleton_closed_form_matches_enumeration(self):
        h = er_hypergraph(3, 5, 0.3, SeedSpec(33, 0))
        t = adjacency(h)
        rep = mixing_check(t, 0.3, SubsetFamilies.singletons())
        dense = t.to_dense()
        brute = max(abs(dense[c] - 0.3) for c in itertools.product(range(5), repeat=3))
        assert rep.max_ratio == pytest.approx(brute, abs=1e-12)

    def test_regularized_er_report(self):
        k, n, c = 3, 30, 20.0
        p = c / n ** (k - 1)
        h = er_hypergraph(k, n, p, SeedSpec(34, 0))
        tprime = expander_construct(adjacency(h), p)
        rep = mixing_check(tprime, p, SubsetFamilies.sampled(300), SeedSpec(34, 0))
        assert np.isfinite(rep.max_ratio)
        assert rep.fitted_c == pytest.approx(rep.max_ratio / math.sqrt(c))
        assert rep.sizes.shape == (300, 3) and rep.ratio.shape == (300,)

    def test_determinism(self):
        h = er_hypergraph(3, 12, 0.2, SeedSpec(35, 1))
        t = adjacency(h)
        a = mixing_check(t, 0.2, SubsetFamilies.sampled(40), SeedSpec(35, 1))
        b = mixing_check(t, 0.2, SubsetFamilies.sampled(40), SeedSpec(35, 1))
        assert (a.max_ratio, a.fitted_c) == (b.max_ratio, b.fitted_c)
        assert np.array_equal(a.sizes, b.sizes) and np.array_equal(a.ratio, b.ratio)

    def test_explicit_product_of_candidates(self):
        t = adjacency(er_hypergraph(2, 6, 0.5, SeedSpec(36, 0)))
        cands = ([np.array([1, 2]), np.array([3])], [np.array([4]), np.array([5, 6])])
        rep = mixing_check(t, 0.5, SubsetFamilies.explicit(itertools.product(*cands)))
        assert rep.sizes.tolist() == [[2, 1], [2, 2], [1, 1], [1, 2]]
        want = [count_edges(t, fam) for fam in itertools.product(*cands)]
        assert rep.e.tolist() == want

    def test_empty_family_list_rejected(self):
        t = adjacency(er_hypergraph(2, 6, 0.5, SeedSpec(36, 0)))
        with pytest.raises(ValueError, match="at least one family"):
            mixing_check(t, 0.5, SubsetFamilies.explicit([]))
        with pytest.raises(ValueError, match="at least one family"):
            matrix_mixing_check(Hypergraph(2, 6, [[1, 2], [3, 4]]), d=1, families=[])

    def test_rng_labels_distinct(self):
        labels = {v for name, v in vars(rng).items() if name.startswith("LBL_")}
        assert len(labels) == len([name for name in vars(rng) if name.startswith("LBL_")])

    def test_report_emission(self):
        h = er_hypergraph(3, 10, 0.2, SeedSpec(38, 0))
        rep = mixing_check(adjacency(h), 0.2, SubsetFamilies.sampled(10), SeedSpec(38, 0))
        # one row per family, and the statistics read off those rows
        assert len(rep.ratio) == 10 and rep.seed == SeedSpec(38, 0)
        assert rep.max_ratio == rep.ratio.max()
        assert rep.fitted_c == rep.max_ratio / math.sqrt(rep.c)

    def test_family_sampler_properties(self):
        fams = sample_subset_families(3, 20, 100, SeedSpec(37, 0))
        assert len(fams) == 100
        for fam in fams:
            for s in fam:
                assert 1 <= len(s) <= 20
                assert len(np.unique(s)) == len(s)


class TestMatrixMixing:
    def _complete_graph(self, n):
        edges = np.array(list(itertools.combinations(range(1, n + 1), 2)), dtype=np.int32)
        return Hypergraph(2, n, edges)

    def test_complete_graph(self):
        n = 8
        g = self._complete_graph(n)
        rep = matrix_mixing_check(g, d=n - 1, families=60, seed=SeedSpec(41, 0))
        assert rep.lam == pytest.approx(1.0, abs=1e-6)
        assert rep.max_margin <= 1e-6

    def test_perfect_matching_exhaustive(self):
        n = 6
        g = Hypergraph(2, n, [[1, 2], [3, 4], [5, 6]])
        subsets = [np.array(list(s), dtype=np.int64)
                   for r in range(1, n + 1)
                   for s in itertools.combinations(range(1, n + 1), r)]
        pairs = [(a, b) for a in subsets for b in subsets]
        rep = matrix_mixing_check(g, d=1, families=pairs)
        assert rep.max_margin <= 1e-6

    def test_circulant_regular_graph(self):
        # 4-regular circulant on 20 vertices: no violations beyond slack
        n, offs = 20, (1, 2)
        edges = set()
        for v in range(1, n + 1):
            for o in offs:
                w = (v - 1 + o) % n + 1
                edges.add(tuple(sorted((v, w))))
        g = Hypergraph(2, n, sorted(edges))
        rep = matrix_mixing_check(g, d=4, families=300, seed=SeedSpec(42, 0))
        assert rep.max_margin <= 1e-6

    def test_requires_two_uniform(self):
        h = Hypergraph(3, 5, [[1, 2, 3]])
        with pytest.raises(ValueError):
            matrix_mixing_check(h, d=2)

    def test_reports_unchanged(self):
        # recorded with the separate num_pairs= and pairs= parameters
        assert _matrix_mixing_digests(
            lambda g, d, fams, seed: matrix_mixing_check(g, d, families=fams, seed=seed)
        ) == MATRIX_MIXING_DIGESTS

    def test_positional_count(self):
        g = er_hypergraph(2, 30, 0.2, SeedSpec(7, 0))
        want = matrix_mixing_check(g, 6, families=40, seed=SeedSpec(7, 1))
        got = matrix_mixing_check(g, 6, np.int64(40), SeedSpec(7, 1))
        for name in ("lam", "sizes", "e", "expected", "bound", "margin"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


MATRIX_MIXING_DIGESTS = ["1a80cdc0aa2fcd19", "6ae55dba4229495e", "d871b7ff57a18a24",
                         "e70addb4f9aa24eb", "a6682f249eb4a015"]


def _matrix_mixing_cases():
    """(graph, d, families, seed): sampled counts and explicit pair lists."""
    n, offs = 20, (1, 2)
    circulant = Hypergraph(2, n, sorted({tuple(sorted((v, (v - 1 + o) % n + 1)))
                                         for v in range(1, n + 1) for o in offs}))
    complete = Hypergraph(2, 8, list(itertools.combinations(range(1, 9), 2)))
    er = er_hypergraph(2, 40, 0.15, SeedSpec(7, 0))
    matching = Hypergraph(2, 6, [[1, 2], [3, 4], [5, 6]])
    small = [np.array(s) for r in (1, 2) for s in itertools.combinations(range(1, 7), r)]
    return [
        (circulant, 4, 50, SeedSpec(42, 0)),
        (complete, 7, 30, SeedSpec(41, 0)),
        (er, 6, 200, SeedSpec(7, 1)),
        (er, 6, sample_subset_families(2, 40, 25, SeedSpec(8, 0))
         + [([1], [2]), (list(range(1, 41)), [3, 5])], SeedSpec(8, 1)),
        (matching, 1, [(a, b) for a in small for b in small], SeedSpec()),
    ]


def _matrix_mixing_digests(check) -> list:
    """sha256 (first 16 hex digits) of each case's report from
    ``check(g, d, families, seed)``."""
    out = []
    for g, d, fams, seed in _matrix_mixing_cases():
        rep = check(g, d, fams, seed)
        h = hashlib.sha256(float(rep.lam).hex().encode())
        for name in ("sizes", "e", "expected", "bound", "margin"):
            h.update(getattr(rep, name).tobytes())
        out.append(h.hexdigest()[:16])
    return out


def _exact_cuts(n):
    """For s = 1..n-1, the least double c_s >= log_n(s + 1/2), from 60-digit
    ``decimal`` logarithms: a set drawn at u has size s + 1 from u = c_s on."""
    cuts = []
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for s in range(1, n):
            exact = decimal.Decimal(s + 0.5).ln() / decimal.Decimal(n).ln()
            c = float(exact)
            cuts.append(c if decimal.Decimal(c) >= exact else math.nextafter(c, math.inf))
    return np.array(cuts)


def _replay_families(k, n, count, seed, which):
    """Per-set reference for families ``which`` of ``sample_subset_families``:
    each set draws its own n uniforms and keeps the first ``size`` positions
    of their stable argsort, sorted ascending."""
    member_key = rng.stream_key(seed, rng.LBL_SUBSET_MEMBERS)
    u = rng.uniforms(rng.stream_key(seed, rng.LBL_SUBSET_SIZE), range(count * k))
    sizes = 1 + np.count_nonzero(u[:, None] >= _exact_cuts(n), axis=1)
    fams = {}
    for t in which:
        fam = []
        for j in range(k):
            draws = rng.uniforms(member_key, range((t * k + j) * n, (t * k + j + 1) * n))
            picked = np.argsort(draws, kind="stable")[: sizes[t * k + j]] + 1
            fam.append(np.sort(picked).astype(np.int32))
        fams[t] = tuple(fam)
    return fams


class TestFamilySamplerKernel:
    CHUNK = core._PASS

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 100])
    def test_matches_per_set_replay_across_chunks(self, k, n):
        rows = self.CHUNK // n
        # the last family crosses a chunk boundary for n = 100; for n = 1 the
        # sets fill one chunk and spill into a second
        for count in sorted({1, rows // k, rows // k + 1}):
            seed = SeedSpec(500 + k, n)
            got = sample_subset_families(k, n, count, seed)
            assert len(got) == count and all(len(fam) == k for fam in got)
            # every family, or (for the 65k one-member sets at n = 1) the
            # families at both ends and on each side of the chunk boundary
            which = [t for t in range(count) if count * k <= 2000
                     or min(t, count - 1 - t, abs(t - rows // k)) < 20]
            for t, want in _replay_families(k, n, count, seed, which).items():
                for a, b in zip(got[t], want):
                    assert a.dtype == np.int32
                    assert np.array_equal(a, b)
            if n == 1:
                assert {s.tobytes() for fam in got for s in fam} == {np.int32(1).tobytes()}

    @pytest.mark.parametrize("n", [2, 3, 20, 100, 120, 1000])
    def test_sizes_exact_at_their_cuts(self, n, monkeypatch):
        # u at each cut c_s gives size s + 1 and one ulp below it size s,
        # points where rint(np.exp(u log n)) can round to either side
        cuts = _exact_cuts(n)
        u = np.concatenate([cuts, np.nextafter(cuts, -np.inf)])
        monkeypatch.setattr(rng, "uniforms", lambda key, counters: u[counters])
        sizes, *_ = hypergraph._draw_families(2, n, n - 1, SeedSpec(990, n))
        s = np.arange(1, n)
        assert sizes.ravel().tolist() == np.concatenate([s + 1, s]).tolist()

    def test_smallest_breaks_ties_by_position(self):
        gen = np.random.default_rng(5)
        u = gen.integers(0, 4, size=(300, 9)).astype(float)  # heavy ties
        # a third of the rows without ties, a third with one repeated value
        u[::3] = gen.random((100, 9))
        u[1::3] = gen.random((100, 9))
        u[1::3, 4] = u[1::3, 7]
        sizes = gen.integers(1, 10, size=300)
        ranks = np.argsort(np.argsort(u, axis=1, kind="stable"), axis=1, kind="stable")
        # the cut on the repeated value, keeping its first copy or both
        sizes[1::3] = ranks[1::3, 4] + 1 + np.arange(100) % 2
        # as floats, and as the draw's 53-bit hashes: same order, same ties
        for rows in (u, (u * 2.0**53).astype(np.uint64)):
            keep = hypergraph._smallest(rows, sizes)
            assert np.array_equal(keep, ranks < sizes[:, None])
            assert keep[1::3, 4].all() and np.array_equal(keep[1::3, 7], np.arange(100) % 2 == 1)

    def test_coarse_ties_ranked_on_all_bits(self):
        # the draw ranks its 53-bit hashes on their top 32 bits: where two of
        # those tie at a row's cut, the low 21 bits decide, then the position
        gen = np.random.default_rng(6)
        h = gen.integers(0, 2**53, size=(200, 9), dtype=np.uint64)
        h[:, 7] = (h[:, 4] & ~np.uint64(2**21 - 1)) | gen.integers(0, 2**21, 200, dtype=np.uint64)
        h[::4, 7] = h[::4, 4]  # a tie in all 53 bits
        ranks = np.argsort(np.argsort(h, axis=1, kind="stable"), axis=1, kind="stable")
        # the cut on the pair, keeping its smaller or both
        sizes = np.minimum(ranks[:, 4], ranks[:, 7]) + 1 + np.arange(200) % 2
        top = (h >> np.uint64(21)).astype(np.uint32)
        assert np.array_equal(np.count_nonzero(top <= top[:, 4:5], axis=1) == sizes, np.arange(200) % 2 == 1)
        assert np.array_equal(hypergraph._smallest(top, sizes, h), ranks < sizes[:, None])

    @pytest.mark.parametrize("k,n", [(2, 1), (3, 100), (4, 7)])
    def test_sampler_splits_the_drawn_batch(self, k, n):
        seed = SeedSpec(980, k)
        sizes, _, members, _ = hypergraph._draw_families(k, n, 300, seed)
        fams = sample_subset_families(k, n, 300, seed)
        assert sizes.dtype == np.int64 and sizes.shape == (300, k)
        assert members.dtype == np.int32
        assert [[s.size for s in fam] for fam in fams] == sizes.tolist()
        assert all(s.dtype == np.int32 for fam in fams for s in fam)
        assert np.array_equal(np.concatenate([s for fam in fams for s in fam]), members)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            sample_subset_families(3, 10, count, SeedSpec(1, 0))

    def test_sampler_sizes_read_as_integers(self):
        for k, n, count in ((3, 5, 2.5), (3, 5.0, 2), (3.0, 5, 2)):
            with pytest.raises(TypeError):
                sample_subset_families(k, n, count, SeedSpec(1, 0))
        got = sample_subset_families(np.int64(3), np.int16(5), np.int32(2), SeedSpec(1, 0))
        want = sample_subset_families(3, 5, 2, SeedSpec(1, 0))
        assert all(np.array_equal(a, b) for fa, fb in zip(got, want) for a, b in zip(fa, fb))

    def test_sampled_count_read_as_integer(self):
        for bad in (2.5, "3", 3.0):
            with pytest.raises(TypeError):
                SubsetFamilies.sampled(bad)
        spec = SubsetFamilies.sampled(np.int64(3))
        assert spec == SubsetFamilies.sampled(3) and type(spec.families) is int


def _word_packed(n, sets):
    """Each set's bits as ceil(n/64) uint64 words, by Python integer: bit i
    of word w for member 64 w + i + 1."""
    words = -(-n // 64)
    out = np.zeros((len(sets), words), dtype=np.uint64)
    for r, s in enumerate(sets):
        value = sum(1 << (int(v) - 1) for v in s)
        out[r] = [(value >> (64 * w)) & (2**64 - 1) for w in range(words)]
    return out


def _check_batch(n, fams, batch):
    """The batch invariants: sizes, starts, members read at their starts,
    and masks packed as ``_bit_rows`` packs the members, pad bits zero."""
    sizes, starts, members, masks = batch
    sets = [np.asarray(s) for fam in fams for s in fam]
    words = -(-n // 64)
    assert sizes.dtype == starts.dtype == np.int64 and masks.dtype == np.uint64
    assert sizes.tolist() == [[len(s) for s in fam] for fam in fams]
    assert starts.ravel().tolist() == np.cumsum([0] + [s.size for s in sets])[:-1].tolist()
    assert masks.shape == sizes.shape + (words,)
    for a, s in zip(starts.ravel().tolist(), sets):
        assert np.array_equal(members[a:a + s.size], s)
    bits = np.concatenate([r * words * 64 + s.astype(np.int64) - 1 for r, s in enumerate(sets)])
    flat = masks.reshape(-1, words)
    assert np.array_equal(flat, hypergraph._bit_rows(len(sets), words, [bits]))
    assert np.array_equal(flat, _word_packed(n, sets))
    if n % 64:
        assert not np.any(flat[:, -1] >> np.uint64(n % 64))


class TestFamilyBatch:
    """The batch ``(sizes, starts, members, masks)`` as drawn and as checked."""

    @pytest.mark.parametrize("k,n", [(2, 1), (3, 63), (3, 64), (3, 65), (3, 128), (4, 7)])
    def test_drawn_batch(self, k, n):
        # 1200 sets span more than one chunk of draws at every n above 54
        count = 1200 // k
        seed = SeedSpec(990, n)
        batch = hypergraph._draw_families(k, n, count, seed)
        fams = sample_subset_families(k, n, count, seed)
        assert batch[2].dtype == np.int32
        _check_batch(n, fams, batch)

    @pytest.mark.parametrize("k,n", [(2, 1), (3, 63), (3, 64), (3, 65), (3, 128), (4, 7)])
    def test_explicit_batch_keeps_member_order(self, k, n):
        gen = np.random.default_rng(995 + n)
        fams = [tuple(gen.permutation(n)[:gen.integers(1, n + 1)] + 1 for _ in range(k))
                for _ in range(40)]
        fams.append(tuple(np.arange(n, 0, -1) for _ in range(k)))
        batch = hypergraph._validate_families(TensorShape(k, n), fams)
        assert batch[2].dtype == np.int64
        _check_batch(n, fams, batch)

    @pytest.mark.parametrize("repeated", [[64, 64], [1, 64, 64], [63, 64, 63], [130, 65, 130],
                                          [2, 1, 2, 3]])
    def test_repeat_at_a_word_edge_rejected(self, repeated):
        ok = (np.array([1, 64, 65, 128, 129, 130]), np.array([2]), np.array([3]))
        assert hypergraph._validate_families(TensorShape(3, 130), [ok])[0].tolist() == [[6, 1, 1]]
        with pytest.raises(ValueError, match="distinct"):
            hypergraph._validate_families(TensorShape(3, 130), [ok, (ok[0], repeated, ok[2])])

    @pytest.mark.parametrize("repeated", [[64, 64], [1, 64, 64], [63, 64, 63], [130, 65, 130],
                                          [2, 1, 2, 3]])
    def test_repeat_rejected_without_masks(self, repeated, monkeypatch):
        # above the packed gate the batch has no masks; the same sort finds the repeat
        monkeypatch.setattr(hypergraph, "_PACKED_BITS", 0)
        ok = (np.array([1, 64, 65, 128, 129, 130]), np.array([2]), np.array([3]))
        assert hypergraph._validate_families(TensorShape(3, 130), [ok])[3] is None
        with pytest.raises(ValueError, match="distinct"):
            hypergraph._validate_families(TensorShape(3, 130), [ok, (ok[0], repeated, ok[2])])

    def test_no_masks_where_the_packed_layout_does_not_fit(self):
        # at n = 10^6 a set's mask takes 125 KB: 200 pairs of 5-member sets
        # would pack 48 MB that the entry path, which counts this shape,
        # never reads
        n = 10**6
        coords = np.array([[1, 2], [2, 1], [7, 999_999], [999_999, 7], [500_000, 3]])
        t = SparseTensor(TensorShape(2, n), coords, np.ones(len(coords)))
        gen = np.random.default_rng(12)
        pool = np.array([1, 2, 3, 7, 500_000, 999_999])
        fams = [tuple(np.concatenate([gen.choice(pool, 2, replace=False),
                                      gen.choice(np.arange(8, 499_999), 3, replace=False)])
                      for _ in range(2)) for _ in range(200)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = mixing_check(t, 0.5, SubsetFamilies.explicit(fams))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # well below the 48 MB the sets' masks would take
        assert peak < 24 * 2**20
        want = [sum(int(a in set(v1.tolist()) and b in set(v2.tolist())) for a, b in coords.tolist())
                for v1, v2 in fams]
        assert report.e.tolist() == want
        assert hypergraph._validate_families(t.shape, fams)[3] is None

    def test_drawn_families_without_masks_counted(self):
        # a drawn batch above the packed gate carries no masks; ordering its
        # sets by size still works, and counts as the same families listed
        n = 5000
        t = adjacency(er_hypergraph(2, n, 0.01, SeedSpec(3, 3)))
        assert hypergraph._draw_families(2, n, 30, SeedSpec(4))[3] is None
        drawn = discrepancy_check(t, 0.01, 2.0, 2.0, 30, SeedSpec(4))
        listed = discrepancy_check(t, 0.01, 2.0, 2.0, sample_subset_families(2, n, 30, SeedSpec(4)))
        assert drawn.e.tolist() == listed.e.tolist()
        assert drawn.sizes.tolist() == listed.sizes.tolist()


def _box_sums(t, families):
    """``hypergraph._box_sums`` of explicit families, batched by ``_validate_families``."""
    return hypergraph._box_sums(t, *hypergraph._validate_families(t.shape, families))


@pytest.fixture
def packed_calls(monkeypatch):
    """The family count of each call to ``hypergraph._packed_counts``."""
    calls = []
    real = hypergraph._packed_counts

    def spy(t, sizes, *rest):
        calls.append(sizes.shape[0])
        return real(t, sizes, *rest)

    monkeypatch.setattr(hypergraph, "_packed_counts", spy)
    return calls


def _distinct_subsets(gen, k, n):
    return [np.sort(gen.choice(np.arange(1, n + 1), size=gen.integers(1, n + 1), replace=False))
            for _ in range(k)]


class TestBoxCounterPaths:
    """Which of ``_box_sums``'s two paths counts a tensor, and that both agree."""

    @pytest.mark.parametrize("k,n", [(2, 9), (3, 7), (4, 5)])
    def test_bitmap_sparse_and_dense_oracle_agree(self, k, n, monkeypatch, packed_calls):
        gen = np.random.default_rng(70 + k)
        t = adjacency(er_hypergraph(k, n, 0.5, SeedSpec(71, k)))
        dense = t.to_dense()
        families = [_distinct_subsets(gen, k, n) for _ in range(40)]
        want = [dense_count_edges(dense, subsets) for subsets in families]
        bitmap = _box_sums(t, families)
        assert packed_calls == [40]
        monkeypatch.setattr(hypergraph, "_PACKED_BITS", 0)
        sparse = _box_sums(t, families)
        assert packed_calls == [40]
        assert bitmap.tolist() == sparse.tolist() == want
        assert [count_edges(t, subsets) for subsets in families] == want

    @pytest.mark.parametrize("k,n", [(2, 9), (3, 7), (4, 5)])
    def test_sparse_path_first_set_above_half(self, k, n, monkeypatch, packed_calls):
        # |V_1| > n/2, members in any order, up to all of [n]
        gen = np.random.default_rng(73 + k)
        monkeypatch.setattr(hypergraph, "_PACKED_BITS", 0)
        unit = adjacency(er_hypergraph(k, n, 0.7, SeedSpec(74, k)))
        weighted = random_sparse(gen, k, n, values="normal")
        unit_dense, weighted_dense = unit.to_dense(), weighted.to_dense()
        for size in range(n // 2 + 1, n + 1):
            for _ in range(6):
                subsets = _distinct_subsets(gen, k, n)
                subsets[0] = gen.permutation(n)[:size] + 1
                assert _box_sums(unit, [subsets])[0] == dense_count_edges(unit_dense, subsets)
                want = weighted_dense[np.ix_(*(s - 1 for s in subsets))].sum()
                assert _box_sums(weighted, [subsets])[0] == pytest.approx(want, rel=0, abs=1e-12)
        assert packed_calls == []

    def test_entry_path_work_does_not_grow_with_n(self, packed_calls):
        # 200 pairs of 5-member sets against a 5-entry weighted tensor at
        # n = 10^6: the members are searched for, with no index or mask over [1, n]
        n = 10**6
        coords = np.array([[1, 2], [2, 1], [7, 999_999], [999_999, 7], [500_000, 3]])
        values = [1.5, -2.0, 0.5, 3.0, -1.0]
        t = SparseTensor(TensorShape(2, n), coords, values)
        gen = np.random.default_rng(13)
        pool = np.array([1, 2, 3, 7, 500_000, 999_999])
        fams = [tuple(np.concatenate([gen.choice(pool, 2, replace=False),
                                      gen.choice(np.arange(8, 499_999), 3, replace=False)])
                      for _ in range(2)) for _ in range(200)]
        batch = hypergraph._validate_families(t.shape, fams)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = hypergraph._box_sums(t, *batch)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        want = [sum(v for (a, b), v in zip(coords.tolist(), values)
                    if a in set(v1.tolist()) and b in set(v2.tolist())) for v1, v2 in fams]
        assert got.tolist() == want
        assert packed_calls == []

    def test_gate_is_inclusive(self, packed_calls):
        # n^(k-1) * 64 * ceil(n/64) layout bits; k = 19, n = 2 is the largest
        # 0/1 tensor within core.DENSE_GATE
        for k, n in [(2, 4096), (3, 256), (19, 2)]:
            assert n ** (k - 1) * 64 * -(-n // 64) == hypergraph._PACKED_BITS
            coords = np.array([[1] * k, [2] * k], dtype=np.int32)
            at_gate = SparseTensor(TensorShape(k, n), coords, np.ones(2))
            above = SparseTensor(TensorShape(k, n + 1), coords, np.ones(2))
            subsets = [np.array([1, 2])] * k
            assert count_edges(at_gate, subsets) == 2
            assert packed_calls == [1]
            assert count_edges(above, subsets) == 2
            assert packed_calls == [1]
            packed_calls.clear()

    def test_weighted_tensor_stays_sparse(self, packed_calls):
        gen = np.random.default_rng(72)
        t = random_sparse(gen, 3, 6, values="int")
        dense = t.to_dense()
        families = [_distinct_subsets(gen, 3, 6) for _ in range(20)]
        want = [dense[np.ix_(*(s - 1 for s in subsets))].sum() for subsets in families]
        assert _box_sums(t, families).tolist() == want
        assert packed_calls == []


class TestNoMaskedArrayImport:
    """numpy 2.4's np.unique with no return_* flag imports numpy.ma, which
    no trial needs; no box count reaches that call."""

    @pytest.mark.parametrize("work", [
        # a diagnostics trial: degrees and packed box counts
        "from tensorconc.harness import _run_trial, config_from_dict\n"
        "cfg = config_from_dict({'command': 'diagnostics', 'k': 3, 'n_list': [20], 'm': 1,"
        " 'p_rule': {'kind': 'fixed', 'p': 0.1}, 'trials': 1})\n"
        "_run_trial(cfg, 20, 0)",
        # an entry-path box sum of a weighted tensor
        "import numpy as np\n"
        "from tensorconc import SparseTensor, TensorShape, hypergraph\n"
        "t = SparseTensor(TensorShape(3, 300), [[1, 2, 3], [4, 5, 6], [1, 5, 3]], [0.5, 2.0, 3.0])\n"
        "sets = [np.array([1, 4]), np.array([2, 5]), np.array([3, 6])]\n"
        "assert hypergraph._box_sums(t, *hypergraph._validate_families(t.shape, [sets])).tolist() == [5.5]",
    ])
    def test_numpy_ma_not_imported(self, work):
        script = f"import sys\n{work}\nprint('numpy.ma' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\n"


def _word_edge_tensor(gen, k, n):
    """A 0/1 tensor dense on the indices around the 64-bit word boundary
    (and 1, 2, n), sparse elsewhere, with a bool dense copy for the oracle."""
    pool = np.array(sorted({1, 2, 62, 63, 64, 65, n // 2 + 1, n} & set(range(1, n + 1))))
    near = np.stack(np.meshgrid(*[pool - 1] * k, indexing="ij"), axis=-1).reshape(-1, k)
    near = near[gen.random(near.shape[0]) < 0.5]
    lin = np.unique(np.concatenate([np.ravel_multi_index(tuple(near.T), (n,) * k),
                                    gen.integers(0, n ** k, size=2000)]))
    coords = np.stack(np.unravel_index(lin, (n,) * k), axis=1) + 1
    dense = np.zeros((n,) * k, dtype=bool)
    dense[tuple(coords.T - 1)] = True
    return SparseTensor(TensorShape(k, n), coords, np.ones(lin.size)), dense, pool


def _word_edge_families(gen, k, n, pool, count):
    """Families whose largest set sits at each mode in turn, every fourth
    one with all sizes tied; small sets draw from ``pool``, the largest
    also from all of [1, n]."""
    fams = []
    for f in range(count):
        small = [gen.choice(pool, size=gen.integers(1, min(3, pool.size) + 1), replace=False)
                 for _ in range(k)]
        if f % 4 == 3:
            size = min(s.size for s in small)
            fam = [s[:size] for s in small]
        else:
            top = f % k
            extra = gen.choice(np.setdiff1d(np.arange(1, n + 1), small[top]),
                               size=min(n - small[top].size, int(gen.integers(0, 12))), replace=False)
            fam = list(small)
            fam[top] = np.concatenate([small[top], extra])
            if fam[top].size <= max(s.size for s in small):  # too few members left to lead
                fam = [s[:1] for s in small]
                fam[top] = np.concatenate([small[top], extra])
        fams.append(tuple(np.asarray(s, dtype=np.int64) for s in fam))
    return fams


_COUNT_CASES = [(k, n) for k in (2, 3, 4) for n in (1, 63, 64, 65, 128) if (k, n) != (4, 128)]


class TestCounts:
    """``_box_sums`` on the bit-packed path against the dense oracle, on both
    sides of a 64-bit word boundary."""

    @pytest.mark.parametrize("k,n", _COUNT_CASES)
    def test_matches_dense_oracle(self, k, n, monkeypatch, packed_calls):
        bits = n ** (k - 1) * 64 * -(-n // 64)
        monkeypatch.setattr(hypergraph, "_PACKED_BITS", max(hypergraph._PACKED_BITS, bits))
        layouts = []
        real_bit_rows = hypergraph._bit_rows

        def bit_rows(rows, words, bit):
            layouts.append(rows == n ** (k - 1))  # no batch here packs that many sets
            return real_bit_rows(rows, words, bit)

        monkeypatch.setattr(hypergraph, "_bit_rows", bit_rows)
        gen = np.random.default_rng(900 + 10 * k + n)
        t, dense, pool = _word_edge_tensor(gen, k, n)
        fams = _word_edge_families(gen, k, n, pool, 48)
        want = [dense_count_edges(dense, fam) for fam in fams]
        sizes, starts, members, masks = hypergraph._validate_families(t.shape, fams)
        assert sizes.dtype == np.int64 and sizes.tolist() == [[s.size for s in fam] for fam in fams]
        assert members.tolist() == [int(v) for fam in fams for s in fam for v in s]
        got = hypergraph._box_sums(t, sizes, starts, members, masks)
        assert packed_calls == [48]
        assert got.dtype == np.float64 and got.tolist() == want
        # one layout per mode that leads a family, and only those
        leads = {k - 1 - int(np.argmax([s.size for s in fam][::-1])) for fam in fams}
        assert sum(layouts) == len(leads)
        assert [_box_sums(t, [fam])[0] for fam in fams] == want

    @pytest.mark.parametrize("k,n", [(2, 65), (3, 64), (4, 5)])
    def test_passes_split_families(self, k, n, monkeypatch):
        gen = np.random.default_rng(950 + k)
        t, dense, pool = _word_edge_tensor(gen, k, n)
        fams = _word_edge_families(gen, k, n, pool, 60)
        fams.append(tuple(np.arange(1, n + 1) for _ in range(k)))  # over any small cap
        want = [dense_count_edges(dense, fam) for fam in fams[:-1]] + [int(dense.sum())]
        words = -(-n // 64)
        for cap in (1, 5, 13):
            monkeypatch.setattr(core, "_PASS", cap * words)
            assert _box_sums(t, fams).tolist() == want

    @pytest.mark.parametrize("k,n", [(2, 128), (3, 65), (4, 9)])
    def test_bitmap_matches_sparse_path(self, k, n, monkeypatch, packed_calls):
        gen = np.random.default_rng(970 + k)
        t, _, pool = _word_edge_tensor(gen, k, n)
        fams = _word_edge_families(gen, k, n, pool, 200)
        fams += sample_subset_families(k, n, 200, SeedSpec(971, k))
        bitmap = _box_sums(t, fams)
        monkeypatch.setattr(hypergraph, "_PACKED_BITS", 0)
        sparse = _box_sums(t, fams)
        assert packed_calls == [400]
        assert np.array_equal(bitmap, sparse)

    def test_empty_inputs(self, packed_calls):
        # an empty tensor, on the packed path at n = 4 and on the entry path at n = 300
        for n in (4, 300):
            t = SparseTensor.empty(TensorShape(3, n))
            fam = tuple(np.array([1, 2, n]) for _ in range(3))
            assert _box_sums(t, [fam]).tolist() == [0.0]
            assert count_edges(t, fam) == 0
            assert packed_calls == [1, 1]
        t = adjacency(er_hypergraph(3, 6, 0.5, SeedSpec(975, 0)))
        none = np.zeros((0, 3), dtype=np.int64)
        masks = np.zeros((0, 3, 1), dtype=np.uint64)
        assert hypergraph._box_sums(t, none, none, np.zeros(0), masks).shape == (0,)


class TestSubsetValidation:
    def test_repeated_member_rejected(self):
        t = adjacency(er_hypergraph(3, 6, 0.5, SeedSpec(73, 0)))
        repeated = [np.array([1, 1, 2]), np.array([1, 2]), np.array([1, 2])]
        with pytest.raises(ValueError, match="distinct"):
            count_edges(t, repeated)
        with pytest.raises(ValueError, match="distinct"):
            mixing_check(t, 0.5, SubsetFamilies.explicit([repeated]))

    def test_explicit_family_errors(self):
        t = adjacency(er_hypergraph(3, 6, 0.5, SeedSpec(74, 0)))
        ok = (np.array([1]), np.array([2]), np.array([3]))
        cases = [
            ((np.array([1]), np.array([2])), "expected 3 subsets, got 2"),
            ((np.array([1]), np.array([], dtype=int), np.array([3])), "nonempty"),
            ((np.array([1]), np.array([7]), np.array([3])), r"lie in \[1, 6\]"),
            ((np.array([0]), np.array([2]), np.array([3])), r"lie in \[1, 6\]"),
            ((np.array([1]), np.array(2), np.array([3])), "one-dimensional"),
            ((np.array([1]), np.array([2]), np.array([[3, 4]])), "one-dimensional"),
        ]
        for bad, msg in cases:
            with pytest.raises(ValueError, match=msg):
                mixing_check(t, 0.5, SubsetFamilies.explicit([ok, ok, bad, ok]))

    def test_non_integer_members_rejected(self):
        t = adjacency(er_hypergraph(3, 6, 0.5, SeedSpec(76, 0)))
        for bad in ([1.5, 2], ["1", 2], np.array([1.0])):
            with pytest.raises(TypeError, match="integers"):
                count_edges(t, [bad, [3], [4]])
            with pytest.raises(TypeError, match="integers"):
                SubsetFamilies.explicit([[bad, [3], [4]]])
        with pytest.raises(TypeError, match="integers"):
            matrix_mixing_check(Hypergraph(2, 4, [[1, 2]]), d=1, families=[([1.5], [2])])
        # any integer dtype is a member; a set of each agrees with plain lists
        want = count_edges(t, [[1, 2], [3], [4, 5]])
        sets = [np.array([1, 2], dtype=np.uint8), np.array([3], dtype=np.int16),
                np.array([4, 5], dtype=np.uint64)]
        assert count_edges(t, sets) == want
        with pytest.raises(ValueError, match=r"lie in \[1, 6\]"):
            count_edges(t, [np.array([2**32 + 1]), [3], [4]])

    def test_matrix_mixing_pairs_validated(self):
        g = Hypergraph(2, 4, [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="distinct"):
            matrix_mixing_check(g, d=1, families=[(np.array([1, 2]), np.array([3, 3]))])


@pytest.mark.parametrize("size", [7, 1000])
def test_pass_size_moves_no_output(size, monkeypatch, packed_calls):
    """The blocked kernels give the same bytes at any ``core._PASS``: hash
    blocks over a range and over an array, both Bernoulli paths, the family
    draw, and the packed box count across many bit chunks and gather passes."""
    key = rng.stream_key(SeedSpec(990, 0), rng.LBL_BERNOULLI)
    ctr = np.random.default_rng(990).integers(0, 2**64 - 1, 5000, dtype=np.uint64)
    t = adjacency(er_hypergraph(3, 70, 0.05, SeedSpec(991, 0)))
    assert t.nnz > 10 * 1000 and np.all(t.values == 1.0)

    def outputs():
        batch = hypergraph._draw_families(3, 70, 300, SeedSpec(992, 0))
        return [rng.hashes(key, range(3, 5003)), rng.hashes(key, ctr),
                rng.bernoulli_positions(5000, 0.3, key),  # one hash per position
                rng.bernoulli_positions(2**22, 1e-3, key),  # geometric skips
                *batch, hypergraph._box_sums(t, *batch)]

    want = outputs()
    monkeypatch.setattr(core, "_PASS", size)
    got = outputs()
    assert packed_calls == [300, 300]
    assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]

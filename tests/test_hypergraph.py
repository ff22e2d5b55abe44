import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from oracles import dense_count_edges
from tensorconc import (
    Hypergraph,
    SeedSpec,
    SparseTensor,
    SubsetFamilies,
    TensorShape,
    adjacency,
    count_edges,
    dumps_hypergraph,
    er_hypergraph,
    expander_construct,
    loads_hypergraph,
    matrix_mixing_check,
    mixing_check,
    multilinear_form,
    sample_subset_families,
)
from tensorconc import rng


class TestAdjacency:
    def test_empty(self):
        h = Hypergraph(3, 5, np.empty((0, 3)))
        assert adjacency(h).nnz == 0

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

    def test_serialization_roundtrip(self):
        h = er_hypergraph(3, 9, 0.4, SeedSpec(22, 0))
        assert loads_hypergraph(dumps_hypergraph(h)) == h


class TestCountEdges:
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
        assert all(tr.sizes == (1, 1, 1) for tr in rep.trials)

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
        assert len(rep.trials) == 300

    def test_determinism(self):
        h = er_hypergraph(3, 12, 0.2, SeedSpec(35, 1))
        t = adjacency(h)
        a = mixing_check(t, 0.2, SubsetFamilies.sampled(40), SeedSpec(35, 1))
        b = mixing_check(t, 0.2, SubsetFamilies.sampled(40), SeedSpec(35, 1))
        assert a.to_json_summary() == b.to_json_summary()
        assert [tr.ratio for tr in a.trials] == [tr.ratio for tr in b.trials]

    def test_product_families_exhaustive(self):
        h = er_hypergraph(2, 6, 0.5, SeedSpec(36, 0))
        t = adjacency(h)
        cands = ([np.array([1, 2]), np.array([3])], [np.array([4]), np.array([5, 6])])
        rep = mixing_check(t, 0.5, SubsetFamilies.product(cands), SeedSpec(0, 0))
        assert len(rep.trials) == 4

    def test_product_families_sampled_over_limit(self):
        t = adjacency(er_hypergraph(2, 6, 0.5, SeedSpec(36, 0)))
        # candidate sizes differ within each mode, so sizes identify the picks
        cands = ([np.array([1, 2]), np.array([3]), np.array([1, 4, 5])],
                 [np.array([4]), np.array([5, 6])])
        fams = dataclasses.replace(SubsetFamilies.product(cands), exhaustive_limit=5, count=40)
        seed = SeedSpec(9, 2)
        a = mixing_check(t, 0.5, fams, seed)
        b = mixing_check(t, 0.5, fams, seed)
        assert [(tr.sizes, tr.e) for tr in a.trials] == [(tr.sizes, tr.e) for tr in b.trials]
        u = rng.uniform_block(rng.stream_key(seed, rng.LBL_SUBSET_PICK), 0, 40 * 2)
        picks = [(len(cands[0][int(u[2 * i] * 3)]), len(cands[1][int(u[2 * i + 1] * 2)]))
                 for i in range(40)]
        assert [tr.sizes for tr in a.trials] == picks

    def test_rng_labels_distinct(self):
        labels = {v for name, v in vars(rng).items() if name.startswith("LBL_")}
        assert len(labels) == len([name for name in vars(rng) if name.startswith("LBL_")])

    def test_report_emission(self):
        h = er_hypergraph(3, 10, 0.2, SeedSpec(38, 0))
        rep = mixing_check(adjacency(h), 0.2, SubsetFamilies.sampled(10), SeedSpec(38, 0))
        summary = json.loads(rep.to_json_summary())
        assert summary["trials"] == 10
        assert summary["max_ratio"] == rep.max_ratio
        assert summary["fitted_C"] == rep.fitted_c
        rows = rep.to_csv_rows()
        assert rows[0] == ["sizes", "e", "expected", "ratio"]
        assert len(rows) == 11

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
        rep = matrix_mixing_check(g, d=n - 1, num_pairs=60, seed=SeedSpec(41, 0))
        assert rep.lam == pytest.approx(1.0, abs=1e-6)
        assert rep.max_margin <= 1e-6

    def test_perfect_matching_exhaustive(self):
        n = 6
        g = Hypergraph(2, n, [[1, 2], [3, 4], [5, 6]])
        subsets = [np.array(list(s), dtype=np.int64)
                   for r in range(1, n + 1)
                   for s in itertools.combinations(range(1, n + 1), r)]
        pairs = [(a, b) for a in subsets for b in subsets]
        rep = matrix_mixing_check(g, d=1, pairs=pairs)
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
        rep = matrix_mixing_check(g, d=4, num_pairs=300, seed=SeedSpec(42, 0))
        assert rep.max_margin <= 1e-6

    def test_requires_two_uniform(self):
        h = Hypergraph(3, 5, [[1, 2, 3]])
        with pytest.raises(ValueError):
            matrix_mixing_check(h, d=2)

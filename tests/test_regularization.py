import itertools
import math

import numpy as np
import pytest

from conftest import random_sparse
from oracles import dense_degree_counts, dense_expander, reference_validate_symmetric_adjacency
from tensorconc import (
    Homogeneous,
    SeedSpec,
    SparseTensor,
    TensorShape,
    adjacency,
    bernoulli_sample,
    degree_map,
    er_hypergraph,
    expander_construct,
    regularize,
    removed_count_check,
    unfold,
)
from tensorconc.unfolding import Partition


class TestDegreeMap:
    def test_all_ones(self):
        j = SparseTensor.all_ones(TensorShape(3, 4))
        for m in (1, 2):
            dm = degree_map(j, m)
            assert np.all(dm.counts == 4**m)
            assert dm.counts.sum() == j.nnz

    def test_single_entry(self):
        t = SparseTensor(TensorShape(3, 5), [[2, 3, 4]], [1.0])
        dm = degree_map(t, 1)
        assert dm.prefixes.tolist() == [[2, 3]] and dm.counts.tolist() == [1]
        assert dm.max_degree == 1

    def test_empty_tensor(self):
        dm = degree_map(SparseTensor.empty(TensorShape(4, 5)), 1)
        assert dm.prefixes.shape == (0, 3) and dm.prefixes.dtype == np.int32
        assert dm.counts.shape == (0,) and dm.counts.dtype == np.int64
        assert dm.max_degree == 0

    def test_matches_bruteforce(self, rng):
        t = random_sparse(rng, 3, 6, values="binary")
        dm = degree_map(t, 1)
        expected = dense_degree_counts(t.to_dense(), 1)
        got = {tuple(int(v) for v in p): int(c) for p, c in zip(dm.prefixes, dm.counts)}
        assert got == expected

    def test_m_range(self):
        t = SparseTensor.empty(TensorShape(3, 4))
        with pytest.raises(ValueError):
            degree_map(t, 0)
        with pytest.raises(ValueError):
            degree_map(t, 3)

    def test_degrees_equal_unfold_row_sums(self, rng):
        t = random_sparse(rng, 4, 3, values="binary")
        m = 2
        dm = degree_map(t, m)
        view = unfold(t, Partition([[1, 2], [3, 4]]))
        coords, values = view.canonical_entries()
        row_sums = np.zeros(view.dims[0] + 1)
        np.add.at(row_sums, coords[:, 0], values)
        n = t.shape.dim
        for prefix, count in zip(dm.prefixes, dm.counts):
            row = 1 + (prefix[0] - 1) + (prefix[1] - 1) * n
            assert row_sums[row] == count
        assert row_sums.sum() == dm.counts.sum()


class TestRegularize:
    def test_no_removal_identity(self, rng):
        t = bernoulli_sample(TensorShape(3, 8), Homogeneous(0.4), SeedSpec(1, 1))
        res = regularize(t, 2, 0.9)  # threshold 115.2 > any degree
        assert res.removed_count == 0
        assert res.regularized == t

    def test_hand_construction(self):
        # k=4, n=5, m=2, p=0.04: threshold 2*25*0.04 = 2; prefix (1,1) has 3 entries
        sh = TensorShape(4, 5)
        t = SparseTensor(sh, [[1, 1, 1, 1], [1, 1, 2, 3], [1, 1, 4, 5], [2, 3, 1, 1]],
                         np.ones(4))
        res = regularize(t, 2, 0.04)
        assert res.threshold == pytest.approx(2.0)
        assert res.removed.tolist() == [[1, 1]]
        assert res.regularized.coords.tolist() == [[2, 3, 1, 1]]

    def test_idempotent(self, rng):
        t = bernoulli_sample(TensorShape(3, 10), Homogeneous(0.7), SeedSpec(2, 5))
        res = regularize(t, 2, 0.05)
        again = regularize(res.regularized, 2, 0.05)
        assert again.removed_count == 0
        assert again.regularized == res.regularized

    def test_post_state_degrees_below_threshold(self, rng):
        t = bernoulli_sample(TensorShape(3, 12), Homogeneous(0.3), SeedSpec(3, 0))
        res = regularize(t, 2, 0.01)
        dm = degree_map(res.regularized, 2) if res.regularized.nnz else None
        if dm is not None and dm.counts.size:
            assert dm.max_degree <= res.threshold

    def test_strict_inequality_ties_kept(self):
        # degree exactly at the threshold survives
        sh = TensorShape(2, 4)
        t = SparseTensor(sh, [[1, 1], [1, 2], [2, 1]], np.ones(3))
        res = regularize(t, 1, 0.25)  # threshold 2*4*0.25 = 2, prefix (1,) has degree 2
        assert res.removed_count == 0

    def test_prefix_runs_past_linear_index_range(self):
        # n^(k-m) = (2^31-1)^3 > 2^64: the prefix (5,9,5) has degree 1 and
        # survives, although its row-major index wraps onto the removed (1,1,1)
        n = 2**31 - 1
        coords = [[1, 1, 1, j] for j in range(1, 6)] + [[5, 9, 5, 1]]
        t = SparseTensor(TensorShape(4, n), coords, np.ones(6))
        with pytest.warns(UserWarning, match="outside the guarantee regime"):
            res = regularize(t, 1, 1e-9)  # threshold 2 * n * 1e-9 ~ 4.29
        assert res.removed.tolist() == [[1, 1, 1]]
        assert res.regularized.coords.tolist() == [[5, 9, 5, 1]]

    def test_matches_bruteforce(self, rng):
        for k, n, m in ((2, 7, 1), (3, 5, 2), (4, 4, 2), (4, 4, 3)):
            t = random_sparse(rng, k, n, values="binary")
            counts = dense_degree_counts(t.to_dense(), m)
            for p in (0.01, 0.1, 0.3):
                res = regularize(t, m, p)
                kept = [c for c in t.coords.tolist()
                        if counts[tuple(c[:k - m])] <= res.threshold]
                assert res.regularized.coords.tolist() == kept

    @pytest.mark.parametrize("m", [0, 4])
    def test_m_out_of_range_raises_before_the_regime_warning(self, m):
        # m = 0 < k/2 would warn if the range were checked after the regime
        t = SparseTensor.all_ones(TensorShape(4, 3))
        with pytest.raises(ValueError, match=r"^m must be in \[1, 3\], got "):
            regularize(t, m, 0.5)

    def test_out_of_regime_warns(self):
        t = SparseTensor.all_ones(TensorShape(4, 3))
        with pytest.warns(UserWarning, match="outside the guarantee regime"):
            res = regularize(t, 1, 0.9)
        assert not res.in_guarantee_regime

    def test_p_validation(self):
        t = SparseTensor.all_ones(TensorShape(2, 3))
        with pytest.raises(ValueError):
            regularize(t, 1, 0.0)
        with pytest.raises(ValueError):
            regularize(t, 1, 1.5)


class TestRemovedCountCheck:
    def test_outside_guarantee_regime_rejected(self):
        # k = 5, m = 2 < k/2: regularize warns, and the bound does not apply
        t = bernoulli_sample(TensorShape(5, 4), Homogeneous(0.2), SeedSpec(4, 0))
        with pytest.warns(UserWarning, match="outside the guarantee regime"):
            res = regularize(t, 2, 0.2)
        with pytest.raises(ValueError, match=r"^removed-count bound needs k/2 <= m <= k-1, got m=2, k=5$"):
            removed_count_check(res, 0.2)

    def test_empty_within(self, rng):
        t = bernoulli_sample(TensorShape(4, 5), Homogeneous(0.2), SeedSpec(4, 0))
        res = regularize(t, 2, 0.2)
        chk = removed_count_check(res, 0.2)
        assert chk.within or chk.count > 0

    def test_bound_formula(self):
        # k=4, m=2 -> 2m-k = 0, bound = 1/p
        t = SparseTensor.empty(TensorShape(4, 25))
        res = regularize(t, 2, 3 / 625)
        chk = removed_count_check(res, 3 / 625)
        assert chk.bound == pytest.approx(625 / 3)
        assert chk.within

    def test_monte_carlo_lemma(self):
        # k=4, m=2, n=25, p=3/n^2: removed count within 1/(n^(2m-k) p) every trial
        n, p = 25, 3 / 625
        bound = 1 / p
        for s in range(10):
            t = bernoulli_sample(TensorShape(4, n), Homogeneous(p), SeedSpec(99, s))
            res = regularize(t, 2, p)
            assert res.removed_count <= bound


class TestExpanderConstruct:
    def test_empty(self):
        out = expander_construct(SparseTensor.empty(TensorShape(3, 5)), 0.1)
        assert out.nnz == 0

    def test_repeated_index_coordinates_zero(self):
        h = er_hypergraph(3, 8, 0.5, SeedSpec(11, 0))
        out = expander_construct(adjacency(h), 0.5)
        if out.nnz:
            assert np.all(np.sort(out.coords, axis=1)[:, :-1] != np.sort(out.coords, axis=1)[:, 1:])

    def test_symmetry_under_permutations(self, rng):
        h = er_hypergraph(3, 8, 0.3, SeedSpec(12, 0))
        out = expander_construct(adjacency(h), 0.3)
        dense = out.to_dense()
        for _ in range(20):
            perm = rng.permutation(3)
            assert np.array_equal(dense, np.transpose(dense, perm))

    def test_values_are_binary(self):
        h = er_hypergraph(3, 10, 0.4, SeedSpec(13, 2))
        out = expander_construct(adjacency(h), 0.4)
        if out.nnz:
            assert set(np.unique(out.values)) == {1.0}

    def test_degree_bound_monte_carlo(self):
        # k=3, n=30, p=c/n^2 with c=20: first-mode degrees of the output
        # stay below 2*k!*n^(k-1)*p
        k, n, c = 3, 30, 20.0
        p = c / n ** (k - 1)
        cap = 2 * math.factorial(k) * n ** (k - 1) * p
        for s in range(5):
            h = er_hypergraph(k, n, p, SeedSpec(14, s))
            out = expander_construct(adjacency(h), p)
            if out.nnz:
                assert degree_map(out, k - 1).max_degree <= cap

    # (k, n, c, edge probability, seed, removes a vertex); p = c / n^(k-1)
    ORACLE_CASES = [
        (2, 12, 1.0, 0.35, 0, True), (2, 12, 6.0, 0.5, 1, False),
        (3, 9, 1.5, 0.3, 4, True), (3, 9, 20.0, 0.3, 3, False),
        (4, 8, 2.0, 0.3, 0, True), (4, 8, 100.0, 0.2, 1, False),
    ]

    @pytest.mark.parametrize("k,n,c,q,seed,removes", ORACLE_CASES)
    def test_matches_dense_oracle(self, k, n, c, q, seed, removes):
        p = c / n ** (k - 1)
        adj = adjacency(er_hypergraph(k, n, q, SeedSpec(15, seed)))
        out = expander_construct(adj, p)
        assert np.array_equal(out.to_dense(), dense_expander(adj.to_dense(), p))
        assert (0 < out.nnz < adj.nnz) if removes else out == adj

    @staticmethod
    def _outcome(check, t):
        try:
            check(t)
        except Exception as exc:  # the type and message are compared
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("k,n,q", [(2, 9, 0.4), (3, 8, 0.3), (4, 7, 0.2)])
    def test_accepts_and_rejects_as_orbit_count_reference(self, k, n, q, rng):
        for seed in range(4):
            adj = adjacency(er_hypergraph(k, n, q, SeedSpec(16, seed)))
            rows, vals = adj.coords, adj.values
            fresh = np.array([1, 1, *range(2, k)])  # a repeated index: in no edge's orbit
            cases = {
                "valid": adj,
                "orbit member dropped": SparseTensor(adj.shape, np.delete(rows, rng.integers(adj.nnz), 0),
                                                     np.ones(adj.nnz - 1)),
                "repeated index added": SparseTensor(adj.shape, np.vstack([rows, fresh]),
                                                     np.ones(adj.nnz + 1)),
                "value set to 2": SparseTensor(adj.shape, rows, np.where(
                    np.arange(adj.nnz) == rng.integers(adj.nnz), 2.0, vals)),
            }
            for name, t in cases.items():
                want = self._outcome(reference_validate_symmetric_adjacency, t)
                assert (want is None) == (name == "valid"), name
                got = self._outcome(lambda x: expander_construct(x, 0.5), t)
                assert got == want, (k, seed, name)

    def test_rejects_non_unit_values(self):
        h = er_hypergraph(3, 8, 0.5, SeedSpec(11, 0))
        adj = adjacency(h)
        doubled = SparseTensor(adj.shape, adj.coords, 2.0 * adj.values, presorted=True)
        with pytest.raises(ValueError, match="value other than 1"):
            expander_construct(doubled, 0.5)

    def test_rejects_nonsymmetric(self):
        sh = TensorShape(3, 4)
        bad = SparseTensor(sh, [[1, 2, 3]], [1.0])
        with pytest.raises(ValueError, match="not symmetric"):
            expander_construct(bad, 0.5)

    def test_rejects_repeated_indices(self):
        sh = TensorShape(3, 4)
        bad = SparseTensor(sh, [[1, 1, 2], [1, 2, 1], [2, 1, 1]], np.ones(3))
        with pytest.raises(ValueError, match="repeated"):
            expander_construct(bad, 0.5)

    def test_high_degree_vertex_removed(self):
        from tensorconc import Hypergraph

        # vertex 1 sits in every edge; with a tiny p its slice must vanish
        edges = np.array(list(itertools.combinations(range(1, 7), 3)), dtype=np.int32)
        edges = edges[edges[:, 0] == 1]
        h = Hypergraph(3, 6, edges)
        out = expander_construct(adjacency(h), 0.01)  # threshold 0.72 < 10 edges
        assert out.nnz == 0

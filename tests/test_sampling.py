import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from oracles import unrank_combination

from tensorconc import (
    DenseProbability,
    Homogeneous,
    SeedSpec,
    ShapeMismatchError,
    SparseTensor,
    TensorShape,
    bernoulli_sample,
    er_hypergraph,
    sparsify_uniform,
)
from tensorconc.sampling import _unrank_subsets
from tensorconc.rng import (
    _GAMMA,
    _MASK64,
    LBL_BERNOULLI,
    LBL_SPARSIFY,
    _fin_int,
    _kept,
    _positions_skip,
    LBL_SUBSET_MEMBERS,
    bernoulli_positions,
    hashes,
    stream_key,
    uniforms,
)


class TestBernoulliSample:
    def test_p_zero_empty(self):
        t = bernoulli_sample(TensorShape(3, 5), Homogeneous(0.0), SeedSpec(1, 0))
        assert t.nnz == 0

    def test_p_one_full(self):
        t = bernoulli_sample(TensorShape(2, 6), Homogeneous(1.0), SeedSpec(1, 0))
        assert t.nnz == 36
        assert np.all(t.values == 1.0)

    def test_binomial_concentration(self):
        # k=2, n=100, p=0.3: count within 3000 +- 4*sqrt(3000*0.7) for >= 99% of seeds
        sh = TensorShape(2, 100)
        band = 4 * math.sqrt(3000 * 0.7)
        hits = 0
        trials = 1000
        for s in range(trials):
            t = bernoulli_sample(sh, Homogeneous(0.3), SeedSpec(2024, s))
            if abs(t.nnz - 3000) <= band:
                hits += 1
        assert hits >= 0.99 * trials

    def test_determinism_bytes(self):
        sh = TensorShape(3, 9)
        a = bernoulli_sample(sh, Homogeneous(0.2), SeedSpec(5, 7))
        b = bernoulli_sample(sh, Homogeneous(0.2), SeedSpec(5, 7))
        assert a == b
        c = bernoulli_sample(sh, Homogeneous(0.2), SeedSpec(5, 8))
        assert a != c

    def test_per_coordinate_keying_matches_scalar_replay(self):
        # entry membership must depend only on (seed, coordinate), not iteration order
        sh = TensorShape(2, 7)
        seed = SeedSpec(42, 3)
        t = bernoulli_sample(sh, Homogeneous(0.35), seed)
        key = stream_key(seed, LBL_BERNOULLI)
        expected = []
        for lin in range(49):
            u = uniforms(key, np.array([lin], dtype=np.uint64))[0]
            if u < 0.35:
                expected.append([lin // 7 + 1, lin % 7 + 1])
        assert t.coords.tolist() == expected

    def test_skip_and_percoord_paths_agree_in_distribution(self):
        keys = [[stream_key(SeedSpec(base, s), LBL_BERNOULLI) for s in range(200)]
                for base in (9, 10_000)]
        counts_a = [len(_kept(key, range(1600), 0.1)) for key in keys[0]]
        counts_b = [len(_positions_skip(1600, 0.1, key)) for key in keys[1]]
        assert stats.ks_2samp(counts_a, counts_b).pvalue > 1e-3

    def test_skip_path_deterministic(self):
        key = stream_key(SeedSpec(3, 3), LBL_BERNOULLI)
        a = _positions_skip(27_000, 0.05, key)
        assert a.size and np.array_equal(a, _positions_skip(27_000, 0.05, key))
        assert np.all(np.diff(a.astype(np.int64)) > 0) and int(a[-1]) < 27_000

    @pytest.mark.parametrize("total,percoord", [(2**21, True), (2**21 + 1, False)])
    def test_size_picks_the_path(self, total, percoord):
        key = stream_key(SeedSpec(8, 1), LBL_BERNOULLI)
        got = bernoulli_positions(total, 1e-4, key)
        kept, skip = _kept(key, range(total), 1e-4), _positions_skip(total, 1e-4, key)
        assert np.array_equal(got, kept) == percoord
        assert np.array_equal(got, skip) != percoord

    def test_dense_model_sampling(self):
        table = np.zeros((3, 3))
        table[0, :] = 1.0
        t = bernoulli_sample(TensorShape(2, 3), DenseProbability(table), SeedSpec(0, 0))
        assert t.coords.tolist() == [[1, 1], [1, 2], [1, 3]]

    def test_dense_model_of_another_shape_rejected(self):
        for shape in (TensorShape(2, 4), TensorShape(3, 3)):
            with pytest.raises(ShapeMismatchError):
                bernoulli_sample(shape, DenseProbability(np.full((3, 3), 0.5)), SeedSpec(0, 0))

    def test_dense_model_matches_uniform_replay(self):
        # 41^3 coordinates span two hash blocks
        table = np.random.default_rng(4).random((41, 41, 41))
        table[0] = 0.0
        table[1] = 1.0
        seed = SeedSpec(6, 1)
        t = bernoulli_sample(TensorShape(3, 41), DenseProbability(table), seed)
        u = uniforms(stream_key(seed, LBL_BERNOULLI), np.arange(41**3, dtype=np.uint64))
        assert np.array_equal(t.linear_indices(), np.flatnonzero(u < table.reshape(-1)))


class TestSeedSpec:
    def test_non_integers_rejected(self):
        for bad in ((1.5, 0), ("3", 0), (0, 2.0)):
            with pytest.raises(TypeError):
                SeedSpec(*bad)

    def test_numpy_integers_stored_as_python_ints(self):
        want = stream_key(SeedSpec(5, 2), LBL_BERNOULLI)
        for seed in (SeedSpec(np.int64(5), 2), SeedSpec(5, np.int32(2)),
                     SeedSpec(np.uint64(5), np.uint8(2))):
            assert type(seed.base_seed) is int and type(seed.stream_id) is int
            assert seed == SeedSpec(5, 2)
            assert stream_key(seed, LBL_BERNOULLI) == want
        big = SeedSpec(np.uint64(2**64 - 1), 0)
        assert stream_key(big, LBL_BERNOULLI) == stream_key(SeedSpec(2**64 - 1, 0), LBL_BERNOULLI)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            SeedSpec(bad, 0)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            SeedSpec(0, bad)


@pytest.mark.parametrize("total", [-1, 2**63])
def test_bernoulli_positions_total_range(total):
    with pytest.raises(ValueError, match=f"^coordinate space size out of range: {total}$"):
        bernoulli_positions(total, 0.5, 0)


class TestHashKernel:
    # 0.3 * 2^53 is not an integer, so the threshold is rounded up
    P_VALUES = [2.0**-53, 0.5, 1.0 - 2.0**-53, 0.3]

    @pytest.mark.parametrize("total", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    @pytest.mark.parametrize("p", P_VALUES)
    def test_percoord_is_uniform_below_p(self, total, p):
        key = stream_key(SeedSpec(11, total), LBL_BERNOULLI)
        want = np.flatnonzero(uniforms(key, np.arange(total, dtype=np.uint64)) < p)
        got = _kept(key, range(total), p)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_integer_threshold_at_its_edge(self, p):
        thresh = math.ceil(p * 2.0**53)
        for h in (thresh - 1, thresh, thresh + 1):
            assert (h < thresh) == (h * 2.0**-53 < p)
        assert (0.3 * 2.0**53) % 1.0 != 0.0

    def test_uniforms_match_scalar_replay(self):
        gen = np.random.default_rng(5)
        near_top = np.uint64(_MASK64) - np.arange(50_000, dtype=np.uint64)
        ctr = np.concatenate([near_top, gen.integers(0, 2**64 - 1, 90_000, dtype=np.uint64)])
        gen.shuffle(ctr)
        ctr = ctr[::2]  # unsorted, strided, and longer than one hash block
        key = stream_key(SeedSpec(3, 4), LBL_BERNOULLI)
        tops = [_fin_int(int(c) * _GAMMA + key) >> 11 for c in ctr]
        assert np.array_equal(uniforms(key, ctr), np.array(tops) * 2.0**-53)
        assert np.array_equal((hashes(key, ctr) + 1) * 2.0**-53, (np.array(tops) + 1) * 2.0**-53)


    @pytest.mark.parametrize("start,count", [(5, 3), (2**16 - 7, 20), (3 * 2**16 + 11, 2**17 + 5)])
    def test_hash_block_is_the_uniforms_numerator(self, start, count):
        key = stream_key(SeedSpec(12, count), LBL_SUBSET_MEMBERS)
        h = hashes(key, range(start, start + count))
        assert h.dtype == np.uint64 and h.shape == (count,) and int(h.max()) < 2**53
        assert h.tobytes() == hashes(key, np.arange(start, start + count)).tobytes()
        assert (h * 2.0**-53).tobytes() == uniforms(key, range(start, start + count)).tobytes()
        for i in (0, count - 1):
            assert int(h[i]) == _fin_int((start + i) * _GAMMA + key) >> 11


class TestSkipStream:
    # Digest of the geometric-skipping stream, recorded before the gaps were
    # clipped; the goldens never reach it (they sample at most 120^3 <= 2^21
    # coordinates), and its gaps take the floor of a SIMD-dispatched np.log.
    def test_digest(self):
        key = stream_key(SeedSpec(1, 0), LBL_BERNOULLI)
        digest = hashlib.sha256()
        for total, p in ((2**21 + 1, 0.3), (10**8, 1e-3), (2**40, 1e-7)):
            digest.update(bernoulli_positions(total, p, key).tobytes())
        assert digest.hexdigest() == (
            "81556e9cb942155bb15169b14ce3df61edf19bc8601e7e678e81969f5b6c2b10")

    @pytest.mark.parametrize("p", [1e-15, 1e-16, 1e-17, 1e-20, 1e-25, 1e-310, 5e-324])
    def test_tiny_p_keeps_nothing(self, p):
        # at most 4e-9 positions expected; 1024 gaps of mean 1/p used to wrap past 2^63,
        # and a subnormal p's gaps overflow to inf before they are clipped
        assert _positions_skip(2**22, p, stream_key(SeedSpec(1, 0), 1)).size == 0

    def test_tiny_p_samplers(self):
        for p in (1e-17, 1e-310, 5e-324):
            assert bernoulli_sample(TensorShape(3, 200), Homogeneous(p), SeedSpec(1, 0)).nnz == 0
            assert er_hypergraph(3, 400, p, SeedSpec(1, 0)).num_edges == 0

    @pytest.mark.parametrize("total", [2**62, 10**18 + 1, 2**63 - 1])
    def test_positions_below_total_near_the_limit(self, total):
        # gaps of about 10^17 to 10^19: some land below total, most past it
        key = stream_key(SeedSpec(1, 0), 1)
        for p in (1e-17, 1e-18, 1e-19):
            got = _positions_skip(total, p, key)
            assert got.dtype == np.uint64 and (got.size == 0 or int(got[-1]) < total)
            assert np.all(got[1:] > got[:-1])
            assert got.size <= total * p + 10 * math.sqrt(total * p) + 10


class TestSparsifyUniform:
    def test_p_one_identity(self, rng):
        t = SparseTensor.all_ones(TensorShape(3, 4))
        assert sparsify_uniform(t, 1.0, SeedSpec(1, 2)) == t

    def test_p_zero_empty(self):
        t = SparseTensor.all_ones(TensorShape(3, 4))
        assert sparsify_uniform(t, 0.0, SeedSpec(1, 2)).nnz == 0

    def test_binomial_count(self):
        t = SparseTensor.all_ones(TensorShape(3, 20))
        band = 4 * math.sqrt(800 * 0.9)
        hits = 0
        trials = 1000
        for s in range(trials):
            kept = sparsify_uniform(t, 0.1, SeedSpec(77, s))
            if abs(kept.nnz - 800) <= band:
                hits += 1
        assert hits >= 0.99 * trials

    def test_support_subset_and_values_preserved(self, rng):
        dense = np.zeros((5, 5))
        mask = rng.random((5, 5)) < 0.5
        dense[mask] = rng.standard_normal(int(mask.sum()))
        t = SparseTensor.from_dense(dense)
        kept = sparsify_uniform(t, 0.5, SeedSpec(8, 1))
        full = t.to_dense()
        sub = kept.to_dense()
        assert np.all((sub == 0) | (sub == full))

    # 0.3 * 2^53 is not an integer, so the keep threshold is rounded up
    @pytest.mark.parametrize("p", [2.0**-10, 0.3, 0.5, 0.9])
    def test_all_ones_keeps_the_percoord_stream(self, p):
        # 50^3 coordinates span two hash blocks
        shape, seed = TensorShape(3, 50), SeedSpec(13, 2)
        kept = sparsify_uniform(SparseTensor.all_ones(shape), p, seed)
        want = _kept(stream_key(seed, LBL_SPARSIFY), range(shape.ncoords), p)
        assert kept.linear_indices().astype(np.uint64).tobytes() == want.tobytes()

    def test_weighted_base_keeps_the_entries_on_kept_coordinates(self, rng):
        dense = np.where(rng.random((30, 30, 30)) < 0.4, rng.standard_normal((30, 30, 30)), 0.0)
        t, seed = SparseTensor.from_dense(dense), SeedSpec(14, 0)
        kept = sparsify_uniform(t, 0.3, seed)
        stream = _kept(stream_key(seed, LBL_SPARSIFY), range(t.shape.ncoords), 0.3)
        on = np.isin(t.linear_indices().astype(np.uint64), stream)
        assert 0 < kept.nnz < t.nnz
        assert kept.coords.tobytes() == t.coords[on].tobytes()
        assert kept.values.tobytes() == t.values[on].tobytes()


@pytest.mark.parametrize("entry", [
    lambda p: Homogeneous(p),
    lambda p: bernoulli_positions(10, p, 1),
    lambda p: sparsify_uniform(SparseTensor.all_ones(TensorShape(2, 3)), p, SeedSpec()),
    lambda p: er_hypergraph(3, 6, p, SeedSpec()),
], ids=["Homogeneous", "bernoulli_positions", "sparsify_uniform", "er_hypergraph"])
@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, -math.inf])
def test_probability_rule_shared(entry, p):
    # one [0, 1] rule and one message at every entry point; 0 and 1 pass
    with pytest.raises(ValueError, match=r"^probability must be in \[0, 1\], got "):
        entry(p)
    entry(0.0)
    entry(1.0)


class TestErdosRenyi:
    def test_p_zero(self):
        assert er_hypergraph(3, 10, 0.0, SeedSpec(0, 0)).num_edges == 0

    def test_p_one_all_subsets(self):
        h = er_hypergraph(3, 6, 1.0, SeedSpec(0, 0))
        assert h.num_edges == math.comb(6, 3)
        assert np.all(np.diff(h.edges, axis=1) > 0)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            er_hypergraph(4, 3, 0.5, SeedSpec(0, 0))

    def test_edge_space_limit(self):
        # C(70, 34) = 109069992321755544170 is past 2^63
        with pytest.raises(ValueError, match=r"C\(70, 34\) = 109069992321755544170 "
                                             r"k-subsets .* 2\^63"):
            er_hypergraph(34, 70, 1e-25, SeedSpec(1, 0))

    @pytest.mark.parametrize("n,k", [(6, 3), (12, 7), (9, 9), (20, 4), (5, 1)])
    def test_unranks_every_subset_in_order(self, n, k):
        ranks = np.arange(math.comb(n, k), dtype=np.uint64)
        want = list(itertools.combinations(range(1, n + 1), k))
        got = _unrank_subsets(ranks, n, k)
        assert got.dtype == np.int32 and got.tolist() == [list(c) for c in want]
        if k >= 2:
            assert er_hypergraph(k, n, 1.0, SeedSpec(0, 0)).edges.tolist() == got.tolist()

    def test_unranks_near_int64_limit(self):
        # C(66, 33) is 0.78 * 2^63: the largest tails sit just below the limit
        n, k = 66, 33
        total = math.comb(n, k)
        ranks = [0, 1, total // 2, total - 2, total - 1]
        got = _unrank_subsets(np.array(ranks, dtype=np.uint64), n, k)
        assert got.tolist() == [unrank_combination(r, n, k) for r in ranks]
        gen = np.random.default_rng(56)
        for n, k in [(40, 35), (120, 3)]:
            ranks = np.unique(gen.integers(0, math.comb(n, k), size=500, dtype=np.uint64))
            got = _unrank_subsets(ranks, n, k)
            assert got.tolist() == [unrank_combination(int(r), n, k) for r in ranks]

    def test_binomial_count(self):
        mean = math.comb(30, 3) * 0.01
        band = 4 * math.sqrt(mean)
        hits = 0
        trials = 1000
        for s in range(trials):
            h = er_hypergraph(3, 30, 0.01, SeedSpec(55, s))
            if abs(h.num_edges - mean) <= band:
                hits += 1
        assert hits >= 0.99 * trials

    def test_determinism_serialization(self):
        a = er_hypergraph(3, 12, 0.3, SeedSpec(4, 9))
        b = er_hypergraph(3, 12, 0.3, SeedSpec(4, 9))
        assert a == b
        assert (a.k, a.n, a.num_edges) == (3, 12, len(a.edges))

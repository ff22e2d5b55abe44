import math

import numpy as np
import pytest

from conftest import random_sparse
from oracles import brute_heavy_tuples
from tensorconc import (
    DenseProbability,
    Homogeneous,
    PowerIterConfig,
    SeedSpec,
    SparseTensor,
    TensorShape,
    VectorTuple,
    bernoulli_sample,
    bounded_degree_check,
    center,
    discrepancy_check,
    dyadic_profile,
    kl_bernoulli,
    lattice_net,
    light_contribution_check,
    net_supremum_check,
    split_tuples,
)


class TestLatticeNet:
    def test_one_dimensional_enumeration(self):
        net = lattice_net(1, 0.5)
        assert sorted(net.points[:, 0].tolist()) == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert net.size == 5

    def test_points_inside_unit_ball(self):
        for n in (1, 2, 3):
            net = lattice_net(n, 0.5)
            norms = np.linalg.norm(net.points, axis=1)
            assert np.all(norms <= 1.0 + 1e-12)

    def test_cardinality_volume_bound(self):
        for n, delta in ((1, 0.5), (2, 0.5), (3, 0.5), (2, 0.3)):
            net = lattice_net(n, delta)
            assert net.size <= math.exp(n * math.log(7.0 / delta))

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            lattice_net(5, 0.5)


class TestNetSupremum:
    def test_zero_tensor(self):
        rec = net_supremum_check(SparseTensor.empty(TensorShape(3, 2)), 0.5)
        assert rec.sup_net == 0.0 and rec.lower == 0.0 and rec.within

    def test_all_ones_with_slack(self):
        rec = net_supremum_check(SparseTensor.all_ones(TensorShape(3, 2)), 0.5)
        assert rec.within
        assert rec.slack >= 0.0
        assert rec.lower == pytest.approx(2 * math.sqrt(2), abs=1e-6)

    def test_no_violations_on_random_instances(self, rng):
        cfg = PowerIterConfig(restarts=6, seed=SeedSpec(0, 0))
        for _ in range(50):
            dense = rng.standard_normal((2, 2, 2))
            rec = net_supremum_check(SparseTensor.from_dense(dense), 0.5, cfg)
            assert rec.within


class TestSplitTuples:
    def test_uniform_vectors_all_light(self):
        n, k = 4, 3
        ys = VectorTuple.uniform(k, n)
        split = split_tuples(ys, n, 1.0 / n**2)  # product == threshold: light
        assert split.heavy_count == 0
        assert split.light_contribution == pytest.approx(n ** (k / 2))

    def test_basis_vectors_single_heavy(self):
        n, k = 5, 3
        e1 = np.zeros(n)
        e1[0] = 1.0
        split = split_tuples([e1, e1, e1], n, 0.5)
        assert split.heavy_coords.tolist() == [[1, 1, 1]]
        assert split.heavy_contribution == pytest.approx(1.0)
        assert split.is_heavy((1, 1, 1))
        assert not split.is_heavy((1, 1, 2))

    def test_matches_bruteforce(self, rng):
        n, k = 8, 3
        for _ in range(10):
            ys = [v / np.linalg.norm(v) for v in rng.standard_normal((k, n))]
            p = float(rng.uniform(0.05, 0.9))
            split = split_tuples(ys, n, p)
            got = {tuple(int(i) for i in c) for c in split.heavy_coords}
            assert got == brute_heavy_tuples(ys, n, p)

    def test_heavy_expected_part_bound(self, rng):
        # sum over heavy tuples of |prod y| * p never exceeds sqrt(np)
        n, k = 8, 3
        for _ in range(20):
            ys = [v / np.linalg.norm(v) for v in rng.standard_normal((k, n))]
            p = float(rng.uniform(0.05, 0.9))
            split = split_tuples(ys, n, p)
            assert np.abs(split.heavy_products).sum() * p <= math.sqrt(n * p) + 1e-9


class TestLightContribution:
    def test_deterministic_tensor_centered_to_zero(self, rng):
        t = random_sparse(rng, 2, 4, values="binary")
        w = center(t, DenseProbability(t.to_dense()))
        ys = [v / np.linalg.norm(v) for v in rng.standard_normal((2, 4))]
        rec = light_contribution_check(w, ys, 4, 0.5, 6.0)
        assert rec.light_sum == pytest.approx(0.0, abs=1e-12)

    def test_bernstein_scale(self):
        n, p = 50, 0.2
        gen = np.random.default_rng(7)
        ys = [v / np.linalg.norm(v) for v in gen.standard_normal((2, n))]
        worst = 0.0
        for s in range(100):
            t = bernoulli_sample(TensorShape(2, n), Homogeneous(p), SeedSpec(500, s))
            w = center(t, Homogeneous(p))
            rec = light_contribution_check(w, ys, n, p, 6.0)
            worst = max(worst, rec.ratio)
            assert rec.within
        assert worst < 6.0

    def test_sign_flip_invariance(self, rng):
        n, p = 6, 0.3
        t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(501, 0))
        w = center(t, Homogeneous(p))
        ys = [v / np.linalg.norm(v) for v in rng.standard_normal((3, n))]
        base = light_contribution_check(w, ys, n, p, 6.0)
        flipped = [ys[0], -ys[1], ys[2]]
        assert light_contribution_check(w, flipped, n, p, 6.0).ratio == pytest.approx(
            base.ratio, rel=1e-10
        )


class TestBoundedDegree:
    def test_full_tensor(self):
        j = SparseTensor.all_ones(TensorShape(3, 6))
        rec = bounded_degree_check(j, 1.0, 1.0)
        assert rec.max_degree == 6 and rec.within

    def test_empty(self):
        rec = bounded_degree_check(SparseTensor.empty(TensorShape(3, 6)), 0.5, 2.0)
        assert rec.max_degree == 0 and rec.within

    def test_monte_carlo(self):
        n = 60
        p = 5 * math.log(n) / n
        hits = 0
        for s in range(10):
            t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(321, s))
            if bounded_degree_check(t, p, 3.0).within:
                hits += 1
        assert hits >= 9


class TestDiscrepancy:
    def test_full_tensor_case1(self):
        j = SparseTensor.all_ones(TensorShape(3, 5))
        rep = discrepancy_check(j, 1.0, 1.0, 1.0, 50, SeedSpec(61, 0))
        assert rep.within
        assert all(t.case1 for t in rep.trials)
        assert all(t.lam == pytest.approx(1.0) for t in rep.trials)

    def test_empty_tensor_case2(self):
        z = SparseTensor.empty(TensorShape(3, 5))
        rep = discrepancy_check(z, 0.5, 1.5, 1.5, 30, SeedSpec(62, 0))
        assert rep.within
        assert all(t.case2 for t in rep.trials)

    def test_monte_carlo(self):
        n = 40
        p = 5 * math.log(n) / n
        for s in range(5):
            t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(63, s))
            rep = discrepancy_check(t, p, 20.0, 20.0, 500, SeedSpec(63, s))
            assert rep.violations == 0

    def test_fitted_constants_reported(self, rng):
        t = bernoulli_sample(TensorShape(3, 12), Homogeneous(0.4), SeedSpec(64, 0))
        rep = discrepancy_check(t, 0.4, 2.0, 2.0, 200, SeedSpec(64, 0))
        assert rep.fitted_c2 >= 0.0 and rep.fitted_c3 >= 0.0

    def test_repeated_member_rejected(self):
        # e would count member 1 once while mu_bar counts it twice
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        with pytest.raises(ValueError, match="distinct"):
            discrepancy_check(t, 0.5, 1.0, 1.0, [([1, 1, 2], [1, 2], [1, 2])])
        rep = discrepancy_check(t, 0.5, 1.0, 1.0, [([1, 2], [1, 2], [1, 2])])
        assert rep.trials[0].mu_bar == 4.0

    @pytest.mark.parametrize("count", [0, -1])
    def test_family_count_below_one_rejected(self, count):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        with pytest.raises(ValueError, match="count must be >= 1"):
            discrepancy_check(t, 0.5, 1.0, 1.0, count)

    def test_integral_family_count(self):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        want = discrepancy_check(t, 0.5, 1.0, 1.0, 5, SeedSpec(2, 0)).trials
        for count in (np.int64(5), np.int32(5), np.uint8(5)):
            assert discrepancy_check(t, 0.5, 1.0, 1.0, count, SeedSpec(2, 0)).trials == want
        with pytest.raises(ValueError, match="count must be >= 1"):
            discrepancy_check(t, 0.5, 1.0, 1.0, np.int64(0))

    def test_empty_family_list_rejected(self):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        with pytest.raises(ValueError, match="at least one family"):
            discrepancy_check(t, 0.5, 1.0, 1.0, [])

    @pytest.mark.parametrize("p", [0.0, -0.2, 1.5])
    def test_p_outside_unit_interval_rejected(self, p):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\]"):
            discrepancy_check(t, p, 1.0, 1.0, 10)
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\]"):
            bounded_degree_check(t, p, 3.0)

    def test_explicit_families_validated(self):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        ok = ([1], [2], [3])
        cases = [(([1], [2]), "expected 3 subsets, got 2"),
                 (([1], [], [3]), "index sets must be nonempty"),
                 (([1], [7], [3]), r"lie in \[1, 6\]")]
        for bad, msg in cases:
            with pytest.raises(ValueError, match=msg):
                discrepancy_check(t, 0.5, 1.0, 1.0, [ok, bad, ok])

    def test_explicit_and_sampled_families_agree(self):
        from tensorconc import sample_subset_families

        t = bernoulli_sample(TensorShape(3, 30), Homogeneous(0.3), SeedSpec(65, 0))
        fams = sample_subset_families(3, 30, 300, SeedSpec(65, 1))
        listed = discrepancy_check(t, 0.3, 2.0, 2.0, [[s.tolist() for s in f] for f in fams])
        sampled = discrepancy_check(t, 0.3, 2.0, 2.0, 300, SeedSpec(65, 1))
        assert listed.trials == sampled.trials


class TestDyadicProfile:
    def test_uniform_vector_single_class(self):
        n = 16
        ys = VectorTuple.uniform(3, n)
        t = SparseTensor.empty(TensorShape(3, n))
        prof = dyadic_profile(ys, 0.5, t, 0.1)
        for mode in (1, 2, 3):
            levels = [s for (j, s) in prof.classes if j == mode]
            assert levels == [2]
            assert len(prof.classes[(mode, 2)]) == n

    def test_alpha_sum_bound(self, rng):
        n = 20
        t = SparseTensor.empty(TensorShape(3, n))
        for _ in range(10):
            ys = [v / np.linalg.norm(v) for v in rng.standard_normal((3, n))]
            prof = dyadic_profile(ys, 0.5, t, 0.2)
            for mode in (1, 2, 3):
                total = sum(a for (j, s), a in prof.alpha.items() if j == mode)
                assert total <= (2 / 0.5) ** 2 + 1e-9

    def test_zero_vector_no_classes(self):
        n = 8
        ys = [np.zeros(n)] * 3
        prof = dyadic_profile(ys, 0.5, SparseTensor.empty(TensorShape(3, n)), 0.2)
        assert prof.classes == {} and prof.tuples == []

    def test_tuple_statistics_consistent(self, rng):
        from tensorconc import count_edges

        n, p = 12, 0.3
        t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(65, 0))
        ys = [np.abs(v) / np.linalg.norm(v) for v in rng.standard_normal((3, n))]
        prof = dyadic_profile(ys, 0.5, t, p)
        assert prof.tuples
        for rec in prof.tuples:
            fam = [prof.classes[(j + 1, rec.levels[j])] for j in range(3)]
            assert rec.e == count_edges(t, fam)
            mu = p * np.prod([len(f) for f in fam])
            assert rec.mu_bar == pytest.approx(mu)
            expect_sigma = rec.lam * n ** 0.5 * math.sqrt(n * p) * 2.0 ** (-sum(rec.levels))
            assert rec.sigma == pytest.approx(expect_sigma)

    def test_classes_partition_qualifying_indices(self, rng):
        n = 15
        ys = [v / np.linalg.norm(v) for v in rng.standard_normal((3, n))]
        prof = dyadic_profile(ys, 0.5, SparseTensor.empty(TensorShape(3, n)), 0.2)
        base = 0.5 / math.sqrt(n)
        for mode in (1, 2, 3):
            members = np.concatenate(
                [prof.classes[(j, s)] for (j, s) in prof.classes if j == mode] or [np.array([])]
            )
            expected = np.flatnonzero(ys[mode - 1] >= base) + 1
            assert sorted(members.tolist()) == sorted(expected.tolist())
            assert len(members) == len(set(members.tolist()))


class TestKLBernoulli:
    def test_equal_models_zero(self):
        rec = kl_bernoulli(Homogeneous(0.4), Homogeneous(0.4), 0.2, 0.8)
        assert rec.kl == 0.0 and rec.within

    def test_hand_value(self):
        rec = kl_bernoulli(Homogeneous(0.5), Homogeneous(0.25), 0.2, 0.8)
        assert rec.kl == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)

    def test_bound_monte_carlo(self, rng):
        for _ in range(100):
            a = rng.uniform(0.2, 0.8, size=(2, 2))
            b = rng.uniform(0.2, 0.8, size=(2, 2))
            rec = kl_bernoulli(DenseProbability(a), DenseProbability(b), 0.2, 0.8)
            assert rec.within
            assert rec.kl >= -1e-12

    def test_degenerate_prime_infinite(self):
        rec = kl_bernoulli(Homogeneous(0.5), Homogeneous(0.0), 0.0, 1.0)
        assert rec.kl == math.inf

    def test_range_validation(self):
        with pytest.raises(ValueError):
            kl_bernoulli(Homogeneous(0.5), Homogeneous(0.5), 0.8, 0.2)
        with pytest.raises(ValueError):
            kl_bernoulli(Homogeneous(0.9), Homogeneous(0.5), 0.2, 0.8)

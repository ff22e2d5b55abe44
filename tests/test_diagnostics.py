import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_sparse
from oracles import brute_heavy_tuples, dense_count_edges, reference_light_sum, reference_split_tuples
from tensorconc import (
    DenseProbability,
    Homogeneous,
    PowerIterConfig,
    SeedSpec,
    ShapeMismatchError,
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
    @pytest.mark.parametrize("ys,n", [([], 4), ([np.ones(0)], 0)])
    def test_degenerate_input_rejected(self, ys, n):
        with pytest.raises(ValueError, match="at least one vector of length n >= 1"):
            split_tuples(ys, n, 0.5)

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

    def test_is_heavy_needs_integers(self):
        e1 = np.eye(1, 5)[0]
        split = split_tuples([e1, e1, e1], 5, 0.5)
        assert split.is_heavy(np.ones(3, dtype=np.int64))
        # 1.9 would truncate to the heavy (1, 1, 1)
        with pytest.raises(TypeError, match="integers"):
            split.is_heavy((1.9, 1.2, 1.0))

    @pytest.mark.parametrize("coord", [(1,), (1, 1), (1, 1, 1, 1), [[1, 1, 1], [2, 2, 2]], 1])
    def test_is_heavy_wrong_shape_rejected(self, coord):
        # by broadcasting, (1,) and a stack holding (1, 1, 1) both read as heavy
        e1 = np.eye(1, 4)[0]
        for split in (split_tuples([e1, e1, e1], 4, 0.5), split_tuples(VectorTuple.uniform(3, 4), 4, 1.0)):
            with pytest.raises(ValueError, match="shape"):
                split.is_heavy(coord)

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


def _frontier_cases():
    """(ys, n, p) over k = 2..4: Gaussian unit, scaled, sparse and tied
    vectors, a zero vector, vectors too small for any heavy tuple, and
    VectorTuple inputs."""
    gen = np.random.default_rng(2026)
    for case in range(150):
        k = 2 + case % 3
        n = int(gen.integers(1, (10, 24, 40)[4 - k]))
        p = float(gen.uniform(0.02, 1.0))
        ys = [v / (np.linalg.norm(v) or 1.0) for v in gen.standard_normal((k, n))]
        kind = case // 3 % 6
        if kind == 1:
            ys = [v * gen.uniform(0.5, 4.0) for v in ys]
        elif kind == 2:
            ys = [np.where(gen.random(n) < 0.6, 0.0, v * 2.0) for v in ys]
        elif kind == 3:
            ys = [gen.choice([-0.5, -0.25, 0.25, 0.5, 1.0], n) for _ in range(k)]
        elif kind == 4:
            ys[int(gen.integers(k))] = np.zeros(n)
        elif kind == 5:
            ys = [v * 1e-3 for v in ys]
        yield (VectorTuple(ys) if case % 2 else ys), n, p


def _split_bits(coords, products, light, heavy):
    return (coords.dtype, coords.shape, coords.tobytes(), products.dtype, products.tobytes(),
            float(light).hex(), float(heavy).hex())


class TestFrontierMatchesReference:
    def test_split_bytes(self):
        seen = set()
        for ys, n, p in _frontier_cases():
            split = split_tuples(ys, n, p)
            got = _split_bits(split.heavy_coords, split.heavy_products,
                              split.light_contribution, split.heavy_contribution)
            assert got == _split_bits(*reference_split_tuples(ys, n, p))
            seen.add(min(split.heavy_count, 2))
        assert seen == {0, 1, 2}

    def test_nan_entries(self):
        # NaN sorts last and is never pruned: the search stops before it at
        # 0.01, which is pruned, but reaches it after 0.9, which is kept
        for y0 in ([1.0, 0.01, np.nan], [1.0, 0.9, np.nan]):
            ys = [np.array(y0), np.array([1.0, 0.5, 0.01])]
            split = split_tuples(ys, 3, 0.3)
            got = _split_bits(split.heavy_coords, split.heavy_products,
                              split.light_contribution, split.heavy_contribution)
            assert got == _split_bits(*reference_split_tuples(ys, 3, 0.3))

    def test_special_values_and_spikes(self):
        # infinities, NaNs, zeros, spikes and products that overflow or
        # underflow; a product of two NaNs may carry either NaN's sign bit
        # (array and scalar multiplies propagate different operands), so
        # NaN products are compared as NaN
        gen = np.random.default_rng(2029)
        special = [np.nan, np.inf, -np.inf, 0.0, 5e-324, 1e-300, 1e300, 0.5, 1.0, -1.0]
        for case in range(400):
            k = 1 + case % 4
            n = int(gen.integers(1, (60, 40, 14, 7)[k - 1]))
            p = float(gen.choice([1e-6, 0.01, 0.3, 1.0]))
            ys = []
            for _ in range(k):
                kind = int(gen.integers(4))
                if kind == 0:
                    y = gen.choice(special, n)
                elif kind == 1:
                    y = np.zeros(n)
                    y[gen.integers(n)] = gen.choice([1.0, -3.0, 1e-200, 1e200])
                elif kind == 2:
                    y = gen.standard_normal(n) * 10.0 ** int(gen.integers(-160, 160))
                else:
                    y = np.full(n, n**-0.5)
                ys.append(y)
            with np.errstate(over="ignore", invalid="ignore"):
                split = split_tuples(ys, n, p)
                coords, products, light, heavy = reference_split_tuples(ys, n, p)
            got = _split_bits(split.heavy_coords, np.where(np.isnan(split.heavy_products), np.nan,
                                                           split.heavy_products),
                              split.light_contribution, split.heavy_contribution)
            assert got == _split_bits(coords, np.where(np.isnan(products), np.nan, products), light, heavy)

    def test_memory_follows_output(self):
        # every prefix of (u, u) is heavy and each keeps one entry of e_1:
        # n^2 heavy tuples, where a frontier that multiplied out whole rows
        # would hold n^3 products at once
        n = 160
        u, e1 = np.full(n, n**-0.5), np.eye(1, n, 0)[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            split = split_tuples([u, u, e1], n, 1 / (4 * n))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert split.heavy_count == n * n and np.all(split.heavy_coords[:, 2] == 1)
        assert peak < 10 * (split.heavy_coords.nbytes + split.heavy_products.nbytes)

    def test_generator_input(self):
        gen = np.random.default_rng(2030)
        ys = [v / np.linalg.norm(v) for v in gen.standard_normal((3, 12))]
        t = random_sparse(gen, 3, 12, density=0.4, values="normal")
        split = split_tuples((y for y in ys), 12, 0.05)
        assert split.heavy_count > 0
        assert _split_bits(split.heavy_coords, split.heavy_products, split.light_contribution,
                           split.heavy_contribution) == _split_bits(*reference_split_tuples(ys, 12, 0.05))
        rec = light_contribution_check(t, (y for y in ys), 0.05, 6.0)
        assert rec == light_contribution_check(t, ys, 0.05, 6.0)

    def test_light_contribution_bytes(self):
        gen = np.random.default_rng(2027)
        for case, (ys, n, p) in enumerate(_frontier_cases()):
            k = len(ys)
            if case % 4 == 3:
                t = SparseTensor.empty(TensorShape(k, n))
            else:
                t = random_sparse(gen, k, n, density=float(gen.uniform(0.05, 0.9)), values="normal")
            w = center(t, Homogeneous(p)) if case % 3 else t
            rec = light_contribution_check(w, ys, p, 6.0)
            light, heavy_count = reference_light_sum(w, ys, p)
            assert (rec.light_sum.hex(), rec.heavy_count) == (light.hex(), heavy_count)
            assert rec.ratio.hex() == (abs(light) / math.sqrt(n * p)).hex()

    def test_wrong_length_vector_is_a_value_error(self):
        with pytest.raises(ValueError, match="length n = 5") as info:
            split_tuples([np.ones(5), np.ones(4)], 5, 0.5)
        assert isinstance(info.value, ShapeMismatchError)
        w = SparseTensor.empty(TensorShape(2, 5))
        with pytest.raises(ValueError, match="length n = 5"):
            light_contribution_check(w, [np.ones(5), np.ones(6)], 0.5, 6.0)


DYADIC_DIGEST = "230110fee029a801"


def _dyadic_digest() -> str:
    """sha256 (first 16 hex digits) of ``dyadic_profile`` over random cases,
    list and VectorTuple inputs alike."""
    gen = np.random.default_rng(2028)
    h = hashlib.sha256()
    for case in range(30):
        k, n = 2 + case % 2, int(gen.integers(2, 30))
        p = float(gen.uniform(0.05, 0.9))
        t = bernoulli_sample(TensorShape(k, n), Homogeneous(p), SeedSpec(2028, case))
        ys = [np.abs(v) / np.linalg.norm(v) for v in gen.standard_normal((k, n))]
        prof = dyadic_profile(VectorTuple(ys) if case % 2 else ys, float(gen.uniform(0.1, 0.9)), t, p)
        for key in sorted(prof.classes):
            h.update(repr(key).encode() + prof.classes[key].tobytes() + prof.alpha[key].hex().encode())
        for name in ("levels", "sizes", "e", "mu_bar", "lam", "sigma"):
            h.update(getattr(prof, name).tobytes())
    return h.hexdigest()[:16]


def test_dyadic_profile_bytes_unchanged():
    # recorded before dyadic_profile read its vectors with core._vectors_of
    assert _dyadic_digest() == DYADIC_DIGEST


class TestLightContribution:
    def test_deterministic_tensor_centered_to_zero(self, rng):
        t = random_sparse(rng, 2, 4, values="binary")
        w = center(t, DenseProbability(t.to_dense()))
        ys = [v / np.linalg.norm(v) for v in rng.standard_normal((2, 4))]
        rec = light_contribution_check(w, ys, 0.5, 6.0)
        assert rec.light_sum == pytest.approx(0.0, abs=1e-12)

    def test_bernstein_scale(self):
        n, p = 50, 0.2
        gen = np.random.default_rng(7)
        ys = [v / np.linalg.norm(v) for v in gen.standard_normal((2, n))]
        worst = 0.0
        for s in range(100):
            t = bernoulli_sample(TensorShape(2, n), Homogeneous(p), SeedSpec(500, s))
            w = center(t, Homogeneous(p))
            rec = light_contribution_check(w, ys, p, 6.0)
            worst = max(worst, rec.ratio)
            assert rec.within
        assert worst < 6.0

    def test_sign_flip_invariance(self, rng):
        n, p = 6, 0.3
        t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(501, 0))
        w = center(t, Homogeneous(p))
        ys = [v / np.linalg.norm(v) for v in rng.standard_normal((3, n))]
        base = light_contribution_check(w, ys, p, 6.0)
        flipped = [ys[0], -ys[1], ys[2]]
        assert light_contribution_check(w, flipped, p, 6.0).ratio == pytest.approx(
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


_DISCREPANCY_ROWS = ("sizes", "e", "mu_bar", "lam", "case1", "case2")


def _same_rows(a, b, names):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


class TestDiscrepancy:
    def test_full_tensor_case1(self):
        j = SparseTensor.all_ones(TensorShape(3, 5))
        rep = discrepancy_check(j, 1.0, 1.0, 1.0, 50, SeedSpec(61, 0))
        assert rep.within
        assert rep.case1.shape == (50,) and rep.case1.all()
        assert rep.lam == pytest.approx(np.ones(50))

    def test_empty_tensor_case2(self):
        z = SparseTensor.empty(TensorShape(3, 5))
        rep = discrepancy_check(z, 0.5, 1.5, 1.5, 30, SeedSpec(62, 0))
        assert rep.within
        assert rep.case2.shape == (30,) and rep.case2.all()

    def test_every_case2_branch(self):
        # ones on {1,2,3}^3: the families reach e = 0, 0 < lam <= 1, |I_k| = n
        # (zero denominator), case 1 failing alone, and both cases failing
        n, p, c2, c3 = 6, 0.25, 1.0, 2.0
        dense = np.zeros((n,) * 3)
        dense[:3, :3, :3] = 1.0
        t = SparseTensor.from_dense(dense)
        fams = [([4], [5], [6]), ([1, 4, 5, 6], [1], [1]), ([1], [2], list(range(1, n + 1))),
                ([1], [2], [3]), ([1, 2], [1, 2, 3], [1, 2]), ([1, 2, 3], [2, 3], [6])]
        rep = discrepancy_check(t, p, c2, c3, fams)
        need_c2 = need_c3 = 0.0
        for f, fam in enumerate(fams):
            fam = sorted(fam, key=len)
            sizes = [len(s) for s in fam]
            e = dense_count_edges(dense, [np.array(s) for s in fam])
            mu_bar = p * sizes[0] * sizes[1] * sizes[2]
            lam = e / mu_bar
            case1 = lam <= math.e * c2
            if e == 0 or e * math.log(lam) <= 0:
                case2, ratio2 = True, 0.0
            else:
                denom = sizes[-1] * math.log(n / sizes[-1])
                case2 = e * math.log(lam) <= c3 * denom
                ratio2 = e * math.log(lam) / denom if denom > 0 else math.inf
            assert rep.sizes[f].tolist() == sizes
            assert (rep.e[f], rep.mu_bar[f], rep.lam[f]) == (e, mu_bar, lam)
            assert (rep.case1[f], rep.case2[f]) == (case1, case2)
            if not case2:
                need_c2 = max(need_c2, lam / math.e)
            if not case1:
                need_c3 = max(need_c3, ratio2)
        assert rep.e.tolist() == [0.0, 1.0, 3.0, 1.0, 12.0, 0.0]
        assert rep.lam[1] == 1.0 and rep.sizes[2, -1] == n
        assert rep.case1.tolist() == [True, True, True, False, False, True]
        assert rep.case2.tolist() == [True, True, False, True, False, True]
        assert rep.violations == 1 and isinstance(rep.violations, int)
        assert rep.fitted_c2 == need_c2 == 4.0 / math.e
        assert rep.fitted_c3 == need_c3 == 12 * math.log(4.0) / (3 * math.log(2.0))
        assert type(rep.fitted_c2) is float and type(rep.fitted_c3) is float
        # with case 1 failing too, |I_k| = n needs c3 = inf, and lam = 1 none
        full = list(range(1, n + 1))
        assert discrepancy_check(t, p, 0.3, c3, [fams[2]]).fitted_c3 == math.inf
        assert discrepancy_check(t, p, 0.3, c3, [([1, 4], [1], full)]).fitted_c3 == 0.0

    @pytest.mark.parametrize("packed", [True, False])
    @pytest.mark.parametrize("k,n", [(3, 7), (4, 5)])
    def test_sets_counted_in_size_order(self, k, n, packed, monkeypatch):
        # a non-symmetric tensor tells modes apart: each family's sets must be
        # counted in size order, ties in the order given
        from tensorconc import hypergraph, sample_subset_families

        if not packed:
            monkeypatch.setattr(hypergraph, "_PACKED_BITS", 0)
        p = 0.4
        t = bernoulli_sample(TensorShape(k, n), Homogeneous(p), SeedSpec(66, k))
        dense = t.to_dense()
        gen = np.random.default_rng(67 + k)
        fams = []
        for f in range(60):
            sizes = gen.integers(1, n + 1, size=k)
            if f % 2:
                sizes[gen.permutation(k)[:2]] = sizes[0]  # a tie
            fams.append(tuple(gen.permutation(n)[:s] + 1 for s in sizes))
        sampled = sample_subset_families(k, n, 60, SeedSpec(68, k))
        for given, rep in [(fams, discrepancy_check(t, p, 2.0, 2.0, fams)),
                           (sampled, discrepancy_check(t, p, 2.0, 2.0, 60, SeedSpec(68, k)))]:
            for f, fam in enumerate(given):
                fam = sorted(fam, key=len)
                assert rep.sizes[f].tolist() == [len(s) for s in fam]
                assert rep.e[f] == dense_count_edges(dense, fam)
        assert len({tuple(sorted(map(len, fam))) != tuple(map(len, fam)) for fam in fams}) == 2

    def test_non_integer_members_rejected(self):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        with pytest.raises(TypeError, match="integers"):
            discrepancy_check(t, 0.5, 1.0, 1.0, [[[1.7], [2.2], [3.9]]])

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
        assert rep.mu_bar.tolist() == [4.0]

    @pytest.mark.parametrize("count", [0, -1])
    def test_family_count_below_one_rejected(self, count):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        with pytest.raises(ValueError, match="count must be >= 1"):
            discrepancy_check(t, 0.5, 1.0, 1.0, count)

    def test_integral_family_count(self):
        t = bernoulli_sample(TensorShape(3, 6), Homogeneous(0.5), SeedSpec(1, 0))
        want = discrepancy_check(t, 0.5, 1.0, 1.0, 5, SeedSpec(2, 0))
        assert want.e.shape == (5,)
        for count in (np.int64(5), np.int32(5), np.uint8(5)):
            got = discrepancy_check(t, 0.5, 1.0, 1.0, count, SeedSpec(2, 0))
            assert _same_rows(got, want, _DISCREPANCY_ROWS)
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
        assert _same_rows(listed, sampled, _DISCREPANCY_ROWS)


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
        assert prof.classes == {}
        assert prof.levels.shape == prof.sizes.shape == (0, 3) and prof.sigma.shape == (0,)

    def test_tuple_statistics_consistent(self, rng):
        from tensorconc import count_edges

        n, p = 12, 0.3
        t = bernoulli_sample(TensorShape(3, n), Homogeneous(p), SeedSpec(65, 0))
        ys = [np.abs(v) / np.linalg.norm(v) for v in rng.standard_normal((3, n))]
        prof = dyadic_profile(ys, 0.5, t, p)
        assert prof.levels.shape[0] > 0
        for f, levels in enumerate(prof.levels.tolist()):
            fam = [prof.classes[(j + 1, levels[j])] for j in range(3)]
            assert prof.sizes[f].tolist() == [len(s) for s in fam]
            assert prof.e[f] == count_edges(t, fam)
            mu = p * np.prod([len(s) for s in fam])
            assert prof.mu_bar[f] == pytest.approx(mu)
            assert prof.lam[f] == prof.e[f] / prof.mu_bar[f]
            expect_sigma = prof.lam[f] * n ** 0.5 * math.sqrt(n * p) * 2.0 ** (-sum(levels))
            assert prof.sigma[f] == pytest.approx(expect_sigma)

    def test_wrong_length_vector_rejected(self):
        t = SparseTensor.empty(TensorShape(3, 8))
        for length in (12, 7):
            ys = [np.full(length, 0.3), np.full(8, 0.3), np.full(8, 0.3)]
            with pytest.raises(ValueError, match="length n"):
                dyadic_profile(ys, 0.5, t, 0.2)

    @pytest.mark.parametrize("n,delta", [(64, 0.5), (40, 0.3)])
    def test_class_edges_exact(self, n, delta):
        # each edge 2^(s-1) d/sqrt(n) and one ulp either side of it: class s is
        # [edge_s, edge_{s+1}), decided exactly
        from fractions import Fraction

        base = delta / math.sqrt(n)
        smax = math.ceil(math.log2(math.sqrt(n) / delta))
        edges = [math.ldexp(base, s - 1) for s in range(1, smax + 1)]
        values = [v for edge in edges for v in (np.nextafter(edge, 0), edge, np.nextafter(edge, 2))]
        assert len(values) <= n
        y = np.zeros(n)
        y[:len(values)] = values
        prof = dyadic_profile([y, np.ones(n), np.ones(n)], delta, SparseTensor.empty(TensorShape(3, n)), 0.2)
        got = {int(i): s for (j, s), members in prof.classes.items() if j == 1 for i in members}
        for i, v in enumerate(values, start=1):
            want = sum(Fraction(v) >= Fraction(base) * 2 ** (s - 1) for s in range(1, smax + 1))
            assert got.get(i, 0) == want
        if n == 64:  # just under 1/2 = 2^3 base lies in class 3
            assert got[len(values) - 1] == 4 and got[len(values) - 2] == 3

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

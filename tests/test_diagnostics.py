import dataclasses
import math

import numpy as np
import pytest

from conftest import COPIERS, assert_equal_copy
from oracles import dense_count_edges
from tensorconc import (
    DenseProbability,
    Homogeneous,
    Hypergraph,
    SeedSpec,
    ShapeMismatchError,
    SparseTensor,
    SubsetFamilies,
    TensorShape,
    adjacency,
    bernoulli_sample,
    bounded_degree_check,
    degree_map,
    discrepancy_check,
    er_hypergraph,
    kl_bernoulli,
    matrix_mixing_check,
    mixing_check,
    regularize,
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

    def test_e_counts_the_size_ordered_family(self):
        # ({1, 2, 3}, {4}) as listed holds all three entries (i, 4); moved to
        # size order it is ({4}, {1, 2, 3}), which holds none
        from tensorconc import count_edges

        t = SparseTensor(TensorShape(2, 4), [[1, 4], [2, 4], [3, 4]], [1.0, 1.0, 1.0])
        fam = (np.array([1, 2, 3]), np.array([4]))
        rep = discrepancy_check(t, 0.5, 2.0, 2.0, [fam])
        assert rep.sizes.tolist() == [[1, 3]]
        assert count_edges(t, fam) == 3
        assert rep.e.tolist() == [count_edges(t, fam[::-1])] == [0.0]

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

    # equal sizes once compared entry by entry; unequal ones failed to broadcast
    @pytest.mark.parametrize("shape, other", [((4, 4), (2, 2, 2, 2)), ((2, 2), (3, 3))])
    def test_tables_of_different_shapes_rejected(self, shape, other):
        with pytest.raises(ShapeMismatchError):
            kl_bernoulli(DenseProbability(np.full(shape, 0.3)),
                         DenseProbability(np.full(other, 0.5)), 0.2, 0.8)

    def test_homogeneous_broadcasts_against_a_table(self, rng):
        table = rng.uniform(0.2, 0.8, size=(3, 3, 3))
        for pair in ((table, np.full_like(table, 0.5)), (np.full_like(table, 0.5), table)):
            want = kl_bernoulli(*(DenseProbability(x) for x in pair), 0.2, 0.8)
            got = kl_bernoulli(*(DenseProbability(x) if x is table else Homogeneous(0.5)
                                 for x in pair), 0.2, 0.8)
            assert got == want

    def test_degenerate_prime_infinite(self):
        rec = kl_bernoulli(Homogeneous(0.5), Homogeneous(0.0), 0.0, 1.0)
        assert rec.kl == math.inf

    def test_range_validation(self):
        with pytest.raises(ValueError):
            kl_bernoulli(Homogeneous(0.5), Homogeneous(0.5), 0.8, 0.2)
        with pytest.raises(ValueError):
            kl_bernoulli(Homogeneous(0.9), Homogeneous(0.5), 0.2, 0.8)


def _graph():
    return adjacency(er_hypergraph(3, 8, 0.3, SeedSpec(1, 0)))


# Each result that holds arrays, built by its check, and a value it reports.
_REPORTS = {
    "mixing": (lambda: mixing_check(_graph(), 0.3, SubsetFamilies.sampled(5), SeedSpec(1, 0)),
               "max_ratio"),
    "matrix_mixing": (lambda: matrix_mixing_check(Hypergraph(2, 6, [[1, 2], [3, 4], [5, 6]]), 1, 5,
                                                  SeedSpec(1, 0)), "max_margin"),
    "discrepancy": (lambda: discrepancy_check(_graph(), 0.3, 1.0, 1.0, 20, SeedSpec(1, 0)),
                    "violations"),
    "degree_map": (lambda: degree_map(_graph(), 1), "max_degree"),
    "regularization": (lambda: regularize(_graph(), 2, 0.05), "removed_count"),
}


class TestReadOnlyReports:
    """A check's result keeps the arrays it computed: built, pickled or copied,
    each array refuses assignment, so what is read from it cannot move."""

    @pytest.mark.parametrize("copier", [lambda x: x, *COPIERS.values()], ids=["built", *COPIERS])
    @pytest.mark.parametrize("name", _REPORTS)
    def test_arrays_refuse_assignment(self, name, copier):
        make, read = _REPORTS[name]
        report = make()
        before = getattr(report, read)
        copied = copier(report)
        assert_equal_copy(report, copied, by_eq=False)
        arrays = [getattr(copied, f.name) for f in dataclasses.fields(copied)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert arrays
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 1e9
        assert getattr(copied, read) == before

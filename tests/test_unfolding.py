import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COPIERS, assert_equal_copy, random_sparse
from oracles import reference_phi_array, set_partitions
from tensorconc import (
    Homogeneous,
    Partition,
    SeedSpec,
    SparseTensor,
    TensorShape,
    balanced_partition,
    bernoulli_sample,
    center,
    frobenius_norm,
    hopm_lower,
    matrix_op_norm,
    phi_array,
    unfold,
)
from tensorconc.spectral import PowerIterConfig


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            Partition([[1], []])  # empty block
        with pytest.raises(ValueError):
            Partition([[1], [3]])  # gap
        assert Partition([[2, 1], [3]]).blocks == ((1, 2), (3,))

    @pytest.mark.parametrize("member", [1.5, 1.0, "1"])
    def test_non_integer_member_rejected(self, member):
        with pytest.raises(TypeError):
            Partition([[member, 3], [2]])

    def test_numpy_integer_members(self):
        p = Partition([[np.int64(3), np.int32(1)], [np.uint8(2)]])
        assert p.blocks == ((1, 3), (2,)) and all(type(i) is int for b in p.blocks for i in b)

    def test_json_roundtrip(self):
        p = Partition([[1, 3], [2]])
        assert Partition(json.loads(json.dumps(p.blocks))) == p

    def test_pickle_roundtrip(self):
        p = Partition([[1, 3], [2]])
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.order == 3
        with pytest.raises(AttributeError):
            q.order = 4

    def test_equal_partitions_hash_equal(self):
        p, q = Partition([[3, 1], [2]]), Partition(((1, 3), (2,)))
        assert p == q and hash(p) == hash(q) and p != Partition([[2], [1, 3]])
        seen = {p: "a"}
        assert seen[q] == "a" and len({p, q, balanced_partition(3, 1)}) == 2

    @pytest.mark.parametrize("name", ["order", "blocks"])
    def test_frozen(self, name):
        p = Partition([[1, 3], [2]])
        with pytest.raises(AttributeError):
            setattr(p, name, 4)
        assert p.blocks == ((1, 3), (2,)) and p.order == 3

    def test_repr(self):
        assert repr(Partition([[3, 1], [2]])) == "Partition([[1, 3], [2]])"
        assert repr(balanced_partition(4, 2)) == "Partition([[1, 2], [3, 4]])"


class TestChecks:
    """Each input check raises its own exception and message."""

    def test_unfold_wrong_order(self):
        t = SparseTensor.all_ones(TensorShape(3, 2))
        with pytest.raises(ValueError, match="^partition of \\[4\\] cannot unfold an order-3 tensor$"):
            unfold(t, balanced_partition(4, 2))


class TestPhi:
    def test_all_ones_coordinate(self):
        p = Partition([[1, 2], [3]])
        assert phi_array(p, np.array([[1, 1, 1]]), 2).tolist() == [[1, 1]]

    def test_hand_example(self):
        p = Partition([[1, 2], [3]])
        assert phi_array(p, np.array([[2, 1, 2]]), 2).tolist() == [[2, 2]]

    def test_exhaustive_bijection_small(self):
        p = Partition([[1, 2], [3]])
        images = phi_array(p, np.array(list(itertools.product((1, 2), repeat=3))), 2)
        assert set(map(tuple, images.tolist())) == set(itertools.product(range(1, 5), range(1, 3)))

    def test_sides_past_int64_rejected(self):
        n = 2**30  # a three-mode block has n^3 = 2^90 indices
        part = Partition([[1, 2, 3], [4]])
        with pytest.raises(ValueError, match="not all below 2"):
            phi_array(part, np.array([[n, n, n, 1]]), n)
        t = SparseTensor(TensorShape(4, n), [[n, n, n, 1]], [1.0])
        with pytest.raises(ValueError, match="not all below 2"):
            unfold(t, part).coords
        assert phi_array(Partition([[1, 2], [3]]), np.array([[n, n, n]]), n).tolist() == [[2**60, n]]

    def test_bijectivity_all_partitions_k_to_5(self):
        n = 3
        for k in range(2, 6):
            for blocks in set_partitions(k):
                part = Partition(blocks)
                u = phi_array(part, np.array(list(itertools.product(range(1, n + 1), repeat=k))), n)
                assert np.all((1 <= u) & (u <= np.array(part.dims(n))))
                assert len(set(map(tuple, u.tolist()))) == n**k

    def test_phi_array_matches_strides_reference(self, rng):
        # random partitions of [k], k <= 6, blocks shuffled so that most are
        # not contiguous, on random coordinates (none, one or many rows)
        for _ in range(300):
            k, n = int(rng.integers(2, 7)), int(rng.integers(1, 9))
            cuts = np.sort(rng.choice(np.arange(1, k), size=int(rng.integers(0, k)), replace=False))
            part = Partition(np.split(rng.permutation(np.arange(1, k + 1)), cuts))
            coords = rng.integers(1, n + 1, size=(int(rng.integers(0, 20)), k), dtype=np.int32)
            got = phi_array(part, coords, n)
            want = reference_phi_array(part, coords, n)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.shape == want.shape and np.array_equal(got, want), part
        big = Partition([[3, 1], [2]])
        coords = np.array([[2**20, 5, 2**20 - 1], [1, 1, 1]], dtype=np.int64)
        assert np.array_equal(phi_array(big, coords, 2**20),
                              reference_phi_array(big, coords, 2**20))


class TestBalancedAndMultiway:
    def test_balanced_examples(self):
        assert balanced_partition(4, 2).blocks == ((1, 2), (3, 4))
        assert balanced_partition(2, 1).blocks == ((1,), (2,))
        assert balanced_partition(5, 3).blocks == ((1, 2), (3, 4, 5))

    def test_balanced_m_range(self):
        with pytest.raises(ValueError):
            balanced_partition(3, 0)
        with pytest.raises(ValueError):
            balanced_partition(3, 3)


class TestUnfold:
    def test_all_ones_to_matrix(self):
        j = SparseTensor.all_ones(TensorShape(3, 2))
        view = unfold(j, Partition([[1, 2], [3]]))
        assert view.dims == (4, 2)
        coords, values = view.canonical_entries()
        assert coords.shape == (8, 2)
        assert np.all(values == 1.0)
        assert {tuple(c) for c in coords.tolist()} == set(
            itertools.product(range(1, 5), range(1, 3))
        )

    def test_single_entry_remap(self):
        t = SparseTensor(TensorShape(3, 2), [[2, 1, 2]], [1.0])
        view = unfold(t, Partition([[1, 2], [3]]))
        assert view.coords.tolist() == [[2, 2]]
        coords, values = view.canonical_entries()
        assert coords.dtype == np.int64 and coords.tolist() == [[2, 2]] and values.tolist() == [1.0]

    def test_no_entries_canonical(self):
        view = unfold(SparseTensor.empty(TensorShape(3, 2)), Partition([[1, 2], [3]]))
        coords, values = view.canonical_entries()
        assert coords.dtype == np.int64 and coords.shape == (0, 2)
        assert values.dtype == np.float64 and values.shape == (0,)

    def test_frobenius_preserved_exactly(self, rng):
        for _ in range(10):
            t = random_sparse(rng, 3, 3, values="float")
            view = unfold(t, Partition([[1, 3], [2]]))
            assert np.sqrt(view.frobenius_sq()) == frobenius_norm(t)

    def test_background_carries_over(self):
        t = center(SparseTensor.all_ones(TensorShape(3, 2)), Homogeneous(0.5))
        view = unfold(t, balanced_partition(3, 1))
        assert view.background == -0.5
        assert np.sqrt(view.frobenius_sq()) == pytest.approx(frobenius_norm(t), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_unfold_bijection_property(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        all_parts = list(set_partitions(k))
        part = Partition(all_parts[int(rng.integers(0, len(all_parts)))])
        t = random_sparse(rng, k, 2, values="float")
        view = unfold(t, part)
        coords, values = view.canonical_entries()
        assert len({tuple(c) for c in coords.tolist()}) == t.nnz
        assert sorted(values.tolist()) == sorted(t.values.tolist())

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
    def test_view_copies(self, copier):
        t = center(bernoulli_sample(TensorShape(3, 5), Homogeneous(0.3), SeedSpec(2, 0)),
                   Homogeneous(0.3))
        view = unfold(t, balanced_partition(3, 1))
        assert_equal_copy(view, copier(view))


class TestSandwichConsistency:
    def test_unfolding_dominates_achieved_form(self):
        # lower estimates never exceed the balanced-unfolding matrix norm
        cfg = PowerIterConfig(restarts=6, seed=SeedSpec(3, 0))
        violations = 0
        for s in range(30):
            t = bernoulli_sample(TensorShape(3, 12), Homogeneous(0.25), SeedSpec(60, s))
            w = center(t, Homogeneous(0.25))
            low = hopm_lower(w, cfg).value
            up = matrix_op_norm(unfold(w, balanced_partition(3, 2)), cfg).value
            if low > up + 1e-8:
                violations += 1
        assert violations == 0

"""Unit tests for triple storage and membership structures."""

import numpy as np
import pytest

from repro.kg.triples import TripleSet, TripleStore, encode_triples


def small_store():
    train = TripleSet.from_array(np.array([
        [0, 0, 1], [1, 0, 2], [2, 1, 3], [3, 1, 0], [0, 2, 3],
    ]))
    valid = TripleSet.from_array(np.array([[1, 1, 2]]))
    test = TripleSet.from_array(np.array([[2, 0, 0]]))
    return TripleStore(n_entities=4, n_relations=3, train=train,
                       valid=valid, test=test, name="small")


class TestTripleSet:
    def test_from_array_roundtrip(self):
        arr = np.array([[1, 2, 3], [4, 5, 6]])
        ts = TripleSet.from_array(arr)
        np.testing.assert_array_equal(ts.to_array(), arr)

    def test_length(self):
        assert len(TripleSet.from_array(np.array([[0, 0, 0]]))) == 1

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            TripleSet.from_array(np.array([[1, 2], [3, 4]]))

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            TripleSet(heads=np.array([1, 2]), relations=np.array([0]),
                      tails=np.array([3, 4]))

    def test_2d_column_rejected(self):
        with pytest.raises(ValueError):
            TripleSet(heads=np.array([[1]]), relations=np.array([0]),
                      tails=np.array([3]))

    def test_subset_by_indices(self):
        ts = TripleSet.from_array(np.array([[0, 0, 1], [1, 1, 2], [2, 2, 0]]))
        sub = ts.subset(np.array([2, 0]))
        np.testing.assert_array_equal(sub.to_array(),
                                      [[2, 2, 0], [0, 0, 1]])

    def test_subset_by_mask(self):
        ts = TripleSet.from_array(np.array([[0, 0, 1], [1, 1, 2]]))
        sub = ts.subset(ts.relations == 1)
        assert len(sub) == 1 and sub.heads[0] == 1

    def test_shuffled_is_permutation(self):
        ts = TripleSet.from_array(np.arange(30).reshape(10, 3) % 5)
        shuf = ts.shuffled(np.random.default_rng(0))
        assert sorted(map(tuple, shuf.to_array().tolist())) == \
            sorted(map(tuple, ts.to_array().tolist()))

    def test_sort_by_relation_is_stable(self):
        ts = TripleSet.from_array(np.array(
            [[5, 2, 0], [1, 0, 0], [2, 2, 0], [3, 0, 0]]))
        s = ts.sort_by_relation()
        np.testing.assert_array_equal(s.relations, [0, 0, 2, 2])
        # Stability: original order preserved within a relation.
        np.testing.assert_array_equal(s.heads, [1, 3, 5, 2])


class TestEncodeTriples:
    def test_distinct_triples_distinct_keys(self):
        h = np.array([0, 0, 1, 0])
        r = np.array([0, 1, 0, 0])
        t = np.array([1, 1, 1, 2])
        keys = encode_triples(h, r, t)
        assert len(np.unique(keys)) == 4

    def test_decode_consistency(self):
        """Same triple always maps to the same key."""
        a = encode_triples(np.array([7]), np.array([3]), np.array([9]))
        b = encode_triples(np.array([7]), np.array([3]), np.array([9]))
        assert a[0] == b[0]

    def test_capacity_overflow_rejected(self):
        big = np.array([1 << 22])
        with pytest.raises(ValueError):
            encode_triples(big, np.array([0]), np.array([0]))

    def test_bit_budget_checked(self):
        with pytest.raises(ValueError):
            encode_triples(np.array([0]), np.array([0]), np.array([0]),
                           entity_bits=30, relation_bits=30)


class TestTripleStore:
    def test_out_of_range_entity_rejected(self):
        with pytest.raises(ValueError):
            TripleStore(n_entities=2, n_relations=1,
                        train=TripleSet.from_array(np.array([[0, 0, 5]])),
                        valid=TripleSet.from_array(np.array([[0, 0, 1]])),
                        test=TripleSet.from_array(np.array([[1, 0, 0]])))

    def test_out_of_range_relation_rejected(self):
        with pytest.raises(ValueError):
            TripleStore(n_entities=3, n_relations=1,
                        train=TripleSet.from_array(np.array([[0, 1, 2]])),
                        valid=TripleSet.from_array(np.array([[0, 0, 1]])),
                        test=TripleSet.from_array(np.array([[1, 0, 0]])))

    def test_is_known_finds_every_split(self):
        store = small_store()
        # train, valid, test members respectively
        known = store.is_known(np.array([0, 1, 2]), np.array([0, 1, 0]),
                               np.array([1, 2, 0]))
        assert known.all()

    def test_is_known_rejects_absent(self):
        store = small_store()
        assert not store.is_known(np.array([3]), np.array([2]),
                                  np.array([1]))[0]

    def test_is_known_matches_python_set(self):
        store = small_store()
        truth = {tuple(row) for split in (store.train, store.valid, store.test)
                 for row in split.to_array().tolist()}
        rng = np.random.default_rng(1)
        h = rng.integers(0, 4, 200)
        r = rng.integers(0, 3, 200)
        t = rng.integers(0, 4, 200)
        got = store.is_known(h, r, t)
        expected = np.array([(int(a), int(b), int(c)) in truth
                             for a, b, c in zip(h, r, t)])
        np.testing.assert_array_equal(got, expected)

    def test_summary(self):
        s = small_store().summary()
        assert s["entities"] == 4 and s["train"] == 5


class TestFilterIndex:
    def brute_tails(self, store, h, r):
        facts = {(int(a), int(b), int(c))
                 for split in (store.train, store.valid, store.test)
                 for a, b, c in split.to_array()}
        return sorted(t for (a, b, t) in facts if a == h and b == r)

    def brute_heads(self, store, r, t):
        facts = {(int(a), int(b), int(c))
                 for split in (store.train, store.valid, store.test)
                 for a, b, c in split.to_array()}
        return sorted(h for (h, b, c) in facts if b == r and c == t)

    def test_known_tails_matches_brute_force(self):
        store = small_store()
        index = store.filter_index
        queries = [(h, r) for h in range(4) for r in range(3)]
        h = np.array([q[0] for q in queries])
        r = np.array([q[1] for q in queries])
        rows, members, counts = index.known_tails(h, r)
        for i, (qh, qr) in enumerate(queries):
            got = sorted(members[rows == i].tolist())
            assert got == self.brute_tails(store, qh, qr)
            assert counts[i] == len(got)

    def test_known_heads_matches_brute_force(self):
        store = small_store()
        index = store.filter_index
        queries = [(r, t) for r in range(3) for t in range(4)]
        r = np.array([q[0] for q in queries])
        t = np.array([q[1] for q in queries])
        rows, members, counts = index.known_heads(r, t)
        for i, (qr, qt) in enumerate(queries):
            got = sorted(members[rows == i].tolist())
            assert got == self.brute_heads(store, qr, qt)
            assert counts[i] == len(got)

    def test_random_graph_matches_brute_force(self):
        from repro.kg.datasets import generate_latent_kg
        store = generate_latent_kg(30, 4, 200, seed=7)
        index = store.filter_index
        rng = np.random.default_rng(0)
        h = rng.integers(0, 30, 64)
        r = rng.integers(0, 4, 64)
        rows, members, counts = index.known_tails(h, r)
        for i in range(64):
            got = sorted(members[rows == i].tolist())
            assert got == self.brute_tails(store, int(h[i]), int(r[i]))

    def test_missing_key_yields_empty_list(self):
        store = small_store()
        rows, members, counts = store.filter_index.known_tails(
            np.array([3]), np.array([2]))
        assert len(rows) == 0 and len(members) == 0
        np.testing.assert_array_equal(counts, [0])

    def test_empty_query_batch(self):
        store = small_store()
        rows, members, counts = store.filter_index.known_tails(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert len(rows) == 0 and len(members) == 0 and len(counts) == 0

    def test_cached_on_store(self):
        store = small_store()
        assert store.filter_index is store.filter_index

    def test_counts_deduplicate_across_splits(self):
        """A fact present in two splits must count once."""
        train = TripleSet.from_array(np.array([[0, 0, 1], [0, 0, 2]]))
        valid = TripleSet.from_array(np.array([[0, 0, 1]]))
        test = TripleSet.from_array(np.array([[1, 0, 0]]))
        store = TripleStore(n_entities=3, n_relations=1, train=train,
                            valid=valid, test=test)
        assert store.filter_index.n_triples == 3
        _, members, counts = store.filter_index.known_tails(
            np.array([0]), np.array([0]))
        np.testing.assert_array_equal(np.sort(members), [1, 2])
        np.testing.assert_array_equal(counts, [2])

    def test_nbytes_reported(self):
        store = small_store()
        assert store.filter_index.nbytes > 0

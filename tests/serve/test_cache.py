"""Cache-correctness battery for the serving LRU.

The satellite contract: a hit is bitwise-equal to the cold miss that
filled it, eviction order is exact under a scripted access sequence, the
counters match a hand-computed trace, and keys never leak across
relations or directions.
"""

import numpy as np
import pytest

from repro.kg.datasets import make_tiny_kg
from repro.models import ComplEx
from repro.serve import LRUCache, QueryEngine
from tests._fixtures import store_from_model


class TestLRUCacheUnit:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(-1)

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0

    def test_scripted_eviction_order_is_exact_lru(self):
        """Hand-scripted access trace with the expected eviction at each
        step — recency updates on get() must reorder eviction."""
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.keys() == ["a", "b", "c"]

        assert cache.get("a") == 1          # a promoted: order b, c, a
        cache.put("d", 4)                   # evicts b (the LRU)
        assert cache.keys() == ["c", "a", "d"]
        assert cache.get("b") is None

        cache.put("c", 30)                  # refresh promotes c
        cache.put("e", 5)                   # evicts a
        assert cache.keys() == ["d", "c", "e"]
        assert cache.get("a") is None
        assert cache.get("c") == 30

    def test_counter_trace_matches_hand_computation(self):
        cache = LRUCache(2)
        trace = [
            ("get", "x", None),   # miss 1
            ("put", "x", 1),
            ("get", "x", 1),      # hit 1
            ("put", "y", 2),
            ("put", "z", 3),      # eviction 1 (x)
            ("get", "x", None),   # miss 2
            ("get", "y", 2),      # hit 2
            ("get", "z", 3),      # hit 3
        ]
        for op, key, value in trace:
            if op == "put":
                cache.put(key, value)
            else:
                assert cache.get(key) == value
        assert (cache.hits, cache.misses, cache.evictions) == (3, 2, 1)

    def test_clear_drops_entries_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


@pytest.fixture(scope="module")
def engine():
    store = make_tiny_kg(seed=11)
    model = ComplEx(store.n_entities, store.n_relations, 8, seed=11)
    return QueryEngine(store_from_model(model, dataset=store),
                       cache_capacity=64)


class TestEngineCaching:
    def test_hit_is_bitwise_equal_to_cold_miss(self, engine):
        cold = engine.topk_tails(5, 1, k=7)
        hot = engine.topk_tails(5, 1, k=7)
        assert hot is cold  # the identical immutable result object
        assert hot.scores.tobytes() == cold.scores.tobytes()
        assert np.array_equal(hot.entities, cold.entities)

    def test_no_leak_across_relations(self, engine):
        """Same anchor and k under two relations must answer from two
        distinct cache entries with (in general) different answers."""
        r0 = engine.topk_tails(3, 0, k=5)
        r1 = engine.topk_tails(3, 1, k=5)
        again0 = engine.topk_tails(3, 0, k=5)
        assert again0 is r0
        assert r1 is not r0
        assert r0.scores.tobytes() != r1.scores.tobytes()

    def test_no_leak_across_directions(self, engine):
        tails = engine.topk_tails(4, 2, k=5)
        heads = engine.topk_heads(4, 2, k=5)
        assert heads is not tails
        assert engine.topk_heads(4, 2, k=5) is heads

    def test_no_leak_across_k(self, engine):
        k5 = engine.topk_tails(6, 1, k=5)
        k3 = engine.topk_tails(6, 1, k=3)
        assert len(k5) == 5 and len(k3) == 3
        # The k=3 answer is the k=5 prefix (determinism), but from its own
        # cache entry.
        assert np.array_equal(k3.entities, k5.entities[:3])
        assert k3 is not k5

    def test_no_leak_across_filtered_flag(self, engine):
        filt = engine.topk_tails(2, 1, k=5, filtered=True)
        raw = engine.topk_tails(2, 1, k=5, filtered=False)
        assert raw is not filt
        assert engine.topk_tails(2, 1, k=5, filtered=False) is raw

    def test_stats_count_hits_and_misses(self):
        store = make_tiny_kg(seed=12)
        model = ComplEx(store.n_entities, store.n_relations, 8, seed=12)
        eng = QueryEngine(store_from_model(model, dataset=store),
                          cache_capacity=8)
        eng.topk_tails(1, 1, k=4)   # miss
        eng.topk_tails(1, 1, k=4)   # hit
        eng.topk_heads(1, 1, k=4)   # miss
        assert eng.stats.cache_hits == 1
        assert eng.stats.cache_misses == 2
        assert eng.cache.hits == 1 and eng.cache.misses == 2
        snap = eng.snapshot()
        assert snap["cache_hit_rate"] == pytest.approx(1 / 3)
        assert snap["by_kind"]["topk_tails"] == 2
        assert snap["by_kind"]["topk_heads"] == 1

    def test_eviction_recomputes_identically(self):
        """After a capacity-1 cache evicts an entry, recomputation must
        reproduce the evicted answer bitwise."""
        store = make_tiny_kg(seed=13)
        model = ComplEx(store.n_entities, store.n_relations, 8, seed=13)
        eng = QueryEngine(store_from_model(model, dataset=store),
                          cache_capacity=1)
        first = eng.topk_tails(1, 0, k=6)
        eng.topk_tails(2, 0, k=6)          # evicts the first entry
        assert eng.cache.evictions == 1
        recomputed = eng.topk_tails(1, 0, k=6)
        assert recomputed is not first
        assert np.array_equal(recomputed.entities, first.entities)
        assert recomputed.scores.tobytes() == first.scores.tobytes()

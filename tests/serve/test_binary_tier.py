"""Engine-level behavior of the binary memory tier.

The bitwise/recall story lives in ``test_binary_properties.py``; this file
covers the serving *mechanics* around it: tier selection and validation,
cache isolation between tiers, the per-tier stage telemetry, and the
zero-query edge of every derived rate.
"""

import re

import numpy as np
import pytest

from repro.kg.datasets import generate_latent_kg
from repro.models import ComplEx
from repro.serve import EmbeddingStore, QueryEngine
from repro.serve.stats import ServeStats


@pytest.fixture(scope="module")
def served():
    store = generate_latent_kg(40, 4, 240, seed=11)
    model = ComplEx(40, 4, 8, seed=12)
    return EmbeddingStore.from_model(model, dataset=store,
                                     with_binary=True)


class TestTierSelection:
    def test_unknown_tier_rejected(self, served):
        with pytest.raises(ValueError, match="unknown tier"):
            QueryEngine(served, tier="quantum")

    def test_bad_rerank_k_rejected(self, served):
        with pytest.raises(ValueError, match="rerank_k"):
            QueryEngine(served, tier="binary", rerank_k=0)

    def test_binary_tier_needs_a_binarized_store(self):
        store = generate_latent_kg(20, 3, 120, seed=1)
        model = ComplEx(20, 3, 8, seed=2)
        dense_only = EmbeddingStore.from_model(model, dataset=store)
        with pytest.raises(ValueError, match="export-binary"):
            QueryEngine(dense_only, tier="binary")

    def test_geometry_mismatch_refused_at_construction(self, served):
        from repro.serve.binary import binarize_model
        from repro.training.checkpoint import (
            CheckpointConfigMismatchError, _sha256_array)
        other = EmbeddingStore.from_model(ComplEx(40, 4, 8, seed=99),
                                          with_binary=False)
        # A digest-bearing store exported from *this* module's fixture
        # model must be refused against a same-shaped foreign snapshot.
        other.binary = binarize_model(
            served.model, source_entity_sha=_sha256_array(
                np.ascontiguousarray(served.model.entity_emb)))
        with pytest.raises(CheckpointConfigMismatchError,
                           match="different snapshot"):
            QueryEngine(other, tier="binary")


class TestCacheIsolation:
    def test_tiers_do_not_share_cache_entries(self, served):
        """Same store, same query, different tier or pool size: each
        engine caches under its own tier key, and a repeat hit returns
        the identical immutable result object."""
        dense = QueryEngine(served, tier="dense")
        small = QueryEngine(served, tier="binary", rerank_k=5)
        cold = small.topk_tails(3, 1, k=4)
        warm = small.topk_tails(3, 1, k=4)
        assert warm is cold
        assert small.stats.cache_hits == 1
        # The dense engine computes its own answer from scratch.
        dense.topk_tails(3, 1, k=4)
        assert dense.stats.cache_hits == 0
        # The cache keys embed (tier, rerank_k): same tier at a different
        # pool size is a different key.
        assert small._tier_key != dense._tier_key
        assert small._tier_key != \
            QueryEngine(served, tier="binary", rerank_k=7)._tier_key


class TestTierTelemetry:
    def test_binary_queries_populate_stage_stats(self, served):
        engine = QueryEngine(served, tier="binary", rerank_k=10,
                             cache_capacity=0)
        engine.topk_batch([(1, 0), (2, 0), (3, 1)], k=5, filtered=False)
        snap = engine.snapshot()
        tiers = snap["tiers"]
        entry = tiers["binary"]
        assert entry["n_queries"] == 3
        assert entry["candidate_mean_ms"] > 0.0
        assert entry["rerank_mean_ms"] > 0.0
        assert entry["candidate_p99_ms"] >= entry["candidate_p50_ms"] > 0.0
        assert entry["rerank_p99_ms"] >= entry["rerank_p50_ms"] > 0.0
        assert 0.0 <= entry["mean_agreement"] <= 1.0

    def test_dense_engine_reports_no_tier_window(self, served):
        engine = QueryEngine(served, tier="dense", cache_capacity=0)
        engine.topk_tails(1, 0, k=5)
        assert "tiers" not in engine.snapshot()

    def test_full_pool_agreement_is_perfect(self, served):
        """With every entity in the pool the candidate stage's ranking is
        re-ranked by exact scores, but the final top-k is still a subset
        of the pool — agreement is defined and finite, and the recall
        proxy for the *exact* reconstruction ordering stays within
        [0, 1]."""
        engine = QueryEngine(served, tier="binary",
                             rerank_k=served.n_entities, cache_capacity=0)
        engine.topk_tails(1, 0, k=5, filtered=False)
        entry = engine.snapshot()["tiers"]["binary"]
        assert 0.0 <= entry["mean_agreement"] <= 1.0


def _untouched(engine) -> bool:
    """Nothing recorded: no latency, no tier sample, no cache lookup and
    nothing on the ladder's virtual clock."""
    ctrl = engine.resilience
    return (engine.stats.n_queries == 0 and engine.stats.by_state == {}
            and "tiers" not in engine.snapshot()
            and engine.cache.hits == engine.cache.misses == 0
            and len(engine.cache) == 0
            and (ctrl.arrivals, ctrl.clock_ms, ctrl.free_ms) == (0, 0, 0))


class TestIntegralSizes:
    """``k`` and ``rerank_k`` are counts: a float or a bool is refused
    with a ``ValueError`` naming the argument before anything is admitted
    (NumPy used to raise its own ``TypeError`` from the partition, and
    ``k=True`` served one answer); NumPy integers are counts too."""

    @pytest.mark.parametrize("tier", ["dense", "binary"])
    @pytest.mark.parametrize("k", [2.5, 3.0, True, np.float32(2)])
    def test_non_integral_k_refused_before_admission(self, served, tier, k):
        engine = QueryEngine(served, tier=tier, rerank_k=10,
                             resilience=True)
        calls = [lambda: engine.topk_tails(1, 0, k=k),
                 lambda: engine.topk_heads(1, 0, k=k),
                 lambda: engine.topk_batch([(1, 0), (2, 1)], k=k),
                 lambda: engine.nearest_entities(1, k=k)]
        for call in calls:
            with pytest.raises(ValueError,
                               match=re.escape(f"k must be an integer, got {k!r}")):
                call()
        assert _untouched(engine)

    @pytest.mark.parametrize("rerank_k", [2.5, 40.0, True])
    def test_non_integral_rerank_k_refused(self, served, rerank_k):
        with pytest.raises(ValueError, match="rerank_k must be an integer"):
            QueryEngine(served, tier="binary", rerank_k=rerank_k)
        vectors = np.ones((2, served.binary.width), dtype=np.float32)
        with pytest.raises(ValueError, match="rerank_k must be an integer"):
            served.binary.candidate_pools(vectors, rerank_k)

    def test_numpy_integers_are_counts(self, served):
        engine = QueryEngine(served, tier="binary", rerank_k=np.int64(10),
                             cache_capacity=0)
        plain = QueryEngine(served, tier="binary", rerank_k=10,
                            cache_capacity=0)
        got = engine.topk_tails(1, 0, k=np.int32(4))
        want = plain.topk_tails(1, 0, k=4)
        assert got.entities.tobytes() == want.entities.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()
        assert len(engine.nearest_entities(1, k=np.uint8(3))) == 3


class TestDegeneratePools:
    """Pool sizes at the edges of ``[1, n]`` and an empty window."""

    @pytest.fixture(scope="class")
    def latent(self):
        store = generate_latent_kg(30, 3, 180, seed=21)
        model = ComplEx(30, 3, 8, seed=22)
        return EmbeddingStore.from_model(model, dataset=store,
                                         with_binary=True)

    @staticmethod
    def _queries(n):
        return [(a, a % 3, a % 4 == 0) for a in range(0, n, 2)]

    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("extra", [0, 7])
    def test_pool_of_n_and_more_is_the_dense_tier(self, latent, filtered,
                                                  extra):
        n = latent.n_entities
        queries = self._queries(n)
        dense = QueryEngine(latent, cache_capacity=0).topk_batch(
            queries, k=n, filtered=filtered, tail_side=None)
        binary = QueryEngine(latent, tier="binary", rerank_k=n + extra,
                             cache_capacity=0).topk_batch(
            queries, k=n, filtered=filtered, tail_side=None)
        for d, b in zip(dense, binary):
            assert d.entities.tobytes() == b.entities.tobytes()
            assert d.scores.tobytes() == b.scores.tobytes()

    @pytest.mark.parametrize("filtered", [True, False])
    def test_pool_of_n_minus_one_drops_one_candidate(self, latent,
                                                     filtered):
        n = latent.n_entities
        engine = QueryEngine(latent, tier="binary", rerank_k=n - 1,
                             cache_capacity=0)
        for answer in engine.topk_batch(self._queries(n), k=n,
                                        filtered=filtered, tail_side=None):
            assert len(answer) <= n - 1
            assert len(np.unique(answer.entities)) == len(answer)

    @pytest.mark.parametrize("filtered", [True, False])
    def test_pool_of_one_answers_its_only_member(self, latent, filtered,
                                                 monkeypatch):
        engine = QueryEngine(latent, tier="binary", rerank_k=1,
                             cache_capacity=0)
        seen = []
        scan = latent.binary.candidate_pools

        def spy(*args, **kwargs):
            pools, approx = scan(*args, **kwargs)
            seen.extend(pools)
            return pools, approx

        monkeypatch.setattr(latent.binary, "candidate_pools", spy)
        for query in self._queries(latent.n_entities):
            answer, = engine.topk_batch([query], k=5, filtered=filtered,
                                        tail_side=None)
            assert seen[-1].shape == (1,)
            assert answer.entities.tolist() == seen[-1].tolist()

    @pytest.mark.parametrize("tier", ["dense", "binary"])
    def test_empty_window_records_nothing(self, latent, tier):
        engine = QueryEngine(latent, tier=tier, rerank_k=5,
                             resilience=True)
        assert engine.topk_batch([], k=3) == []
        assert _untouched(engine)


class TestZeroQueryStats:
    def test_all_rates_are_zero_not_nan(self):
        """A freshly constructed stats object must snapshot cleanly:
        every derived rate is exactly 0.0 (not NaN, not a crash) and the
        tier table is absent, so an idle engine's telemetry serializes."""
        snap = ServeStats().snapshot()
        assert snap["n_queries"] == 0
        assert snap["mean_ms"] == 0.0
        assert snap["p50_ms"] == 0.0
        assert snap["p99_ms"] == 0.0
        assert snap["queries_per_sec"] == 0.0
        assert snap["cache_hit_rate"] == 0.0
        assert snap["busy_seconds"] == 0.0
        assert snap["topk_p50_ms"] == 0.0
        assert snap["topk_p99_ms"] == 0.0
        assert "by_kind_latency" not in snap
        assert "tiers" not in snap

    def test_per_kind_latency_appears_only_for_recorded_kinds(self):
        """One recorded kind yields exactly one per-kind window; the
        link-prediction rollup covers topk_* kinds only."""
        stats = ServeStats()
        stats.record("nearest", 0.004, cache_hit=False)
        snap = stats.snapshot()
        assert set(snap["by_kind_latency"]) == {"nearest"}
        assert snap["by_kind_latency"]["nearest"]["p99_ms"] > 0.0
        # 'nearest' latency must not leak into the link-prediction rollup.
        assert snap["topk_p99_ms"] == 0.0
        stats.record("topk_tails", 0.002, cache_hit=False)
        snap = stats.snapshot()
        assert snap["topk_p99_ms"] == pytest.approx(2.0)

    def test_idle_engine_snapshot_is_zero(self):
        store = generate_latent_kg(15, 2, 60, seed=3)
        model = ComplEx(15, 2, 4, seed=4)
        engine = QueryEngine(EmbeddingStore.from_model(model, dataset=store,
                                                       with_binary=True),
                             tier="binary", rerank_k=4)
        snap = engine.snapshot()
        assert snap["p99_ms"] == 0.0 and snap["n_queries"] == 0

    def test_tier_window_with_zero_seconds_is_finite(self):
        """Degenerate but legal: stage times of exactly zero must not
        divide by zero anywhere downstream."""
        stats = ServeStats()
        stats.record_tier("binary", 0.0, 0.0, 1.0)
        entry = stats.snapshot()["tiers"]["binary"]
        assert entry["candidate_mean_ms"] == 0.0
        assert entry["rerank_mean_ms"] == 0.0
        assert entry["mean_agreement"] == 1.0
        assert entry["n_queries"] == 1

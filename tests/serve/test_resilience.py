"""Serving resilience: fault plan grammar, SLO ladder, circuit breaker.

The contract under test mirrors the training-side fault machinery's:
degradation is *declared* (a strict ``--serve-faults`` mini-language),
*deterministic* (the ladder runs on a virtual queue clock, so the same
``(seed, plan)`` reproduces a byte-identical state-transition log), and
*typed* (shed queries return :class:`ShedResponse` with an explicit
taxonomy, never a silent wrong answer).  Plus the satellite: bounded
``ServeStats`` latency windows for long-lived servers.
"""

import json

import numpy as np
import pytest

from repro.models import make_model
from repro.serve import (SERVE_STATES, SHED_REASONS, BurstSpec,
                         QueryEngine, ResilienceController,
                         ServeFaultPlan, ServeStats, ShedResponse,
                         SidecarCorruptionError, SLOConfig, TopKResult,
                         ZipfianTraffic, replay)
from tests._fixtures import store_from_model

N_ENTITIES, N_RELATIONS, DIM = 160, 8, 8


@pytest.fixture(scope="module")
def store():
    model = make_model("complex", N_ENTITIES, N_RELATIONS, DIM, seed=11)
    return store_from_model(model, with_binary=True)


def run_plan(store, plan, n_queries=1200, seed=4, batch_size=32, **engine_kw):
    engine = QueryEngine(store, faults=plan, **engine_kw)
    traffic = ZipfianTraffic(N_ENTITIES, N_RELATIONS, seed=seed,
                             bursts=plan.bursts if plan else ())
    snapshot = replay(engine, traffic, n_queries, batch_size=batch_size)
    return engine, snapshot


class TestPlanParse:
    def test_full_spec_roundtrip(self):
        plan = ServeFaultPlan.parse(
            "seed=9,spike=0.05,spike_ms=30,fail=0.01,"
            "sidecar_corrupt=500,burst=100:200:8,burst=600:100:2.5")
        assert plan.seed == 9
        assert plan.spike_prob == 0.05
        assert plan.spike_ms == 30.0
        assert plan.fail_prob == 0.01
        assert plan.sidecar_corrupt_at == 500
        assert plan.bursts == (BurstSpec(100, 200, 8.0),
                               BurstSpec(600, 100, 2.5))
        assert not plan.is_null
        assert "burst x8" in plan.describe()

    def test_empty_spec_is_null(self):
        plan = ServeFaultPlan.parse("")
        assert plan.is_null
        assert plan.describe() == "no serve faults"

    @pytest.mark.parametrize("spec, match", [
        ("bogus=1", "unknown --serve-faults key"),
        ("spike", "expected key=value"),
        ("spike=0.1,spike=0.2", "duplicate --serve-faults key"),
        ("burst=100:200", "expected start:length:factor"),
        ("spike=nope", "bad --serve-faults value"),
        ("spike=1.5", "probability"),
        ("fail=-0.1", "probability"),
    ])
    def test_malformed_specs_fail_loudly(self, spec, match):
        with pytest.raises(ValueError, match=match):
            ServeFaultPlan.parse(spec)

    def test_overlapping_bursts_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ServeFaultPlan.parse("burst=100:200:4,burst=250:100:2")

    def test_burst_field_validation(self):
        with pytest.raises(ValueError, match="factor"):
            BurstSpec(0, 10, 0.0)
        with pytest.raises(ValueError, match="length"):
            BurstSpec(0, 0, 2.0)
        with pytest.raises(ValueError, match="start"):
            BurstSpec(-1, 10, 2.0)


class TestSLOConfig:
    def test_thresholds_are_ordered(self):
        slo = SLOConfig(deadline_ms=10.0)
        assert (slo.binary_enter_ms < slo.cache_only_enter_ms
                < slo.shed_enter_ms)

    @pytest.mark.parametrize("kwargs", [
        {"deadline_ms": 0.0}, {"dense_ms": -1.0}, {"hysteresis": 0.0},
        {"hysteresis": 1.0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SLOConfig(**kwargs)


class TestLadder:
    def test_null_plan_never_degrades(self, store):
        """Fault-free traffic at the default SLO is a stable queue: no
        transitions, no sheds, every query served in the dense state."""
        engine, snap = run_plan(store, ServeFaultPlan.parse(""))
        res = snap["resilience"]
        assert res["shed_total"] == 0
        assert res["transitions"] == []
        assert set(res["by_state"]) == {"dense"}
        assert snap["errors"] == 0
        assert engine.resilience.state == "dense"
        assert res["virtual_p99_ms"] <= engine.slo.deadline_ms

    def test_burst_walks_the_ladder_and_recovers(self, store):
        plan = ServeFaultPlan.parse("burst=200:600:8")
        # stats_window=512 of 2000 queries: the percentile surface covers
        # only post-burst, post-recovery traffic.
        engine, snap = run_plan(store, plan, n_queries=2000,
                                stats_window=512)
        res = snap["resilience"]
        visited = {t["to"] for t in res["transitions"]}
        assert "binary" in visited and "cache_only" in visited
        assert res["shed"].get("cache_only_miss", 0) > 0
        # After the burst drains, the ladder must walk back to dense.
        assert engine.resilience.state == "dense"
        assert res["transitions"][-1]["to"] == "dense"
        # ... within 400 arrivals of the burst's end (200 + 600), with the
        # windowed virtual p99 back under the SLO deadline.
        assert res["transitions"][-1]["index"] <= 800 + 400
        assert res["virtual_p99_ms"] <= engine.slo.deadline_ms
        # Transition indices are arrival-ordered; reasons legal; states
        # move one announced rung at a time on recovery.
        indices = [t["index"] for t in res["transitions"]]
        assert indices == sorted(indices)
        for t in res["transitions"]:
            assert t["from"] in SERVE_STATES and t["to"] in SERVE_STATES
            assert t["reason"] in ("backlog", "recovered", "breaker")

    def test_trajectory_is_deterministic(self, store):
        """Acceptance criterion: same (seed, plan) -> byte-identical
        state-transition log and resilience counters across two runs."""
        plan = ServeFaultPlan.parse(
            "burst=100:700:9,spike=0.02,spike_ms=20,fail=0.005,seed=3")
        _, snap_a = run_plan(store, plan, n_queries=1800)
        _, snap_b = run_plan(store, plan, n_queries=1800)
        res_a, res_b = snap_a["resilience"], snap_b["resilience"]
        assert json.dumps(res_a["transitions"]) == \
            json.dumps(res_b["transitions"])
        assert res_a["by_state"] == res_b["by_state"]
        assert res_a["shed"] == res_b["shed"]
        assert res_a["virtual_p99_ms"] == res_b["virtual_p99_ms"]

    def test_constant_spikes_reach_full_shed(self, store):
        """120ms spikes on nearly every served query keep the queue
        unstable even under cache-only (hits still pay the spike), so the
        ladder must bottom out at the shed rung and refuse with
        reason='overload'."""
        plan = ServeFaultPlan.parse("spike=0.95,spike_ms=120,seed=1")
        engine, snap = run_plan(store, plan, n_queries=600)
        res = snap["resilience"]
        assert res["shed"].get("overload", 0) > 0
        assert "shed" in res["by_state"]

    def test_shed_responses_are_typed(self, store):
        plan = ServeFaultPlan.parse("burst=0:400:20")
        engine = QueryEngine(store, faults=plan)
        traffic = ZipfianTraffic(N_ENTITIES, N_RELATIONS, seed=2,
                                 bursts=plan.bursts)
        sheds, served = [], []
        for window in traffic.batches(400, 64):
            for q in window:
                if q["kind"] > 1:
                    continue
                result = engine.topk_batch(
                    [(int(q["anchor"]), int(q["relation"]),
                      bool(q["kind"] == 0))], tail_side=None)[0]
                (sheds if isinstance(result, ShedResponse)
                 else served).append(result)
        assert sheds, "a 20x burst must shed something"
        for shed in sheds:
            assert shed.reason in SHED_REASONS
            assert shed.state in SERVE_STATES
            assert shed.kind in ("topk_tails", "topk_heads")
        for result in served:
            assert isinstance(result, TopKResult)
        counted = sum(engine.stats.shed_by_reason.values())
        assert counted == len(sheds)

    def test_scorer_failures_shed_without_killing_replay(self, store):
        plan = ServeFaultPlan.parse("fail=0.2,seed=6")
        engine, snap = run_plan(store, plan, n_queries=800)
        res = snap["resilience"]
        assert res["shed"].get("scorer_failure", 0) > 0
        assert snap["errors"] == 0
        # Failures are per-query: the rest of the traffic was served.
        assert res["by_state"].get("dense", 0) > 0
        assert snap["n_queries"] == 800

    def test_cache_only_state_serves_hits(self, store):
        """In cache_only the warm entries still answer (the identical
        object), only the misses shed."""
        engine = QueryEngine(store, resilience=True)
        warm = engine.topk_tails(5, 2, k=10)
        ctrl = engine.resilience
        ctrl.state = "cache_only"
        ctrl.free_ms = ctrl.clock_ms + 2.5 * engine.slo.deadline_ms
        hit = engine.topk_batch([(5, 2)], k=10)[0]
        assert hit is warm
        miss = engine.topk_batch([(6, 2)], k=10)[0]
        assert isinstance(miss, ShedResponse)
        assert miss.reason == "cache_only_miss"

    def test_batch_mixes_results_and_sheds_in_query_order(self, store):
        plan = ServeFaultPlan.parse("fail=0.5,seed=9")
        engine = QueryEngine(store, faults=plan)
        queries = [(i, 1) for i in range(40)]
        results = engine.topk_batch(queries, k=5)
        assert len(results) == 40
        kinds = {type(r) for r in results}
        assert kinds == {TopKResult, ShedResponse}

    def test_score_and_nearest_respect_the_ladder(self, store):
        plan = ServeFaultPlan.parse("spike=0.95,spike_ms=80,seed=2")
        engine = QueryEngine(store, faults=plan)
        outcomes = set()
        for i in range(200):
            outcomes.add(type(engine.score(i % N_ENTITIES, 0,
                                           (i + 1) % N_ENTITIES)))
            outcomes.add(type(engine.nearest_entities(i % N_ENTITIES, k=3)))
        assert ShedResponse in outcomes


class TestCircuitBreaker:
    def test_sidecar_corruption_trips_binary_to_dense(self, store):
        """ISSUE contract: a sidecar checksum failure on the binary path
        trips the breaker; the query is still answered — by the dense
        route — and the binary rung stays out until reload."""
        plan = ServeFaultPlan.parse("sidecar_corrupt=3")
        engine = QueryEngine(store, tier="binary", rerank_k=16, faults=plan)
        reference = QueryEngine(store)  # plain dense engine
        results = engine.topk_batch([(i, 1) for i in range(12)], k=5)
        assert engine.resilience.breaker_tripped
        assert not engine.resilience.binary_available
        assert engine.stats.breaker_trips == 1
        # Post-trip queries serve the *dense* answer, bitwise.
        post = engine.topk_batch([(77, 2)], k=5)[0]
        expected = reference.topk_batch([(77, 2)], k=5)[0]
        assert post.entities.tobytes() == expected.entities.tobytes()
        assert post.scores.tobytes() == expected.scores.tobytes()
        assert all(isinstance(r, TopKResult) for r in results)

    def test_trip_in_binary_state_logs_breaker_transition(self, store):
        stats = ServeStats()
        ctrl = ResilienceController(SLOConfig(), ServeFaultPlan(),
                                    binary_available=True, stats=stats)
        ctrl.state = "binary"
        ctrl.trip_binary("checksum mismatch")
        assert ctrl.state == "dense"
        assert stats.transitions[-1]["reason"] == "breaker"
        assert stats.breaker_trips == 1
        assert stats.last_breaker["detail"] == "checksum mismatch"

    def test_injector_fires_exactly_once(self):
        plan = ServeFaultPlan.parse("sidecar_corrupt=0")
        ctrl = ResilienceController(SLOConfig(), plan, binary_available=True)
        ctrl.admit("topk_tails")
        with pytest.raises(SidecarCorruptionError):
            ctrl.check_sidecar()
        ctrl.check_sidecar()  # one-shot: second check passes


class TestStatsWindow:
    def test_percentiles_cover_only_the_window(self):
        stats = ServeStats(window=10)
        for i in range(100):
            stats.record("score", 1.0 if i < 90 else 0.001, cache_hit=None)
        snap = stats.snapshot()
        # The window holds only the last 10 (all 1ms-ish): the 90 slow
        # outliers before it are gone from the percentile surface.
        assert snap["p99_ms"] == pytest.approx(1.0, rel=1e-6)
        assert snap["stats_window"] == 10

    def test_buffers_are_bounded(self):
        stats = ServeStats(window=16)
        for _ in range(1000):
            stats.record("score", 0.001, cache_hit=None)
        assert len(stats._latencies) <= 32
        assert len(stats._latencies_by_kind["score"]) <= 32

    def test_lifetime_totals_survive_trimming(self):
        stats = ServeStats(window=4)
        for _ in range(50):
            stats.record("nearest", 0.01, cache_hit=False)
        snap = stats.snapshot()
        assert snap["n_queries"] == 50
        assert snap["busy_seconds"] == pytest.approx(0.5)
        assert snap["mean_ms"] == pytest.approx(10.0)

    def test_per_tier_query_count_is_lifetime_not_buffer_length(self):
        stats = ServeStats(window=4)
        for i in range(1, 12):
            stats.record("topk_tails", 0.01, cache_hit=False)
            stats.record_tier("binary", 0.004, 0.006, 1.0)
            # Never the trimmed buffer length (which saw-tooths 4..8).
            assert stats.snapshot()["tiers"]["binary"]["n_queries"] == i
        snap = stats.snapshot()
        assert snap["n_queries"] == snap["tiers"]["binary"]["n_queries"] == 11
        assert snap["tiers"]["binary"]["candidate_mean_ms"] == \
            pytest.approx(4.0)

    def test_unbounded_default_unchanged(self):
        stats = ServeStats()
        for _ in range(100):
            stats.record("score", 0.001, cache_hit=None)
        assert len(stats._latencies) == 100
        assert stats.snapshot()["stats_window"] is None

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ServeStats(window=0)

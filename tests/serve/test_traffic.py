"""ZipfianTraffic: seeded reproducibility, skew, bounds, replay."""

import numpy as np
import pytest

from repro.kg.datasets import make_tiny_kg
from repro.models import ComplEx
from repro.serve import QueryEngine, TrafficSpec, ZipfianTraffic, replay
from repro.serve.traffic import (KIND_HEADS, KIND_NEAREST, KIND_SCORE,
                                 KIND_TAILS, QUERY_DTYPE)
from tests._fixtures import store_from_model


class TestSpecValidation:
    def test_defaults_sum_to_one(self):
        spec = TrafficSpec()
        total = (spec.tail_fraction + spec.head_fraction +
                 spec.score_fraction + spec.nearest_fraction)
        assert total == pytest.approx(1.0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError, match="fractions"):
            TrafficSpec(tail_fraction=-0.1)

    def test_oversubscribed_fractions_rejected(self):
        with pytest.raises(ValueError, match="fractions"):
            TrafficSpec(tail_fraction=0.8, head_fraction=0.3)

    def test_undersubscribed_fractions_rejected(self):
        """Satellite: fractions must sum to 1 +- eps — a spec that quietly
        leaves 20% of traffic unallocated is a config bug, and the error
        names every fraction field."""
        with pytest.raises(ValueError) as excinfo:
            TrafficSpec(tail_fraction=0.4, head_fraction=0.3,
                        score_fraction=0.1, nearest_fraction=0.0)
        message = str(excinfo.value)
        for field in ("tail_fraction", "head_fraction", "score_fraction",
                      "nearest_fraction"):
            assert field in message

    def test_near_one_tolerated(self):
        TrafficSpec(tail_fraction=0.45 + 1e-9, head_fraction=0.35,
                    score_fraction=0.18, nearest_fraction=0.02)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            TrafficSpec(entity_exponent=-1.0)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ZipfianTraffic(0, 4)
        with pytest.raises(ValueError, match="at least one"):
            ZipfianTraffic(10, 0)


class TestStream:
    def test_same_seed_replays_identically(self):
        a = ZipfianTraffic(500, 20, seed=42).generate(2_000)
        b = ZipfianTraffic(500, 20, seed=42).generate(2_000)
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        a = ZipfianTraffic(500, 20, seed=42).generate(2_000)
        b = ZipfianTraffic(500, 20, seed=43).generate(2_000)
        assert a.tobytes() != b.tobytes()

    def test_successive_calls_continue_deterministically(self):
        """Each call advances one shared stream: the same call sequence
        replays identically, and the continuation is fresh (not a repeat
        of the first window)."""
        def run():
            t = ZipfianTraffic(500, 20, seed=7)
            return t.generate(400), t.generate(600)

        (a1, a2), (b1, b2) = run(), run()
        assert a1.tobytes() == b1.tobytes()
        assert a2.tobytes() == b2.tobytes()
        assert a1[:400].tobytes() != a2[:400].tobytes()

    def test_batches_cover_exactly_n(self):
        traffic = ZipfianTraffic(100, 5, seed=0)
        sizes = [len(w) for w in traffic.batches(250, 64)]
        assert sizes == [64, 64, 64, 58]

    def test_ids_within_bounds_and_schema(self):
        queries = ZipfianTraffic(50, 3, seed=1).generate(5_000)
        assert queries.dtype == QUERY_DTYPE
        assert ((queries["anchor"] >= 0) & (queries["anchor"] < 50)).all()
        nearest = queries["kind"] == KIND_NEAREST
        score = queries["kind"] == KIND_SCORE
        assert (queries["relation"][nearest] == -1).all()
        assert ((queries["relation"][~nearest] >= 0) &
                (queries["relation"][~nearest] < 3)).all()
        assert ((queries["other"][score] >= 0) &
                (queries["other"][score] < 50)).all()
        assert (queries["other"][~score] == -1).all()

    def test_kind_mix_tracks_spec(self):
        spec = TrafficSpec(tail_fraction=0.5, head_fraction=0.3,
                           score_fraction=0.1, nearest_fraction=0.1)
        queries = ZipfianTraffic(200, 10, spec=spec, seed=3).generate(20_000)
        fractions = np.bincount(queries["kind"], minlength=4) / len(queries)
        assert fractions[KIND_TAILS] == pytest.approx(0.5, abs=0.02)
        assert fractions[KIND_HEADS] == pytest.approx(0.3, abs=0.02)
        assert fractions[KIND_SCORE] == pytest.approx(0.1, abs=0.02)
        assert fractions[KIND_NEAREST] == pytest.approx(0.1, abs=0.02)


class TestBursts:
    """Overload phases: ``BurstSpec`` windows inflate the arrival rate
    (bigger replay batches) without changing the query stream itself."""

    def test_burst_inflates_window_sizes(self):
        from repro.serve import BurstSpec
        traffic = ZipfianTraffic(100, 5, seed=0,
                                 bursts=(BurstSpec(64, 128, 4.0),))
        sizes = [len(w) for w in traffic.batches(500, 64)]
        assert sum(sizes) == 500            # exact coverage regardless
        assert sizes[0] == 64               # pre-burst: nominal
        assert max(sizes) == 256            # in-burst: 4x the batch
        assert sizes[-1] < 64               # post-burst remainder

    def test_bursty_stream_is_deterministic_and_windowing_only(self):
        """Bursts change the *windowing* only: the same seeded generator
        asked for the same window sizes by hand produces byte-identical
        queries — the burst schedule never touches the query stream."""
        from repro.serve import BurstSpec
        bursts = (BurstSpec(50, 100, 8.0),)

        def windows():
            t = ZipfianTraffic(100, 5, seed=3, bursts=bursts)
            return list(t.batches(400, 32))

        a, b = windows(), windows()
        assert [w.tobytes() for w in a] == [w.tobytes() for w in b]
        manual = ZipfianTraffic(100, 5, seed=3)
        for window in a:
            assert manual.generate(len(window)).tobytes() == window.tobytes()

    def test_fractional_factor_slows_arrivals(self):
        from repro.serve import BurstSpec
        traffic = ZipfianTraffic(100, 5, seed=0,
                                 bursts=(BurstSpec(0, 1000, 0.25),))
        sizes = [len(w) for w in traffic.batches(64, 32)]
        assert sizes[0] == 8                # quarter-rate lull


class TestSkew:
    def test_zipf_concentrates_mass_on_few_entities(self):
        """With exponent 1.2 over 1000 entities the hottest 10 ids should
        carry far more than their uniform share of traffic."""
        traffic = ZipfianTraffic(1_000, 4,
                                 spec=TrafficSpec(entity_exponent=1.2),
                                 seed=5)
        queries = traffic.generate(30_000)
        counts = np.bincount(queries["anchor"], minlength=1_000)
        top10_share = np.sort(counts)[-10:].sum() / counts.sum()
        assert top10_share > 0.30          # uniform share would be 0.01

    def test_zero_exponent_is_roughly_uniform(self):
        traffic = ZipfianTraffic(1_000, 4,
                                 spec=TrafficSpec(entity_exponent=0.0),
                                 seed=5)
        queries = traffic.generate(30_000)
        counts = np.bincount(queries["anchor"], minlength=1_000)
        top10_share = np.sort(counts)[-10:].sum() / counts.sum()
        assert top10_share < 0.05

    def test_hot_ids_are_permuted_not_low_ids(self):
        """The popularity ranking rides a seeded permutation, so the
        hottest entity is (with overwhelming probability) not id 0."""
        hot = []
        for seed in range(8):
            traffic = ZipfianTraffic(2_000, 4,
                                     spec=TrafficSpec(entity_exponent=1.5),
                                     seed=seed)
            queries = traffic.generate(5_000)
            hot.append(int(np.bincount(queries["anchor"]).argmax()))
        assert any(h != 0 for h in hot)
        assert len(set(hot)) > 1


class TestReplay:
    def test_replay_serves_everything_and_reports(self):
        dataset = make_tiny_kg(seed=31)
        model = ComplEx(dataset.n_entities, dataset.n_relations, 8, seed=31)
        engine = QueryEngine(store_from_model(model,
                                              dataset=dataset),
                             cache_capacity=256)
        traffic = ZipfianTraffic(dataset.n_entities, dataset.n_relations,
                                 seed=31)
        snap = replay(engine, traffic, 600, batch_size=50, topk=5)
        assert snap["n_queries"] == 600
        assert sum(snap["by_kind"].values()) == 600
        assert all(count > 0 for count in snap["by_kind"].values())
        assert snap["cache_hit_rate"] > 0   # tiny vocabulary: many repeats
        assert 0 < snap["p50_ms"] <= snap["p99_ms"]
        assert snap["wall_seconds"] > 0
        assert snap["wall_queries_per_sec"] > 0
        assert snap["batch_size"] == 50 and snap["topk"] == 5

    def test_replay_is_deterministic_in_answers(self):
        """Two engines replaying the same seeded stream end with the same
        cache contents (order and keys)."""
        dataset = make_tiny_kg(seed=33)
        model = ComplEx(dataset.n_entities, dataset.n_relations, 8, seed=33)

        def run():
            engine = QueryEngine(
                store_from_model(model, dataset=dataset),
                cache_capacity=10_000)
            traffic = ZipfianTraffic(dataset.n_entities,
                                     dataset.n_relations, seed=33)
            replay(engine, traffic, 400, batch_size=32, topk=4)
            return engine

        a, b = run(), run()
        assert a.cache.keys() == b.cache.keys()
        for key in a.cache.keys():
            ra, rb = a.cache.get(key), b.cache.get(key)
            assert np.array_equal(ra.entities, rb.entities)
            assert ra.scores.tobytes() == rb.scores.tobytes()

    def test_per_query_errors_are_counted_not_fatal(self, monkeypatch):
        """Satellite: one poisoned query must not kill the replay.  A
        scorer that blows up for a single relation loses exactly that
        relation's top-k queries — counted, first detail kept — while
        every window-mate is still served."""
        dataset = make_tiny_kg(seed=31)
        model = ComplEx(dataset.n_entities, dataset.n_relations, 8, seed=31)
        engine = QueryEngine(store_from_model(model,
                                              dataset=dataset),
                             cache_capacity=0)
        real = engine._group_topk_dense

        def flaky(anchors, rel, side, k, filt):
            if rel == 1:
                raise RuntimeError("injected scorer fault on relation 1")
            return real(anchors, rel, side, k, filt)

        monkeypatch.setattr(engine, "_group_topk_dense", flaky)
        traffic = ZipfianTraffic(dataset.n_entities, dataset.n_relations,
                                 seed=31)
        snap = replay(engine, traffic, 600, batch_size=50, topk=5)

        mirror = ZipfianTraffic(dataset.n_entities, dataset.n_relations,
                                 seed=31)
        queries = np.concatenate(list(mirror.batches(600, 50)))
        poisoned = int(((queries["relation"] == 1) &
                        ((queries["kind"] == KIND_TAILS) |
                         (queries["kind"] == KIND_HEADS))).sum())
        assert poisoned > 0
        assert snap["errors"] == poisoned
        assert snap["first_error"]["error"] == "RuntimeError"
        assert "relation 1" in snap["first_error"]["detail"]
        assert snap["first_error"]["kind"] in ("topk_tails", "topk_heads")
        assert snap["first_error"]["query"][1] == 1
        # Window-mates survived: the healthy relations still answer.
        assert snap["n_queries"] >= 600 - poisoned
        assert len(engine.topk_tails(0, 0, k=5)) == 5

    def test_clean_replay_reports_zero_errors(self):
        dataset = make_tiny_kg(seed=31)
        model = ComplEx(dataset.n_entities, dataset.n_relations, 8, seed=31)
        engine = QueryEngine(store_from_model(model, dataset=dataset))
        traffic = ZipfianTraffic(dataset.n_entities, dataset.n_relations,
                                 seed=31)
        snap = replay(engine, traffic, 200, batch_size=32, topk=5)
        assert snap["errors"] == 0
        assert snap["first_error"] is None

"""QueryEngine semantics: scoring, filtering, coalescing, neighbors.

Includes the nearest-neighbor regression battery for the complex-layout
bug class: entity rows store ``[real | imag]`` *halves*, so any distance
built by truncating to the first ``dim`` columns or reshaping the raw row
into ``(dim, 2)`` pairs is wrong.  The adversarial fixtures below make
exactly those bugs visible.
"""

import numpy as np
import pytest

from repro.eval.ranking import scatter_known_nan
from repro.kg.datasets import make_tiny_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.serve import QueryEngine, TopKResult
from tests._fixtures import store_from_model

MODEL_NAMES = sorted(MODEL_REGISTRY)


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_kg(seed=21)


def build_engine(dataset, name, seed=21, **kwargs):
    model = make_model(name, dataset.n_entities, dataset.n_relations, 8,
                       seed=seed)
    return QueryEngine(store_from_model(model, dataset=dataset), **kwargs)


class TestScore:
    def test_scalar_in_scalar_out(self, dataset):
        engine = build_engine(dataset, "complex")
        value = engine.score(1, 2, 3)
        assert isinstance(value, float)
        batch = engine.score(np.array([1, 1]), np.array([2, 2]),
                             np.array([3, 4]))
        assert batch.shape == (2,)
        assert batch[0] == value
        # A list is a batch too, not a scalar.
        listed = engine.score([1, 1], [2, 2], [3, 4])
        assert listed.tobytes() == batch.tobytes()

    def test_score_matches_model(self, dataset):
        engine = build_engine(dataset, "distmult")
        h, r, t = np.array([0, 5]), np.array([1, 3]), np.array([2, 7])
        expected = engine.store.model.score(h, r, t)
        assert engine.score(h, r, t).tobytes() == expected.tobytes()

    def test_bad_ids_raise_before_admission(self, dataset):
        """A negative id used to wrap to the last entity, one past the end
        leaked NumPy's IndexError and a short relation array broadcast.
        Each raises a ValueError naming the culprit now, and the ladder's
        virtual clock is charged nothing."""
        engine = build_engine(dataset, "complex", resilience=True)
        n, n_rel = dataset.n_entities, dataset.n_relations
        for args, message in [((-1, 0, 5), "entity id -1 "),
                              ((n, 0, 5), f"entity id {n} "),
                              ((0, 0, 10**20), "entity id 10{20} "),
                              ((0, n_rel, 5), f"relation id {n_rel} "),
                              (([1, 2], [0, 0], [5, -3]), "entity id -3 "),
                              (([1, 2], [0], [5, 6]), "equally long")]:
            with pytest.raises(ValueError, match=message):
                engine.score(*args)
        ctrl = engine.resilience
        assert (ctrl.arrivals, ctrl.clock_ms, ctrl.free_ms) == (0, 0.0, 0.0)
        assert engine.stats.n_queries == 0


class TestTopK:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_ordering_contract(self, dataset, name):
        """Descending score, ascending entity id on ties, no NaN."""
        engine = build_engine(dataset, name)
        result = engine.topk_tails(3, 1, k=12)
        assert len(result) == 12
        assert not np.isnan(result.scores).any()
        assert (np.diff(result.scores) <= 0).all()
        for i in range(len(result) - 1):
            if result.scores[i] == result.scores[i + 1]:
                assert result.entities[i] < result.entities[i + 1]

    def test_filtered_excludes_known_facts(self, dataset):
        engine = build_engine(dataset, "complex")
        h, r = int(dataset.train.heads[0]), int(dataset.train.relations[0])
        _, known, _ = dataset.filter_index.known_tails(
            np.array([h]), np.array([r]))
        assert known.size > 0
        full = engine.topk_tails(h, r, k=dataset.n_entities, filtered=True)
        assert not np.isin(result_entities := full.entities, known).any(), \
            np.intersect1d(result_entities, known)
        assert len(full) == dataset.n_entities - len(np.unique(known))

        raw = engine.topk_tails(h, r, k=dataset.n_entities, filtered=False)
        assert len(raw) == dataset.n_entities

    def test_filtered_without_index_raises(self, dataset):
        model = make_model("distmult", dataset.n_entities,
                           dataset.n_relations, 8, seed=21)
        engine = QueryEngine(store_from_model(model))
        with pytest.raises(ValueError, match="filter index"):
            engine.topk_tails(0, 0, k=3, filtered=True)
        # default resolves to unfiltered when no index is present
        assert len(engine.topk_tails(0, 0, k=3)) == 3

    def test_heads_side_uses_head_scoring(self, dataset):
        engine = build_engine(dataset, "complex")
        t, r = 4, 2
        result = engine.topk_heads(t, r, k=dataset.n_entities,
                                   filtered=False)
        # Bitwise reference: the very block call the engine issues.
        row = engine.store.model.score_all_heads(
            np.array([r]), np.array([t]))[0]
        order = np.argsort(-row, kind="stable")
        assert np.array_equal(result.entities, order)
        assert result.scores.tobytes() == row[order].tobytes()
        # Cross-check against the per-triple scorer (approximate: the
        # block path reduces in a different shape).
        hs = result.entities
        per_triple = engine.store.model.score(
            hs, np.full(len(hs), r), np.full(len(hs), t))
        np.testing.assert_allclose(result.scores, per_triple, rtol=1e-5)

    def test_k_larger_than_candidates_truncates(self, dataset):
        engine = build_engine(dataset, "distmult")
        result = engine.topk_tails(0, 0, k=10 * dataset.n_entities,
                                   filtered=False)
        assert len(result) == dataset.n_entities

    def test_invalid_k_and_ids(self, dataset):
        engine = build_engine(dataset, "complex")
        with pytest.raises(ValueError, match="k must be"):
            engine.topk_tails(0, 0, k=0)
        with pytest.raises(ValueError, match="entity id"):
            engine.topk_tails(dataset.n_entities, 0, k=3)
        with pytest.raises(ValueError, match="relation id"):
            engine.topk_tails(0, dataset.n_relations, k=3)
        with pytest.raises(ValueError, match="entity id"):
            engine.nearest_entities(-1)

    def test_results_are_frozen(self, dataset):
        engine = build_engine(dataset, "complex")
        result = engine.topk_tails(1, 1, k=4)
        with pytest.raises(ValueError, match="read-only"):
            result.entities[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            result.scores[0] = 0.0


class TestMicroBatching:
    """topk_batch coalesces per (relation, direction) without changing any
    answer: a burst must equal the per-query grouped reference."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_batch_matches_grouped_reference(self, dataset, name):
        engine = build_engine(dataset, name, cache_capacity=0)
        queries = [(1, 0), (2, 0), (1, 0), (9, 3), (2, 0), (5, 3)]
        batched = engine.topk_batch(queries, k=8)

        # Reference: the same per-relation unique-anchor block calls the
        # engine makes, computed by hand.
        index = dataset.filter_index
        model = engine.store.model
        expected = {}
        for rel, anchors in ((0, np.array([1, 2])), (3, np.array([5, 9]))):
            rels = np.full(len(anchors), rel, dtype=np.int64)
            scores = model.score_all_tails(anchors, rels)
            scores, _ = scatter_known_nan(scores, index, anchors, rels,
                                          tail_side=True)
            for row, anchor in zip(scores, anchors):
                order = np.argsort(-row, kind="stable")[:8]
                expected[(int(anchor), rel)] = (order, row[order])
        for (anchor, rel), result in zip(queries, batched):
            order, scores = expected[(anchor, rel)]
            assert np.array_equal(result.entities, order)
            assert result.scores.tobytes() == scores.tobytes()

    def test_duplicate_queries_share_one_result(self, dataset):
        engine = build_engine(dataset, "complex", cache_capacity=0)
        batched = engine.topk_batch([(7, 1), (7, 1)], k=5)
        assert batched[0] is batched[1]

    def test_mixed_direction_batch(self, dataset):
        engine = build_engine(dataset, "complex", cache_capacity=0)
        mixed = engine.topk_batch([(3, 1, True), (3, 1, False)], k=6,
                                  tail_side=None)
        tails = engine.topk_tails(3, 1, k=6)
        heads = engine.topk_heads(3, 1, k=6)
        assert np.array_equal(mixed[0].entities, tails.entities)
        assert mixed[0].scores.tobytes() == tails.scores.tobytes()
        assert np.array_equal(mixed[1].entities, heads.entities)
        assert mixed[1].scores.tobytes() == heads.scores.tobytes()

    def test_batch_order_preserved(self, dataset):
        engine = build_engine(dataset, "distmult", cache_capacity=4)
        engine.topk_tails(2, 1, k=5)  # pre-warm one of the three
        results = engine.topk_batch([(8, 1), (2, 1), (4, 2)], k=5)
        for (anchor, rel), result in zip([(8, 1), (2, 1), (4, 2)], results):
            single = engine.topk_batch([(anchor, rel)], k=5)[0]
            assert result is single  # now cached


class TestNearestEntities:
    """Satellite regression battery: complex [real | imag] layout."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_distances_ascend_under_every_model(self, dataset, name):
        engine = build_engine(dataset, name)
        for e in (0, 17, dataset.n_entities - 1):
            result = engine.nearest_entities(e, k=5)
            assert (np.diff(result.scores) >= 0).all()

    def test_exclude_self_drops_exactly_self(self, dataset):
        """The answer is the full L2 ranking (ties toward the smaller id)
        with only the query entity taken out."""
        engine = build_engine(dataset, "distmult")
        diff = engine.store.model.entity_emb - engine.store.model.entity_emb[9]
        order = np.argsort(np.sqrt(np.einsum("ij,ij->i", diff, diff)),
                           kind="stable")
        result = engine.nearest_entities(9, k=5)
        assert order[0] == 9
        assert np.array_equal(result.entities, order[1:6])

    @pytest.mark.parametrize("name", ["complex"])
    def test_imag_half_participates_in_distance(self, name):
        """Adversarial layout probe: entities 0 and 1 share the real half
        and differ only in the imaginary half; 2 matches 0's imaginary
        half but not its real half, yet is closer overall.  A distance
        that truncates to the first ``dim`` columns calls 0 and 1
        identical; one that reshapes the row into adjacent (re, im) pairs
        scrambles the margin."""
        model = make_model(name, 4, 2, 4, seed=0)
        emb = np.zeros((4, 8))
        emb[0] = [1, 2, 3, 4, 5, 6, 7, 8]       # re=1..4  im=5..8
        emb[1] = [1, 2, 3, 4, 9, 9, 9, 9]       # same re, far im
        emb[2] = [1, 2, 3, 4.5, 5, 6, 7, 8]     # re off by 0.5, same im
        emb[3] = [-8, -7, -6, -5, -4, -3, -2, -1]
        model.entity_emb[:] = emb
        engine = QueryEngine(store_from_model(model))

        result = engine.nearest_entities(0, k=3)
        assert result.entities[0] == 2
        # exact distances over the paired complex coordinates
        assert result.scores[0] == pytest.approx(0.5)
        # entity 1: im diff (4, 3, 2, 1) -> sqrt(16 + 9 + 4 + 1)
        assert result.scores[1] == pytest.approx(np.sqrt(30.0))

    def test_real_models_use_full_row(self):
        """DistMult has no imaginary half; the whole row is the geometry
        and entity_components reflects that."""
        model = make_model("distmult", 3, 1, 4, seed=0)
        model.entity_emb[:] = [[0, 0, 0, 0], [3, 4, 0, 0], [0, 0, 0, 1]]
        engine = QueryEngine(store_from_model(model))
        result = engine.nearest_entities(0, k=2)
        assert np.array_equal(result.entities, [2, 1])
        assert result.scores[0] == pytest.approx(1.0)
        assert result.scores[1] == pytest.approx(5.0)


class TestTelemetry:
    def test_snapshot_shape(self, dataset):
        engine = build_engine(dataset, "complex", cache_capacity=16)
        engine.score(0, 0, 1)
        engine.topk_tails(0, 0, k=3)
        engine.topk_tails(0, 0, k=3)
        engine.nearest_entities(2, k=3)
        snap = engine.snapshot()
        assert snap["n_queries"] == 4
        assert snap["by_kind"] == {"score": 1, "topk_tails": 2,
                                   "topk_heads": 0, "nearest": 1}
        assert snap["cache_hits"] == 1
        assert snap["p50_ms"] <= snap["p99_ms"]
        assert snap["cache_capacity"] == 16
        assert snap["cache_size"] == 2

    def test_score_does_not_touch_cache_counters(self, dataset):
        engine = build_engine(dataset, "distmult", cache_capacity=8)
        engine.score(0, 0, 1)
        engine.score(0, 0, 1)
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 0

"""Property-based tests for the ranking metrics."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.ranking import (evaluate_ranking, rank_triples,
                                scatter_known_nan)
from repro.kg.datasets import generate_latent_kg
from repro.kg.triples import TripleSet, TripleStore
from repro.models import ComplEx, DistMult
from tests._reference import filtered_naive, rank_triples_reference


@st.composite
def store_and_model(draw):
    seed = draw(st.integers(0, 10_000))
    n_entities = draw(st.integers(12, 40))
    n_relations = draw(st.integers(2, 6))
    store = generate_latent_kg(n_entities, n_relations,
                               n_triples=n_entities * 6, seed=seed)
    model_cls = draw(st.sampled_from([ComplEx, DistMult]))
    model = model_cls(n_entities, n_relations, 4, seed=seed + 1)
    return store, model


class TestRankBounds:
    @given(store_and_model())
    @settings(max_examples=15, deadline=None)
    def test_ranks_within_entity_count(self, sm):
        store, model = sm
        head_raw, head_filt, tail_raw, tail_filt = rank_triples(
            model, store.test, store)
        for ranks in (head_raw, head_filt, tail_raw, tail_filt):
            assert (ranks >= 1.0).all()
            assert (ranks <= store.n_entities).all()

    @given(store_and_model())
    @settings(max_examples=15, deadline=None)
    def test_filtered_rank_never_worse_than_raw(self, sm):
        """Filtering removes competitors, so ranks can only improve."""
        store, model = sm
        head_raw, head_filt, tail_raw, tail_filt = rank_triples(
            model, store.test, store)
        assert (head_filt <= head_raw + 1e-9).all()
        assert (tail_filt <= tail_raw + 1e-9).all()

    @given(store_and_model())
    @settings(max_examples=15, deadline=None)
    def test_metric_ranges_and_ordering(self, sm):
        store, model = sm
        res = evaluate_ranking(model, store.test, store)
        assert 0 < res.mrr <= 1
        assert 0 < res.mrr_raw <= res.mrr + 1e-12
        assert 0 <= res.hits_at_1 <= res.hits_at_3 <= res.hits_at_10 <= 1


class TestScoreMonotonicity:
    def test_boosting_true_entity_improves_its_rank(self):
        """Raising the true tail's alignment with every query direction
        must not hurt its rank."""
        store = generate_latent_kg(20, 3, 120, seed=0)
        model = DistMult(20, 3, 4, seed=1)
        query = store.test.subset(np.array([0]))
        _, _, before, _ = rank_triples(model, query, store)
        # Push the true tail embedding toward the (h * r) direction.
        h, r, t = query.heads[0], query.relations[0], query.tails[0]
        direction = model.entity_emb[h] * model.relation_emb[r]
        model.entity_emb[t] += 10.0 * direction / np.linalg.norm(direction)
        _, _, after, _ = rank_triples(model, query, store)
        assert after[0] <= before[0]


def fb15k_width_store():
    """A random store at FB15K's 14,951 entities with 128 test queries,
    and a dim-16 ComplEx over it."""
    n_entities, n_relations = 14_951, 200
    rng = np.random.default_rng(0)

    def split(n):
        return TripleSet(heads=rng.integers(0, n_entities, n),
                         relations=rng.integers(0, n_relations, n),
                         tails=rng.integers(0, n_entities, n))

    store = TripleStore(n_entities=n_entities, n_relations=n_relations,
                        train=split(45_000), valid=split(2_000),
                        test=split(128))
    return store, ComplEx(n_entities, n_relations, 16, seed=1)


def assert_filter_matches_reference(model, store, queries=None):
    """Masks, surviving counts and ranks all equal the reference filter's.

    ``queries`` defaults to the test split, whose every triple is a known
    fact.  The serving mask masks gold too whenever gold is known, so the
    reference side masks it as well before the byte comparison.
    """
    queries = store.test if queries is None else queries
    h, r, t = queries.heads, queries.relations, queries.tails
    gold_known = store.is_known(h, r, t)
    rows = np.flatnonzero(gold_known)
    for tail_side, scores, anchor, gold in (
            (True, model.score_all_tails(h, r), h, t),
            (False, model.score_all_heads(r, t), t, h)):
        masked, n_cand = scatter_known_nan(scores, store.filter_index,
                                           anchor, r, tail_side=tail_side)
        ref_masked, ref_n_cand = filtered_naive(scores, store, h, r, t,
                                                tail_side)
        ref_masked[rows, gold[rows]] = np.nan
        # Bytes, not values: this pins signed zeros and NaN positions too.
        assert masked.tobytes() == ref_masked.tobytes()
        np.testing.assert_array_equal(n_cand, ref_n_cand - gold_known)
    for a, b in zip(rank_triples_reference(model, queries, store),
                    rank_triples(model, queries, store,
                                 batch_size=len(queries))):
        assert a.tobytes() == b.tobytes()


class TableModel(DistMult):
    """Scores every candidate from a small value table, indexed by a hash of
    the (anchor, relation, candidate) ids: most rows tie the true score
    many times over, known columns included, and ``-0.0`` ties ``0.0``."""

    def __init__(self, n_entities, n_relations, values):
        super().__init__(n_entities, n_relations, 4, seed=0)
        self.values = np.asarray(values, dtype=np.float32)

    def _table(self, anchor, rel, side):
        key = (np.asarray(anchor)[:, None] * 7 + np.asarray(rel)[:, None] * 3
               + side + np.arange(self.n_entities)[None, :] * 5)
        return self.values[key % len(self.values)]

    def score_all_tails(self, h, r):
        return self._table(h, r, 0)

    def score_all_heads(self, r, t):
        return self._table(t, r, 1)


def unknown_queries(store, n, seed):
    """Random triples, most of them not facts of ``store``."""
    rng = np.random.default_rng(seed)
    return TripleSet(heads=rng.integers(0, store.n_entities, n),
                     relations=rng.integers(0, store.n_relations, n),
                     tails=rng.integers(0, store.n_entities, n))


class TestFilterMatchesReference:
    """The count-based filter must be *bitwise* identical to the reference
    mask's ranks."""

    MODELS = [ComplEx, DistMult]

    def test_queries_not_in_the_store(self):
        """Gold is then not among the known columns, and nothing of it may
        be subtracted."""
        for seed in range(20):
            store = generate_latent_kg(20 + seed, 3, (20 + seed) * 6,
                                       seed=seed)
            queries = unknown_queries(store, 40, seed)
            gold_known = store.is_known(queries.heads, queries.relations,
                                        queries.tails)
            assert not gold_known.all()
            model = self.MODELS[seed % len(self.MODELS)](
                store.n_entities, store.n_relations, 4, seed=seed)
            assert_filter_matches_reference(model, store, queries)

    @pytest.mark.parametrize("values", [
        [-1.0, -0.0, 0.0, 1.0],
        [2.0, -0.0, 0.0, 0.0, -0.0, 2.0, 1.0],
    ], ids=["signed-zeros", "mostly-zero"])
    def test_known_columns_that_tie_the_true_score(self, values):
        for seed in range(10):
            store = generate_latent_kg(24, 3, 160, seed=seed)
            model = TableModel(24, 3, values)
            assert_filter_matches_reference(model, store)
            assert_filter_matches_reference(
                model, store, unknown_queries(store, 40, seed))

    def test_rows_containing_nan(self):
        """NaN competitors count as neither better nor tied; a NaN true
        score clamps to the per-row surviving count on both sides."""
        values = [1.0, np.nan, 0.0, -0.0, np.nan, 1.0, -np.inf]
        for seed in range(10):
            store = generate_latent_kg(24, 3, 160, seed=seed)
            model = TableModel(24, 3, values)
            queries = unknown_queries(store, 40, seed)
            true_scores = model.score_all_tails(
                queries.heads, queries.relations)[np.arange(40),
                                                  queries.tails]
            assert np.isnan(true_scores).any()
            assert_filter_matches_reference(model, store)
            assert_filter_matches_reference(model, store, queries)

    def test_bitwise_identical_on_50_random_graphs(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n_entities = int(rng.integers(12, 48))
            n_relations = int(rng.integers(2, 7))
            store = generate_latent_kg(n_entities, n_relations,
                                       n_triples=n_entities * 6, seed=seed)
            model_cls = self.MODELS[seed % len(self.MODELS)]
            model = model_cls(n_entities, n_relations, 4, seed=seed + 1)
            assert_filter_matches_reference(model, store)

    @given(store_and_model())
    @settings(max_examples=15, deadline=None)
    def test_property_filter_equals_reference(self, sm):
        store, model = sm
        assert_filter_matches_reference(model, store)

    def test_at_least_5x_faster_than_the_reference_at_fb15k_width(self):
        """In-process ratio, not a wall-clock floor: both sides rank the
        same 128 triples of a random 14,951-entity store here, best of 3
        rounds.  Measured ~9x; the gate is 5x.  The filter's working set
        tracks the known facts per query, not ``batch * n_entities``."""
        store, model = fb15k_width_store()
        test = store.test
        rows, cols, _ = store.filter_index.known_tails(test.heads,
                                                       test.relations)
        # naive: three int64 columns and a bool per (query, candidate).
        assert rows.nbytes + cols.nbytes < \
            len(test) * store.n_entities * (3 * 8 + 1) / 100

        # One untimed pass each (the first pays allocator page faults),
        # then alternate.  Noise can only fail the gate through the fast
        # side, so it gets five samples per reference pass.
        rankers = (rank_triples, rank_triples_reference)
        ranks = [ranker(model, test, store) for ranker in rankers]
        for a, b in zip(*ranks):
            np.testing.assert_array_equal(a, b)
        best = dict.fromkeys(rankers, float("inf"))
        for ranker in ([rank_triples] * 5 + [rank_triples_reference]) * 3:
            start = time.perf_counter()
            ranker(model, test, store)
            best[ranker] = min(best[ranker], time.perf_counter() - start)
        assert best[rank_triples_reference] >= 5.0 * best[rank_triples], best

    def test_one_batch_peaks_under_one_and_a_half_score_blocks(self):
        """Deterministic memory gate: ranking one 128-query batch at
        14,951 entities allocates at most 1.5x one ``(b, n_entities)``
        float32 block at its peak (measured 1.26x).  The filter gathers
        known columns out of the raw block instead of masking a copy of
        it, each side's block is dropped before the other side is scored,
        and a ComplEx block is one product, with no second ``(b, n)``
        temporary for the imaginary halves."""
        store, model = fb15k_width_store()
        test = store.test
        block = len(test) * store.n_entities * 4
        tracemalloc.start()
        try:
            rank_triples(model, test, store, batch_size=len(test))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block, peak / block

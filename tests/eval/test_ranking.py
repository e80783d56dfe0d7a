"""Unit tests for link-prediction ranking metrics."""

import numpy as np
import pytest

from repro.eval.ranking import RankingResult, evaluate_ranking, rank_triples
from repro.kg.datasets import generate_latent_kg
from repro.kg.triples import TripleSet, TripleStore
from repro.models import ComplEx, DistMult
from tests._reference import rank_triples_reference


def toy_store(n_entities=8, n_relations=2):
    train = TripleSet.from_array(np.array([
        [0, 0, 1], [1, 0, 2], [2, 1, 3], [3, 1, 4], [4, 0, 5], [1, 1, 2],
    ]))
    valid = TripleSet.from_array(np.array([[5, 0, 6]]))
    test = TripleSet.from_array(np.array([[6, 1, 7], [1, 1, 0]]))
    return TripleStore(n_entities=n_entities, n_relations=n_relations,
                       train=train, valid=valid, test=test)


class RiggedModel(DistMult):
    """DistMult whose embeddings we set to force known rankings."""


def make_rigged(store, favourite_tail=7):
    m = RiggedModel(store.n_entities, store.n_relations, 4, seed=0)
    # Make entity `favourite_tail` score highest against everything by
    # giving it a huge positive embedding (all-positive factors).
    m.entity_emb[:] = 0.1
    m.relation_emb[:] = 0.1
    m.entity_emb[favourite_tail] = 10.0
    return m


class TestRankMechanics:
    def test_perfect_model_ranks_first(self):
        store = toy_store()
        m = make_rigged(store, favourite_tail=7)
        # Query (6, 1, 7): tail 7 is the unique argmax -> tail rank 1.
        _, _, tail_raw, tail_filt = rank_triples(
            m, store.test.subset(np.array([0])), store)
        assert tail_raw[0] == 1.0
        assert tail_filt[0] == 1.0

    def test_tied_scores_get_mean_rank(self):
        store = toy_store()
        m = RiggedModel(store.n_entities, store.n_relations, 4, seed=0)
        m.entity_emb[:] = 1.0  # every candidate scores identically
        m.relation_emb[:] = 1.0
        head_raw, _, tail_raw, _ = rank_triples(
            m, store.test.subset(np.array([0])), store)
        # 8 entities all tied: realistic rank = 1 + 0 + 7/2 = 4.5.
        assert tail_raw[0] == pytest.approx(4.5)
        assert head_raw[0] == pytest.approx(4.5)

    def test_filtering_removes_known_competitors(self):
        store = toy_store()
        m = make_rigged(store, favourite_tail=2)
        # Query (1, 1, 0) tail side: candidate (1, 1, 2) is a *train* fact
        # and entity 2 outranks everything, so filtering must skip it.
        _, _, tail_raw, tail_filt = rank_triples(
            m, store.test.subset(np.array([1])), store)
        assert tail_filt[0] < tail_raw[0]

    def test_query_triple_itself_never_filtered(self):
        """The true triple is in the dataset but must keep competing."""
        store = toy_store()
        m = make_rigged(store, favourite_tail=7)
        _, _, _, tail_filt = rank_triples(
            m, store.test.subset(np.array([0])), store)
        assert tail_filt[0] >= 1.0


class NegInfModel(DistMult):
    """Degenerate scorer: every candidate (true triple included) is -inf."""

    def score_all_tails(self, h, r):
        return np.full((len(h), self.n_entities), -np.inf, dtype=np.float32)

    def score_all_heads(self, r, t):
        return np.full((len(r), self.n_entities), -np.inf, dtype=np.float32)


class NaNModel(DistMult):
    """Diverged scorer: every candidate (true triple included) is NaN."""

    def score_all_tails(self, h, r):
        return np.full((len(h), self.n_entities), np.nan, dtype=np.float32)

    def score_all_heads(self, r, t):
        return np.full((len(r), self.n_entities), np.nan, dtype=np.float32)


class TestDegenerateScores:
    def test_neg_inf_true_score_clamps_to_worst_rank(self):
        """-inf everywhere used to give the true triple a mid-pack tie rank;
        it must get the worst defined rank instead."""
        store = toy_store()
        m = NegInfModel(store.n_entities, store.n_relations, 4, seed=0)
        head_raw, head_filt, tail_raw, tail_filt = rank_triples(
            m, store.test, store)
        # Raw: every one of the 8 entities survives, so worst rank is 8.
        np.testing.assert_array_equal(head_raw, 8.0)
        np.testing.assert_array_equal(tail_raw, 8.0)
        # Filtered: worst rank is the per-query surviving candidate count,
        # never better than rank 1 and never beyond n_entities.
        for ranks in (head_filt, tail_filt):
            assert (ranks >= 1.0).all()
            assert (ranks <= store.n_entities).all()

    def test_neg_inf_filtered_rank_counts_survivors(self):
        store = toy_store()
        m = NegInfModel(store.n_entities, store.n_relations, 4, seed=0)
        _, _, _, tail_filt = rank_triples(
            m, store.test.subset(np.array([1])), store)
        # Query (1, 1, 0): known tails for (h=1, r=1) are {2, 0}; 2 is
        # filtered, the query itself survives -> 7 candidates remain.
        assert tail_filt[0] == 7.0

    def test_neg_inf_agrees_with_reference_filter(self):
        store = toy_store()
        m = NegInfModel(store.n_entities, store.n_relations, 4, seed=0)
        for a, b in zip(rank_triples_reference(m, store.test, store),
                        rank_triples(m, store.test, store)):
            np.testing.assert_array_equal(a, b)

    def test_nan_true_score_clamps_to_worst_rank(self):
        """NaN counts as neither better nor tied, so a NaN true score used
        to rank first; it must get the worst defined rank, like -inf."""
        store = toy_store()
        m = NaNModel(store.n_entities, store.n_relations, 4, seed=0)
        head_raw, _, tail_raw, tail_filt = rank_triples(m, store.test, store)
        np.testing.assert_array_equal(head_raw, 8.0)
        np.testing.assert_array_equal(tail_raw, 8.0)
        # Query (1, 1, 0): known tail 2 is filtered -> 7 survivors.
        assert tail_filt[1] == 7.0
        for a, b in zip(rank_triples_reference(m, store.test, store),
                        rank_triples(m, store.test, store)):
            np.testing.assert_array_equal(a, b)

    def test_diverged_model_does_not_read_as_perfect(self):
        store = generate_latent_kg(30, 3, 180, seed=0)
        m = DistMult(30, 3, 4, seed=1)
        m.entity_emb[:] = np.nan
        res = evaluate_ranking(m, store.test, store)
        assert res.hits_at_10 == 0.0
        assert res.mrr < 0.1


class TestEvaluateRanking:
    def test_result_fields_consistent(self):
        store = toy_store()
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        res = evaluate_ranking(m, store.test, store)
        assert isinstance(res, RankingResult)
        assert 0 < res.mrr <= 1
        assert 0 <= res.hits_at_1 <= res.hits_at_3 <= res.hits_at_10 <= 1
        assert res.n_queries == 2

    def test_filtered_mrr_at_least_raw(self):
        store = toy_store()
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=1)
        res = evaluate_ranking(m, store.test, store)
        assert res.mrr >= res.mrr_raw - 1e-12

    def test_subsampling_deterministic(self):
        store = toy_store()
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        a = evaluate_ranking(m, store.test, store, max_queries=1)
        b = evaluate_ranking(m, store.test, store, max_queries=1)
        assert a.mrr == b.mrr and a.n_queries == 1

    def test_subsampling_with_rng(self):
        store = toy_store()
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        res = evaluate_ranking(m, store.test, store, max_queries=1,
                               rng=np.random.default_rng(0))
        assert res.n_queries == 1

    def test_subsample_one_query_is_first_triple(self):
        """max_queries=1: linspace picks exactly index 0."""
        store = toy_store()
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        sub = evaluate_ranking(m, store.test, store, max_queries=1)
        first = evaluate_ranking(m, store.test.subset(np.array([0])), store)
        assert sub.n_queries == 1
        assert sub.mrr == first.mrr

    def test_subsample_len_minus_one(self):
        """max_queries = len-1 keeps len-1 *distinct* queries."""
        store = generate_latent_kg(20, 3, 120, seed=0)
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        n = len(store.test)
        res = evaluate_ranking(m, store.test, store, max_queries=n - 1)
        again = evaluate_ranking(m, store.test, store, max_queries=n - 1)
        assert res.n_queries == n - 1
        assert res.mrr == again.mrr

    @pytest.mark.parametrize("n,k", [(2, 1), (10, 9), (10, 1), (37, 36),
                                     (37, 17), (5, 4)])
    def test_linspace_indices_strictly_increasing_unique(self, n, k):
        """The deterministic subsampling formula must never repeat a query,
        including the max_queries == len-1 and == 1 boundary shapes."""
        idx = np.linspace(0, n - 1, k).astype(np.int64)
        assert len(idx) == k
        assert (np.diff(idx) > 0).all()
        assert len(np.unique(idx)) == k
        assert idx[0] == 0 and idx[-1] <= n - 1

    def test_rng_subsampling_reproducible_under_fixed_seed(self):
        store = generate_latent_kg(20, 3, 120, seed=1)
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        a = evaluate_ranking(m, store.test, store, max_queries=3,
                             rng=np.random.default_rng(42))
        b = evaluate_ranking(m, store.test, store, max_queries=3,
                             rng=np.random.default_rng(42))
        assert a == b
        assert a.n_queries == 3

    def test_max_queries_at_least_split_size_is_noop(self):
        store = toy_store()
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        full = evaluate_ranking(m, store.test, store)
        capped = evaluate_ranking(m, store.test, store,
                                  max_queries=len(store.test))
        assert full == capped

    def test_empty_split_rejected(self):
        store = toy_store()
        empty = TripleSet.from_array(np.empty((0, 3), dtype=np.int64))
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        with pytest.raises(ValueError):
            evaluate_ranking(m, empty, store)

    def test_batching_does_not_change_result(self):
        store = toy_store()
        m = ComplEx(store.n_entities, store.n_relations, 4, seed=0)
        a = evaluate_ranking(m, store.test, store, batch_size=1)
        b = evaluate_ranking(m, store.test, store, batch_size=512)
        assert a.mrr == pytest.approx(b.mrr)

    def test_perfect_model_gets_high_mrr(self):
        """A model trained to memorise a tiny store should outrank random."""
        store = toy_store()
        good = make_rigged(store, favourite_tail=7)
        rand = ComplEx(store.n_entities, store.n_relations, 4, seed=3)
        res_good = evaluate_ranking(good, store.test.subset(np.array([0])),
                                    store)
        res_rand = evaluate_ranking(rand, store.test, store)
        assert res_good.mrr > res_rand.mrr

"""Property tests: serving answers are the eval protocol's answers.

The serving contract is that ``topk_tails(h, r, k, filtered=True)`` is the
top-k of exactly the score row filtered evaluation would rank — byte-equal
scores, identical tie-break order — with one deliberate divergence: eval
keeps the gold column (the query's own true entity competes), while a
live query has no gold entity, so serving masks *every* known fact.

Eval never materialises that row: it counts ranks from the raw block and
the ``FilterIndex`` known columns.  The row it ranks is defined by the
oracle ``tests._reference.filtered_naive`` (a NaN-masked copy, gold
kept), which the eval suite pins rank for rank, so these properties
compare the serve mask against that oracle.

Bitwise footnote.  The engine scores each (relation, direction) group in
one block call over the group's *unique anchors*; ``rank_triples`` scores
the mixed evaluation batch.  Every model (DistMult, ComplEx) scores by
one matrix product, so the batch shape picks the BLAS kernel, and
kernels reduce in different orders: a single-row group takes
matrix-vector BLAS, and OpenBLAS's
small-matrix path (contraction length >= 32, a few hundred entities)
reduces a regrouped multi-row block differently too.  The byte-exact
property therefore compares against a reference built with the engine's
own call shapes; the mixed-batch eval rows are asserted equal to float
tolerance, and ``TestGroupingOrder`` pins that regrouping moves no id whose
score differs beyond that tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.ranking import scatter_known_nan
from repro.kg.datasets import generate_latent_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.select import best_first
from repro.serve import EmbeddingStore, QueryEngine
from tests._reference import filtered_naive

MODEL_NAMES = sorted(MODEL_REGISTRY)


@st.composite
def serving_case(draw):
    seed = draw(st.integers(0, 10_000))
    n_entities = draw(st.integers(12, 40))
    n_relations = draw(st.integers(2, 6))
    store = generate_latent_kg(n_entities, n_relations,
                               n_triples=n_entities * 6, seed=seed)
    name = draw(st.sampled_from(MODEL_NAMES))
    model = make_model(name, n_entities, n_relations, 4, seed=seed + 1)
    n_queries = draw(st.integers(2, 12))
    picks = draw(st.lists(st.integers(0, len(store.train) - 1),
                          min_size=n_queries, max_size=n_queries))
    k = draw(st.integers(1, n_entities))
    return store, model, np.array(picks), k


def grouped_reference(model, index, anchors, rels, k, tail_side=True):
    """Filtered top-k per query, computed with the engine's call shapes:
    one block call per relation over its unique anchors, the serve-time
    CSR scatter (no gold exemption), stable descending-score /
    ascending-id argsort."""
    out = {}
    for rel in np.unique(rels):
        unique = np.unique(anchors[rels == rel])
        full = np.full(len(unique), rel, dtype=np.int64)
        if tail_side:
            scores = model.score_all_tails(unique, full)
        else:
            scores = model.score_all_heads(full, unique)
        masked, _ = scatter_known_nan(scores, index, unique, full,
                                      tail_side=tail_side)
        for row, anchor in zip(masked, unique):
            n_valid = int((~np.isnan(row)).sum())
            order = np.argsort(-row, kind="stable")[:min(k, n_valid)]
            out[(int(anchor), int(rel))] = (order, row[order], row)
    return out


class TestServeEqualsEval:
    @given(serving_case())
    @settings(max_examples=20, deadline=None)
    def test_topk_tails_is_topk_of_the_filtered_row(self, case):
        store, model, picks, k = case
        h = store.train.heads[picks]
        r = store.train.relations[picks]
        t = store.train.tails[picks]

        engine = QueryEngine(EmbeddingStore.from_model(model, dataset=store),
                             cache_capacity=0)
        answers = engine.topk_batch(list(zip(h, r)), k=k, filtered=True)

        reference = grouped_reference(model, store.filter_index, h, r, k)
        eval_rows = model.score_all_tails(h, r)
        eval_masked, _ = filtered_naive(eval_rows, store, h, r, t,
                                        tail_side=True)
        for i, answer in enumerate(answers):
            order, scores, row = reference[(int(h[i]), int(r[i]))]
            assert np.array_equal(answer.entities, order)
            assert answer.scores.tobytes() == scores.tobytes()
            # The gold tail is a known fact: eval keeps it, serving won't.
            assert t[i] not in answer.entities
            # The served row is eval's filtered row (gold aside) to float
            # equality, whatever the batch shape.
            eval_row = eval_masked[i].copy()
            eval_row[t[i]] = np.nan
            np.testing.assert_allclose(row, eval_row, rtol=1e-5,
                                       atol=1e-6, equal_nan=True)

    @given(serving_case())
    @settings(max_examples=20, deadline=None)
    def test_serve_mask_is_eval_mask_minus_gold(self, case):
        """On one shared score matrix, the serve-time scatter and the eval
        protocol's mask (the hash-every-candidate reference, gold kept)
        agree everywhere except the gold column, byte for byte."""
        store, model, picks, _ = case
        h = store.train.heads[picks]
        r = store.train.relations[picks]
        t = store.train.tails[picks]
        scores = model.score_all_tails(h, r)

        serve_mask, serve_cand = scatter_known_nan(
            scores, store.filter_index, h, r, tail_side=True)
        eval_mask, eval_cand = filtered_naive(scores, store, h, r, t,
                                              tail_side=True)

        rows = np.arange(len(picks))
        assert np.isnan(serve_mask[rows, t]).all()
        assert eval_mask[rows, t].tobytes() == scores[rows, t].tobytes()
        # Every gold fact here is known, so eval keeps exactly one extra
        # candidate per row.
        assert np.array_equal(eval_cand, serve_cand + 1)
        for i in range(len(picks)):
            a = np.delete(serve_mask[i], t[i])
            b = np.delete(eval_mask[i], t[i])
            assert a.tobytes() == b.tobytes()

    @given(serving_case())
    @settings(max_examples=10, deadline=None)
    def test_head_side_property(self, case):
        store, model, picks, k = case
        h = store.train.heads[picks]
        r = store.train.relations[picks]
        t = store.train.tails[picks]

        engine = QueryEngine(EmbeddingStore.from_model(model, dataset=store),
                             cache_capacity=0)
        answers = engine.topk_batch(list(zip(t, r)), k=k, filtered=True,
                                    tail_side=False)

        reference = grouped_reference(model, store.filter_index, t, r, k,
                                      tail_side=False)
        for i, answer in enumerate(answers):
            order, scores, _ = reference[(int(t[i]), int(r[i]))]
            assert np.array_equal(answer.entities, order)
            assert answer.scores.tobytes() == scores.tobytes()
            # (h, r, t) is known, so its head is filtered out.
            assert h[i] not in answer.entities


def grouped_and_mixed(name, dim):
    """Each multi-row relation group of a 16-query batch, scored alone and
    as its rows of the mixed batch."""
    store = generate_latent_kg(30, 4, 180, seed=9)
    model = make_model(name, 30, 4, dim, seed=10)
    h = store.train.heads[:16]
    r = store.train.relations[:16]
    mixed = model.score_all_tails(h, r)
    for rel in np.unique(r):
        members = np.flatnonzero(r == rel)
        if len(members) > 1:
            yield (model.score_all_tails(h[members],
                                         np.full(len(members), rel)),
                   mixed[members])


class TestGroupingOrder:
    """BLAS picks its kernel by batch shape, so a regrouped block may
    differ from the mixed batch's rows in the last bits (it does at dim 32
    on OpenBLAS's small-matrix path).  It never differs beyond float
    tolerance, and never in an id whose score is apart from the id it
    trades places with by more than that."""

    @pytest.mark.parametrize("dim", [8, 32])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_grouped_matches_mixed_order(self, name, dim):
        for grouped, mixed in grouped_and_mixed(name, dim):
            np.testing.assert_allclose(grouped, mixed, rtol=1e-5, atol=1e-6)
            for g, m in zip(grouped, mixed):
                g_order, m_order = best_first(g, len(g)), best_first(m, len(m))
                moved = g_order != m_order
                np.testing.assert_allclose(g[g_order[moved]],
                                           g[m_order[moved]],
                                           rtol=1e-5, atol=1e-6)

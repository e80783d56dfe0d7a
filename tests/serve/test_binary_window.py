"""The binary tier answers a window, not a group.

:meth:`QueryEngine.topk_batch` stacks every binary-route miss of a window
into one block: one stage-1 scan of the packed codes and one
``score_candidates`` re-rank per direction, whatever the relations.  The
contract that makes this safe is that every kernel on the way works row
by row, so:

* every answer of a mixed window is byte-identical to the same query
  asked alone (the one-query window is the oracle) — for every model,
  both directions, filtered or not, partial or complete pools, repeated
  anchors and tie-heavy embeddings;
* the rows of stacked ``query_vector`` / ``sign_dots`` /
  ``score_candidates`` blocks equal the one-row results whichever SIMD
  kernels NumPy dispatches to;
* the work per window is counted, not timed: one ``candidate_pools``
  call and at most two ``score_candidates`` calls;
* the circuit breaker still checks once per binary group, in group
  order, and the group that trips it is answered dense.

Plus the admission bugfix: a batch with a bad id is refused before any of
its queries reaches the ladder's virtual clock.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.kg.datasets import generate_latent_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.serve import (EmbeddingStore, QueryEngine, ServeFaultPlan,
                         TopKResult, replay)
from repro.serve.binary import binarize_model
from repro.serve.traffic import KIND_TAILS

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__

MODEL_NAMES = sorted(MODEL_REGISTRY)


def same_bytes(a: TopKResult, b: TopKResult) -> bool:
    return (a.entities.tobytes() == b.entities.tobytes()
            and a.scores.tobytes() == b.scores.tobytes())


@st.composite
def window_case(draw):
    seed = draw(st.integers(0, 10_000))
    n_entities = draw(st.integers(12, 40))
    n_relations = draw(st.integers(2, 5))
    store = generate_latent_kg(n_entities, n_relations,
                               n_triples=n_entities * 6, seed=seed)
    model = make_model(draw(st.sampled_from(MODEL_NAMES)), n_entities,
                       n_relations, 4, seed=seed + 1)
    if draw(st.booleans()):
        # Coarse values: approximate and exact scores tie all over.
        model.entity_emb = np.round(model.entity_emb * 2) / 2
        model.relation_emb = np.round(model.relation_emb * 2) / 2
    anchors = draw(st.lists(st.integers(0, n_entities - 1), min_size=1,
                            max_size=4))
    queries = draw(st.lists(
        st.tuples(st.sampled_from(anchors),
                  st.integers(0, n_relations - 1), st.booleans()),
        min_size=1, max_size=16))
    rerank_k = draw(st.one_of(st.integers(1, n_entities - 1),
                              st.sampled_from([n_entities, n_entities + 3])))
    k = draw(st.integers(1, n_entities))
    return store, model, queries, rerank_k, k, draw(st.booleans())


class TestWindowEqualsAlone:
    @given(window_case())
    @settings(max_examples=80, deadline=None)
    def test_every_answer_is_the_query_asked_alone(self, case):
        """Partial pools: each answer is the one-query window's.  A
        complete pool re-ranks through the dense tier's per-group block
        call, whose GEMM is not row-invariant across group sizes, so there
        the oracle is the dense tier answering the same window."""
        store, model, queries, rerank_k, k, filtered = case
        served = EmbeddingStore.from_model(model, dataset=store,
                                           with_binary=True)
        engine = QueryEngine(served, tier="binary", rerank_k=rerank_k,
                             cache_capacity=0)
        window = engine.topk_batch(queries, k=k, filtered=filtered,
                                   tail_side=None)
        if rerank_k >= store.n_entities:
            expect = QueryEngine(served, cache_capacity=0).topk_batch(
                queries, k=k, filtered=filtered, tail_side=None)
        else:
            expect = [engine.topk_batch([query], k=k, filtered=filtered,
                                        tail_side=None)[0]
                      for query in queries]
        for query, got, want in zip(queries, window, expect):
            assert same_bytes(got, want), query


def stacked_row_mismatches() -> list[str]:
    """``model/direction/kernel`` of every stacked block one of whose rows
    differs from the same query computed alone (empty when none does)."""
    rng = np.random.default_rng(5)
    m, n = 14, 300
    bad = set()
    for name in MODEL_NAMES:
        model = make_model(name, n, 6, 16, seed=2)
        store = binarize_model(model)
        anchors = rng.integers(0, n, m)
        rels = rng.integers(0, 6, m)
        pools = np.sort(rng.permuted(np.tile(np.arange(n), (m, 1)),
                                     axis=1)[:, :40], axis=1)
        for side in (True, False):
            def kernels(rows):
                q = model.query_vector(anchors[rows], rels[rows],
                                       tail_side=side)
                return {"query_vector": q, "sign_dots": store.sign_dots(q),
                        "score_candidates": model.score_candidates(
                            anchors[rows], rels[rows], pools[rows],
                            tail_side=side)}

            stacked = kernels(slice(None))
            for i in range(m):
                for kernel, row in kernels(slice(i, i + 1)).items():
                    if stacked[kernel][i:i + 1].tobytes() != row.tobytes():
                        bad.add(f"{name}/{'tails' if side else 'heads'}/"
                                f"{kernel}")
    return sorted(bad)


class TestStackedRowsHostIndependence:
    def test_rows_equal_one_row_results(self):
        assert stacked_row_mismatches() == []

    @pytest.mark.parametrize("first_disabled", range(len(__cpu_dispatch__)),
                             ids=list(__cpu_dispatch__))
    def test_under_every_simd_dispatch(self, first_disabled):
        """Disable the dispatched features from one level up, level by
        level down to the baseline build."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ,
                   NPY_DISABLE_CPU_FEATURES=" ".join(
                       __cpu_dispatch__[first_disabled:]),
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(repro.__file__).parents[1]), str(root),
                        os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "from tests.serve.test_binary_window import "
             "stacked_row_mismatches; print(stacked_row_mismatches())"],
            cwd=root, env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def latent():
    store = generate_latent_kg(60, 6, 360, seed=3)
    model = make_model("complex", 60, 6, 8, seed=4)
    return EmbeddingStore.from_model(model, dataset=store, with_binary=True)


class TestOneScanPerWindow:
    def test_sixteen_queries_one_scan_and_one_rerank_per_direction(
            self, latent, monkeypatch):
        engine = QueryEngine(latent, tier="binary", rerank_k=15,
                             cache_capacity=0)
        calls = {"stage1": 0, "rerank": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(latent.binary, "candidate_pools",
                            counted("stage1", latent.binary.candidate_pools))
        monkeypatch.setattr(latent.model, "score_candidates",
                            counted("rerank", latent.model.score_candidates))
        window = [(j, j % 6, (j // 6) % 2 == 0) for j in range(16)]
        assert len({(rel, side) for _, rel, side in window}) >= 8
        answers = engine.topk_batch(window, k=5, tail_side=None)
        assert all(isinstance(a, TopKResult) for a in answers)
        assert calls["stage1"] == 1 and calls["rerank"] <= 2
        # record_tier still runs once per scored query.
        assert engine.snapshot()["tiers"]["binary"]["n_queries"] == 16


class TestRejectedBatch:
    def test_bad_id_admits_nothing(self, latent):
        engine = QueryEngine(latent, resilience=True)
        with pytest.raises(ValueError, match="entity id 1000000"):
            engine.topk_batch([(0, 0, True), (1, 1, True), (10**6, 0, True)],
                              tail_side=None)
        ctrl = engine.resilience
        assert (ctrl.arrivals, ctrl.clock_ms, ctrl.free_ms) == (0, 0.0, 0.0)
        assert engine.stats.n_queries == 0 and engine.stats.by_state == {}

    def test_replay_retry_admits_each_query_once(self, latent):
        """replay() retries a failed window query by query; the ladder
        must see the two good queries once, not twice."""
        window = [{"kind": KIND_TAILS, "anchor": a, "relation": r,
                   "other": 0} for a, r in ((0, 0), (1, 1), (10**6, 0))]

        class OneWindow:
            def batches(self, n_queries, batch_size):
                yield window

        engine = QueryEngine(latent, resilience=True)
        snap = replay(engine, OneWindow(), 3)
        assert snap["errors"] == 1
        assert engine.resilience.arrivals == 2


class TestBreakerInsideWindow:
    def test_tripping_group_answers_dense_the_rest_binary(self):
        """A burst walks the ladder to binary; the injected corruption
        fires inside the third 16-query window.  Its first binary group
        is answered dense, byte for byte, and cached under the dense key;
        every later group of the window stays binary.  The transition log
        is the one the per-group engine wrote."""
        served = EmbeddingStore.from_model(
            make_model("complex", 160, 8, 8, seed=11), with_binary=True)
        engine = QueryEngine(served, rerank_k=16, faults=ServeFaultPlan.parse(
            "burst=0:64:8,sidecar_corrupt=40"))
        dense = QueryEngine(served, cache_capacity=0)
        binary = QueryEngine(served, tier="binary", rerank_k=16,
                             cache_capacity=0)
        windows = [[((7 * (16 * w + j)) % 160, j % 8, j % 3 != 0)
                    for j in range(16)] for w in range(4)]
        for window in windows[:2]:
            engine.topk_batch(window, k=5, tail_side=None)
        assert engine.stats.breaker_trips == 0

        window = windows[2]
        answers = engine.topk_batch(window, k=5, tail_side=None)
        assert engine.stats.last_breaker["index"] == 47
        assert len({(rel, side) for _, rel, side in window}) >= 8
        first = window[0][1:]
        tripped = [q for q in window if q[1:] == first]
        expect = dict(zip(tripped, dense.topk_batch(tripped, k=5,
                                                    tail_side=None)))
        for query, got in zip(window, answers):
            if query[1:] == first:
                assert same_bytes(got, expect[query])
                anchor, rel, side = query
                key = ("dense", "tails" if side else "heads", anchor, rel,
                       5, False)
                assert engine.cache.get(key) is got
            else:
                alone = binary.topk_batch([query], k=5, tail_side=None)[0]
                assert same_bytes(got, alone)

        engine.topk_batch(windows[3], k=5, tail_side=None)
        assert engine.stats.transitions == [
            {"index": 15, "from": "dense", "to": "binary",
             "backlog_ms": 10.125, "reason": "backlog"},
            {"index": 47, "from": "binary", "to": "dense",
             "backlog_ms": 14.125, "reason": "breaker"}]

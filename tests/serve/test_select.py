"""The one selection kernel, and the serve path's call sites, bitwise.

``repro.select.best_first`` is *defined* as the full stable argsort
kept in ``tests._reference``, and its set form ``best_set`` as the same
ids in id order; these tests pin those definitions on hostile rows
(signed zeros, infinities, NaN, heavy duplication, ties straddling the
cut — short rows and rows long enough for the strided pre-threshold,
with its NaN fallback), then pin every place the serve path ranks — dense
top-k, the binary tier's pools and re-rank, embedding-space neighbors —
against an engine whose selection *is* the oracle, entities and score
bytes.  Fact mining and m-of-n hardest negatives are pinned by digest in
``tests/kg``.
"""

import inspect
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import select as select_module
from repro.kg.datasets import generate_latent_kg
from repro.models import ComplEx
from repro.serve import QueryEngine
from repro.serve import binary as binary_module
from repro.serve import engine as engine_module
from repro.select import _LONG, _STRIDE, best_first, best_set
from tests import _reference
from tests._fixtures import MODELS, store_from_model

SPECIAL = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1.0, -1.0,
           1e-40, 2.5]


@st.composite
def hostile_row(draw):
    """float32 rows drawn from a *small* alphabet, so most entries tie."""
    alphabet = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL),
                  st.floats(-1e6, 1e6, allow_nan=False, width=32)),
        min_size=1, max_size=5))
    n = draw(st.integers(1, 60))
    cells = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    return np.array(cells, dtype=np.float32)


@st.composite
def long_row(draw):
    """``(row, take)`` with the row at least ``_LONG * take`` long, so the
    strided pre-threshold runs; a small alphabet ties the guessed value
    with unsampled entries, and a NaN sample defeats the guess."""
    take = draw(st.integers(1, 6))
    alphabet = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL),
                  st.floats(-1e6, 1e6, allow_nan=False, width=32)),
        min_size=1, max_size=6))
    n = draw(st.integers(_LONG * take, _LONG * take + 3 * _STRIDE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = np.array(alphabet, dtype=np.float32)[
        rng.integers(0, len(alphabet), n)]
    if draw(st.booleans()):
        row[::_STRIDE] = np.nan
    return row, take


@st.composite
def set_case(draw):
    """``(row, take)``: a tie-heavy row from ``SPECIAL`` (NaN, ``±inf``,
    ``±0.0``) plus a few drawn values, short or long enough for the
    pre-threshold at ``take = 1``, and ``take`` one of 1, the valid count,
    the length, or past it."""
    alphabet = np.array(draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL),
                  st.floats(-1e6, 1e6, allow_nan=False, width=32)),
        min_size=1, max_size=4)) + SPECIAL, dtype=np.float32)
    n = draw(st.sampled_from([1, 7, 60, _LONG, 3 * _LONG + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(len(alphabet)) ** 3
    row = rng.choice(alphabet, size=n, p=weights / weights.sum())
    n_valid = int((~np.isnan(row)).sum())
    return row, draw(st.sampled_from([1, max(n_valid, 1), n, n + 3]))


@pytest.fixture
def exact_passes(monkeypatch):
    """Lengths of the rows the exact pass saw, in call order."""
    seen = []
    exact = select_module._best_set

    def spy(row, take):
        seen.append(row.size)
        return exact(row, take)

    monkeypatch.setattr(select_module, "_best_set", spy)
    return seen


class TestKernel:
    @given(hostile_row(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_stable_argsort_oracle(self, row, data):
        n_valid = int((~np.isnan(row)).sum())
        take = data.draw(st.sampled_from([1, max(n_valid, 1), len(row) + 3])
                         | st.integers(1, len(row) + 3))
        got = best_first(row, take)
        expect = _reference.best_first(row, take)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)
        assert not np.isnan(row[got]).any()

    @given(long_row(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_long_rows_equal_the_oracle(self, row_take, data):
        row, take = row_take
        take = data.draw(st.sampled_from([take, 1]))
        assert np.array_equal(best_first(row, take),
                              _reference.best_first(row, take))

    def test_ties_signed_zeros_infinities_and_nan_around_the_guess(
            self, exact_passes):
        """The sample's ``take``-th best is ``-0.0``; unsampled neighbours
        hold ``+0.0``, ``-0.0``, ``±inf``, NaN and values just either side,
        so the cut runs through the guess's own tie class."""
        take = 6
        rng = np.random.default_rng(1)
        row = rng.choice(np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 1e-40,
                                   -1e-40, np.inf], dtype=np.float32),
                         size=_LONG * take * 3, p=[.1, .1, .3, .2, .2, .03,
                                                   .04, .03])
        row[::_STRIDE] = -0.0
        row[:_STRIDE * (take - 1):_STRIDE] = np.inf
        assert np.array_equal(best_first(row, take),
                              _reference.best_first(row, take))
        assert exact_passes == [int((row >= 0.0).sum())]
        assert exact_passes[0] < row.size

    def test_nan_sample_falls_back_to_the_whole_row(self, exact_passes):
        rng = np.random.default_rng(2)
        row = rng.normal(size=_LONG * 4).astype(np.float32)
        row[::_STRIDE] = np.nan  # the guess is NaN: nothing survives it
        assert np.array_equal(best_first(row, 4),
                              _reference.best_first(row, 4))
        assert exact_passes == [row.size]

    @given(set_case())
    @settings(max_examples=400, deadline=None)
    def test_set_equals_the_sorted_oracle(self, case):
        row, take = case
        got = best_set(row, take)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.sort(_reference.best_first(row, take)))

    def test_the_set_form_sorts_nothing(self):
        """``best_set`` and the stage-1 pools cut a tie class by a
        cumulative count; only ``best_first`` orders what they select."""
        for fn in (best_set, select_module._best_set,
                   binary_module.BinaryStore.candidate_pools):
            code = inspect.getsource(fn).split('"""')[-1]
            for name in ("sort", "unique", "union1d"):
                assert name not in code, (fn.__name__, name)

    def test_all_tied_all_nan_and_empty(self):
        tied = np.full(9, -0.0, dtype=np.float32)
        tied[::2] = 0.0
        assert np.array_equal(best_first(tied, 4), [0, 1, 2, 3])
        assert np.array_equal(best_first(tied, 99), np.arange(9))
        nan = np.full(5, np.nan, dtype=np.float32)
        assert best_first(nan, 3).shape == (0,)
        assert best_first(np.empty(0, dtype=np.float32), 3).shape == (0,)
        assert np.array_equal(best_set(tied, 4), [0, 1, 2, 3])
        assert best_set(nan, 3).shape == (0,)
        assert best_set(np.empty(0, dtype=np.float32), 3).shape == (0,)

    def test_tie_class_straddling_the_cut_keeps_smaller_ids(self):
        row = np.array([1.0, 5.0, 1.0, np.nan, 1.0, 7.0, 1.0],
                       dtype=np.float32)
        assert np.array_equal(best_first(row, 4), [5, 1, 0, 2])

    def test_at_least_3x_faster_than_the_sort_at_fb15k_width(self):
        """In-process ratio, not a wall-clock floor: both sides run here,
        best of N, on the row shape ``serve_hot`` ranks (14,951 scores,
        k = 10).  Measured ~30x; the gate is 3x."""
        rng = np.random.default_rng(0)
        row = rng.normal(size=14_951).astype(np.float32)
        row[rng.integers(0, len(row), 40)] = np.nan

        def best_of(fn, repeats=15):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn(row, 10)
                best = min(best, time.perf_counter() - start)
            return best

        assert np.array_equal(best_first(row, 10),
                              _reference.best_first(row, 10))
        assert best_of(_reference.best_first) >= 3.0 * best_of(best_first)

    def test_pools_at_least_1_3x_faster_than_ranking_then_sorting(self):
        """In-process ratio on ``serve_cold_reload``'s stage-1 shape: 16
        queries against 14,951 64-bit codes, pools of 1,200.  The oracle is
        the former formulation inline, a best-first ranking per row and
        one sort of the ranked pools; both sides include the same scan.
        Measured about 1.5x; the gate is 1.3x."""
        rng = np.random.default_rng(0)
        store = binary_module.BinaryStore(
            codes=rng.integers(0, 256, size=(14_951, 8), dtype=np.uint8),
            scales=rng.random(14_951).astype(np.float32), width=64)
        vectors = rng.normal(size=(16, 64)).astype(np.float32)

        def ranked_then_sorted(vectors, take):
            scores = store.approx_scores(vectors)
            order = np.empty((len(scores), take), dtype=np.int64)
            for i, row in enumerate(scores):
                order[i] = best_first(row, take)
            return np.sort(order, axis=1)

        pools = store.candidate_pools(vectors, 1200)
        assert np.array_equal(pools, ranked_then_sorted(vectors, 1200))
        # Interleaved best of N: a noisy neighbour slows both sides alike.
        best = {ranked_then_sorted: float("inf"),
                store.candidate_pools: float("inf")}
        for _ in range(15):
            for fn in best:
                start = time.perf_counter()
                fn(vectors, 1200)
                best[fn] = min(best[fn], time.perf_counter() - start)
        assert best[ranked_then_sorted] >= 1.3 * best[store.candidate_pools]


@pytest.fixture
def oracle_selection(monkeypatch):
    """Swap the kernel for the full stable argsort at every import site,
    its set form for the argsort's ids in id order."""
    def oracle_set(row, take):
        return np.sort(_reference.best_first(row, take))

    def install():
        monkeypatch.setattr(engine_module, "best_first",
                            _reference.best_first)
        monkeypatch.setattr(binary_module, "best_set", oracle_set)
    return install


def _same_answers(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.entities.dtype == rb.entities.dtype == np.int64
        assert ra.entities.tobytes() == rb.entities.tobytes()
        assert ra.scores.tobytes() == rb.scores.tobytes()


class TestCallSitesEqualTheOracleEngine:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_latent_kg(60, 5, 420, seed=5)

    def _served(self, graph, model_cls):
        model = model_cls(graph.n_entities, graph.n_relations, 4, seed=6)
        # Coarse embeddings: many exactly tied scores, so the tie-break
        # is exercised, not just the order of distinct values.
        model.entity_emb[:] = np.round(model.entity_emb * 4) / 4
        model.relation_emb[:] = np.round(model.relation_emb * 4) / 4
        return store_from_model(model, dataset=graph, with_binary=True)

    @pytest.mark.parametrize("model_cls", MODELS)
    @pytest.mark.parametrize("tails", [True, False])
    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("tier, rerank_k", [
        ("dense", 1), ("binary", 20), ("binary", 60)])
    def test_topk(self, graph, oracle_selection, model_cls, tails, filtered,
                  tier, rerank_k):
        served = self._served(graph, model_cls)
        train = graph.train
        anchors = train.heads if tails else train.tails
        queries = list(zip(anchors[:40], train.relations[:40]))

        def answers(k):
            engine = QueryEngine(served, cache_capacity=0, tier=tier,
                                 rerank_k=rerank_k)
            return engine.topk_batch(queries, k=k, filtered=filtered,
                                     tail_side=tails)

        got = {k: answers(k) for k in (1, 7, 200)}
        oracle_selection()
        for k, ours in got.items():
            _same_answers(ours, answers(k))

    @pytest.mark.parametrize("model_cls", MODELS)
    def test_nearest(self, graph, oracle_selection, model_cls):
        served = self._served(graph, model_cls)

        def answers():
            engine = QueryEngine(served, cache_capacity=0)
            return [engine.nearest_entities(e, k=k)
                    for e in (0, 17, 59) for k in (1, 9, 200)]

        got = answers()
        oracle_selection()
        _same_answers(got, answers())


class TestNearestCandidates:
    """``nearest_entities`` speaks the kernel's NaN convention: the query
    entity and any non-finite row are simply not candidates, and ``k`` is
    validated like every other top-k."""

    def _engine(self, bad_row=7):
        model = ComplEx(50, 2, 4, seed=3)
        model.entity_emb[bad_row] = np.nan
        return QueryEngine(store_from_model(model))

    def test_exclude_self_never_returns_self_beside_a_bad_row(self):
        result = self._engine().nearest_entities(3, k=49)
        assert len(result) == 48
        assert 3 not in result.entities and 7 not in result.entities
        assert np.isfinite(result.scores).all()

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_k_below_one_raises_like_topk(self, k):
        engine = self._engine()
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            engine.nearest_entities(3, k=k)
        # Refused before admission and cache lookup: nothing was counted.
        assert engine.snapshot()["n_queries"] == 0
        assert engine.cache.misses == 0

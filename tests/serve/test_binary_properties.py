"""Property tests: the 1-bit tier is the 1-bit quantizer, bit for bit.

The binary serving tier makes three proof obligations:

* **Round trip** — a :class:`BinaryStore` built from a model is exactly
  ``dequantize(quantize_1bit(...))`` of the entity matrix: same packed
  bytes, same scales, byte-identical reconstruction.  The tier re-uses
  the compression path's quantizer; these tests pin that it really is a
  re-use, not a lookalike.
* **Packed scoring** — Hamming distances computed from packed bytes
  equal a naive per-bit reference, and :meth:`BinaryStore.sign_dots`
  (the per-byte LUT scorer) equals the dense dot with the unpacked sign
  matrix; for ``±1`` queries it collapses to the popcount identity
  ``sign(q) . sign(t) = width - 2 * hamming`` exactly.
* **Selection determinism** — candidate selection orders by descending
  approximate score with exact float ties (``-0.0 == +0.0`` included)
  broken toward the smaller entity id; ``rerank_k >= n_entities`` yields
  the complete id set and the engine's binary tier then answers bitwise
  identically to the dense tier, for every model, both directions,
  filtered and not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.packing import unpack_signs
from repro.compress.quantization import SparseRows, dequantize, quantize_1bit
from repro.kg.datasets import generate_latent_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.serve import QueryEngine
from repro.serve.binary import _BYTE_SIGNS, BinaryStore, binarize_model
from repro.select import best_first
from tests import _reference
from tests._fixtures import store_from_model

MODEL_NAMES = sorted(MODEL_REGISTRY)

finite32 = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                     width=32)


@st.composite
def entity_matrix(draw):
    """Small float32 matrices with the awkward rows over-represented:
    exact zeros (both signs), all-negative rows, repeated values."""
    rows = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 20))
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
    cell = st.one_of(finite32, special)
    values = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                           min_size=rows, max_size=rows))
    return np.array(values, dtype=np.float32)


class _Model:
    """The minimal model surface ``binarize_model`` reads."""

    def __init__(self, matrix):
        self.entity_emb = matrix


class TestRoundTrip:
    @given(entity_matrix(), st.sampled_from(["avg", "max"]))
    @settings(max_examples=60, deadline=None)
    def test_store_is_the_quantizer_bitwise(self, matrix, stat):
        store = binarize_model(_Model(matrix), stat=stat)
        rows = SparseRows(indices=np.arange(len(matrix), dtype=np.int64),
                          values=matrix, n_rows=len(matrix))
        q = quantize_1bit(rows, stat=stat)
        assert store.codes.tobytes() == q.codes.tobytes()
        assert store.scales.tobytes() == \
            q.scales[:, 0].astype(np.float32).tobytes()
        approx = unpack_signs(store.codes, store.width) * store.scales[:, None]
        assert approx.tobytes() == dequantize(q).values.tobytes()

    @given(entity_matrix())
    @settings(max_examples=60, deadline=None)
    def test_scale_sign_invariants(self, matrix):
        """Scales are non-negative; a row of (signed) zeros reconstructs
        to exact zeros; an all-negative row reconstructs to ``-scale``
        in every coordinate (zeros pack as the positive sign bit, so a
        negative coordinate proves the bit survived the trip)."""
        store = binarize_model(_Model(matrix), stat="avg")
        signs = unpack_signs(store.codes, store.width)
        approx = signs * store.scales[:, None]
        assert (store.scales >= 0).all()
        for i, row in enumerate(matrix):
            if not np.any(row):  # all ±0.0
                assert store.scales[i] == 0.0
                assert not np.any(approx[i])
            if (row >= 0).all():  # +0.0 and -0.0 both take the + class
                assert (signs[i] == 1.0).all()
            if (row < 0).all():
                assert (signs[i] == -1.0).all()
                assert np.array_equal(approx[i],
                                      np.full_like(row, -store.scales[i]))

    def test_memory_reduction_is_structural(self):
        """bytes(dense) / bytes(store) = 4w / (w/8 + 4) — the >= 20x the
        memory tier promises needs w >= 64, and holds for every such
        width."""
        for width in (64, 128, 256):
            matrix = np.ones((10, width), dtype=np.float32)
            store = binarize_model(_Model(matrix))
            assert matrix.nbytes / store.nbytes >= 20.0


class TestPackedScoring:
    @given(entity_matrix(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sign_dots_matches_dense_dot(self, matrix, n_queries, seed):
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(n_queries, store.width)) \
            .astype(np.float32)
        signs = unpack_signs(store.codes, store.width)
        np.testing.assert_allclose(store.sign_dots(queries),
                                   queries @ signs.T, rtol=1e-5, atol=1e-4)

    @given(entity_matrix(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_popcount_identity_for_unit_queries(self, matrix, n_queries,
                                                seed):
        """With |q_i| = 1 every LUT entry is a small integer, so the ADC
        scorer equals width - 2 * hamming *exactly*, not approximately."""
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = np.where(rng.random((n_queries, store.width)) < 0.5,
                           -1.0, 1.0).astype(np.float32)
        q_bits = queries > 0
        t_bits = unpack_signs(store.codes, store.width) > 0
        hamming = (q_bits[:, None, :] != t_bits[None, :, :]).sum(axis=2)
        expect = (store.width - 2 * hamming).astype(np.float32)
        assert store.sign_dots(queries).tobytes() == expect.tobytes()

    @given(st.integers(1, 70), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=70, deadline=None)
    def test_sign_dots_is_the_fancy_index_gather_bitwise(self, width,
                                                         n_queries, seed):
        """The ``take`` gather adds the same float32 table rows in the
        same byte order as the mixed fancy index it replaced (formula
        kept here), at every width incl. non-multiples of 8."""
        rng = np.random.default_rng(seed)
        store = binarize_model(_Model(
            rng.normal(size=(23, width)).astype(np.float32)))
        queries = rng.normal(size=(n_queries, width)).astype(np.float32)
        n_bytes = store.codes.shape[1]
        padded = np.zeros((n_queries, 8 * n_bytes), dtype=np.float32)
        padded[:, :width] = queries
        lut = np.ascontiguousarray(np.einsum(
            "mjb,vb->jvm", padded.reshape(n_queries, n_bytes, 8),
            _BYTE_SIGNS))
        acc = lut[0, store.codes[:, 0], :].copy()
        for j in range(1, n_bytes):
            acc += lut[j, store.codes[:, j], :]
        assert store.sign_dots(queries).tobytes() == \
            np.ascontiguousarray(acc.T).tobytes()


score_rows = st.lists(
    st.lists(st.one_of(finite32,
                       st.sampled_from([0.0, -0.0, 1.0, -1.0,
                                        float("-inf")])),
             min_size=1, max_size=30),
    min_size=1, max_size=4)


class TestSelection:
    @given(score_rows)
    @settings(max_examples=80, deadline=None)
    def test_keys_reproduce_the_stable_sort(self, rows):
        """The O(n) selection is *defined* by the stable argsort of
        negated scores: same total order on every input, repeated values
        and mixed-sign zeros included."""
        width = max(len(r) for r in rows)
        scores = np.array([r + [0.0] * (width - len(r)) for r in rows],
                          dtype=np.float32)
        got = np.stack([best_first(row, width) for row in scores])
        expect = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(got, expect)

    @given(entity_matrix(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pool_shape_and_order_contract(self, matrix, rerank_k, seed):
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(3, store.width)).astype(np.float32)
        pools, approx = store.candidate_pools(queries, rerank_k)
        take = min(rerank_k, store.n_entities)
        assert pools.shape == approx.shape == (3, take)
        assert pools.dtype == np.int64 and approx.dtype == np.float32
        # pools: ascending unique ids, the best ``take`` by approximate
        # score; approx: those ids' approximate scores, bitwise.
        assert (np.diff(pools, axis=1) > 0).all()
        scores = store.approx_scores(queries)
        expect = np.sort(np.stack([_reference.best_first(row, take)
                                   for row in scores]), axis=1)
        assert np.array_equal(pools, expect)
        assert approx.tobytes() == np.take_along_axis(
            scores, pools, axis=1).tobytes()
        if rerank_k >= store.n_entities:
            assert np.array_equal(
                pools, np.tile(np.arange(store.n_entities), (3, 1)))

    @given(entity_matrix(), st.integers(1, 15), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_pools_equal_oracle_built_pools_under_masking(
            self, matrix, rerank_k, seed):
        """``(pools, approx)`` are the stable-argsort oracle's ids in id
        order and the approximate scores at them, with known facts sunk
        to ``-inf`` first — coarse queries so approximate scores tie."""
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = rng.integers(-1, 2, size=(3, store.width)) \
            .astype(np.float32)
        known = rng.random((3, store.n_entities)) < 0.3
        masked = np.nonzero(known)
        pools, approx = store.candidate_pools(queries, rerank_k,
                                              masked=masked)
        scores = store.approx_scores(queries)
        scores[masked] = -np.inf
        take = min(rerank_k, store.n_entities)
        expect = np.stack([_reference.best_first(row, take)
                           for row in scores])
        assert pools.dtype == np.int64
        assert np.array_equal(pools, np.sort(expect, axis=1))
        assert approx.tobytes() == np.take_along_axis(
            scores, pools, axis=1).tobytes()

    def test_non_finite_approximations_sink_instead_of_raising(self):
        """A NaN entity row has a NaN approximate score; the pool stays
        rectangular, with that entity behind every real candidate."""
        matrix = np.arange(1, 25, dtype=np.float32).reshape(6, 4)
        matrix[2] = np.nan
        store = binarize_model(_Model(matrix))
        queries = np.ones((2, 4), dtype=np.float32)
        pools, approx = store.candidate_pools(queries, 6)
        assert pools.shape == (2, 6)
        assert (approx[:, 2] == -np.inf).all()
        assert 2 not in store.candidate_pools(queries, 5)[0]


@st.composite
def tier_case(draw):
    seed = draw(st.integers(0, 10_000))
    n_entities = draw(st.integers(12, 40))
    n_relations = draw(st.integers(2, 6))
    store = generate_latent_kg(n_entities, n_relations,
                               n_triples=n_entities * 6, seed=seed)
    name = draw(st.sampled_from(MODEL_NAMES))
    model = make_model(name, n_entities, n_relations, 4, seed=seed + 1)
    n_queries = draw(st.integers(2, 10))
    picks = draw(st.lists(st.integers(0, len(store.train) - 1),
                          min_size=n_queries, max_size=n_queries))
    k = draw(st.integers(1, n_entities))
    filtered = draw(st.booleans())
    tails = draw(st.booleans())
    return store, model, np.array(picks), k, filtered, tails


class TestFullPoolEqualsDense:
    @given(tier_case())
    @settings(max_examples=25, deadline=None)
    def test_binary_tier_collapses_onto_dense_bitwise(self, case):
        """``rerank_k >= n_entities``: every entity is in the pool, and
        the tiered engine must return byte-identical answers to the dense
        engine — entities, scores, filtering, tie-breaks."""
        store, model, picks, k, filtered, tails = case
        served = store_from_model(model, dataset=store, with_binary=True)
        dense = QueryEngine(served, cache_capacity=0, tier="dense")
        binary = QueryEngine(served, cache_capacity=0, tier="binary",
                             rerank_k=store.n_entities)
        anchors = store.train.heads if tails else store.train.tails
        queries = list(zip(anchors[picks], store.train.relations[picks]))
        a = dense.topk_batch(queries, k=k, filtered=filtered,
                             tail_side=tails)
        b = binary.topk_batch(queries, k=k, filtered=filtered,
                              tail_side=tails)
        for ra, rb in zip(a, b):
            assert ra.entities.tobytes() == rb.entities.tobytes()
            assert ra.scores.tobytes() == rb.scores.tobytes()

    @given(tier_case())
    @settings(max_examples=15, deadline=None)
    def test_partial_pool_is_deterministic_and_filtered(self, case):
        """At any rerank_k: two engines agree bitwise with each other
        (determinism), answers never contain known facts when filtered,
        and every answer is a subset of the candidate pool."""
        store, model, picks, k, filtered, tails = case
        served = store_from_model(model, dataset=store, with_binary=True)
        rerank_k = max(k, store.n_entities // 3)
        engines = [QueryEngine(served, cache_capacity=0, tier="binary",
                               rerank_k=rerank_k) for _ in range(2)]
        anchors = store.train.heads if tails else store.train.tails
        queries = list(zip(anchors[picks], store.train.relations[picks]))
        a, b = (e.topk_batch(queries, k=k, filtered=filtered,
                             tail_side=tails) for e in engines)
        index = store.filter_index
        for (anchor, rel), ra, rb in zip(queries, a, b):
            assert ra.entities.tobytes() == rb.entities.tobytes()
            assert ra.scores.tobytes() == rb.scores.tobytes()
            if filtered:
                if tails:
                    _, known, _ = index.known_tails([anchor], [rel])
                else:
                    _, known, _ = index.known_heads([rel], [anchor])
                assert not np.isin(ra.entities, known).any()

"""Recall regression: the candidate stage finds what the dense tier ranks.

The binary tier's useful regime is ``rerank_k << n_entities``; its value
is only real if the Hamming-space candidate stage *recalls* the entities
the dense tier would have ranked on top.  These tests train a real model
on a seeded latent-factor graph (so the embedding geometry is the trained
kind, not random — random embeddings make the reconstruction ranking
artificially easy), export the sidecar through the public path, and pin
recall@1 / recall@10 of the tiered engine against the dense engine above
measured floors, per embedding width and pool size.

Floors carry a margin below the measured values (dim=8: 0.830-0.989 @10,
dim=16: 0.839-0.985 @10 at rerank_k 40/80/160 over n=400 entities) to
absorb BLAS reduction-order drift across platforms; a real candidate-
generation regression (wrong scale weighting, broken geometry dispatch,
biased selection) lands far below them — pure unweighted Hamming, for
one, measured ~0.55 recall@10 before scale weighting was added.
"""

import numpy as np
import pytest

from repro import TrainConfig, train
from repro.kg import generate_latent_kg
from repro.serve import EmbeddingStore, QueryEngine, export_binary
from repro.training.strategy import baseline_allreduce

N_ENTITIES, N_RELATIONS, N_QUERIES = 400, 8, 300

#: (rerank_k, recall@1 floor, recall@10 floor) — measured with margin.
FLOORS = [(40, 0.90, 0.78), (80, 0.94, 0.88), (160, 0.96, 0.95)]


@pytest.fixture(scope="module", params=[8, 16], ids=["dim8", "dim16"])
def served(request, tmp_path_factory):
    dim = request.param
    store = generate_latent_kg(N_ENTITIES, N_RELATIONS, 2_400, seed=5)
    ckpt = tmp_path_factory.mktemp(f"recall-d{dim}")
    config = TrainConfig(dim=dim, batch_size=128, base_lr=5e-3,
                         max_epochs=30, lr_patience=31, eval_max_queries=40,
                         seed=5, checkpoint_dir=ckpt, checkpoint_every=30)
    result = train(store, baseline_allreduce(), n_nodes=1, config=config)
    # The fixture only proves something about *trained* geometry: if
    # training regresses to noise the recall numbers are meaningless,
    # so fail here rather than report a vacuous pass.
    assert result.final_val_mrr > 0.1
    export_binary(ckpt, model_name="complex")
    return EmbeddingStore.from_checkpoint(ckpt, model_name="complex",
                                          dataset=store, with_binary=True)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(9)
    return [(int(rng.integers(N_ENTITIES)), int(rng.integers(N_RELATIONS)),
             bool(rng.integers(2))) for _ in range(N_QUERIES)]


@pytest.fixture(scope="module")
def dense_answers(served, queries):
    return QueryEngine(served, tier="dense",
                       cache_capacity=0).topk_batch(queries, k=10,
                                                    tail_side=None)


def _recalls(dense, binary):
    at10 = np.mean([
        len(np.intersect1d(a.entities, b.entities)) / max(len(a.entities), 1)
        for a, b in zip(dense, binary)])
    at1 = np.mean([
        1.0 if len(a.entities) and len(b.entities)
        and a.entities[0] == b.entities[0] else 0.0
        for a, b in zip(dense, binary)])
    return float(at1), float(at10)


class TestRecallFloors:
    @pytest.mark.parametrize("rerank_k,floor1,floor10", FLOORS,
                             ids=[f"k{k}" for k, _, _ in FLOORS])
    def test_recall_above_floor(self, served, queries, dense_answers,
                                rerank_k, floor1, floor10):
        engine = QueryEngine(served, tier="binary", rerank_k=rerank_k,
                             cache_capacity=0)
        answers = engine.topk_batch(queries, k=10, tail_side=None)
        at1, at10 = _recalls(dense_answers, answers)
        assert at1 >= floor1, f"recall@1 {at1:.3f} < {floor1}"
        assert at10 >= floor10, f"recall@10 {at10:.3f} < {floor10}"

    def test_recall_grows_with_pool(self, served, queries, dense_answers):
        """More candidates can only help: recall@10 must be monotone in
        rerank_k on this fixture, reaching 1.0 at the full pool."""
        at10 = []
        for rerank_k in [k for k, _, _ in FLOORS] + [N_ENTITIES]:
            engine = QueryEngine(served, tier="binary", rerank_k=rerank_k,
                                 cache_capacity=0)
            answers = engine.topk_batch(queries, k=10, tail_side=None)
            at10.append(_recalls(dense_answers, answers)[1])
        assert all(a <= b + 1e-12 for a, b in zip(at10, at10[1:]))
        assert at10[-1] == 1.0

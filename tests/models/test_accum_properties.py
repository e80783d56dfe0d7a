"""Property suite: the fused training step is bitwise-equal to its oracle.

The goldens' embeddings predate the incidence-CSR fold and the fused
gather / forward / backward kernels, so ``KGEModel.batch_gradients`` must
produce a loss and SparseRows **bitwise identical** to the unfused
pipeline — ``score`` -> loss -> ``tests._reference.score_grad`` ->
out-of-place L2 -> input-order scatter-add
(``tests._reference.scatter_add_rows``) — for every model and index
pattern.  These properties pin that across all four
scoring models under duplicate head/tail indices, single-example batches
and active L2 regularisation, and once more through ``Worker.compute_step``
with and without hardest-negative selection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.sparse import SparseRows
from repro.kg.datasets import make_tiny_kg
from repro.models import MODEL_REGISTRY, logistic_loss, make_model
from repro.training.strategy import StrategyConfig
from repro.training.worker import Worker
from tests._reference import scatter_add_rows, score_grad

N_ENTITIES = 12
N_RELATIONS = 5
DIM = 4

MODEL_NAMES = sorted(MODEL_REGISTRY)


def reference_gradients(model, h, r, t, loss_fn, l2=0.0):
    """The whole local step, unfused: every stage gathers for itself, L2
    is added out of place, the reference scatter accumulates."""
    loss, upstream = loss_fn(model.score(h, r, t))
    g_h, g_r, g_t = score_grad(model, h, r, t, upstream)
    if l2 > 0.0:
        reg = np.float32(2.0 * l2)
        g_h = g_h + reg * model.entity_emb[h]
        g_t = g_t + reg * model.entity_emb[t]
        g_r = g_r + reg * model.relation_emb[r]
    e_idx, e_val = scatter_add_rows(np.concatenate([h, t]),
                                    np.concatenate([g_h, g_t]))
    r_idx, r_val = scatter_add_rows(r, g_r)
    return (loss, SparseRows(e_idx, e_val, n_rows=model.n_entities),
            SparseRows(r_idx, r_val, n_rows=model.n_relations))


def assert_same_step(expected, got):
    assert expected[0] == got[0]
    assert_same_sparse(expected[1], got[1])
    assert_same_sparse(expected[2], got[2])


def assert_same_sparse(a, b):
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.n_rows == b.n_rows
    np.testing.assert_array_equal(a.values.view(np.uint32),
                                  b.values.view(np.uint32))


@st.composite
def batches(draw):
    """A batch with deliberately heavy head/tail duplication."""
    b = draw(st.integers(1, 48))
    # Drawing from a small vocabulary forces duplicates; allowing h == t
    # exercises the same entity appearing as head and tail of one example.
    h = draw(st.lists(st.integers(0, N_ENTITIES - 1),
                      min_size=b, max_size=b))
    t = draw(st.lists(st.integers(0, N_ENTITIES - 1),
                      min_size=b, max_size=b))
    r = draw(st.lists(st.integers(0, N_RELATIONS - 1),
                      min_size=b, max_size=b))
    seed = draw(st.integers(0, 2 ** 16))
    return (np.array(h, dtype=np.int64), np.array(r, dtype=np.int64),
            np.array(t, dtype=np.int64), seed)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    @given(batch=batches(), l2=st.sampled_from([0.0, 1e-6, 1e-2]))
    @settings(max_examples=40, deadline=None)
    def test_equals_reference(self, name, batch, l2):
        h, r, t, seed = batch
        model = make_model(name, N_ENTITIES, N_RELATIONS, DIM, seed=seed)
        rng = np.random.default_rng(seed)
        upstream = rng.normal(size=len(h)).astype(np.float32)
        fixed = lambda scores: (0.0, upstream)
        assert_same_step(reference_gradients(model, h, r, t, fixed, l2=l2),
                         model.batch_gradients(h, r, t, fixed, l2=l2))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_single_example_batch(self, name):
        model = make_model(name, N_ENTITIES, N_RELATIONS, DIM, seed=2)
        h = np.array([3]); r = np.array([1]); t = np.array([3])
        fixed = lambda scores: (0.0, np.array([-0.5], dtype=np.float32))
        got = model.batch_gradients(h, r, t, fixed)
        assert_same_step(reference_gradients(model, h, r, t, fixed), got)
        # h == t: the entity gradient folds both contributions into row 3.
        assert list(got[1].indices) == [3]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_example_hits_one_entity(self, name):
        """Worst-case hub: every head and tail is the same entity, pushing
        the fold deep into its sequential-chain tail."""
        model = make_model(name, N_ENTITIES, N_RELATIONS, DIM, seed=3)
        b = 64
        h = np.zeros(b, dtype=np.int64)
        t = np.zeros(b, dtype=np.int64)
        r = np.arange(b, dtype=np.int64) % N_RELATIONS
        rng = np.random.default_rng(4)
        upstream = rng.normal(size=b).astype(np.float32)
        fixed = lambda scores: (0.0, upstream)
        got = model.batch_gradients(h, r, t, fixed, l2=1e-3)
        assert_same_step(
            reference_gradients(model, h, r, t, fixed, l2=1e-3), got)
        assert got[1].nnz_rows == 1

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_score_grad_blocks_do_not_alias(self, name):
        """The fused step adds the L2 term to each block in place, so a
        model that hands one array back as two blocks (TransE's head and
        relation gradients are equal) would leak the entity penalty into
        the relation gradient."""
        model = make_model(name, N_ENTITIES, N_RELATIONS, DIM, seed=5)
        h = np.array([0, 1, 2]); r = np.array([0, 1, 0]); t = np.array([3, 4, 5])
        g_h, g_r, g_t = score_grad(model, h, r, t,
                                   np.ones(3, dtype=np.float32))
        assert not np.shares_memory(g_h, g_r)
        assert not np.shares_memory(g_h, g_t)
        assert not np.shares_memory(g_r, g_t)


class RecordingArray(np.ndarray):
    """Counts how often *this* array is indexed; arrays derived from it
    (gathered rows, half views) start their own count."""

    def __array_finalize__(self, obj):
        self.reads = 0

    def __getitem__(self, item):
        self.reads += 1
        return super().__getitem__(item)


def make_worker(store, ss, l2):
    strategy = StrategyConfig(negatives_sampled=6 if ss else 2,
                              negatives_used=2, sample_selection=ss)
    worker = Worker(rank=0, shard=store.train, n_entities=store.n_entities,
                    strategy=strategy, seed=9, l2=l2, store=store)
    worker.start_epoch()
    return worker


class TestFusedWorkerStep:
    BATCH = 64

    @pytest.mark.parametrize("l2", [0.0, 1e-6])
    @pytest.mark.parametrize("ss", [False, True], ids=["uniform", "ss"])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_compute_step_equals_unfused_oracle(self, name, ss, l2):
        store = make_tiny_kg(seed=1)
        model = make_model(name, store.n_entities, store.n_relations, DIM,
                           seed=2)
        batches = []
        fused = model.batch_gradients

        def spy(h, r, t, loss_fn, l2=0.0):
            batches.append((h, r, t, l2))
            return fused(h, r, t, loss_fn, l2=l2)

        model.batch_gradients = spy
        worker = make_worker(store, ss, l2)
        for step in range(3):
            out = worker.compute_step(model, step, self.BATCH)
            h, r, t, step_l2 = batches[-1]
            assert step_l2 == l2 / len(h)
            labels = np.concatenate([np.ones(self.BATCH),
                                     -np.ones(len(h) - self.BATCH)])
            expected = reference_gradients(
                model, h, r, t, lambda s: logistic_loss(s, labels), l2=step_l2)
            assert_same_step(expected,
                             (out.loss, out.entity_grad, out.relation_grad))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_one_gather_per_batch(self, name):
        """A training batch indexes the entity matrix twice (heads, tails)
        and the relation matrix once; hardest-negative selection adds one
        more forward over the candidates, nothing else."""
        store = make_tiny_kg(seed=1)
        model = make_model(name, store.n_entities, store.n_relations, DIM,
                           seed=2)
        model.entity_emb = model.entity_emb.view(RecordingArray)
        model.relation_emb = model.relation_emb.view(RecordingArray)
        for ss, forwards in ((False, 1), (True, 2)):
            model.entity_emb.reads = model.relation_emb.reads = 0
            make_worker(store, ss, l2=1e-6).compute_step(model, 0, self.BATCH)
            assert model.entity_emb.reads == 2 * forwards
            assert model.relation_emb.reads == forwards

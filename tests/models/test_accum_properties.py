"""Property suite: gradient accumulation is bitwise-equal to the reference.

The goldens' embeddings predate the incidence-CSR fold, so
``KGEModel.batch_gradients`` must produce SparseRows **bitwise identical**
to an input-order scatter-add (``repro._reference.scatter_add_rows``) for
every model and index pattern.  These properties pin that across all four
scoring models under duplicate head/tail indices, single-example batches
and active L2 regularisation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._reference import scatter_add_rows
from repro.comm.sparse import SparseRows
from repro.kg.spmat import build_fold_plan
from repro.models import MODEL_REGISTRY, make_model

N_ENTITIES = 12
N_RELATIONS = 5
DIM = 4

MODEL_NAMES = sorted(MODEL_REGISTRY)


def reference_gradients(model, h, r, t, upstream, l2=0.0):
    """batch_gradients' assembly, accumulated by the reference scatter."""
    g_h, g_r, g_t = model.score_grad(h, r, t, upstream)
    if l2 > 0.0:
        reg = np.float32(2.0 * l2)
        g_h = g_h + reg * model.entity_emb[h]
        g_t = g_t + reg * model.entity_emb[t]
        g_r = g_r + reg * model.relation_emb[r]
    e_idx, e_val = scatter_add_rows(np.concatenate([h, t]),
                                    np.concatenate([g_h, g_t]))
    r_idx, r_val = scatter_add_rows(r, g_r)
    return (SparseRows(e_idx, e_val, n_rows=model.n_entities),
            SparseRows(r_idx, r_val, n_rows=model.n_relations))


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

        e_naive, r_naive = reference_gradients(model, h, r, t, upstream,
                                               l2=l2)
        e_csr, r_csr = model.batch_gradients(h, r, t, upstream, l2=l2)
        assert_same_sparse(e_naive, e_csr)
        assert_same_sparse(r_naive, r_csr)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_prebuilt_plans_equal_implicit(self, name):
        """Passing the worker's per-batch plans must change nothing."""
        rng = np.random.default_rng(7)
        b = 40
        h = rng.integers(0, N_ENTITIES, size=b)
        r = rng.integers(0, N_RELATIONS, size=b)
        t = rng.integers(0, N_ENTITIES, size=b)
        upstream = rng.normal(size=b).astype(np.float32)
        model = make_model(name, N_ENTITIES, N_RELATIONS, DIM, seed=1)

        entity_plan = build_fold_plan(np.concatenate([h, t]), N_ENTITIES)
        relation_plan = build_fold_plan(r, N_RELATIONS)
        e_implicit, r_implicit = model.batch_gradients(
            h, r, t, upstream, l2=1e-4)
        e_planned, r_planned = model.batch_gradients(
            h, r, t, upstream, l2=1e-4,
            entity_plan=entity_plan, relation_plan=relation_plan)
        assert_same_sparse(e_implicit, e_planned)
        assert_same_sparse(r_implicit, r_planned)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_single_example_batch(self, name):
        model = make_model(name, N_ENTITIES, N_RELATIONS, DIM, seed=2)
        h = np.array([3]); r = np.array([1]); t = np.array([3])
        upstream = np.array([-0.5], dtype=np.float32)
        e_naive, r_naive = reference_gradients(model, h, r, t, upstream)
        e_csr, r_csr = model.batch_gradients(h, r, t, upstream)
        assert_same_sparse(e_naive, e_csr)
        assert_same_sparse(r_naive, r_csr)
        # h == t: the entity gradient folds both contributions into row 3.
        assert list(e_csr.indices) == [3]

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
        e_naive, r_naive = reference_gradients(model, h, r, t, upstream,
                                               l2=1e-3)
        e_csr, r_csr = model.batch_gradients(h, r, t, upstream, l2=1e-3)
        assert_same_sparse(e_naive, e_csr)
        assert_same_sparse(r_naive, r_csr)
        assert e_csr.nnz_rows == 1

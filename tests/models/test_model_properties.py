"""Property-based tests for KGE model gradients."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import ComplEx
from tests._fixtures import sparse_to_dense
from tests._reference import score_grad


@st.composite
def model_and_batch(draw):
    seed = draw(st.integers(0, 1000))
    model = ComplEx(10, 4, 3, seed=seed)
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed + 1)
    h = rng.integers(0, 10, n)
    r = rng.integers(0, 4, n)
    t = rng.integers(0, 10, n)
    upstream = rng.normal(size=n).astype(np.float32)
    return model, h, r, t, upstream


class TestGradientLinearity:
    @given(model_and_batch(), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_grad_linear_in_upstream(self, mb, factor):
        """score_grad is linear in the upstream signal."""
        model, h, r, t, upstream = mb
        g_h, g_r, g_t = score_grad(model, h, r, t, upstream)
        s_h, s_r, s_t = score_grad(
            model, h, r, t, (upstream * factor).astype(np.float32))
        np.testing.assert_allclose(s_h, g_h * np.float32(factor),
                                   rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(s_r, g_r * np.float32(factor),
                                   rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(s_t, g_t * np.float32(factor),
                                   rtol=1e-3, atol=1e-4)

    @given(model_and_batch())
    @settings(max_examples=40, deadline=None)
    def test_zero_upstream_zero_grad(self, mb):
        model, h, r, t, _ = mb
        g_h, g_r, g_t = score_grad(model, h, r, t,
                                   np.zeros(len(h), np.float32))
        assert np.abs(g_h).max() == 0
        assert np.abs(g_r).max() == 0
        assert np.abs(g_t).max() == 0


class TestBatchAccumulation:
    @given(model_and_batch())
    @settings(max_examples=40, deadline=None)
    def test_batch_gradients_sum_per_example_grads(self, mb):
        """SparseRows accumulation equals an explicit scatter-add."""
        model, h, r, t, upstream = mb
        _, eg, rg = model.batch_gradients(
            h, r, t, lambda scores: (0.0, upstream), l2=0.0)
        g_h, g_r, g_t = score_grad(model, h, r, t, upstream)

        expected_e = np.zeros((10, g_h.shape[1]), dtype=np.float64)
        np.add.at(expected_e, h, g_h)
        np.add.at(expected_e, t, g_t)
        np.testing.assert_allclose(sparse_to_dense(eg), expected_e,
                                   rtol=1e-4, atol=1e-5)

        expected_r = np.zeros((4, g_r.shape[1]), dtype=np.float64)
        np.add.at(expected_r, r, g_r)
        np.testing.assert_allclose(sparse_to_dense(rg), expected_r,
                                   rtol=1e-4, atol=1e-5)


class TestDeterminism:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_init(self, seed):
        a = ComplEx(8, 3, 4, seed=seed)
        b = ComplEx(8, 3, 4, seed=seed)
        np.testing.assert_array_equal(a.entity_emb, b.entity_emb)
        np.testing.assert_array_equal(a.relation_emb, b.relation_emb)

    def test_different_seed_different_init(self):
        a = ComplEx(8, 3, 4, seed=0)
        b = ComplEx(8, 3, 4, seed=1)
        assert not np.array_equal(a.entity_emb, b.entity_emb)

"""Unit tests common to all KGE models: scoring identities and exact
gradient checks against numerical differentiation."""

import importlib.util

import numpy as np
import pytest

import repro.models
from repro.models import ComplEx
from tests._fixtures import MODELS, sparse_to_dense
from tests._reference import score_grad


def batch(rng, n=6, n_entities=12, n_relations=4):
    return (rng.integers(0, n_entities, n), rng.integers(0, n_relations, n),
            rng.integers(0, n_entities, n))


@pytest.mark.parametrize("model_cls", MODELS)
class TestScoring:
    def test_score_shape(self, model_cls):
        m = model_cls(12, 4, 5, seed=0)
        h, r, t = batch(np.random.default_rng(0))
        assert m.score(h, r, t).shape == (6,)

    def test_score_all_tails_matches_pointwise(self, model_cls):
        m = model_cls(12, 4, 5, seed=0)
        rng = np.random.default_rng(1)
        h, r, _ = batch(rng, n=4)
        all_scores = m.score_all_tails(h, r)
        assert all_scores.shape == (4, 12)
        for i in range(4):
            for t in range(12):
                expected = m.score(h[i:i + 1], r[i:i + 1], np.array([t]))[0]
                assert all_scores[i, t] == pytest.approx(expected, abs=1e-4)

    def test_score_all_heads_matches_pointwise(self, model_cls):
        m = model_cls(12, 4, 5, seed=0)
        rng = np.random.default_rng(2)
        _, r, t = batch(rng, n=4)
        all_scores = m.score_all_heads(r, t)
        assert all_scores.shape == (4, 12)
        for i in range(4):
            for h in range(12):
                expected = m.score(np.array([h]), r[i:i + 1], t[i:i + 1])[0]
                assert all_scores[i, h] == pytest.approx(expected, abs=1e-4)

    def test_gradients_match_numerical(self, model_cls):
        """The closed-form backward equals central finite differences."""
        m = model_cls(12, 4, 5, seed=0)
        rng = np.random.default_rng(3)
        h, r, t = batch(rng, n=5)
        upstream = rng.normal(size=5).astype(np.float32)
        g_h, g_r, g_t = score_grad(m, h, r, t, upstream)

        eps = 1e-3

        def objective():
            return float(np.dot(upstream, m.score(h, r, t)))

        # Entity gradient rows: perturb one (example, coordinate) at a time.
        width = m.entity_emb.shape[1]
        for ex in range(5):
            for coord in range(0, width, 3):
                orig = m.entity_emb[h[ex], coord]
                m.entity_emb[h[ex], coord] = orig + eps
                up = objective()
                m.entity_emb[h[ex], coord] = orig - eps
                dn = objective()
                m.entity_emb[h[ex], coord] = orig
                num = (up - dn) / (2 * eps)
                # All examples sharing this (row, coord) contribute.
                analytic = sum(g_h[j, coord] for j in range(5)
                               if h[j] == h[ex])
                analytic += sum(g_t[j, coord] for j in range(5)
                                if t[j] == h[ex])
                assert analytic == pytest.approx(num, abs=2e-2), \
                    f"entity grad mismatch at ex={ex} coord={coord}"

        # Relation gradient.
        width_r = m.relation_emb.shape[1]
        for ex in range(5):
            for coord in range(0, width_r, 3):
                orig = m.relation_emb[r[ex], coord]
                m.relation_emb[r[ex], coord] = orig + eps
                up = objective()
                m.relation_emb[r[ex], coord] = orig - eps
                dn = objective()
                m.relation_emb[r[ex], coord] = orig
                num = (up - dn) / (2 * eps)
                analytic = sum(g_r[j, coord] for j in range(5)
                               if r[j] == r[ex])
                assert analytic == pytest.approx(num, abs=2e-2), \
                    f"relation grad mismatch at ex={ex} coord={coord}"

    def test_batch_gradients_sparse_shape(self, model_cls):
        m = model_cls(12, 4, 5, seed=0)
        rng = np.random.default_rng(4)
        h, r, t = batch(rng)
        upstream = rng.normal(size=6)
        _, eg, rg = m.batch_gradients(h, r, t,
                                      lambda scores: (0.0, upstream))
        assert eg.n_rows == 12 and rg.n_rows == 4
        assert set(eg.indices.tolist()) == set(h.tolist()) | set(t.tolist())
        assert set(rg.indices.tolist()) == set(r.tolist())

    def test_copy_is_independent(self, model_cls):
        m = model_cls(12, 4, 5, seed=0)
        clone = m.copy()
        clone.entity_emb[0, 0] += 1.0
        assert m.entity_emb[0, 0] != clone.entity_emb[0, 0]

    def test_flops_positive_and_backward_heavier(self, model_cls):
        m = model_cls(12, 4, 5, seed=0)
        fwd = m.flops_per_example(backward=False)
        bwd = m.flops_per_example(backward=True)
        assert 0 < fwd < bwd


class TestDotCandidateScoring:
    """A model's candidate scores are its ``query_vector`` contracted with
    the contiguous entity matrix, and nothing else."""

    N_ENTITIES = 300

    def queries(self, model_cls, n_queries):
        model = model_cls(self.N_ENTITIES, 5, 32, seed=3)
        rng = np.random.default_rng(n_queries)
        return (model, rng.integers(0, self.N_ENTITIES, n_queries),
                rng.integers(0, 5, n_queries))

    @pytest.mark.parametrize("n_queries", [1, 7])
    @pytest.mark.parametrize("model_cls", MODELS)
    def test_blocks_are_one_query_vector_contraction(self, model_cls,
                                                     n_queries):
        m, anchors, rels = self.queries(model_cls, n_queries)
        for side, scores in ((True, m.score_all_tails(anchors, rels)),
                             (False, m.score_all_heads(rels, anchors))):
            q = m.query_vector(anchors, rels, tail_side=side)
            assert scores.tobytes() == (q @ m.entity_emb.T).tobytes()

    @pytest.mark.parametrize("model_cls", MODELS)
    def test_rows_agree_with_the_training_forward(self, model_cls):
        m, anchors, rels = self.queries(model_cls, 7)
        every = np.arange(self.N_ENTITIES)
        tails = m.score_all_tails(anchors, rels)
        heads = m.score_all_heads(rels, anchors)
        for i, (a, r) in enumerate(zip(anchors, rels)):
            a = np.full(self.N_ENTITIES, a)
            r = np.full(self.N_ENTITIES, r)
            np.testing.assert_allclose(tails[i], m.score(a, r, every),
                                       rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(heads[i], m.score(every, r, a),
                                       rtol=1e-5, atol=1e-6)


class TestComplExSpecifics:
    def test_score_matches_complex_arithmetic(self):
        """Equation (1): Re(<e_h, e_r, conj(e_t)>) via numpy complex."""
        m = ComplEx(6, 3, 4, seed=1)
        h, r, t = np.array([0, 3]), np.array([1, 2]), np.array([5, 4])
        e = m.entity_emb[:, :4] + 1j * m.entity_emb[:, 4:]
        w = m.relation_emb[:, :4] + 1j * m.relation_emb[:, 4:]
        expected = np.real(np.sum(e[h] * w[r] * np.conj(e[t]), axis=1))
        np.testing.assert_allclose(m.score(h, r, t), expected, rtol=1e-5)

    def test_width_is_twice_dim(self):
        m = ComplEx(6, 3, 4)
        assert m.entity_emb.shape == (6, 8)

    def test_asymmetric_relations_supported(self):
        """ComplEx can give (h, r, t) and (t, r, h) different scores."""
        m = ComplEx(6, 3, 4, seed=2)
        s_fwd = m.score(np.array([0]), np.array([0]), np.array([1]))
        s_rev = m.score(np.array([1]), np.array([0]), np.array([0]))
        assert abs(s_fwd[0] - s_rev[0]) > 1e-6


class TestRegistry:
    """``repro.models`` offers one architecture, ComplEx, and no name
    to choose it by."""

    def test_complex_is_the_only_model(self):
        assert repro.models.__all__ == [
            "ComplEx", "KGEModel", "logistic_loss", "sigmoid", "softplus"]
        assert not hasattr(repro, "make_model")
        assert importlib.util.find_spec("repro.models.distmult") is None

    @pytest.mark.parametrize("name", ["rotate", "transe"])
    def test_distance_models_are_gone(self, name):
        assert importlib.util.find_spec(f"repro.models.{name}") is None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ComplEx(0, 3, 4)
        with pytest.raises(ValueError):
            ComplEx(10, 3, 0)


class TestL2Regularisation:
    def test_l2_adds_weight_decay_direction(self):
        m = ComplEx(8, 3, 4, seed=0)
        h, r, t = np.array([0]), np.array([0]), np.array([1])
        zero_up = np.zeros(1, dtype=np.float32)
        _, eg, rg = m.batch_gradients(
            h, r, t, lambda scores: (0.0, zero_up), l2=0.5)
        # With zero upstream the only gradient is 2 * l2 * embedding.
        np.testing.assert_allclose(
            sparse_to_dense(eg)[0], m.entity_emb[0], rtol=1e-5)
        np.testing.assert_allclose(
            sparse_to_dense(rg)[0], m.relation_emb[0], rtol=1e-5)

    def test_no_l2_means_no_decay(self):
        m = ComplEx(8, 3, 4, seed=0)
        _, eg, _ = m.batch_gradients(np.array([0]), np.array([0]),
                                     np.array([1]),
                                     lambda scores: (0.0, np.zeros(1)), l2=0.0)
        np.testing.assert_allclose(sparse_to_dense(eg), 0.0)

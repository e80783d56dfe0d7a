"""Unit tests for loss functions and their gradients."""

import numpy as np
import pytest

from repro.models.loss import logistic_loss, sigmoid, softplus


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert sigmoid(np.array([np.log(3)]))[0] == pytest.approx(0.75)

    def test_stable_for_extreme_inputs(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0
        assert np.isfinite(out).all()

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0)


class TestSoftplus:
    def test_known_values(self):
        assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2))

    def test_stable_for_extreme_inputs(self):
        out = softplus(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1000.0)

    def test_always_positive(self):
        assert (softplus(np.linspace(-50, 50, 101)) >= 0).all()


class TestLogisticLoss:
    def test_zero_score_loss_is_log2(self):
        loss, _ = logistic_loss(np.zeros(4), np.array([1, -1, 1, -1.0]))
        assert loss == pytest.approx(np.log(2))

    def test_correctly_classified_loss_small(self):
        loss, _ = logistic_loss(np.array([20.0, -20.0]),
                                np.array([1.0, -1.0]))
        assert loss < 1e-6

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=8)
        labels = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        _, grad = logistic_loss(scores, labels)
        eps = 1e-5
        for i in range(8):
            up = scores.copy(); up[i] += eps
            dn = scores.copy(); dn[i] -= eps
            num = (logistic_loss(up, labels)[0]
                   - logistic_loss(dn, labels)[0]) / (2 * eps)
            assert grad[i] == pytest.approx(num, abs=1e-5)

    def test_gradient_sign(self):
        """Positives push scores up (negative grad), negatives down."""
        _, grad = logistic_loss(np.zeros(2), np.array([1.0, -1.0]))
        assert grad[0] < 0 < grad[1]

    def test_batch_normalisation(self):
        """Doubling the batch halves per-example gradient."""
        _, g1 = logistic_loss(np.zeros(2), np.ones(2))
        _, g2 = logistic_loss(np.zeros(4), np.ones(4))
        assert g2[0] == pytest.approx(g1[0] / 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            logistic_loss(np.zeros(3), np.ones(2))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            logistic_loss(np.zeros(0), np.ones(0))

    def test_extreme_scores_finite(self):
        loss, grad = logistic_loss(np.array([1e4, -1e4]),
                                   np.array([-1.0, 1.0]))
        assert np.isfinite(loss) and np.isfinite(grad).all()


"""Loss functions and their gradients.

The paper trains ComplEx with the logistic loss

    L = sum log(1 + exp(-Y * phi)) + lambda * ||theta||^2

where ``Y`` is +1 for facts and -1 for corrupted triples.  We provide the
numerically stable softplus form and its derivative.
"""

from __future__ import annotations

import numpy as np


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed stably for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_loss(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Paper's loss (sans L2, which the model adds row-wise).

    Parameters
    ----------
    scores:
        Model scores ``phi`` per example.
    labels:
        +1 / -1 per example.

    Returns
    -------
    (mean_loss, dL/dscore)
        The gradient is per-example: ``-Y * sigmoid(-Y * phi)``, scaled by
        1/batch so gradient magnitudes are batch-size independent.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    if len(scores) == 0:
        raise ValueError("empty batch")
    margin = labels * scores
    loss = float(softplus(-margin).mean())
    grad = (-labels * sigmoid(-margin) / len(scores)).astype(np.float32)
    return loss, grad

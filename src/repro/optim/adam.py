"""Adam optimiser with sparse-row updates (the paper's optimiser).

Embedding training only touches the rows present in a batch, so the update
is applied row-wise via :class:`~repro.comm.sparse.SparseRows`.  Moment
state is dense (same shape as the parameter) but only touched rows pay the
update cost — this mirrors TensorFlow's sparse Adam behaviour the paper's
Horovod setup used.

Bias correction always uses per-row step counts (the TF/Keras lazy sparse
semantics).  An update carrying every row advances every count at once, so
exclusively all-row usage recovers the classic global step count.

The update runs in float32.  With ``c2 = sqrt(1 - beta2**t)`` the textbook
``lr * m_hat / (sqrt(v_hat) + eps)`` is, in exact arithmetic,
``step * m / (sqrt(v) + eps_t)`` with ``step = lr * c2 / (1 - beta1**t)``
and ``eps_t = eps * c2``.  Those two per-row scalars are computed in float64
from the int64 count ``t`` and rounded to float32 once each, so the bias
correction makes no float64 ``(rows x width)`` array; only the rounding
differs from the float64 form.  Every operation is elementwise within a
row, so a row's bits do not depend on which other rows share the call —
which is what makes blocking the rows (:data:`ROW_BLOCK`) free.
"""

from __future__ import annotations

import numpy as np

from ..comm.sparse import SparseRows

#: Rows updated per pass.  Each pass runs every elementwise step over one
#: block, so its few (rows x width) float32 temporaries stay in cache
#: (512 x 64 floats is 128 KiB) instead of streaming through memory.
ROW_BLOCK = 512


class AdamState:
    """Adam state for one parameter matrix."""

    def __init__(self, shape: tuple[int, int],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1): {beta1}, {beta2}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.m = np.zeros(shape, dtype=np.float32)
        self.v = np.zeros(shape, dtype=np.float32)
        self.steps = np.zeros(shape[0], dtype=np.int64)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def apply_sparse(self, param: np.ndarray, grad: SparseRows,
                     lr: float) -> None:
        """In-place Adam update of the rows carried by ``grad``."""
        if param.shape != self.m.shape:
            raise ValueError(
                f"param shape {param.shape} does not match optimiser state "
                f"{self.m.shape}")
        if param.shape[0] != grad.n_rows or (grad.nnz_rows
                                             and param.shape[1] != grad.dim):
            raise ValueError(
                f"param shape {param.shape} does not match gradient "
                f"({grad.n_rows}, {grad.dim})"
            )
        idx = grad.indices
        if len(idx) == 0:
            return
        t = self.steps[idx] + 1
        self.steps[idx] = t
        # The per-row bias correction as two float32 scalars (module
        # docstring); c2, their common factor, stays float64.
        c2 = np.sqrt(1.0 - self.beta2 ** t)
        step = (lr * c2 / (1.0 - self.beta1 ** t)).astype(np.float32)
        eps_t = (self.eps * c2).astype(np.float32)
        values = grad.values
        for lo in range(0, len(idx), ROW_BLOCK):
            rows, g = idx[lo:lo + ROW_BLOCK], values[lo:lo + ROW_BLOCK]
            m = np.take(self.m, rows, axis=0)
            m *= self.beta1
            gg = g * (1.0 - self.beta1)
            m += gg
            self.m[rows] = m
            v = np.take(self.v, rows, axis=0)
            np.multiply(g, g, out=gg)
            gg *= 1.0 - self.beta2
            v *= self.beta2
            v += gg
            self.v[rows] = v
            np.sqrt(v, out=v)
            v += eps_t[lo:lo + ROW_BLOCK, None]
            m *= step[lo:lo + ROW_BLOCK, None]
            m /= v
            p = np.take(param, rows, axis=0)
            p -= m
            param[rows] = p


class Adam:
    """Adam over a KGE model's two embedding matrices."""

    def __init__(self, model, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.entity_state = AdamState(model.entity_emb.shape, beta1, beta2, eps)
        self.relation_state = AdamState(model.relation_emb.shape, beta1, beta2, eps)
        self.model = model

    def step(self, entity_grad: SparseRows, relation_grad: SparseRows,
             lr: float) -> None:
        """Apply one synchronous update from (already aggregated) gradients."""
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.entity_state.apply_sparse(self.model.entity_emb, entity_grad, lr)
        self.relation_state.apply_sparse(self.model.relation_emb, relation_grad, lr)

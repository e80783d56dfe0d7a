"""DistMult — the real-valued special case of ComplEx (future-work model).

Score: ``phi(h, r, t) = sum_d h_d r_d t_d``.  The paper notes that all its
strategies except negative-sample selection are model-agnostic; DistMult
lets the benchmarks demonstrate that.  It is also the ``width_factor = 1``
case of the :meth:`~repro.models.base.KGEModel.query_vector` contract,
which ComplEx fills at width factor 2.
"""

from __future__ import annotations

import numpy as np

from .base import KGEModel


class DistMult(KGEModel):
    """Trilinear real-valued bilinear-diagonal model."""

    width_factor = 1

    def score(self, h, r, t):
        return self._forward(*self._gather(h, r, t))[0]

    def _forward(self, e_h, e_r, e_t):
        return np.sum(e_h * e_r * e_t, axis=-1), (e_h, e_r, e_t)

    def _backward(self, saved, u, g_h, g_r, g_t):
        e_h, e_r, e_t = saved
        # (u * e_r) and (u * e_h) are each needed twice; sharing them keeps
        # the left-to-right evaluation order of u * e_r * e_t and friends.
        ur = u * e_r
        uh = u * e_h
        np.multiply(ur, e_t, out=g_h)
        np.multiply(uh, e_t, out=g_r)
        np.multiply(uh, e_r, out=g_t)

    def query_vector(self, anchors, rels, tail_side: bool = True):
        """The score is symmetric and already linear in the candidate:
        ``phi = (h * r) . t = (r * t) . h``, so the query vector is the
        elementwise product of the two fixed embeddings."""
        e = self.entity_emb[np.asarray(anchors, dtype=np.int64)]
        r = self.relation_emb[np.asarray(rels, dtype=np.int64)]
        return e * r

    def flops_per_example(self, backward: bool = True) -> int:
        forward = 3 * self.dim
        return forward * (4 if backward else 1)

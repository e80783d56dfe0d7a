"""TransE — translation model (Gupta & Vadhiyar's baseline; future work).

Score is the *negated* translation distance so that, like the other models,
higher means more plausible:

    phi(h, r, t) = -|| e_h + e_r - e_t ||_p      (p = 1 or 2)

The L1 subgradient at zero is taken as 0.
"""

from __future__ import annotations

import numpy as np

from .base import KGEModel


class TransE(KGEModel):
    """Translation-based model with L1 or L2 distance."""

    width_factor = 1
    score_geometry = "distance"

    def __init__(self, n_entities: int, n_relations: int, dim: int,
                 seed: int = 0, norm: int = 1):
        if norm not in (1, 2):
            raise ValueError(f"norm must be 1 or 2, got {norm}")
        super().__init__(n_entities, n_relations, dim, seed=seed)
        self.norm = norm

    def score(self, h, r, t):
        return self._forward(*self._gather(h, r, t))[0]

    def _forward(self, e_h, e_r, e_t):
        diff = e_h + e_r - e_t
        if self.norm == 1:
            return -np.abs(diff).sum(axis=-1), (diff, None)
        lengths = np.sqrt(np.maximum(np.sum(diff * diff, axis=-1), 1e-12))
        return -lengths, (diff, lengths)

    def _backward(self, saved, u, g_h, g_r, g_t):
        diff, lengths = saved
        if self.norm == 1:
            slope = -np.sign(diff)
        else:
            slope = -diff / lengths[:, None]
        # d phi/d h = d phi/d r = u * slope, d phi/d t = -(u * slope).
        np.multiply(u, slope, out=g_h)
        g_r[...] = g_h
        np.negative(g_h, out=g_t)

    def score_tails_block(self, h, r, lo, hi):
        base = (self.entity_emb[np.asarray(h, dtype=np.int64)]
                + self.relation_emb[np.asarray(r, dtype=np.int64)])
        diffs = base[:, None, :] - self.entity_emb[None, lo:hi, :]
        if self.norm == 1:
            return -np.abs(diffs).sum(axis=-1)
        return -np.sqrt(np.maximum(np.sum(diffs * diffs, axis=-1), 1e-12))

    def score_heads_block(self, r, t, lo, hi):
        base = (self.entity_emb[np.asarray(t, dtype=np.int64)]
                - self.relation_emb[np.asarray(r, dtype=np.int64)])
        diffs = self.entity_emb[None, lo:hi, :] - base[:, None, :]
        if self.norm == 1:
            return -np.abs(diffs).sum(axis=-1)
        return -np.sqrt(np.maximum(np.sum(diffs * diffs, axis=-1), 1e-12))

    def query_vector(self, anchors, rels, tail_side: bool = True):
        """Translation target: the best tail sits at ``h + r``, the best
        head at ``t - r``; sign agreement with the target proxies small
        translation distance."""
        e = self.entity_emb[np.asarray(anchors, dtype=np.int64)]
        r = self.relation_emb[np.asarray(rels, dtype=np.int64)]
        return e + r if tail_side else e - r

    def score_candidates(self, anchors, rels, candidates,
                         tail_side: bool = True):
        """Pool re-rank: residual of each candidate to the translation
        target ``q`` (the distance is symmetric in the residual's sign,
        so one formula covers both directions)."""
        q = self.query_vector(anchors, rels, tail_side=tail_side)
        d = (self.entity_emb[np.asarray(candidates, dtype=np.int64)]
             - q[:, None, :])
        if self.norm == 1:
            return -np.abs(d).sum(axis=-1)
        return -np.sqrt(np.maximum(np.sum(d * d, axis=-1), 1e-12))

    def flops_per_example(self, backward: bool = True) -> int:
        forward = 4 * self.dim
        return forward * (4 if backward else 1)

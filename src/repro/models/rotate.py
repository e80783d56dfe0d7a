"""RotatE (Sun et al., 2019) — rotation-in-complex-plane model.

Included for the paper's future work ("explore our methods with other KGE
models").  Entities are complex vectors; each relation is a vector of
**phases**, acting as an element-wise rotation.  The score is the negative
L1 modulus of the rotation residual:

    phi(h, r, t) = - sum_d | h_d * e^{i theta_d} - t_d |

Gradients are hand-derived like the other models.  Unlike ComplEx /
DistMult / TransE the relation parameter width differs from the entity
width (``dim`` phases vs ``2 * dim`` reals), which also exercises the
trainer's handling of differently-shaped gradient matrices.
"""

from __future__ import annotations

import numpy as np

from .base import KGEModel


class RotatE(KGEModel):
    """Rotation model with closed-form gradients."""

    width_factor = 2  # entity storage: [real | imag]
    score_geometry = "distance"

    def __init__(self, n_entities: int, n_relations: int, dim: int,
                 seed: int = 0):
        super().__init__(n_entities, n_relations, dim, seed=seed)
        # Relations are phases in (-pi, pi], one per complex dimension.
        rng = np.random.default_rng((seed, 1))
        self.relation_emb = rng.uniform(
            -np.pi, np.pi, size=(n_relations, dim)).astype(np.float32)

    def score(self, h, r, t):
        return self._forward(*self._gather(h, r, t))[0]

    def _forward(self, e_h, theta, e_t):
        h_re, h_im = self._split_copy(e_h)
        t_re, t_im = self._split_copy(e_t)
        cos, sin = np.cos(theta), np.sin(theta)
        hr_re = h_re * cos - h_im * sin
        hr_im = h_re * sin + h_im * cos
        # (u, v): real/imag residual of h * e^{i theta} - t; m its modulus.
        u = hr_re - t_re
        v = hr_im - t_im
        m = np.sqrt(np.maximum(u * u + v * v, 1e-12))
        return -m.sum(axis=-1), (u, v, m, hr_re, hr_im, cos, sin)

    def _backward(self, saved, w, g_h, g_r, g_t):
        u, v, m, hr_re, hr_im, cos, sin = saved
        dim = self.dim
        du = -u / m  # d score / d u
        dv = -v / m
        # d u/d h_re = cos, d v/d h_re = sin; d u/d h_im = -sin, d v/d h_im = cos
        np.multiply(w, du * cos + dv * sin, out=g_h[:, :dim])
        np.multiply(w, -du * sin + dv * cos, out=g_h[:, dim:])
        # d u/d theta = -hr_im, d v/d theta = hr_re
        np.multiply(w, du * (-hr_im) + dv * hr_re, out=g_r)
        # d u/d t_re = -1, d v/d t_im = -1
        np.multiply(w, -du, out=g_t[:, :dim])
        np.multiply(w, -dv, out=g_t[:, dim:])

    def _rotated_heads(self, h, r):
        h_re, h_im = self._split(self.entity_emb[np.asarray(h, dtype=np.int64)])
        theta = self.relation_emb[np.asarray(r, dtype=np.int64)]
        cos, sin = np.cos(theta), np.sin(theta)
        return h_re * cos - h_im * sin, h_re * sin + h_im * cos

    def score_tails_block(self, h, r, lo, hi):
        hr_re, hr_im = self._rotated_heads(h, r)
        e_re, e_im = self._split(self.entity_emb[lo:hi])
        u = hr_re[:, None, :] - e_re[None, :, :]
        v = hr_im[:, None, :] - e_im[None, :, :]
        return -np.sqrt(np.maximum(u * u + v * v, 1e-12)).sum(axis=-1)

    def score_heads_block(self, r, t, lo, hi):
        # |h e^{i theta} - t| = |h - t e^{-i theta}|: rotate tails backward.
        t_re, t_im = self._split(self.entity_emb[np.asarray(t, dtype=np.int64)])
        theta = self.relation_emb[np.asarray(r, dtype=np.int64)]
        cos, sin = np.cos(theta), np.sin(theta)
        tr_re = t_re * cos + t_im * sin
        tr_im = -t_re * sin + t_im * cos
        e_re, e_im = self._split(self.entity_emb[lo:hi])
        u = e_re[None, :, :] - tr_re[:, None, :]
        v = e_im[None, :, :] - tr_im[:, None, :]
        return -np.sqrt(np.maximum(u * u + v * v, 1e-12)).sum(axis=-1)

    def query_vector(self, anchors, rels, tail_side: bool = True):
        """Rotation target: the best tail sits at ``h * e^{i theta}``, the
        best head at ``t * e^{-i theta}`` (the same backward rotation
        ``score_heads_block`` uses), concatenated ``[real | imag]``."""
        anchors = np.asarray(anchors, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        if tail_side:
            hr_re, hr_im = self._rotated_heads(anchors, rels)
            return np.concatenate([hr_re, hr_im], axis=-1)
        t_re, t_im = self._split(self.entity_emb[anchors])
        theta = self.relation_emb[rels]
        cos, sin = np.cos(theta), np.sin(theta)
        return np.concatenate([t_re * cos + t_im * sin,
                               -t_re * sin + t_im * cos], axis=-1)

    def score_candidates(self, anchors, rels, candidates,
                         tail_side: bool = True):
        """Pool re-rank: modulus of each candidate's residual to the
        rotation target ``q`` — the same forward/backward-rotated point
        ``query_vector`` returns, so both directions reduce to one
        complex-residual formula."""
        q = self.query_vector(anchors, rels, tail_side=tail_side)
        cand = self.entity_emb[np.asarray(candidates, dtype=np.int64)]
        u = cand[..., :self.dim] - q[:, None, :self.dim]
        v = cand[..., self.dim:] - q[:, None, self.dim:]
        return -np.sqrt(np.maximum(u * u + v * v, 1e-12)).sum(axis=-1)

    def flops_per_example(self, backward: bool = True) -> int:
        forward = 16 * self.dim
        return forward * (4 if backward else 1)

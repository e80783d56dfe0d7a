"""ComplEx (Trouillon et al., 2016) — the paper's KGE model.

Embeddings are complex vectors stored as float32 ``[real | imag]`` halves of
width ``2 * dim``.  The score is the real part of the trilinear product

    phi(h, r, t) = Re( < e_h, e_r, conj(e_t) > )
                 = sum_d (h_re r_re - h_im r_im) t_re
                       + (h_re r_im + h_im r_re) t_im

(equation (1) in the paper, regrouped).  The backward pass is the exact
closed form of the partial derivatives, vectorised over the batch.

Candidate ranking never splits the entity matrix into halves: ``phi`` is
linear in the candidate, and :meth:`ComplEx.query_vector` writes that
linear form in the same ``[real | imag]`` layout, so the base class scores
every candidate with one contiguous matrix product.
"""

from __future__ import annotations

import numpy as np

from .base import KGEModel


class ComplEx(KGEModel):
    """ComplEx model with hand-derived gradients."""

    width_factor = 2

    def score(self, h, r, t):
        return self._forward(*self._gather(h, r, t))[0]

    def _forward(self, e_h, e_r, e_t):
        h_re, h_im = self._split_copy(e_h)
        r_re, r_im = self._split_copy(e_r)
        t_re, t_im = self._split_copy(e_t)
        # Two-step in-place sums: the same operations, fewer temporaries.
        hr_re = h_re * r_re
        hr_re -= h_im * r_im
        hr_im = h_re * r_im
        hr_im += h_im * r_re
        terms = hr_re * t_re
        terms += hr_im * t_im
        return np.sum(terms, axis=-1), (h_re, h_im, r_re, r_im, t_re, t_im,
                                        hr_re, hr_im)

    def _backward(self, saved, u, g_h, g_r, g_t):
        h_re, h_im, r_re, r_im, t_re, t_im, hr_re, hr_im = saved
        dim = self.dim
        first, second = np.empty_like(h_re), np.empty_like(h_re)

        def scaled(a, b, combine, c, d, out):
            """out = u * (a*b <combine> c*d); only the last pass strides."""
            np.multiply(a, b, out=first)
            np.multiply(c, d, out=second)
            combine(first, second, out=first)
            np.multiply(u, first, out=out)

        # d phi / d h = (r_re t_re + r_im t_im, r_re t_im - r_im t_re)
        scaled(r_re, t_re, np.add, r_im, t_im, g_h[:, :dim])
        scaled(r_re, t_im, np.subtract, r_im, t_re, g_h[:, dim:])
        # d phi / d r = (h_re t_re + h_im t_im, h_re t_im - h_im t_re)
        scaled(h_re, t_re, np.add, h_im, t_im, g_r[:, :dim])
        scaled(h_re, t_im, np.subtract, h_im, t_re, g_r[:, dim:])
        # d phi / d t = (h_re r_re - h_im r_im, h_re r_im + h_im r_re):
        # the rotated head the forward pass already holds.
        np.multiply(u, hr_re, out=g_t[:, :dim])
        np.multiply(u, hr_im, out=g_t[:, dim:])

    def query_vector(self, anchors, rels, tail_side: bool = True):
        """The linear form the score contracts with the candidate, in the
        ``[real | imag]`` layout: ``phi = q . e_t`` with
        ``q = (h_re r_re - h_im r_im, h_re r_im + h_im r_re)`` on the tail
        side, and ``phi = q . e_h`` with
        ``q = (r_re t_re + r_im t_im, r_re t_im - r_im t_re)`` on the head
        side.  Because ``q`` has the entity rows' layout, every candidate
        score is one ``2 * dim``-term dot with a contiguous entity row."""
        anchors = np.asarray(anchors, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        e_re, e_im = self._split(self.entity_emb[anchors])
        r_re, r_im = self._split(self.relation_emb[rels])
        if tail_side:
            return np.concatenate([e_re * r_re - e_im * r_im,
                                   e_re * r_im + e_im * r_re], axis=-1)
        return np.concatenate([r_re * e_re + r_im * e_im,
                               r_re * e_im - r_im * e_re], axis=-1)

    def flops_per_example(self, backward: bool = True) -> int:
        # Forward: 2 complex hadamard products + dot = ~14 * dim mul-adds.
        forward = 14 * self.dim
        # Backward: three gradient blocks of similar cost.
        return forward * (4 if backward else 1)

"""Common interface and shared machinery for KGE models.

Every model holds two float32 embedding matrices (entities and relations)
and is, for training, two elementwise kernels over *gathered* rows: a
forward that scores a batch and keeps what its derivative needs, and a
closed-form backward — the gradients an autodiff framework would produce,
written out by hand so the whole system runs on NumPy.  :class:`KGEModel`
owns what surrounds them: one gather per batch, the loss hand-off, the L2
term and the fold into :class:`~repro.comm.sparse.SparseRows` (only the
rows a batch touches are non-zero — the fact the paper's whole
communication strategy rests on).

For ranking, a model writes one more function,
:meth:`KGEModel.query_vector`: the linear form its score contracts with a
candidate entity.  The base class scores every candidate from it with one
contiguous matrix product; the training forward stays the reference it
agrees with to float tolerance.
"""

from __future__ import annotations

import abc
import copy

import numpy as np

from ..comm.sparse import SparseRows


def _rows(emb: np.ndarray, ids) -> np.ndarray:
    """``emb[ids]`` for an index array of any shape, the same bytes:
    ``np.take`` along the rows copies each row whole, where fancy indexing
    takes up to twice as long."""
    return np.take(emb, np.asarray(ids, dtype=np.int64), axis=0)


class KGEModel(abc.ABC):
    """Base class for knowledge-graph-embedding models.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes.
    dim:
        Embedding dimension: the number of *complex* dimensions; the real
        storage width is ``width_factor * dim``.
    seed:
        Initialisation seed (Xavier-style uniform init).
    """

    #: Real columns stored per embedding dimension (2 for ComplEx's
    #: ``[real | imag]`` halves); set by the concrete model.
    width_factor: int

    def __init__(self, n_entities: int, n_relations: int, dim: int,
                 seed: int = 0):
        if n_entities < 1 or n_relations < 1 or dim < 1:
            raise ValueError(
                f"invalid model shape: entities={n_entities}, "
                f"relations={n_relations}, dim={dim}"
            )
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.dim = dim
        self.seed = seed
        width = dim * self.width_factor
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / (dim + dim))
        self.entity_emb = rng.uniform(-bound, bound,
                                      size=(n_entities, width)).astype(np.float32)
        self.relation_emb = rng.uniform(-bound, bound,
                                        size=(n_relations, width)).astype(np.float32)

    # -- the two training kernels, and what is built on them -----------------

    @abc.abstractmethod
    def _forward(self, e_h: np.ndarray, e_r: np.ndarray, e_t: np.ndarray
                 ) -> tuple[np.ndarray, tuple]:
        """Scores of gathered ``(batch, width)`` rows, and whatever
        :meth:`_backward` reuses of the way there."""

    @abc.abstractmethod
    def _backward(self, saved: tuple, upstream: np.ndarray, g_h: np.ndarray,
                  g_r: np.ndarray, g_t: np.ndarray) -> None:
        """Write the per-example gradients of ``sum(upstream * score)`` for
        the head, relation and tail rows into three caller-owned blocks;
        ``saved`` is :meth:`_forward`'s; ``upstream`` is ``(batch, 1)``."""

    @abc.abstractmethod
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Triple scores of three equally long 1-D index arrays; higher =
        more plausible.  :meth:`_forward` over :meth:`_gather`, defined on
        each model because ``perf/spans.py`` traces overrides."""

    def _gather(self, h: np.ndarray, r: np.ndarray, t: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A triple batch's embedding rows: the only place scoring or
        differentiating one indexes the two matrices."""
        return (_rows(self.entity_emb, h), _rows(self.relation_emb, r),
                _rows(self.entity_emb, t))

    def _slot_gradients(self, h, r, t, loss_fn, l2: float
                        ) -> tuple[float, np.ndarray, np.ndarray]:
        """Gather -> forward -> ``loss_fn`` -> backward -> L2, per slot.
        Heads and tails are the halves of one ``(2 * batch, width)`` block
        (the fold's layout), relations a block of their own: none alias, so
        the L2 term (``2 * l2 * row`` per occurrence) is added in place."""
        e_h, e_r, e_t = self._gather(h, r, t)
        scores, saved = self._forward(e_h, e_r, e_t)
        loss, upstream = loss_fn(scores)
        batch = len(e_h)
        g_entity = np.empty((2 * batch, e_h.shape[1]), dtype=np.float32)
        g_relation = np.empty_like(e_r)
        self._backward(saved, np.asarray(upstream, dtype=np.float32)[:, None],
                       g_entity[:batch], g_relation, g_entity[batch:])
        if l2 > 0.0:
            reg = np.float32(2.0 * l2)
            g_entity[:batch] += reg * e_h
            g_entity[batch:] += reg * e_t
            g_relation += reg * e_r
        return loss, g_entity, g_relation

    def batch_gradients(self, h: np.ndarray, r: np.ndarray, t: np.ndarray,
                        loss_fn, l2: float = 0.0
                        ) -> tuple[float, SparseRows, SparseRows]:
        """One fused local step: ``(loss, entity gradient, relation
        gradient)``, the per-slot blocks folded into unique rows.
        ``loss_fn`` maps the batch's scores to ``(loss, dL/dscore)``; with
        ``l2 > 0`` every touched row also gets the batch L2 penalty."""
        loss, g_entity, g_relation = self._slot_gradients(h, r, t, loss_fn, l2)
        return (loss,
                SparseRows.from_rows(np.concatenate([h, t]), g_entity,
                                     n_rows=self.n_entities),
                SparseRows.from_rows(r, g_relation, n_rows=self.n_relations))

    # -- candidate scoring -------------------------------------------------

    def score_all_tails(self, h: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Scores of (h_i, r_i, every entity): shape (batch, n_entities),
        one contraction of the :meth:`query_vector` linear form with the
        contiguous entity matrix."""
        return self.query_vector(h, r) @ self.entity_emb.T

    def score_all_heads(self, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Scores of (every entity, r_i, t_i): shape (batch, n_entities)."""
        return self.query_vector(t, r, tail_side=False) @ self.entity_emb.T

    # -- the query's side of a candidate score -----------------------------

    @abc.abstractmethod
    def query_vector(self, anchors: np.ndarray, rels: np.ndarray,
                     tail_side: bool = True) -> np.ndarray:
        """Full-precision query vector of each partial triple.

        Returns shape ``(batch, entity_width)`` float32: for each partial
        triple — ``(anchor, rel, ?)`` when ``tail_side`` else
        ``(?, rel, anchor)`` — the exact linear form the score contracts
        with the candidate (``score = q . e``), written nowhere else: the
        dense block scorers, :meth:`score_candidates` and the binary
        tier's stage-1 lookup table
        (:class:`~repro.serve.binary.BinaryStore`) all contract it.
        """

    def score_candidates(self, anchors: np.ndarray, rels: np.ndarray,
                         candidates: np.ndarray,
                         tail_side: bool = True) -> np.ndarray:
        """Score each query against its *own* candidate list.

        ``candidates`` is ``(batch, k)`` int64 — row ``i`` holds the
        entity ids completing query ``i``'s partial triple.  Returns
        ``(batch, k)`` float32 scores, higher = more plausible, the
        binary tier's re-rank primitive: each query's :meth:`query_vector`
        contracted with its gathered candidate rows, so a pool re-rank
        costs one batched contraction instead of ``batch * k``
        independent triple gathers.
        """
        q = self.query_vector(anchors, rels, tail_side=tail_side)
        return np.einsum("mw,mkw->mk", q, _rows(self.entity_emb, candidates))

    # -- geometry access ---------------------------------------------------

    def entity_components(self) -> tuple[np.ndarray, np.ndarray]:
        """The entity matrix split into its (real, imag) components.

        Each entity is stored as ``[real | imag]`` *halves* — NOT
        interleaved ``(re, im)`` pairs — so the d-th complex coordinate of
        entity ``i`` is ``(emb[i, d], emb[i, dim + d])``.  Geometry-aware
        consumers (nearest-neighbor search) must pair components through
        this accessor; reshaping the row to ``(dim, 2)`` or truncating to
        the first ``dim`` columns silently mixes real and imaginary parts
        of different coordinates.
        """
        return self._split(self.entity_emb)

    def _split(self, emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """View a ``[real | imag]`` block as its (real, imag) halves."""
        return emb[..., :self.dim], emb[..., self.dim:]

    def _split_copy(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The halves as contiguous copies, for the training kernels: an
        elementwise pass over a half *view*, whose rows NumPy cannot
        collapse into one flat loop, costs several times more per element."""
        re, im = self._split(rows)
        return np.ascontiguousarray(re), np.ascontiguousarray(im)

    # -- parameter access --------------------------------------------------

    def copy(self) -> "KGEModel":
        """Deep copy (each simulated rank gets its own replica)."""
        clone = copy.copy(self)
        clone.entity_emb = self.entity_emb.copy()
        clone.relation_emb = self.relation_emb.copy()
        return clone

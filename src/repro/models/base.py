"""Common interface and shared machinery for KGE models.

Every model holds two float32 embedding matrices (entities and relations)
and exposes a vectorised ``score`` plus a closed-form ``score_grad`` — the
gradients an autodiff framework would produce, written out by hand so the
whole system runs on NumPy.  Batch gradients come back as
:class:`~repro.comm.sparse.SparseRows` because only the rows touched by the
batch are non-zero (the fact the paper's whole communication strategy rests
on).
"""

from __future__ import annotations

import abc

import numpy as np

from ..comm.sparse import SparseRows
from ..kg.spmat import FoldPlan


class KGEModel(abc.ABC):
    """Base class for knowledge-graph-embedding models.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes.
    dim:
        Embedding dimension.  For complex-valued models this is the number
        of *complex* dimensions; the real storage width is ``2 * dim``.
    seed:
        Initialisation seed (Xavier-style uniform init).
    """

    #: Real-valued storage width multiplier (2 for complex-valued models).
    width_factor: int = 1

    #: How the score relates the query vector to the candidate: "dot"
    #: (score is a dot product — DistMult, ComplEx) or "distance" (score
    #: is a negated distance to a target point — TransE, RotatE).  The
    #: binarized serving tier picks its candidate-ranking approximation
    #: from this (see repro.serve.binary.BinaryStore.approx_scores).
    score_geometry: str = "dot"

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

    # -- abstract scoring -------------------------------------------------

    @abc.abstractmethod
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Triple scores; higher = more plausible.  Shapes broadcast 1-D."""

    @abc.abstractmethod
    def score_grad(self, h: np.ndarray, r: np.ndarray, t: np.ndarray,
                   upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-example gradients of ``sum(upstream * score)``.

        Returns ``(g_h, g_r, g_t)`` with shape ``(batch, width)`` each —
        the gradient contribution of every example to its head, relation
        and tail embedding rows.
        """

    @abc.abstractmethod
    def score_tails_block(self, h: np.ndarray, r: np.ndarray,
                          lo: int, hi: int) -> np.ndarray:
        """Scores of (h_i, r_i, e) for candidate entities ``e in [lo, hi)``.

        Returns shape ``(batch, hi - lo)``.  This is the only candidate
        scoring a model must implement; the chunking driver in
        :meth:`score_all_tails` builds the full matrix from blocks.
        """

    @abc.abstractmethod
    def score_heads_block(self, r: np.ndarray, t: np.ndarray,
                          lo: int, hi: int) -> np.ndarray:
        """Scores of (e, r_i, t_i) for candidate entities ``e in [lo, hi)``."""

    # -- candidate scoring (chunked driver) --------------------------------

    def score_all_tails(self, h: np.ndarray, r: np.ndarray,
                        chunk_entities: int | None = None) -> np.ndarray:
        """Scores of (h_i, r_i, every entity): shape (batch, n_entities).

        ``chunk_entities`` bounds peak intermediate memory: candidates are
        scored ``chunk_entities`` at a time, so models whose block scoring
        materialises ``batch x block x width`` intermediates (TransE,
        RotatE) stay within ``batch x chunk x width`` instead of
        ``batch x n_entities x width``.  ``None`` scores in one block.
        """
        return self._score_chunked(self.score_tails_block, h, r,
                                   chunk_entities)

    def score_all_heads(self, r: np.ndarray, t: np.ndarray,
                        chunk_entities: int | None = None) -> np.ndarray:
        """Scores of (every entity, r_i, t_i): shape (batch, n_entities)."""
        return self._score_chunked(self.score_heads_block, r, t,
                                   chunk_entities)

    def _score_chunked(self, block_fn, a: np.ndarray, b: np.ndarray,
                       chunk_entities: int | None) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if chunk_entities is not None and chunk_entities < 1:
            raise ValueError(
                f"chunk_entities must be >= 1, got {chunk_entities}")
        if chunk_entities is None or chunk_entities >= self.n_entities:
            return block_fn(a, b, 0, self.n_entities)
        out = np.empty((len(a), self.n_entities), dtype=np.float32)
        for lo in range(0, self.n_entities, chunk_entities):
            hi = min(lo + chunk_entities, self.n_entities)
            out[:, lo:hi] = block_fn(a, b, lo, hi)
        return out

    # -- gradient assembly -------------------------------------------------

    def batch_gradients(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray,
        upstream: np.ndarray, l2: float = 0.0,
        entity_plan: FoldPlan | None = None,
        relation_plan: FoldPlan | None = None,
    ) -> tuple[SparseRows, SparseRows]:
        """Accumulate per-example gradients into sparse row sets.

        ``upstream`` is dL/dscore per example.  With ``l2 > 0`` the usual
        batch L2 penalty gradient (``2 * l2 * embedding`` per occurrence) is
        added to every touched row.

        The per-example blocks from :meth:`score_grad` are folded into
        unique rows by the incidence-CSR sorted-segment fold.  A caller
        that drives many folds per batch (the worker builds the incidence
        CSR once per step) passes the prebuilt plans: ``entity_plan`` must
        be built from ``concatenate([h, t])`` over ``n_entities`` and
        ``relation_plan`` from ``r`` over ``n_relations``.
        """
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        upstream = np.asarray(upstream, dtype=np.float32)
        g_h, g_r, g_t = self.score_grad(h, r, t, upstream)
        if l2 > 0.0:
            reg = np.float32(2.0 * l2)
            g_h = g_h + reg * self.entity_emb[h]
            g_t = g_t + reg * self.entity_emb[t]
            g_r = g_r + reg * self.relation_emb[r]
        entity_grad = SparseRows.from_rows(
            np.concatenate([h, t]), np.concatenate([g_h, g_t]),
            n_rows=self.n_entities, plan=entity_plan)
        relation_grad = SparseRows.from_rows(
            r, g_r, n_rows=self.n_relations, plan=relation_plan)
        return entity_grad, relation_grad

    # -- binary-tier candidate generation ----------------------------------

    def query_vector(self, anchors: np.ndarray, rels: np.ndarray,
                     tail_side: bool = True) -> np.ndarray:
        """Full-precision query vector for Hamming-space candidate search.

        Returns shape ``(batch, entity_width)`` float32: for each partial
        triple — ``(anchor, rel, ?)`` when ``tail_side`` else
        ``(?, rel, anchor)`` — a vector in *entity* coordinates whose sign
        pattern predicts good completions: a candidate entity whose sign
        bits agree with this vector's on more coordinates scores
        (approximately) higher under :meth:`score`.  For dot-product
        models the vector is the exact linear form the score contracts
        with the candidate (``score = q . e_t``); for distance models it
        is the translation/rotation target the candidate should sit near.
        The serving layer packs its signs and ranks candidates by packed
        XOR-popcount against a :class:`~repro.serve.binary.BinaryStore`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a binary-tier query "
            f"vector")

    def score_candidates(self, anchors: np.ndarray, rels: np.ndarray,
                         candidates: np.ndarray,
                         tail_side: bool = True) -> np.ndarray:
        """Score each query against its *own* candidate list.

        ``candidates`` is ``(batch, k)`` int64 — row ``i`` holds the
        entity ids completing query ``i``'s partial triple.  Returns
        ``(batch, k)`` float32 scores, higher = more plausible, the
        binary tier's re-rank primitive.  Unlike the flat triple scorer
        this gathers each query's candidate rows once and scores them as
        a block, so a pool re-rank costs one batched contraction instead
        of ``batch * k`` independent triple gathers.

        Dot-geometry models contract the :meth:`query_vector` linear form
        with the gathered rows here; distance models override with their
        own residual norm.
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        if self.score_geometry == "dot":
            q = self.query_vector(anchors, rels, tail_side=tail_side)
            return np.einsum("mw,mkw->mk", q, self.entity_emb[candidates])
        m, take = candidates.shape
        flat_anchor = np.repeat(anchors, take)
        flat_rel = np.repeat(rels, take)
        flat_cand = candidates.ravel()
        if tail_side:
            flat = self.score(flat_anchor, flat_rel, flat_cand)
        else:
            flat = self.score(flat_cand, flat_rel, flat_anchor)
        return np.asarray(flat, dtype=np.float32).reshape(m, take)

    # -- geometry access ---------------------------------------------------

    def entity_components(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The entity matrix split into its geometric components.

        Real-valued models return ``(entity_emb, None)``.  Complex-valued
        models (``width_factor == 2``) store each entity as ``[real | imag]``
        *halves* — NOT interleaved ``(re, im)`` pairs — so the d-th complex
        coordinate of entity ``i`` is ``(emb[i, d], emb[i, dim + d])``.
        Geometry-aware consumers (nearest-neighbor search over complex
        embeddings) must pair components through this accessor; reshaping
        the row to ``(dim, 2)`` or truncating to the first ``dim`` columns
        silently mixes real and imaginary parts of different coordinates.
        """
        if self.width_factor == 1:
            return self.entity_emb, None
        return self.entity_emb[:, :self.dim], self.entity_emb[:, self.dim:]

    # -- parameter access --------------------------------------------------

    def copy(self) -> "KGEModel":
        """Deep copy (each simulated rank gets its own replica)."""
        clone = self.__class__(self.n_entities, self.n_relations, self.dim,
                               seed=self.seed)
        clone.entity_emb = self.entity_emb.copy()
        clone.relation_emb = self.relation_emb.copy()
        return clone

    def state_norms(self) -> tuple[float, float]:
        """Frobenius norms of the two embedding matrices (diagnostics)."""
        return (float(np.linalg.norm(self.entity_emb)),
                float(np.linalg.norm(self.relation_emb)))

    def flops_per_example(self, backward: bool = True) -> int:
        """Rough flop count of scoring (and optionally backprop) one triple.

        Used by the modeled-compute timing path.  Subclasses may override;
        the default counts the multiply-adds of a trilinear form.
        """
        width = self.dim * self.width_factor
        forward = 6 * width
        return forward * (3 if backward else 1)

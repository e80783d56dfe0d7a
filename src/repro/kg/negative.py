"""Negative sampling for KGE training.

The paper's Section 4.5 strategy ("SS", sample selection): draw ``n``
candidate negatives per positive triple by corrupting head or tail, run a
*forward pass only* over the candidates, and keep the single candidate the
model scores highest (the least-negative score = hardest to classify).
Avoiding the other ``n - 1`` backward passes is where the speedup comes
from; training on one negative per positive also avoids class imbalance.

This module provides the corruption machinery; the hardest-negative
*selection* given scores lives in :func:`select_hardest`, and the trainer
wires the forward pass in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .triples import TripleSet, TripleStore


@dataclass
class NegativeBatch:
    """``k`` corrupted candidates for each of ``b`` positive triples.

    Arrays are shaped ``(b, k)``; the positive triple ``i`` corresponds to
    row ``i`` of each array.
    """

    heads: np.ndarray
    relations: np.ndarray
    tails: np.ndarray

    def __post_init__(self) -> None:
        if not (self.heads.shape == self.relations.shape == self.tails.shape):
            raise ValueError("negative batch arrays must share one (b, k) shape")
        if self.heads.ndim != 2:
            raise ValueError(f"expected 2-D (b, k) arrays, got {self.heads.shape}")

    @property
    def n_positives(self) -> int:
        return self.heads.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.heads.shape[1]

    def flatten(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (h, r, t) as flat arrays of length b*k."""
        return self.heads.ravel(), self.relations.ravel(), self.tails.ravel()

    def take(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pick one candidate per positive: ``cols`` has shape ``(b,)``."""
        rows = np.arange(self.n_positives)
        return (self.heads[rows, cols], self.relations[rows, cols],
                self.tails[rows, cols])


def corrupt_batch(
    positives: TripleSet,
    n_entities: int,
    k: int,
    rng: np.random.Generator,
    store: TripleStore | None = None,
    head_prob: float = 0.5,
) -> NegativeBatch:
    """Draw ``k`` corruptions of each positive triple.

    For each candidate, either the head or the tail (chosen with
    ``head_prob``) is replaced by a uniformly random entity — the paper's
    "randomly replacing either head or tail entity".  If ``store`` is
    given, candidates that collide with known facts are resampled once and
    any stragglers kept (standard practice: a second collision is rare and
    harmless).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    b = len(positives)
    h = np.repeat(positives.heads[:, None], k, axis=1)
    r = np.repeat(positives.relations[:, None], k, axis=1)
    t = np.repeat(positives.tails[:, None], k, axis=1)

    corrupt_head = rng.random(size=(b, k)) < head_prob
    replacement = rng.integers(0, n_entities, size=(b, k))
    h = np.where(corrupt_head, replacement, h)
    t = np.where(~corrupt_head, replacement, t)

    if store is not None:
        known = store.is_known(h.ravel(), r.ravel(), t.ravel()).reshape(b, k)
        if known.any():
            redo = rng.integers(0, n_entities, size=(b, k))
            h = np.where(known & corrupt_head, redo, h)
            t = np.where(known & ~corrupt_head, redo, t)
    return NegativeBatch(heads=h, relations=r, tails=t)


def mask_known_candidates(scores: np.ndarray,
                          known: np.ndarray) -> np.ndarray:
    """Mask known-fact candidates out of a hardest-negative score matrix.

    Hardest-selection is adversarial: among uniform corruptions, any that
    happen to be true facts score highest and would be trained as
    negatives, directly damaging the model.  Known candidates get ``-inf``
    so :func:`select_hardest` never picks them (OpenKE-style filtered
    corruption, which the paper's pipeline used).

    Degenerate rows where *every* candidate is a known fact (possible on
    dense graphs or tiny entity vocabularies) fall back to the raw,
    unmasked scores: an all ``-inf`` row would make :func:`select_hardest`
    pick true facts anyway — by position, the first columns of the tie —
    and with the raw scores restored the selection at least follows the
    model's ordering instead of degenerating on index 0 ties.
    """
    if scores.shape != known.shape:
        raise ValueError(
            f"scores shape {scores.shape} != known shape {known.shape}")
    masked = np.where(known, -np.inf, scores)
    fully_masked = known.all(axis=1)
    if fully_masked.any():
        masked[fully_masked] = scores[fully_masked]
    return masked


def select_hardest(batch: NegativeBatch, scores: np.ndarray,
                   m: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the ``m`` hardest candidates per positive given model scores.

    "Hardest" = highest score: the model wants negatives to score very
    negative, so the candidate with the *least negative* score is the one
    it finds difficult (paper Section 4.5).  Returns flat (h, r, t) arrays
    of length ``b * m``.
    """
    if scores.shape != batch.heads.shape:
        raise ValueError(
            f"scores shape {scores.shape} != batch shape {batch.heads.shape}"
        )
    k = batch.n_candidates
    if not 1 <= m <= k:
        raise ValueError(f"m must be in [1, {k}], got {m}")
    if m == 1:
        cols = np.argmax(scores, axis=1)
        return batch.take(cols)
    # Top-m per row, best first with ties toward the smaller column (the
    # repro.select.best_first rule; a stable sort beats a per-row loop at
    # these widths), flattened in row-major order.
    cols = np.argsort(-scores, axis=1, kind="stable")[:, :m]
    rows = np.repeat(np.arange(batch.n_positives), m)
    cols = cols.ravel()
    return (batch.heads[rows, cols], batch.relations[rows, cols],
            batch.tails[rows, cols])


def select_all(batch: NegativeBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Use every candidate (the paper's "n out of n" baseline)."""
    return batch.flatten()

"""Link-prediction ranking metrics: raw / filtered MRR and Hits@k.

Protocol (paper Section 3.2, identical to ComplEx/OpenKE): for each test
triple, replace the head with every entity and rank the true triple by
score; repeat replacing the tail; average the reciprocal ranks.  The
*filtered* variant ignores corrupted triples that are themselves facts
anywhere in train/valid/test.

Ranks use the conservative convention ``rank = 1 + #{strictly better} +
#{ties} / 2`` truncated — we use mean-rank-of-ties ("realistic" ranking) to
avoid rewarding degenerate constant scores.

The filter consults the precomputed
:class:`~repro.kg.triples.FilterIndex` and scatters each query's short
known-fact list into the score matrix (:func:`scatter_known_nan`), so
memory and time per batch scale with the number of known facts, not with
``batch * n_entities``.  The property tests pin its ranks bitwise against
``repro._reference.filtered_naive``, which hashes every candidate triple.

Filtered candidates are masked with ``NaN`` (not ``-inf``): NaN compares
unequal to everything, so a filtered candidate can never re-enter the tie
count even when a degenerate model scores the true triple ``-inf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kg.triples import TripleSet, TripleStore
from ..models.base import KGEModel


@dataclass(frozen=True)
class RankingResult:
    """Aggregated link-prediction metrics over one split."""

    mrr: float
    mrr_raw: float
    hits_at_1: float
    hits_at_3: float
    hits_at_10: float
    n_queries: int


def _ranks_from_scores(all_scores: np.ndarray, true_scores: np.ndarray,
                       n_candidates: np.ndarray | None = None) -> np.ndarray:
    """Realistic rank of the true entity per query row.

    ``all_scores`` must already have filtered candidates masked to NaN and
    hold the true triple's score at its own column.  ``n_candidates`` is
    the per-row count of surviving candidates (true triple included); it
    defines the worst possible rank, to which a row is clamped when the
    model scores its true triple ``-inf`` — "impossible" must not be
    rewarded with a mean-of-ties mid rank.
    """
    better = (all_scores > true_scores[:, None]).sum(axis=1)
    ties = (all_scores == true_scores[:, None]).sum(axis=1)
    # The true entity itself always ties with itself; average remaining ties.
    ties = np.maximum(ties - 1, 0)
    ranks = 1.0 + better + ties / 2.0
    degenerate = np.isneginf(true_scores)
    if degenerate.any():
        if n_candidates is None:
            n_candidates = np.full(len(true_scores), all_scores.shape[1])
        ranks = np.where(degenerate, n_candidates.astype(np.float64), ranks)
    return ranks


def scatter_known_nan(scores: np.ndarray, index,
                      anchor: np.ndarray, r: np.ndarray,
                      tail_side: bool = True,
                      keep: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Mask each query's known candidates to NaN via a CSR filter index.

    The shared filter primitive behind both filtered evaluation and the
    serving layer's known-fact exclusion.  ``anchor`` is the fixed entity of
    each query — the head for tail replacement (``tail_side=True``), the
    tail otherwise.  ``keep``, when given, names one candidate column per
    query whose score is restored after the scatter: the evaluation
    protocol never filters the query triple itself.  ``keep=None`` masks
    *every* known fact — serving has no gold entity to exempt.

    Returns ``(masked copy, per-query surviving candidate count)``.
    """
    b, n_entities = scores.shape
    if tail_side:
        rows, cols, counts = index.known_tails(anchor, r)
    else:
        rows, cols, counts = index.known_heads(r, anchor)
    masked = scores.copy()
    masked[rows, cols] = np.nan
    if keep is None:
        return masked, n_entities - counts
    query_rows = np.arange(b)
    kept_was_masked = np.isnan(masked[query_rows, keep])
    masked[query_rows, keep] = scores[query_rows, keep]
    return masked, n_entities - (counts - kept_was_masked)


def rank_triples(model: KGEModel, triples: TripleSet, store: TripleStore,
                 batch_size: int = 512,
                 chunk_entities: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-query ranks: (head_raw, head_filtered, tail_raw, tail_filtered).

    ``chunk_entities`` bounds the candidate-scoring working set (see
    :meth:`~repro.models.base.KGEModel.score_all_tails`).
    """
    index = store.filter_index
    n = len(triples)
    head_raw = np.empty(n)
    head_filt = np.empty(n)
    tail_raw = np.empty(n)
    tail_filt = np.empty(n)

    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        h = triples.heads[sl]
        r = triples.relations[sl]
        t = triples.tails[sl]
        b = len(h)

        # Tail replacement: (h, r, *).  The true triple's score is read out
        # of the same candidate matrix so float rounding is identical for
        # the query and its competitors (a separate score() call can differ
        # in the last bits and flip ties).
        tail_scores = model.score_all_tails(h, r,
                                            chunk_entities=chunk_entities)
        true_scores = tail_scores[np.arange(b), t]
        # The query triple is itself a known fact; keep= restores its
        # column to the exact pre-scatter score.
        masked, n_cand = scatter_known_nan(tail_scores, index, h, r,
                                           tail_side=True, keep=t)
        tail_raw[sl] = _ranks_from_scores(tail_scores, true_scores)
        tail_filt[sl] = _ranks_from_scores(masked, true_scores, n_cand)

        # Head replacement: (*, r, t)
        head_scores = model.score_all_heads(r, t,
                                            chunk_entities=chunk_entities)
        true_scores = head_scores[np.arange(b), h]
        masked, n_cand = scatter_known_nan(head_scores, index, t, r,
                                           tail_side=False, keep=h)
        head_raw[sl] = _ranks_from_scores(head_scores, true_scores)
        head_filt[sl] = _ranks_from_scores(masked, true_scores, n_cand)

    return head_raw, head_filt, tail_raw, tail_filt


def evaluate_ranking(model: KGEModel, triples: TripleSet, store: TripleStore,
                     batch_size: int = 512,
                     max_queries: int | None = None,
                     rng: np.random.Generator | None = None,
                     chunk_entities: int | None = None) -> RankingResult:
    """Full link-prediction evaluation of one split.

    ``max_queries`` subsamples the split (deterministically unless ``rng``
    is given) — validation during training uses a subsample for speed, the
    final test evaluation uses everything.
    """
    if len(triples) == 0:
        raise ValueError("cannot evaluate an empty split")
    if max_queries is not None and max_queries < len(triples):
        if rng is None:
            idx = np.linspace(0, len(triples) - 1, max_queries).astype(np.int64)
        else:
            idx = rng.choice(len(triples), size=max_queries, replace=False)
        triples = triples.subset(idx)

    head_raw, head_filt, tail_raw, tail_filt = rank_triples(
        model, triples, store, batch_size=batch_size,
        chunk_entities=chunk_entities)
    filt = np.concatenate([head_filt, tail_filt])
    raw = np.concatenate([head_raw, tail_raw])
    return RankingResult(
        mrr=float((1.0 / filt).mean()),
        mrr_raw=float((1.0 / raw).mean()),
        hits_at_1=float((filt <= 1.0).mean()),
        hits_at_3=float((filt <= 3.0).mean()),
        hits_at_10=float((filt <= 10.0).mean()),
        n_queries=len(triples),
    )

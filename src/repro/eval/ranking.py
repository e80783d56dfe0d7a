"""Link-prediction ranking metrics: raw / filtered MRR and Hits@k.

Protocol (paper Section 3.2, identical to ComplEx/OpenKE): for each test
triple, replace the head with every entity and rank the true triple by
score; repeat replacing the tail; average the reciprocal ranks.  The
*filtered* variant ignores corrupted triples that are themselves facts
anywhere in train/valid/test.

Ranks use the conservative convention ``rank = 1 + #{strictly better} +
#{ties} / 2`` truncated — we use mean-rank-of-ties ("realistic" ranking) to
avoid rewarding degenerate constant scores.

The filter never masks the score block: better/tie counts are taken once
on the raw block, and each query's known competitors (its
:class:`~repro.kg.triples.FilterIndex` list, gold excluded) that beat or
tie the true score are subtracted.  Filter cost scales with the known
facts, not ``batch * n_entities``, and the integer counts pin ranks bitwise
to ``tests._reference.filtered_naive``, which hashes every candidate.

Blocks are sized by score cells, not rows: each holds at most
:data:`SCORE_BLOCK_CELLS` float32 scores, so the transient stays at 4 MiB
whatever the entity count.  A query's rank reads only its own row, so the
block size never moves a bit of the result.

A true score of ``-inf`` or NaN (which beats and ties nothing) clamps to
the worst defined rank, the number of surviving candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kg.triples import TripleSet, TripleStore
from ..models.base import KGEModel

#: Score cells per ranking block: ``max(1, SCORE_BLOCK_CELLS // n_entities)``
#: queries are scored at once (70 at FB15K's 14,951 entities).
SCORE_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class RankingResult:
    """Aggregated link-prediction metrics over one split."""

    mrr: float
    mrr_raw: float
    hits_at_1: float
    hits_at_3: float
    hits_at_10: float
    n_queries: int


def _realistic_ranks(better: np.ndarray, ties: np.ndarray,
                     true_scores: np.ndarray,
                     n_candidates: np.ndarray) -> np.ndarray:
    """The rank rule.  ``better`` / ``ties`` count a row's surviving
    candidates scoring above / equal to ``true_scores`` (the true entity
    ties itself); ``n_candidates`` counts the survivors.  That is the worst
    rank, to which a ``-inf`` or NaN true score clamps instead of earning a
    mean-of-ties mid rank, or rank 1."""
    # The true entity itself always ties with itself; average remaining ties.
    ranks = 1.0 + better + np.maximum(ties - 1, 0) / 2.0
    degenerate = np.isneginf(true_scores) | np.isnan(true_scores)
    return np.where(degenerate, n_candidates.astype(np.float64), ranks)


def _raw_and_filtered_ranks(scores: np.ndarray, gold: np.ndarray,
                            known: tuple[np.ndarray, np.ndarray, np.ndarray]
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered ranks of each row's ``gold`` column.

    ``known`` is the rows' known candidates in the COO form of
    :meth:`~repro.kg.triples.FilterIndex.known_tails`.  The query triple
    itself is never filtered, so gold is dropped from it; the rest are
    gathered out of ``scores`` and their better/tie counts subtracted from
    the raw ones.
    """
    b, n_entities = scores.shape
    true_scores = scores[np.arange(b), gold]
    better = (scores > true_scores[:, None]).sum(axis=1)
    ties = (scores == true_scores[:, None]).sum(axis=1)
    rows, cols, _ = known
    competitor = cols != gold[rows]
    rows, cols = rows[competitor], cols[competitor]
    known_scores = scores[rows, cols]
    known_true = true_scores[rows]
    known_better = np.bincount(rows[known_scores > known_true], minlength=b)
    known_ties = np.bincount(rows[known_scores == known_true], minlength=b)
    raw = _realistic_ranks(better, ties, true_scores, np.full(b, n_entities))
    filtered = _realistic_ranks(better - known_better, ties - known_ties,
                                true_scores,
                                n_entities - np.bincount(rows, minlength=b))
    return raw, filtered


def scatter_known_nan(scores: np.ndarray, index,
                      anchor: np.ndarray, r: np.ndarray,
                      tail_side: bool = True
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Mask every known candidate of each query to NaN via a CSR filter
    index — the serving layer's known-fact exclusion.

    ``anchor`` is the fixed entity of each query — the head for tail
    replacement (``tail_side=True``), the tail otherwise.  Serving has no
    gold entity to exempt, so every known fact is masked.

    Returns ``(masked copy, per-query surviving candidate count)``.
    """
    if tail_side:
        rows, cols, counts = index.known_tails(anchor, r)
    else:
        rows, cols, counts = index.known_heads(r, anchor)
    masked = scores.copy()
    masked[rows, cols] = np.nan
    return masked, scores.shape[1] - counts


def rank_triples(model: KGEModel, triples: TripleSet, store: TripleStore
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-query ranks: (head_raw, head_filtered, tail_raw, tail_filtered)."""
    index = store.filter_index
    n = len(triples)
    batch_size = max(1, SCORE_BLOCK_CELLS // store.n_entities)
    head_raw = np.empty(n)
    head_filt = np.empty(n)
    tail_raw = np.empty(n)
    tail_filt = np.empty(n)

    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        h = triples.heads[sl]
        r = triples.relations[sl]
        t = triples.tails[sl]

        # Tail replacement: (h, r, *).  The true triple's score is read out
        # of the same candidate matrix so float rounding is identical for
        # the query and its competitors (a separate score() call can differ
        # in the last bits and flip ties).  Each block is dropped before
        # the next is scored.
        tail_raw[sl], tail_filt[sl] = _raw_and_filtered_ranks(
            model.score_all_tails(h, r), t,
            index.known_tails(h, r))
        # Head replacement: (*, r, t)
        head_raw[sl], head_filt[sl] = _raw_and_filtered_ranks(
            model.score_all_heads(r, t), h,
            index.known_heads(r, t))

    return head_raw, head_filt, tail_raw, tail_filt


def evaluate_ranking(model: KGEModel, triples: TripleSet, store: TripleStore,
                     max_queries: int | None = None) -> RankingResult:
    """Full link-prediction evaluation of one split.

    ``max_queries`` subsamples the split at evenly spaced positions —
    validation during training uses a subsample for speed, the final test
    evaluation uses everything.
    """
    if len(triples) == 0:
        raise ValueError("cannot evaluate an empty split")
    if max_queries is not None and max_queries < len(triples):
        idx = np.linspace(0, len(triples) - 1, max_queries).astype(np.int64)
        triples = triples.subset(idx)

    head_raw, head_filt, tail_raw, tail_filt = rank_triples(
        model, triples, store)
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

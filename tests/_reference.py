"""Slow reference kernels kept only as oracles.

Nothing under ``src/repro`` imports this module (a test enforces it).  The
bitwise property suites and the in-process ratio gates under ``tests/``
compare the production kernels against these:

* :func:`scatter_add_rows` — the ``np.unique`` + ``np.add.at`` gradient
  accumulation that :func:`repro.kg.spmat.fold_rows` replays bitwise;
* :func:`score_grad` — per-example gradients with no loss and no L2, for
  the gradient checks and the fused-step oracle;
* :func:`filtered_naive` — the hash-every-candidate known-fact mask that
  :func:`rank_triples_reference` ranks on; ``rank_triples`` subtracts
  known competitors' counts instead and matches it rank for rank, and the
  serving mask (:func:`repro.eval.ranking.scatter_known_nan`) equals it
  with gold masked too;
* :func:`unpack_signs` / :func:`unpack_ternary` — the ``unpackbits`` and
  shift formulas the lookup tables in :mod:`repro.compress.packing` decode
  bit for bit;
* :func:`best_first` — the full stable argsort the O(n) top-k rule that
  serves answers and mines facts (:func:`repro.select.best_first`) equals
  on every row;
* :class:`ChoiceTraffic` — the ``Generator.choice(n, p=...)`` query stream
  that :class:`repro.serve.ZipfianTraffic` replays from CDFs built once;
* :func:`mine_exhaustive` — the full ``E x E`` score matrix whose top
  pairs the norm-bounded fact miner
  (:func:`repro.kg.datasets._mine_exhaustive`) returns bit for bit
  wherever the BLAS kernel keeps a cell's bits in a smaller product.
"""

from __future__ import annotations

import numpy as np

from repro import select
from repro.eval.ranking import _realistic_ranks
from repro.serve.traffic import (KIND_MIX, KIND_NEAREST, KIND_SCORE,
                                 QUERY_DTYPE, _zipf_probs)


def score_grad(model, h: np.ndarray, r: np.ndarray, t: np.ndarray,
               upstream: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-example gradients of ``sum(upstream * score)``: ``(g_h, g_r,
    g_t)`` of shape ``(batch, width)`` each, sharing no memory."""
    _, g_entity, g_relation = model._slot_gradients(
        h, r, t, lambda scores: (0.0, upstream), 0.0)
    batch = len(g_relation)
    return g_entity[:batch], g_relation, g_entity[batch:]


def scatter_add_rows(indices: np.ndarray, values: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicated row updates in input order.

    Returns ``(sorted unique indices, float32 per-row sums)``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float32)
    uniq, inverse = np.unique(indices, return_inverse=True)
    summed = np.zeros((len(uniq), values.shape[1]), dtype=np.float32)
    np.add.at(summed, inverse, values)
    return uniq, summed


def unpack_signs(packed: np.ndarray, dim: int) -> np.ndarray:
    """float32 +-1 of shape (rows, dim) from ``np.packbits`` sign bytes."""
    bits = np.unpackbits(np.asarray(packed, dtype=np.uint8), axis=1)[:, :dim]
    return np.where(bits > 0, np.float32(1.0), np.float32(-1.0))


def unpack_ternary(packed: np.ndarray, dim: int) -> np.ndarray:
    """float32 (rows, dim) of 2-bit fields minus one, low bits first."""
    packed = np.asarray(packed, dtype=np.uint8)
    fields = np.stack([(packed >> shift) & 0b11 for shift in (0, 2, 4, 6)],
                      axis=2)
    flat = fields.reshape(len(packed), 4 * packed.shape[1])[:, :dim]
    return flat.astype(np.float32) - 1.0


def filtered_naive(scores: np.ndarray, store,
                   h: np.ndarray, r: np.ndarray, t: np.ndarray,
                   tail_side: bool) -> tuple[np.ndarray, np.ndarray]:
    """Hash every candidate triple against ``store``, mask known ones.

    Returns ``(masked score copy, per-row surviving candidate count)``.
    """
    b, n_entities = scores.shape
    cand = np.arange(n_entities)
    if tail_side:
        known = store.is_known(
            np.repeat(h, n_entities), np.repeat(r, n_entities),
            np.tile(cand, b)).reshape(b, n_entities)
        known[np.arange(b), t] = False  # never filter the query itself
    else:
        known = store.is_known(
            np.tile(cand, b), np.repeat(r, n_entities),
            np.repeat(t, n_entities)).reshape(b, n_entities)
        known[np.arange(b), h] = False
    masked = np.where(known, np.nan, scores)
    return masked, n_entities - known.sum(axis=1)


def rank_triples_reference(model, triples, store
                           ) -> tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
    """:func:`repro.eval.ranking.rank_triples` over one batch holding every
    triple, counting better and tied candidates on :func:`filtered_naive`'s
    NaN-masked copy."""
    h, r, t = triples.heads, triples.relations, triples.tails

    def ranks(scores, true_scores, n_cand):
        return _realistic_ranks((scores > true_scores[:, None]).sum(axis=1),
                                (scores == true_scores[:, None]).sum(axis=1),
                                true_scores, n_cand)

    def raw_and_filtered(scores, gold, tail_side):
        true_scores = scores[np.arange(len(gold)), gold]
        masked, n_cand = filtered_naive(scores, store, h, r, t, tail_side)
        everyone = np.full(len(gold), scores.shape[1])
        return (ranks(scores, true_scores, everyone),
                ranks(masked, true_scores, n_cand))

    return (raw_and_filtered(model.score_all_heads(r, t), h, False)
            + raw_and_filtered(model.score_all_tails(h, r), t, True))


def best_first(row: np.ndarray, take: int) -> np.ndarray:
    """The full stable argsort that defines
    :func:`repro.select.best_first`: descending value, ties toward
    the smaller id, NaN never returned."""
    row = np.asarray(row)
    n_valid = int((~np.isnan(row)).sum())
    return np.argsort(-row, kind="stable")[:min(take, n_valid)]


class ChoiceTraffic:
    """:class:`repro.serve.ZipfianTraffic`'s stream drawn with
    ``Generator.choice``, which re-validates and re-accumulates each
    probability vector on every call."""

    def __init__(self, n_entities: int, n_relations: int, spec, seed: int):
        self.rng = np.random.default_rng((0x5E12FE, seed))
        self.entity_ids = self.rng.permutation(n_entities)
        self.relation_ids = self.rng.permutation(n_relations)
        self.entity_probs = _zipf_probs(n_entities, spec.entity_exponent)
        self.relation_probs = _zipf_probs(n_relations,
                                          spec.relation_exponent)

    def generate(self, n: int) -> np.ndarray:
        mix = np.array(KIND_MIX, dtype=np.float64)
        kinds = self.rng.choice(4, size=n, p=mix / mix.sum()).astype(np.int8)
        out = np.zeros(n, dtype=QUERY_DTYPE)
        out["kind"] = kinds
        out["anchor"] = self.entity_ids[self.rng.choice(
            len(self.entity_ids), size=n, p=self.entity_probs)]
        relations = self.relation_ids[self.rng.choice(
            len(self.relation_ids), size=n, p=self.relation_probs)]
        out["relation"] = np.where(kinds == KIND_NEAREST, -1, relations)
        others = self.entity_ids[self.rng.choice(
            len(self.entity_ids), size=n, p=self.entity_probs)]
        out["other"] = np.where(kinds == KIND_SCORE, others, -1)
        return out


def mine_exhaustive(e_re, e_im, r_re, r_im, counts) -> list[np.ndarray]:
    """:func:`repro.kg.datasets._mine_exhaustive` over the full ``E x E``
    score matrix: every pair of each relation scored, self-loops at
    ``-inf``, one :func:`repro.select.best_first` over the flat
    ``h * E + t`` ids."""
    facts = []
    for rel, count in enumerate(counts):
        hr_re = e_re * r_re[rel] - e_im * r_im[rel]
        hr_im = e_re * r_im[rel] + e_im * r_re[rel]
        scores = hr_re @ e_re.T
        scores += hr_im @ e_im.T
        np.fill_diagonal(scores, -np.inf)
        count = min(count, scores.size - scores.shape[0])
        h, t = np.divmod(select.best_first(scores.ravel(), count),
                         scores.shape[1])
        rel_col = np.full(count, rel, dtype=np.int64)
        facts.append(np.stack([h, rel_col, t], axis=1))
    return facts

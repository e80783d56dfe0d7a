"""Per-rank training state and the local gradient step.

A :class:`Worker` owns one shard of the training triples and performs the
purely local part of a synchronous step: draw negatives (optionally with
the paper's hardest-negative selection), hand the batch to the model's
fused forward / loss / backward / fold step, and account the flops the
modeled-compute timing path charges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..comm.sparse import SparseRows
from ..kg.negative import (corrupt_batch, mask_known_candidates, select_all,
                           select_hardest)
from ..kg.triples import TripleSet, TripleStore
from ..models.base import KGEModel
from ..models.loss import logistic_loss
from .rng import worker_rng
from .strategy import StrategyConfig


@dataclass
class StepOutput:
    """What one rank produced in one synchronous step."""

    entity_grad: SparseRows
    relation_grad: SparseRows
    loss: float
    n_examples: int
    flops: float
    nonzero_entity_rows: int
    wall_seconds: float


class Worker:
    """One simulated rank: a shard of triples plus a private RNG."""

    def __init__(self, rank: int, shard: TripleSet, n_entities: int,
                 strategy: StrategyConfig, seed: int, l2: float = 0.0,
                 zero_row_tol: float = 1e-5,
                 store: TripleStore | None = None):
        if len(shard) == 0:
            raise ValueError(f"rank {rank} received an empty shard")
        if l2 < 0 or zero_row_tol < 0:
            raise ValueError("l2 and zero_row_tol must be non-negative")
        self.rank = rank
        self.shard = shard
        self.n_entities = n_entities
        self.strategy = strategy
        self.l2 = l2
        self.zero_row_tol = zero_row_tol
        self.store = store
        self.rng = worker_rng(seed, rank)
        self._order = np.arange(len(shard))

    def start_epoch(self) -> None:
        """Reshuffle the local visit order."""
        self._order = self.rng.permutation(len(self.shard))

    def _batch_positives(self, step: int, batch_size: int) -> TripleSet:
        """Slice the shuffled shard, wrapping so every step is full-size.

        The paper trains "equal number of batches per worker", so a worker
        whose shard is exhausted wraps around rather than idling.
        """
        n = len(self.shard)
        batch_size = min(batch_size, n)
        start = (step * batch_size) % n
        idx = (start + np.arange(batch_size)) % n
        return self.shard.subset(self._order[idx])

    def compute_step(self, model: KGEModel, step: int,
                     batch_size: int, ss_active: bool = True) -> StepOutput:
        """Compute this rank's local gradients for one synchronous step.

        ``ss_active`` gates hardest-negative selection: standard
        hard-negative-mining practice (and a necessity at low learning
        rates, where selecting adversarial negatives from epoch 1 can trap
        the model in a collapsed state) is to warm up on uniform negatives
        first.  The trainer deactivates SS during the lr warmup window.
        """
        t_start = time.perf_counter()
        strategy = self.strategy
        pos = self._batch_positives(step, batch_size)
        b = len(pos)
        use_ss = (ss_active and strategy.sample_selection
                  and strategy.negatives_sampled > 1)
        k = strategy.negatives_sampled if use_ss else strategy.negatives_used
        neg = corrupt_batch(pos, self.n_entities, k=k, rng=self.rng)

        forward_only = 0
        if use_ss:
            # Paper Section 4.5: forward pass over all candidates, keep the
            # hardest (highest-scoring) m.  Only the forward cost is paid
            # for the discarded candidates.
            fh, fr, ft = neg.flatten()
            cand_scores = model.score(fh, fr, ft).reshape(b, -1)
            if self.store is not None:
                known = self.store.is_known(fh, fr, ft).reshape(b, -1)
                cand_scores = mask_known_candidates(cand_scores, known)
            nh, nr, nt = select_hardest(neg, cand_scores,
                                        m=strategy.negatives_used)
            # Only the *discarded* candidates are forward-only work: the m
            # kept negatives flow into the training batch below, whose
            # forward+backward cost is already charged per example there.
            forward_only = b * (strategy.negatives_sampled
                                - strategy.negatives_used)
        else:
            nh, nr, nt = select_all(neg)

        h = np.concatenate([pos.heads, nh])
        r = np.concatenate([pos.relations, nr])
        t = np.concatenate([pos.tails, nt])
        labels = np.concatenate([np.ones(b), -np.ones(len(nh))])

        n_examples = len(h)
        loss, entity_grad, relation_grad = model.batch_gradients(
            h, r, t, lambda scores: logistic_loss(scores, labels),
            l2=self.l2 / n_examples)

        nonzero = int((np.linalg.norm(entity_grad.values, axis=1)
                       > self.zero_row_tol).sum())
        flops = (n_examples * model.flops_per_example(backward=True)
                 + forward_only * model.flops_per_example(backward=False))
        return StepOutput(entity_grad=entity_grad, relation_grad=relation_grad,
                          loss=loss, n_examples=n_examples, flops=float(flops),
                          nonzero_entity_rows=nonzero,
                          wall_seconds=time.perf_counter() - t_start)

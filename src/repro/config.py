"""Global configuration defaults for the reproduction.

Centralises the constants the paper fixes in its experimental setup
(Section 3.3) plus the knobs our simulated substrate adds (network model
parameters, dataset scale factors).  Everything is overridable per
experiment; these are only the paper-faithful defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default RNG seed used across dataset generation, model init and sampling.
DEFAULT_SEED = 20220829  # ICPP'22 started August 29, 2022

#: Paper: "batch-size of 10000" (Section 3.3).  Scaled-down runs override it.
PAPER_BATCH_SIZE = 10_000

#: Paper: initial learning rate 0.001 (Section 3.3).
PAPER_BASE_LR = 1e-3

#: Paper: plateau tolerance of 15 epochs before decaying the lr (Section 3.3).
PAPER_LR_PATIENCE = 15

#: Paper: lr decay factor 0.1 (Section 3.3).
PAPER_LR_FACTOR = 0.1

#: Paper: lr scaling rule ``lr * min(4, nodes)`` (Section 3.4).
PAPER_LR_SCALE_CAP = 4

#: Paper: DRS probes allgather every k-th epoch with k = 10 (Section 4.1).
PAPER_DRS_PROBE_INTERVAL = 10

#: Paper: embedding dimension is "up to 200 dimensions" (Section 2).
PAPER_EMBEDDING_DIM = 200


@dataclass(frozen=True)
class PaperDatasetSpec:
    """Cardinalities of the paper's datasets (Section 3.3)."""

    name: str
    n_entities: int
    n_relations: int
    n_triples: int


FB15K_SPEC = PaperDatasetSpec("FB15K", n_entities=14_951, n_relations=1_345,
                              n_triples=600_000)
FB250K_SPEC = PaperDatasetSpec("FB250K", n_entities=240_000, n_relations=9_280,
                               n_triples=16_000_000)

"""repro — reproduction of "Dynamic Strategies for High Performance Training
of Knowledge Graph Embeddings" (Panda & Vadhiyar, ICPP 2022).

Quick start::

    from repro import make_fb15k_like, train, drs_1bit_rp_ss, TrainConfig

    store = make_fb15k_like(scale=0.02)
    result = train(store, drs_1bit_rp_ss(), n_nodes=4,
                   config=TrainConfig(dim=32, max_epochs=60, lr_patience=5))
    print(result.summary_row())

Subpackages
-----------

``repro.comm``
    Simulated MPI substrate: alpha-beta network model, collectives, the
    SPMD cluster simulator.
``repro.kg``
    Triples, synthetic FB15K/FB250K-like datasets, partitioning, negative
    sampling.
``repro.models``
    ComplEx (the paper's model) and DistMult — closed-form gradients.
``repro.optim``
    Sparse-row Adam, the paper's plateau lr schedule.
``repro.compress``
    Gradient-row selection, 1-/2-bit quantization, bit packing, error
    feedback.
``repro.train``
    StrategyConfig presets (Table 5 vocabulary), the distributed trainer,
    the parameter-server comparator.
``repro.eval``
    Filtered/raw MRR, Hits@k, triple classification accuracy.
``repro.serve``
    Online serving: checkpoint-backed embedding store, cached/batched
    link-prediction query engine, Zipfian traffic simulator.
``repro.bench``
    Harness + paper reference values for every table and figure.
"""

from .comm import (
    Cluster,
    CollectiveFaultError,
    FaultPlan,
    NetworkModel,
    RankLossError,
    SparseRows,
)
from .config import DEFAULT_SEED, FB15K_SPEC, FB250K_SPEC
from .eval import evaluate_classification, evaluate_ranking
from .kg import (
    TripleSet,
    TripleStore,
    generate_latent_kg,
    make_fb15k_like,
    make_fb250k_like,
    make_tiny_kg,
    relation_partition,
    uniform_partition,
)
from .models import ComplEx, DistMult, make_model
from .optim import Adam, PlateauScheduler, scaled_initial_lr
from .serve import EmbeddingStore, QueryEngine, ZipfianTraffic
from .training import (
    PRESETS,
    CheckpointConfigMismatchError,
    CheckpointError,
    CheckpointWorldMismatchError,
    DistributedTrainer,
    ElasticSupervisor,
    StrategyConfig,
    TrainConfig,
    TrainResult,
    latest_checkpoint,
    load_checkpoint,
    baseline_allgather,
    baseline_allreduce,
    drs,
    drs_1bit,
    drs_1bit_rp_ss,
    rs,
    rs_1bit,
    rs_1bit_rp_ss,
    train,
    train_elastic,
)

__version__ = "1.0.0"

__all__ = [
    "Adam",
    "CheckpointConfigMismatchError",
    "CheckpointError",
    "CheckpointWorldMismatchError",
    "Cluster",
    "CollectiveFaultError",
    "ComplEx",
    "DEFAULT_SEED",
    "DistMult",
    "DistributedTrainer",
    "ElasticSupervisor",
    "EmbeddingStore",
    "FB15K_SPEC",
    "FB250K_SPEC",
    "FaultPlan",
    "NetworkModel",
    "PRESETS",
    "PlateauScheduler",
    "QueryEngine",
    "RankLossError",
    "SparseRows",
    "StrategyConfig",
    "TrainConfig",
    "TrainResult",
    "TripleSet",
    "TripleStore",
    "ZipfianTraffic",
    "baseline_allgather",
    "baseline_allreduce",
    "drs",
    "drs_1bit",
    "drs_1bit_rp_ss",
    "evaluate_classification",
    "evaluate_ranking",
    "generate_latent_kg",
    "latest_checkpoint",
    "load_checkpoint",
    "make_fb15k_like",
    "make_fb250k_like",
    "make_model",
    "make_tiny_kg",
    "relation_partition",
    "rs",
    "rs_1bit",
    "rs_1bit_rp_ss",
    "scaled_initial_lr",
    "train",
    "train_elastic",
    "uniform_partition",
]

"""Distributed training engine: strategies, workers, trainer, closed forms."""

from .baselines import allreduce_time_per_step, parameter_server_time_per_step
from .checkpoint import (
    SCHEMA_VERSION,
    CheckpointChecksumError,
    CheckpointConfigMismatchError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMissingArrayError,
    CheckpointSchemaError,
    CheckpointState,
    CheckpointWorldMismatchError,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from .elastic import ElasticSupervisor
from .metrics import EpochLog, EvalTimer, TrainResult
from .rng import rejoin_rng, selection_rng, trainer_rng, worker_rng
from .strategy import (
    PRESETS,
    StrategyConfig,
    baseline_allgather,
    baseline_allreduce,
    drs,
    drs_1bit,
    drs_1bit_rp_ss,
    rs,
    rs_1bit,
    rs_1bit_rp_ss,
)
from .trainer import DistributedTrainer, TrainConfig, train
from .worker import StepOutput, Worker

__all__ = [
    "CheckpointChecksumError",
    "CheckpointConfigMismatchError",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMissingArrayError",
    "CheckpointSchemaError",
    "CheckpointState",
    "CheckpointWorldMismatchError",
    "DistributedTrainer",
    "ElasticSupervisor",
    "EpochLog",
    "EvalTimer",
    "PRESETS",
    "SCHEMA_VERSION",
    "StepOutput",
    "StrategyConfig",
    "TrainConfig",
    "TrainResult",
    "Worker",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "prune_checkpoints",
    "rejoin_rng",
    "selection_rng",
    "trainer_rng",
    "worker_rng",
    "write_checkpoint",
    "allreduce_time_per_step",
    "baseline_allgather",
    "baseline_allreduce",
    "drs",
    "drs_1bit",
    "drs_1bit_rp_ss",
    "parameter_server_time_per_step",
    "rs",
    "rs_1bit",
    "rs_1bit_rp_ss",
    "train",
]

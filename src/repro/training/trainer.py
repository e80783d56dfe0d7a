"""The distributed training engine combining all five strategies.

One :class:`DistributedTrainer` run reproduces one cell of the paper's
tables: train ComplEx on a simulated ``n_nodes``-node cluster under a
:class:`~repro.train.strategy.StrategyConfig`, early-stopping on a
validation-MRR plateau, and report total (simulated) time, epoch count and
test metrics.

The synchronous step
--------------------

1. every rank computes local gradients (real NumPy math, including the
   hardest-negative forward pass when SS is on);
2. the entity gradient is combined by the
   :class:`~repro.training.exchange.GradientExchange`: dense allreduce
   (flat or two-level) **or** sparse/quantized allgather, per the current
   mode (DRS probes and switches between them);
3. the relation gradient is combined the same way — unless relation
   partition is on, in which case it is applied locally at full precision
   with no communication at all;
4. a single shared replica + Adam state applies the update.  This is exact:
   in synchronous data parallelism every rank holds identical parameters
   and optimizer state, so simulating one copy is lossless (and with RP,
   relation rows are owned by exactly one rank, so local updates commute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..comm.faults import CollectiveFaultError, FaultPlan, RankLossError
from ..comm.network import DEFAULT_NETWORK, NetworkModel
from ..comm.simulator import Cluster
from ..comm.sparse import SparseRows
# perf/test_perf.py pins ``repro.training.trainer.quantize is
# repro.compress.quantization.quantize`` (importer patching); the next
# benchmark PR repoints it at repro.training.exchange and drops this.
from ..compress.quantization import quantize  # noqa: F401
from ..config import DEFAULT_SEED
from ..eval.classification import evaluate_classification
from ..eval.ranking import RankingResult, evaluate_ranking
from ..kg.partition import make_partition
from ..kg.triples import TripleStore
from ..models import make_model
from ..optim.adam import Adam
from ..optim.lr_schedule import PlateauScheduler, scaled_initial_lr
from . import checkpoint as ckpt
from .exchange import GradientExchange
from .metrics import EpochLog, EvalTimer, TrainResult
from .rng import trainer_rng
from .strategy import StrategyConfig
from .worker import Worker


@dataclass
class TrainConfig:
    """Run-level hyper-parameters (paper Section 3.3 scaled down)."""

    dim: int = 32
    batch_size: int = 512
    base_lr: float = 1e-3
    lr_scale_cap: int = 4
    lr_patience: int = 15
    lr_warmup_epochs: int = 0
    lr_factor: float = 0.1
    min_lr: float = 1e-5
    l2: float = 1e-6
    max_epochs: int = 500
    eval_max_queries: int = 200
    eval_batch_size: int = 256
    seed: int = DEFAULT_SEED
    zero_row_tol: float = 1e-5
    model_name: str = "complex"
    include_eval_time: bool = True
    #: "modeled" charges flops/node_flops per rank (deterministic, the
    #: default); "measured" charges each rank's real NumPy wall time.
    compute_time_mode: str = "modeled"
    #: Epochs of uniform negatives before hardest-negative selection kicks
    #: in (-1 = follow lr_warmup_epochs).  See Worker.compute_step.
    ss_warmup_epochs: int = -1

    #: Simulated-hours scale: multiplies modeled seconds when reporting
    #: hours, letting scaled-down runs report paper-magnitude numbers.
    time_scale: float = 1.0

    #: Directory for checkpoints (None = checkpointing off).  With a
    #: directory set, the trainer also snapshots every completed epoch in
    #: memory and writes that snapshot out when a fail-fast collective
    #: fault kills the run, so a crash never costs more than one epoch.
    checkpoint_dir: str | None = None
    #: Write a checkpoint every N completed epochs (0 = only the
    #: crash-time snapshot).  Requires ``checkpoint_dir``.
    checkpoint_every: int = 0
    #: Retention: keep only the newest N routine checkpoints on disk,
    #: pruning older ones after each write (0 = keep everything).
    #: ``failure-*`` snapshots are never pruned.
    checkpoint_keep: int = 2

    def __post_init__(self) -> None:
        if self.dim < 1 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("dim, batch_size and max_epochs must be >= 1")
        if self.base_lr <= 0 or self.min_lr <= 0 or self.time_scale <= 0:
            raise ValueError("base_lr, min_lr, time_scale must be positive")
        if self.compute_time_mode not in ("modeled", "measured"):
            raise ValueError(
                f"compute_time_mode must be 'modeled' or 'measured', "
                f"got {self.compute_time_mode!r}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_every requires checkpoint_dir to be set")
        if self.checkpoint_keep < 0:
            raise ValueError(
                f"checkpoint_keep must be >= 0, got {self.checkpoint_keep}")


#: ``TrainResult`` counter each step of a transport mode feeds.
_STEP_COUNTERS = {"allreduce": "allreduce_steps",
                  "hierarchical": "hier_steps",
                  "allgather": "allgather_steps"}


class DistributedTrainer:
    """Train one KGE model under one strategy on a simulated cluster."""

    def __init__(self, store: TripleStore, strategy: StrategyConfig,
                 n_nodes: int, config: TrainConfig | None = None,
                 network: NetworkModel | None = None,
                 faults: FaultPlan | None = None,
                 global_ranks: tuple[int, ...] | None = None):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.store = store
        self.strategy = strategy
        self.n_nodes = n_nodes
        self.config = config or TrainConfig()
        self.network = network or DEFAULT_NETWORK
        self.faults = faults
        self.cluster = Cluster(n_nodes, self.network, faults=faults,
                               global_ranks=global_ranks)
        #: Original-world identity of each local rank (identity for a
        #: freshly launched job; survivors' ids for an elastic world).
        self.global_ranks = self.cluster.global_ranks
        self.eval_timer = EvalTimer()

        cfg = self.config
        self.model = make_model(cfg.model_name, store.n_entities,
                                store.n_relations, cfg.dim, seed=cfg.seed)
        self.optimizer = Adam(self.model)
        # All RNG streams derive from cfg.seed via repro.training.rng —
        # the checkpoint layer snapshots their exact positions.
        self.rng = trainer_rng(cfg.seed)

        # The elastic supervisor rebuilds trainers over shrunk/regrown
        # worlds; routing every construction through make_partition
        # guarantees re-partitioning re-runs the *same scheme* (including
        # RP's prefix-sum split) on the new world size.
        self.partition_scheme = ("relation"
                                 if strategy.relation_partition and n_nodes > 1
                                 else "uniform")
        part = make_partition(store.train, self.partition_scheme, n_nodes,
                              rng=self.rng)
        self.partition = part
        self.workers = [
            Worker(rank=i, shard=part.parts[i], n_entities=store.n_entities,
                   strategy=strategy, seed=cfg.seed, l2=cfg.l2,
                   zero_row_tol=cfg.zero_row_tol, store=store)
            for i in range(n_nodes)
        ]
        #: Everything between the ranks' gradients and the combined update
        #: (selection, quantization, residuals, collectives, DRS).
        self.exchange = GradientExchange(self.cluster, strategy, {
            "entity": (*self.model.entity_emb.shape, cfg.zero_row_tol),
            "relation": (*self.model.relation_emb.shape, None),
        }, seed=cfg.seed)

        lr0 = scaled_initial_lr(cfg.base_lr, n_nodes, cap=cfg.lr_scale_cap)
        self.scheduler = PlateauScheduler(lr0, patience=cfg.lr_patience,
                                          factor=cfg.lr_factor,
                                          min_lr=cfg.min_lr,
                                          warmup=cfg.lr_warmup_epochs)
        # Equal batches per worker (paper Section 3.3): the step count is
        # set by the *average* shard so mildly imbalanced partitions (e.g.
        # relation partition at small scales) do not inflate the epoch.
        # Over-size shards are subsampled each epoch and fully covered over
        # successive epochs by the shuffled wrap-around.
        shard_mean = int(np.mean([len(w.shard) for w in self.workers]))
        self.steps_per_epoch = max(1, math.ceil(
            shard_mean / min(cfg.batch_size, shard_mean)))

        #: The (partial, then final) outcome of this trainer's run.  Lives
        #: on the instance so checkpoints can capture cumulative counters
        #: and epoch logs, and a restored trainer can keep appending.
        self.result = TrainResult(strategy_label=strategy.label(),
                                  n_nodes=n_nodes, epochs=0, total_time=0.0,
                                  final_val_mrr=float("nan"))
        self._completed_epochs = 0
        self._last_snapshot: ckpt.CheckpointState | None = None
        self._config_hash: str | None = None
        #: World sizes this training lineage has lived through (appended to
        #: by cross-world restores; see checkpoint.apply_state).
        self.world_lineage: list[int] = [n_nodes]
        #: Force per-epoch in-memory snapshots even without a checkpoint
        #: dir (the elastic supervisor's rollback source).
        self._snapshot_epochs = False
        #: Stop after completing this epoch even if budget remains (the
        #: supervisor uses it to open a regrow boundary).
        self._stop_after: int | None = None

    # -- checkpoint/resume ---------------------------------------------

    def config_fingerprint(self) -> str:
        """Hash of everything that shapes this trainer's trajectory.

        Binds checkpoints to the run configuration; see
        :func:`repro.training.checkpoint.config_fingerprint`.
        """
        if self._config_hash is None:
            self._config_hash = ckpt.config_fingerprint(
                self.store, self.strategy, self.config, self.network,
                self.faults)
        return self._config_hash

    def save_checkpoint(self, path: str | Path) -> Path:
        """Snapshot the complete training state into ``path``.

        Only meaningful at an epoch boundary (before :meth:`run`, or from
        the epoch-driven checkpoint hooks inside it).
        """
        return ckpt.write_checkpoint(ckpt.capture_state(self), path)

    def restore(self, path: str | Path) -> int:
        """Load a checkpoint and arm :meth:`run` to continue from it.

        ``path`` may be a checkpoint directory or a parent directory, in
        which case the highest-epoch checkpoint under it is used.  The
        checkpoint must carry this trainer's config fingerprint
        (:class:`~repro.training.checkpoint.CheckpointConfigMismatchError`
        otherwise); returns the epoch training will resume after.
        """
        state = ckpt.load_checkpoint(
            ckpt.resolve_checkpoint_dir(path),
            expected_config_hash=self.config_fingerprint())
        ckpt.apply_state(self, state)
        return state.epoch

    # ------------------------------------------------------------------

    def _rank_split(self, split) -> RankingResult:
        """Filtered-ranking evaluation of one split, wall-clock timed."""
        cfg = self.config
        with self.eval_timer.measure():
            result = evaluate_ranking(
                self.model, split, self.store,
                batch_size=cfg.eval_batch_size,
                max_queries=(cfg.eval_max_queries
                             if split is self.store.valid else None))
            self.eval_timer.count(2 * result.n_queries)
        return result

    def _evaluate_validation(self) -> tuple[float, float]:
        """Validation MRR (plateau metric) and its modeled eval time."""
        result = self._rank_split(self.store.valid)
        # Eval work is sharded across ranks in the real system.
        fwd = self.model.flops_per_example(backward=False)
        flops = 2.0 * result.n_queries * self.store.n_entities * fwd
        eval_time = self.network.compute_time(flops / self.n_nodes)
        return result.mrr, eval_time

    # ------------------------------------------------------------------

    def run(self) -> TrainResult:
        """Train to the plateau-scheduler stopping point; evaluate on test.

        Starts from epoch 1 on a fresh trainer, or from the epoch after a
        checkpoint restored via :meth:`restore` — the resumed trajectory is
        bitwise identical to the uninterrupted one.  With
        ``TrainConfig.checkpoint_dir`` set, a checkpoint is written every
        ``checkpoint_every`` completed epochs, and the last completed
        epoch's snapshot is flushed to disk if a fail-fast collective fault
        aborts the run.
        """
        cfg = self.config
        result = self.result
        ckpt_dir = Path(cfg.checkpoint_dir) if cfg.checkpoint_dir else None
        snapshotting = ckpt_dir is not None or self._snapshot_epochs
        if snapshotting and self._last_snapshot is None:
            # Pre-epoch snapshot: even a first-epoch crash leaves a
            # resumable epoch-0 (or resume-point) checkpoint behind.
            self._last_snapshot = ckpt.capture_state(self)

        for epoch in range(self._completed_epochs + 1, cfg.max_epochs + 1):
            if self.scheduler.done:
                # Restored from a checkpoint of an already-converged run:
                # the uninterrupted run never trained this epoch either.
                break
            if (self._stop_after is not None
                    and self._completed_epochs >= self._stop_after):
                # Elastic regrow boundary: hand control back to the
                # supervisor with budget remaining.
                break
            try:
                self._run_epoch(epoch)
            except CollectiveFaultError as exc:
                if exc.epoch is None:
                    exc.epoch = epoch
                if ckpt_dir is not None and self._last_snapshot is not None:
                    ckpt.write_checkpoint(
                        self._last_snapshot,
                        ckpt_dir / f"failure-epoch-{self._last_snapshot.epoch:04d}")
                raise
            self._completed_epochs = epoch
            if snapshotting:
                self._last_snapshot = ckpt.capture_state(self)
            if (ckpt_dir is not None and cfg.checkpoint_every
                    and epoch % cfg.checkpoint_every == 0):
                ckpt.write_checkpoint(self._last_snapshot,
                                      ckpt_dir / f"epoch-{epoch:04d}")
                ckpt.prune_checkpoints(ckpt_dir, cfg.checkpoint_keep)
            if self.scheduler.done:
                break

        result.epochs = len(result.logs)
        result.total_time = self.cluster.elapsed * cfg.time_scale
        result.recovery_time = self.cluster.recovery_time * cfg.time_scale
        result.world_lineage = list(self.world_lineage)
        result.final_val_mrr = result.logs[-1].val_mrr if result.logs else float("nan")
        result.bytes_total = self.cluster.stats.nbytes_total
        result.comm_by_hop = {hop: list(v) for hop, v
                              in self.cluster.stats.by_hop.items()}
        result.comm_retries = self.cluster.stats.retries
        result.comm_fallbacks = self.exchange.fallbacks
        result.straggler_skew = self.cluster.straggler_skew

        test = self._rank_split(self.store.test)
        result.test_mrr = test.mrr
        result.test_mrr_raw = test.mrr_raw
        result.test_hits10 = test.hits_at_10
        tca = evaluate_classification(self.model, self.store.test,
                                      self.store.valid, self.store,
                                      seed=cfg.seed)
        result.test_tca = tca.accuracy
        result.eval_seconds = self.eval_timer.seconds
        result.eval_queries = self.eval_timer.queries
        result.eval_queries_per_sec = self.eval_timer.queries_per_sec
        return result

    def _apply(self, kind: str, grad: SparseRows) -> None:
        """Adam-update one embedding matrix with ``grad`` averaged over
        the world (the shared replica's step, see the module docstring)."""
        getattr(self.optimizer, f"{kind}_state").apply_sparse(
            getattr(self.model, f"{kind}_emb"),
            grad.scale(1.0 / self.n_nodes), self.scheduler.lr)

    def _run_epoch(self, epoch: int) -> None:
        """One full synchronous epoch: steps, validation, scheduling, log."""
        cfg = self.config
        strategy = self.strategy
        result = self.result
        if self.cluster.faults is not None:
            lost = self.cluster.faults.lost_ranks(epoch)
            if lost:
                # A synchronous world cannot outlive any member: the first
                # collective would hang forever.  Surface the loss before
                # any step runs so the rolled-back state stays clean.
                local = lost[0]
                raise RankLossError(rank=self.global_ranks[local],
                                    epoch=epoch, local_rank=local)
        ss_warmup = (cfg.lr_warmup_epochs if cfg.ss_warmup_epochs < 0
                     else cfg.ss_warmup_epochs)
        ss_active = epoch > ss_warmup
        mode = self.exchange.mode_for_epoch(epoch)
        counter = _STEP_COUNTERS[mode]
        epoch_start = self.cluster.elapsed
        comm_before = self.cluster.stats.time_total
        bytes_before = self.cluster.stats.nbytes_total

        for w in self.workers:
            w.start_epoch()

        epoch_loss = 0.0
        nonzero_rows_sum = 0.0
        sparsity_sum = 0.0
        for step in range(self.steps_per_epoch):
            outputs = [w.compute_step(self.model, step, cfg.batch_size,
                                      ss_active=ss_active)
                       for w in self.workers]
            for rank, out in enumerate(outputs):
                if cfg.compute_time_mode == "measured":
                    self.cluster.advance_compute(rank, out.wall_seconds)
                else:
                    self.cluster.advance_compute(
                        rank, self.network.compute_time(out.flops))
            epoch_loss += float(np.mean([o.loss for o in outputs]))
            nonzero_rows_sum += float(
                np.mean([o.nonzero_entity_rows for o in outputs]))

            # Entity gradients always travel.
            combined, sparsity = self.exchange.exchange(
                "entity", [o.entity_grad for o in outputs], mode)
            sparsity_sum += sparsity
            self._apply("entity", combined)
            if strategy.relation_partition and self.n_nodes > 1:
                # Relations are disjoint across ranks: each rank applies
                # its own full-precision gradient, no communication.
                # Scaled by 1/p so the update magnitude matches the
                # baseline's gradient *averaging* exactly: with disjoint
                # relations, the averaged allreduce gradient for a row
                # is precisely (owner gradient) / p, so relation
                # partition is semantically lossless, not a p-times lr
                # inflation on relation rows.
                for o in outputs:
                    self._apply("relation", o.relation_grad)
            else:
                combined, _ = self.exchange.exchange(
                    "relation", [o.relation_grad for o in outputs], mode)
                self._apply("relation", combined)
            setattr(result, counter, getattr(result, counter) + 1)
            # Applied: free this step's gradients before the next step
            # computes its own.
            del outputs, combined

        comm_time = self.cluster.stats.time_total - comm_before
        val_mrr, eval_time = self._evaluate_validation()
        if cfg.include_eval_time:
            self.cluster.advance_compute_all(eval_time)
        epoch_time = self.cluster.elapsed - epoch_start
        compute_time = epoch_time - comm_time - (
            eval_time if cfg.include_eval_time else 0.0)

        lr_used = self.scheduler.lr
        self.scheduler.step(val_mrr)
        self.exchange.observe(mode, comm_time)
        if self.exchange.drs.switched and result.drs_switch_epoch == 0:
            result.drs_switch_epoch = epoch

        result.logs.append(EpochLog(
            epoch=epoch, loss=epoch_loss / self.steps_per_epoch,
            val_mrr=val_mrr, lr=lr_used, comm_mode=mode,
            epoch_time=epoch_time, compute_time=compute_time,
            comm_time=comm_time,
            bytes_communicated=self.cluster.stats.nbytes_total - bytes_before,
            nonzero_entity_rows=nonzero_rows_sum / self.steps_per_epoch,
            selection_sparsity=sparsity_sum / self.steps_per_epoch,
            eval_time=eval_time, world_size=self.n_nodes))

        if self.scheduler.done:
            result.converged = True


def train(store: TripleStore, strategy: StrategyConfig, n_nodes: int = 1,
          config: TrainConfig | None = None,
          network: NetworkModel | None = None,
          faults: FaultPlan | None = None,
          resume_from: str | Path | None = None) -> TrainResult:
    """Convenience one-call API: build a trainer and run it.

    ``resume_from`` restores a checkpoint (a checkpoint directory, or a
    parent directory whose newest checkpoint is taken) before running;
    the resumed run is bitwise identical to an uninterrupted one.
    """
    trainer = DistributedTrainer(store, strategy, n_nodes, config=config,
                                 network=network, faults=faults)
    if resume_from is not None:
        trainer.restore(resume_from)
    return trainer.run()

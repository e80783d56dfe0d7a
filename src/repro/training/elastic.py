"""Elastic training supervisor: automatic rank-loss recovery.

The synchronous SPMD world the trainer simulates cannot outlive any of its
members — the first collective after a rank dies would block forever.  The
paper's cluster runs are long enough that this matters: a multi-hour
training job should not be lost to one node failure.  This module wraps
:class:`~repro.training.trainer.DistributedTrainer` in a supervisor loop
that turns a permanent rank loss (a ``rank_loss`` event in the
:class:`~repro.comm.faults.FaultPlan`) into a bounded, fully deterministic
recovery instead of a dead job:

1. **RUNNING** — the trainer runs normally, snapshotting every completed
   epoch in memory (its rollback source; no disk required).
2. **RANK_LOST** — a :class:`~repro.comm.faults.RankLossError` surfaces at
   an epoch boundary; the supervisor catches it.
3. **ROLLBACK** — the most recent valid snapshot is selected; everything
   after it (at most one epoch of progress) is discarded and charged to the
   virtual clocks as recovery downtime.
4. **REPARTITION** — a new trainer is built over the ``N-1`` survivors:
   the cluster keeps the survivors' *global* rank identities (so fault-plan
   stragglers and later losses follow the right members and hierarchical
   topologies keep their node occupancy), and the training set is
   re-partitioned from scratch under the same scheme — the relation
   partition re-runs its prefix-sum split on the shrunk world, so its
   no-communication invariant holds over the survivors too.
5. **RUNNING** — the snapshot is restored into the new world
   (:func:`~repro.training.checkpoint.apply_state` with an explicit
   ``rank_map``) and training continues.  With ``allow_regrow``, a
   recovered rank is re-admitted at the next epoch boundary via the same
   mechanism in reverse (the re-admitted rank gets pristine residuals and
   a fresh :func:`~repro.training.rng.rejoin_rng` stream).

The whole trajectory — final embeddings, epoch logs, recovery log — is a
pure function of ``(seed, fault plan)``: run it twice, diff nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..comm.faults import FaultPlan, RankLossError
from ..comm.network import NetworkModel
from ..kg.triples import TripleStore
from . import checkpoint as ckpt
from .metrics import TrainResult
from .rng import rejoin_rng
from .strategy import StrategyConfig
from .trainer import DistributedTrainer, TrainConfig


@dataclass(frozen=True)
class RecoveryEvent:
    """One membership change in an elastic run (the recovery log's unit)."""

    #: "shrink" (a rank was lost) or "regrow" (a rank was re-admitted).
    action: str
    #: Global id of the rank that left or rejoined.
    rank: int
    #: Epoch at which the loss fired, or the boundary a regrow happened at.
    epoch: int
    #: First epoch the rebuilt world trains.
    resume_epoch: int
    world_before: tuple[int, ...]
    world_after: tuple[int, ...]
    #: Completed epochs of progress discarded by the rollback (0 for
    #: regrow: it happens at a boundary and rolls nothing back).
    rollback_epochs: int
    #: Modeled (unscaled) simulated seconds this transition cost: training
    #: progress past the rollback point plus the state re-broadcast.
    overhead: float

    def as_dict(self) -> dict:
        """JSON-serialisable form (what the golden recovery log pins)."""
        d = dataclasses.asdict(self)
        d["world_before"] = list(self.world_before)
        d["world_after"] = list(self.world_after)
        return d


class ElasticSupervisor:
    """Run training to completion across rank losses.

    Construction mirrors :class:`~repro.training.trainer.DistributedTrainer`
    plus the elasticity policy:

    Parameters
    ----------
    max_restarts:
        Rank-loss recoveries allowed before the loss is re-raised to the
        caller (regrows do not count — they consume no failure budget).
    allow_regrow:
        Re-admit recovered ranks at the next epoch boundary, restoring the
        original world size, instead of finishing on the survivors.
    """

    def __init__(self, store: TripleStore, strategy: StrategyConfig,
                 n_nodes: int, config: TrainConfig | None = None,
                 network: NetworkModel | None = None,
                 faults: FaultPlan | None = None, *,
                 max_restarts: int = 1, allow_regrow: bool = False):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {max_restarts}")
        self.store = store
        self.strategy = strategy
        self.n_nodes = n_nodes
        self.config = config or TrainConfig()
        self.network = network
        self.faults = faults
        self.max_restarts = max_restarts
        self.allow_regrow = allow_regrow
        #: Membership changes, in order (the recovery log).
        self.events: list[RecoveryEvent] = []
        #: Rank-loss recoveries performed so far.
        self.restarts = 0
        self.trainer: DistributedTrainer | None = None

    # ------------------------------------------------------------------

    def recovery_log(self) -> list[dict]:
        """The recovery log as JSON-serialisable dicts, oldest first."""
        return [event.as_dict() for event in self.events]

    def run(self) -> TrainResult:
        """Train to completion, recovering from planned rank losses.

        Returns the final :class:`~repro.training.metrics.TrainResult`,
        annotated with ``restarts`` and the recovery log.  Raises
        :class:`~repro.comm.faults.RankLossError` if losses exceed
        ``max_restarts`` (a failure checkpoint is still on disk when
        ``checkpoint_dir`` is set).
        """
        world = list(range(self.n_nodes))
        dead: list[int] = []
        trainer = self._spawn(world)
        while True:
            self.trainer = trainer
            try:
                result = trainer.run()
            except RankLossError as exc:
                trainer, world, dead = self._shrink(trainer, world, dead, exc)
                continue
            if self._regrow_pending(trainer, dead):
                trainer, world, dead = self._regrow(trainer, world, dead)
                continue
            break
        result.restarts = self.restarts
        result.recovery_log = self.recovery_log()
        return result

    # -- state transitions ---------------------------------------------

    def _spawn(self, world: list[int]) -> DistributedTrainer:
        """Build a trainer over ``world`` (a sorted list of global ranks);
        its cluster keeps every member on its original node."""
        trainer = DistributedTrainer(
            self.store, self.strategy, len(world), config=self.config,
            network=self.network, faults=self.faults,
            global_ranks=tuple(world))
        # Every completed epoch must be snapshotted in memory — it is the
        # rollback source — whether or not disk checkpointing is on.
        trainer._snapshot_epochs = True
        return trainer

    def _restore_cost(self, trainer: DistributedTrainer) -> float:
        """Modeled seconds to re-broadcast full training state to a world.

        Embeddings plus both Adam moments for each matrix — what a real
        elastic launch ships to freshly (re)started processes.
        """
        state_bytes = 3 * float(trainer.model.entity_emb.nbytes
                                + trainer.model.relation_emb.nbytes)
        if trainer.n_nodes == 1:
            return 0.0
        return float(trainer.network.broadcast_time(state_bytes,
                                                    trainer.cluster.groups))

    def _shrink(self, trainer: DistributedTrainer, world: list[int],
                dead: list[int], exc: RankLossError
                ) -> tuple[DistributedTrainer, list[int], list[int]]:
        if self.restarts >= self.max_restarts:
            raise exc
        survivors = [g for g in world if g != exc.rank]
        if not survivors:
            raise exc  # nobody left to shrink onto
        snapshot = trainer._last_snapshot
        if snapshot is None:  # pragma: no cover - _snapshot_epochs guards
            raise exc

        # Rollback debt: everything the virtual clocks advanced past the
        # snapshot is lost progress the survivors must re-train.
        snap_clocks = np.asarray(snapshot.arrays["cluster/clocks"],
                                 dtype=np.float64)
        wasted = max(0.0, trainer.cluster.elapsed - float(snap_clocks.max()))

        new_trainer = self._spawn(survivors)
        # Wall seconds are this process's; the restore sets the lineage's
        # query count.
        new_trainer.eval_timer = trainer.eval_timer
        rank_map = [world.index(g) for g in survivors]
        ckpt.apply_state(new_trainer, snapshot, rank_map=rank_map)
        new_trainer.cluster.recovery_time = trainer.cluster.recovery_time
        overhead = wasted + self._restore_cost(new_trainer)
        new_trainer.cluster.charge_recovery(overhead)

        self.restarts += 1
        self.events.append(RecoveryEvent(
            action="shrink", rank=exc.rank, epoch=exc.epoch,
            resume_epoch=snapshot.epoch + 1,
            world_before=tuple(world), world_after=tuple(survivors),
            rollback_epochs=trainer._completed_epochs - snapshot.epoch,
            overhead=overhead))
        if self.allow_regrow:
            # Stop at the next boundary so the lost rank can rejoin as
            # soon as the surviving world has made one epoch of progress.
            new_trainer._stop_after = snapshot.epoch + 1
        return new_trainer, survivors, sorted(dead + [exc.rank])

    def _regrow_pending(self, trainer: DistributedTrainer,
                        dead: list[int]) -> bool:
        return (self.allow_regrow and bool(dead)
                and not trainer.scheduler.done
                and trainer._completed_epochs < self.config.max_epochs)

    def _regrow(self, trainer: DistributedTrainer, world: list[int],
                dead: list[int]
                ) -> tuple[DistributedTrainer, list[int], list[int]]:
        boundary = trainer._completed_epochs
        snapshot = ckpt.capture_state(trainer)
        new_world = sorted(world + dead)
        rank_map = [world.index(g) if g in world else None
                    for g in new_world]

        new_trainer = self._spawn(new_world)
        new_trainer.eval_timer = trainer.eval_timer
        ckpt.apply_state(new_trainer, snapshot, rank_map=rank_map)
        new_trainer.cluster.recovery_time = trainer.cluster.recovery_time
        # Re-admitted ranks must not replay their original stream from
        # epoch 1: they draw from a fresh rejoin stream keyed on (seed,
        # rank, boundary) so the trajectory stays a pure function of the
        # fault plan.
        for local, old in enumerate(rank_map):
            if old is None:
                new_trainer.workers[local].rng = rejoin_rng(
                    self.config.seed, new_world[local], boundary + 1)
        overhead = self._restore_cost(new_trainer)
        new_trainer.cluster.charge_recovery(overhead)

        for rank in sorted(dead):
            self.events.append(RecoveryEvent(
                action="regrow", rank=rank, epoch=boundary,
                resume_epoch=boundary + 1,
                world_before=tuple(world), world_after=tuple(new_world),
                rollback_epochs=0, overhead=overhead))
        return new_trainer, new_world, []

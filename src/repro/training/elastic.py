"""Elastic training supervisor: automatic rank-loss recovery.

A synchronous world cannot outlive any member: the first collective after
a rank dies would block forever.  :class:`ElasticSupervisor` wraps
:class:`~repro.training.trainer.DistributedTrainer` so that a permanent
rank loss (a ``rank_loss`` event in the
:class:`~repro.comm.faults.FaultPlan`) becomes a bounded, deterministic
recovery: on :class:`~repro.comm.faults.RankLossError` it rolls back to the
last in-memory epoch snapshot, builds a trainer over the survivors (same
global rank ids, same partition scheme re-run on the smaller world),
restores the snapshot into it with an explicit ``rank_map`` and charges
the lost progress plus a state re-broadcast to the clocks.  With
``allow_regrow`` the lost rank rejoins at the next epoch boundary on a
fresh :func:`~repro.training.rng.rejoin_rng` stream.  The state machine is
drawn in ``docs/architecture.md`` (§ Elastic recovery).

Every membership change is an ``elastic`` record in the run's decision log
(:mod:`repro.obs`), appended to the rebuilt trainer's result after the
restore so a later rollback keeps it; the rebuilt world's own
``drs.resolve`` follows it.  The whole trajectory — final embeddings, epoch
logs, decision log — is a pure function of ``(seed, fault plan)``: run it
twice, diff nothing.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..comm.faults import FaultPlan, RankLossError
from ..comm.network import NetworkModel
from ..kg.triples import TripleStore
from ..obs import Decision
from . import checkpoint as ckpt
from .metrics import TrainResult
from .rng import rejoin_rng
from .strategy import StrategyConfig
from .trainer import DistributedTrainer, TrainConfig


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
        self.trainer: DistributedTrainer | None = None

    # ------------------------------------------------------------------

    def run(self) -> TrainResult:
        """Train to completion, recovering from planned rank losses.

        Returns the final :class:`~repro.training.metrics.TrainResult`,
        whose ``restarts`` count the log's shrinks.  Raises
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

    def _respawn(self, trainer: DistributedTrainer,
                 snapshot: ckpt.CheckpointState, world: list[int],
                 new_world: list[int], wasted: float, at: int,
                 ranks: list[int], choice: str,
                 alternative: str) -> DistributedTrainer:
        """Restore ``snapshot`` into a trainer over ``new_world``, charge
        the recovery, then log one ``elastic`` decision per rank that left
        or rejoined and the new world's own ``drs.resolve``."""
        rank_map = [world.index(g) if g in world else None
                    for g in new_world]
        resume = snapshot.epoch + 1
        new_trainer = self._spawn(new_world)
        ckpt.apply_state(new_trainer, snapshot, rank_map=rank_map)
        # Re-admitted ranks must not replay their original stream from
        # epoch 1: they draw from a fresh rejoin stream keyed on (seed,
        # rank, boundary) so the trajectory stays a pure function of the
        # fault plan.
        for local, old in enumerate(rank_map):
            if old is None:
                new_trainer.workers[local].rng = rejoin_rng(
                    self.config.seed, new_world[local], resume)
        overhead = wasted + self._restore_cost(new_trainer)
        new_trainer.cluster.charge_recovery(overhead)

        changes = [Decision("elastic", at, choice, alternative, {
            "rank": rank, "resume_epoch": resume, "world_before": world,
            "world_after": new_world, "overhead": overhead,
            "rollback_epochs": trainer._completed_epochs - snapshot.epoch})
            for rank in ranks]
        if new_trainer.exchange.resolution is not None:
            changes.append(dataclasses.replace(
                new_trainer.exchange.resolution, at=resume))
        new_trainer.result.decisions.extend(d.as_dict() for d in changes)
        return new_trainer

    def _shrink(self, trainer: DistributedTrainer, world: list[int],
                dead: list[int], exc: RankLossError
                ) -> tuple[DistributedTrainer, list[int], list[int]]:
        if trainer.result.restarts >= self.max_restarts:
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
        new_trainer = self._respawn(trainer, snapshot, world, survivors,
                                    wasted, exc.epoch, [exc.rank], "shrink",
                                    "abort")
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
        new_world = sorted(world + dead)
        return (self._respawn(trainer, ckpt.capture_state(trainer), world,
                              new_world, 0.0, trainer._completed_epochs,
                              sorted(dead), "regrow", "stay"), new_world, [])

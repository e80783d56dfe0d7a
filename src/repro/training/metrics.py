"""Training telemetry: per-epoch logs, the eval-query count and the final
result."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EvalTimer:
    """Ranking queries evaluated over the whole training lineage.

    One ranking query = one (head or tail) candidate sweep, so a triple
    contributes two.  A checkpoint carries the count (its ``eval_timer``
    section).  The simulated cluster charges *modeled* eval time
    (``EpochLog.eval_time``); real wall time is no function of (seed,
    plan), so the caller that wants it times the run itself.
    """

    queries: int = 0


@dataclass
class EpochLog:
    """Everything recorded about one epoch."""

    epoch: int
    loss: float
    val_mrr: float
    lr: float
    comm_mode: str                 # "allreduce" | "hierarchical" | "allgather"
    epoch_time: float              # simulated seconds for this epoch
    compute_time: float
    comm_time: float
    bytes_communicated: int
    nonzero_entity_rows: float     # mean per step, for Fig. 2
    selection_sparsity: float      # fraction of rows dropped by selection
    eval_time: float = 0.0
    #: Ranks that trained this epoch (0 = written before elastic support).
    world_size: int = 0


@dataclass
class TrainResult:
    """Outcome of one training run on the simulated cluster."""

    strategy_label: str
    n_nodes: int
    epochs: int
    total_time: float              # simulated seconds, training + eval
    final_val_mrr: float
    logs: list[EpochLog] = field(default_factory=list)
    test_mrr: float = float("nan")
    test_mrr_raw: float = float("nan")
    test_hits10: float = float("nan")
    test_tca: float = float("nan")
    allreduce_steps: int = 0
    allgather_steps: int = 0
    #: Steps that used the two-level hierarchical stack (dense or
    #: hop-boundary re-quantized; see repro.comm.hierarchical).
    hier_steps: int = 0
    bytes_total: int = 0
    #: hop -> [calls, bytes, time, retries] over the whole run (see
    #: repro.comm.simulator.CommStats.by_hop); flat-only runs carry at most
    #: the "flat" key.
    comm_by_hop: dict = field(default_factory=dict)
    converged: bool = False
    #: Message retransmissions charged by the fault injector (0 = no faults).
    comm_retries: int = 0
    #: Collectives that gave up and were re-sent via the dense fallback.
    comm_fallbacks: int = 0
    #: Fraction of the run the most-idle rank spent waiting at barriers.
    straggler_skew: float = 0.0
    #: Epoch at which DRS committed its allgather switch (0 = never).
    drs_switch_epoch: int = 0
    #: Ranking queries of the whole training lineage (head + tail sweeps
    #: count separately; a resumed run counts the epochs before the resume).
    eval_queries: int = 0
    #: Simulated seconds (time-scaled) spent on elastic recovery: the
    #: ``overhead`` of every ``elastic`` decision (rolled-back epoch progress
    #: plus the modeled state re-broadcast).  Included in ``total_time``.
    recovery_time: float = 0.0
    #: Every world size the run lived through, oldest first ([n] = static).
    world_lineage: list = field(default_factory=list)
    #: The decision log: DRS and elastic :class:`~repro.obs.Decision` dicts.
    decisions: list = field(default_factory=list)

    @property
    def total_hours(self) -> float:
        """Simulated wall-clock hours (the unit the paper reports)."""
        return self.total_time / 3600.0

    @property
    def restarts(self) -> int:
        """Elastic-supervisor restarts survived: the log's shrinks."""
        return sum(d["choice"] == "shrink" for d in self.decisions)

    @property
    def allreduce_fraction(self) -> float:
        """Fraction of communication steps that used allreduce."""
        steps = self.allreduce_steps + self.allgather_steps + self.hier_steps
        if steps == 0:
            return 0.0
        return self.allreduce_steps / steps

    def series(self, attr: str) -> list:
        """Extract one per-epoch column, e.g. ``series('val_mrr')``."""
        return [getattr(log, attr) for log in self.logs]

    def summary_row(self) -> dict:
        """The paper's table columns: TT / N / TCA / MRR."""
        return {
            "method": self.strategy_label,
            "nodes": self.n_nodes,
            "TT_hours": self.total_hours,
            "N_epochs": self.epochs,
            "TCA": self.test_tca,
            "MRR": self.test_mrr,
        }

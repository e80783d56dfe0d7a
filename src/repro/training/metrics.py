"""Training telemetry: per-epoch logs, eval timing and the final result."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class EvalTimer:
    """Accumulates real wall seconds and query counts of evaluation calls.

    The simulated cluster charges *modeled* eval time (``EpochLog.eval_time``)
    — this timer measures what evaluation actually costs the host process,
    which is what the filtered-ranking fast path optimises.  One ranking
    query = one (head or tail) candidate sweep, so a triple contributes two.

    ``queries`` counts the whole training lineage (a checkpoint carries it);
    ``seconds`` and :attr:`queries_per_sec` describe this process only —
    wall time is no function of (seed, plan), so no snapshot holds it.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.queries = 0
        self._timed = 0  # queries this process ran

    @contextmanager
    def measure(self):
        """Time one evaluation section (wall clock)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.seconds += time.perf_counter() - start

    def count(self, queries: int) -> None:
        """Record ranking queries executed inside the current section."""
        self.queries += int(queries)
        self._timed += int(queries)

    @property
    def queries_per_sec(self) -> float:
        """This process's queries per eval second (0 before any section)."""
        if self.seconds <= 0.0:
            return 0.0
        return self._timed / self.seconds


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
    #: Real wall seconds this process spent in ranking evaluation (not
    #: simulated, not carried by a checkpoint).
    eval_seconds: float = 0.0
    #: Ranking queries of the whole training lineage (head + tail sweeps
    #: count separately; a resumed run counts the epochs before the resume).
    eval_queries: int = 0
    #: This process's measured evaluation throughput: its own queries over
    #: ``eval_seconds`` (0 if untimed).
    eval_queries_per_sec: float = 0.0
    #: Elastic-supervisor restarts survived (0 = never lost a rank).
    restarts: int = 0
    #: Simulated seconds (time-scaled) spent on elastic recovery: rolled-back
    #: epoch progress plus the modeled state re-broadcast.  Included in
    #: ``total_time``.
    recovery_time: float = 0.0
    #: Every world size the run lived through, oldest first ([n] = static).
    world_lineage: list = field(default_factory=list)
    #: Elastic recovery log: one dict per membership change (see
    #: repro.training.elastic.RecoveryEvent.as_dict), empty when static.
    recovery_log: list = field(default_factory=list)

    @property
    def total_hours(self) -> float:
        """Simulated wall-clock hours (the unit the paper reports)."""
        return self.total_time / 3600.0

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

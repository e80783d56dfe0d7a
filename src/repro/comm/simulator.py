"""In-process SPMD cluster simulator.

The paper's system is synchronous data parallelism: every node computes
gradients on its shard, a collective combines them, everyone applies the
same update.  We simulate the cluster inside one process: each *rank* is a
slot holding real NumPy state, and a per-rank **virtual clock** accumulates
modeled compute and communication time.  Collectives (see
:mod:`repro.comm.collectives`) move real data between rank slots and advance
all clocks past a synchronisation barrier, exactly like a blocking MPI
collective would.

Because the data movement is real, every *convergence* effect (lossy
compression, effective batch size, stale residuals) is genuine; only the
wall-clock seconds are modeled via :class:`repro.comm.network.NetworkModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .faults import FaultInjector, FaultPlan
from .network import DEFAULT_NETWORK, NetworkModel, NodeGroups


#: Link classes a collective's traffic can travel on.  Flat collectives
#: charge everything as ``"flat"``; the two-level stack in
#: :mod:`repro.comm.hierarchical` splits each call into ``"intra"`` (on-node)
#: and ``"inter"`` (between-node) hops so their bytes, retries and faults
#: are separately attributable.
HOPS = ("flat", "intra", "inter")


@dataclass(frozen=True)
class CommRecord:
    """One collective call: what it was, what it cost."""

    op: str
    nbytes_total: int
    n_messages: int
    time: float
    #: Message retransmissions charged into ``time`` (0 without faults).
    retries: int = 0
    #: Link class the traffic traveled on (see :data:`HOPS`).
    hop: str = "flat"


@dataclass
class CommStats:
    """Aggregated communication statistics for a window of training."""

    calls: int = 0
    nbytes_total: int = 0
    time_total: float = 0.0
    retries: int = 0
    by_op: dict = field(default_factory=dict)
    #: hop -> [calls, bytes, time, retries]; flat-only runs have at most
    #: the "flat" key, hierarchical runs split "intra" from "inter".
    by_hop: dict = field(default_factory=dict)

    def add(self, record: CommRecord) -> None:
        self.calls += 1
        self.nbytes_total += record.nbytes_total
        self.time_total += record.time
        self.retries += record.retries
        per_op = self.by_op.setdefault(record.op, [0, 0, 0.0])
        per_op[0] += 1
        per_op[1] += record.nbytes_total
        per_op[2] += record.time
        per_hop = self.by_hop.setdefault(record.hop, [0, 0, 0.0, 0])
        per_hop[0] += 1
        per_hop[1] += record.nbytes_total
        per_hop[2] += record.time
        per_hop[3] += record.retries


class Cluster:
    """A simulated homogeneous cluster of ``n_ranks`` nodes.

    Parameters
    ----------
    n_ranks:
        Number of simulated nodes (the paper scales 1..16).
    network:
        Cost model used to charge time for collectives and compute.  Its
        ``ranks_per_node`` places the members onto nodes (:attr:`groups`).
    faults:
        Optional :class:`~repro.comm.faults.FaultPlan`.  A null plan (all
        knobs at defaults) is ignored entirely, so passing one is
        byte-identical to passing ``None``.
    global_ranks:
        Optional local-rank -> original-world rank-id map for elastic
        worlds rebuilt over survivors; plan entries (stragglers,
        rank-loss events) follow members through the renumbering, and
        each member stays on its original node.  ``None`` means the
        identity world.
    """

    def __init__(self, n_ranks: int, network: NetworkModel = DEFAULT_NETWORK,
                 faults: FaultPlan | None = None,
                 global_ranks: tuple[int, ...] | None = None):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if global_ranks is not None and len(global_ranks) != n_ranks:
            raise ValueError(
                f"global_ranks must name {n_ranks} members, "
                f"got {len(global_ranks)}")
        self.n_ranks = n_ranks
        self.network = network
        self.global_ranks = (tuple(int(g) for g in global_ranks)
                             if global_ranks is not None
                             else tuple(range(n_ranks)))
        #: The world's placement onto physical nodes, resolved once: every
        #: two-level cost and the exchange's node residuals read it.
        self.groups = NodeGroups.pack(self.global_ranks,
                                      network.ranks_per_node)
        self.faults: FaultInjector | None = (
            FaultInjector(faults, n_ranks, global_ranks=global_ranks)
            if faults is not None and not faults.is_null else None)
        self.clocks = np.zeros(n_ranks, dtype=np.float64)
        #: Per-rank idle seconds spent waiting at collective entry barriers;
        #: under heterogeneity the fast ranks accumulate the stragglers' lag.
        self.wait_total = np.zeros(n_ranks, dtype=np.float64)
        self.records: list[CommRecord] = []
        self.stats = CommStats()
        #: Virtual seconds spent on elastic recovery (rollback replay debt
        #: plus the modeled state re-broadcast); charged via
        #: :meth:`charge_recovery`, already included in the clocks.
        self.recovery_time = 0.0

    # -- time accounting ------------------------------------------------

    def advance_compute(self, rank: int, seconds: float) -> None:
        """Charge ``seconds`` of local compute to one rank's clock.

        With a fault plan attached, the rank's straggler multiplier scales
        the charge (heterogeneous compute speeds).
        """
        self._check_rank(rank)
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if self.faults is not None:
            seconds *= self.faults.compute_scale(rank)
        self.clocks[rank] += seconds

    def advance_compute_all(self, seconds: float) -> None:
        """Charge identical local compute to every rank (perfectly balanced).

        Straggler multipliers still apply per rank when faults are active.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if self.faults is not None:
            self.clocks += seconds * self.faults.scales
        else:
            self.clocks += seconds

    def charge_collective(self, record: CommRecord) -> None:
        """Synchronise all ranks, then charge the collective's time.

        A blocking collective cannot complete anywhere before the slowest
        rank enters it, so every clock jumps to the current maximum plus the
        collective's modeled duration.
        """
        sync_point = float(self.clocks.max())
        self.wait_total += sync_point - self.clocks
        self.clocks[:] = sync_point + record.time
        self.records.append(record)
        self.stats.add(record)

    def charge_recovery(self, seconds: float) -> None:
        """Charge elastic-recovery downtime to every rank's clock.

        Recovery is a global stop-the-world event (the failed epoch's lost
        progress plus reloading/re-broadcasting state), so it advances all
        clocks uniformly — straggler multipliers do not apply to downtime.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.clocks += seconds
        self.recovery_time += seconds

    @property
    def elapsed(self) -> float:
        """Virtual seconds since cluster creation (slowest rank's clock)."""
        return float(self.clocks.max())

    @property
    def straggler_skew(self) -> float:
        """Fraction of the run the most-idle rank spent waiting at barriers.

        0 on a perfectly balanced cluster; approaches ``1 - 1/factor`` when
        one rank is a ``factor``-times straggler and compute dominates.
        """
        if self.elapsed <= 0.0:
            return 0.0
        return float(self.wait_total.max()) / self.elapsed

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")

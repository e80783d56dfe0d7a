"""Collective operations over a simulated :class:`~repro.comm.simulator.Cluster`.

The collectives here are charge-only: each takes the payload *sizes*,
charges the algorithm-aware modeled time to the cluster (through the fault
injector when one is attached) and returns that time.  The data combination
happens caller-side, in :mod:`repro.training.exchange`.  The one exception
is :func:`allgather_sparse`, which also combines the rows it charges for —
it is the oracle the exchange's raw flat allgather is tested against.
Supported algorithms mirror what Cray MPICH / Horovod would pick:

* allreduce: ``ring`` (default, bandwidth-optimal) or ``recursive_doubling``
* allgatherv: ``ring`` (default) or ``bruck`` (latency-optimal)
"""

from __future__ import annotations

from typing import Sequence

from .faults import CollectiveGaveUp
from .network import rounds
from .simulator import Cluster, CommRecord
from .sparse import SparseRows, combine_sparse

ALLREDUCE_ALGOS = ("ring", "recursive_doubling")
ALLGATHER_ALGOS = ("ring", "bruck")


def _charge(cluster: Cluster, op: str, nbytes_total: int, n_messages: int,
            time: float, hop: str = "flat",
            network=None) -> float:
    """Consult the fault injector, then charge the collective; return time.

    With faults active the charged time includes jitter and retransmission
    cost, and the record carries the retry count.  If the injector gives up
    under the ``fallback-dense`` policy, the time already burned on failed
    attempts is charged as an ``*_aborted`` record before the
    :class:`~repro.comm.faults.CollectiveGaveUp` signal propagates to the
    caller (the gradient exchange's degradation path).

    ``hop`` labels the record's link class (see
    :data:`repro.comm.simulator.HOPS`); ``network`` overrides the cost
    model the fault injector uses to split jitter into latency/bandwidth
    parts — the hierarchical collectives pass the hop's own sub-model
    (``net.intra`` / ``net.inter``) so jitter perturbs the right link.
    """
    retries = 0
    if cluster.faults is not None:
        try:
            time, retries = cluster.faults.collective_time(
                op, time, n_messages,
                cluster.network if network is None else network)
        except CollectiveGaveUp as exc:
            cluster.charge_collective(CommRecord(
                op=f"{op}_aborted", nbytes_total=nbytes_total,
                n_messages=n_messages, time=exc.time_charged,
                retries=exc.retries, hop=hop))
            raise
    cluster.charge_collective(CommRecord(
        op=op, nbytes_total=nbytes_total, n_messages=n_messages,
        time=time, retries=retries, hop=hop))
    return time


def allreduce_bytes(cluster: Cluster, nbytes: int, algo: str = "ring",
                    op_label: str = "allreduce", network=None) -> float:
    """Charge the cost of a dense allreduce of ``nbytes`` without moving data.

    The trainer keeps gradients in sparse form for efficiency; an allreduce
    step is mathematically the sparse sum, but the wire carries the full
    dense matrix — this helper charges that dense cost.

    ``network`` overrides the cost model (default: the cluster's own).  The
    exchange's explicit collective stack passes the one-hop view
    (:attr:`NetworkModel.inter <repro.comm.network.NetworkModel.inter>`) to
    price a *genuinely flat* ring over a two-level topology — every hop on
    the between-node link — where the cluster's own network would charge
    its two levels as one lump time.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    net = cluster.network if network is None else network
    p = cluster.n_ranks
    if algo == "ring":
        time = net.allreduce_ring_time(nbytes, cluster.groups)
        n_messages = 2 * (p - 1)
    elif algo == "recursive_doubling":
        time = net.allreduce_recursive_doubling_time(nbytes, cluster.groups)
        n_messages = rounds(p)
    else:
        raise ValueError(f"unknown allreduce algorithm {algo!r}; "
                         f"choose from {ALLREDUCE_ALGOS}")
    return _charge(cluster, f"{op_label}_{algo}", int(nbytes), n_messages,
                   time, network=network)


def allgatherv_bytes(cluster: Cluster, block_bytes: Sequence[int],
                     algo: str = "ring", op_label: str = "allgatherv") -> float:
    """Charge the cost of an allgatherv of opaque blocks; return the time.

    Used directly by the gradient exchange for encoded payloads, whose
    combination happens after local decoding.
    """
    p = cluster.n_ranks
    if len(block_bytes) != p:
        raise ValueError(f"expected {p} block sizes, got {len(block_bytes)}")
    blocks = [float(b) for b in block_bytes]
    if any(b < 0 for b in blocks):
        raise ValueError("block sizes must be non-negative")
    if algo == "ring":
        time = cluster.network.allgatherv_ring_time(blocks, cluster.groups)
        n_messages = p - 1
    elif algo == "bruck":
        time = cluster.network.allgatherv_bruck_time(blocks, cluster.groups)
        n_messages = rounds(p)
    else:
        raise ValueError(f"unknown allgather algorithm {algo!r}; "
                         f"choose from {ALLGATHER_ALGOS}")
    return _charge(cluster, f"{op_label}_{algo}", int(sum(blocks)),
                   n_messages, time)


def allgather_sparse(cluster: Cluster, parts: Sequence[SparseRows],
                     algo: str = "ring",
                     op_label: str = "allgather_sparse") -> SparseRows:
    """Allgather each rank's sparse gradient rows and combine them.

    Every rank receives everyone's ``(indices, values)`` blocks and locally
    sums rows with matching indices — the paper's "sparse update" path.
    """
    allgatherv_bytes(cluster, [part.nbytes_wire for part in parts], algo=algo,
                     op_label=op_label)
    return combine_sparse(parts)


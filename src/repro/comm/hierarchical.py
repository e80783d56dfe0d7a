"""Two-level, compression-aware collectives (the topology-aware stack).

The flat collectives in :mod:`repro.comm.collectives` charge one record per
call: a flat ring prices every hop on the slow between-node link, and a
lump charge on a two-level :class:`~repro.comm.network.NetworkModel` folds
its hops into one time.  This module charges the hierarchical alternative
the DRS can pick per probe hop by hop:

1. **intra reduce** — ranks sharing a node combine their gradients over the
   fast on-node links (full precision; compressing here would cost accuracy
   for bandwidth that is nearly free);
2. **inter exchange** — one representative payload per node travels the
   inter-node ring.  On the compressed path this is where re-quantization
   happens: the node sum is quantized *once, at the hop boundary*, so the
   expensive link carries 1-bit/2-bit codes while the payload never survives
   more than one lossy encode per traversal;
3. **intra broadcast** — the gathered result fans back out inside each node.

Every hop charges its own :class:`~repro.comm.simulator.CommRecord` with
``hop="intra"`` or ``hop="inter"``, so bytes, retries and faults are
attributable per link class, and the fault injector jitters each hop with
that hop's own alpha/beta split.

Charge-only
-----------

Every function here charges hop records and returns the charged time; none
touches gradient data.  The exchange (:mod:`repro.training.exchange`)
combines caller-side in the flat collective's operand order, so with
compression off the two-level dense exchange equals the flat one bitwise
and only the clocks and records differ
(``tests/train/test_exchange.py`` pins this on uneven node occupancies).
Every function runs over the cluster's placement
(:attr:`~repro.comm.simulator.Cluster.groups`).  On a flat network the node
groups are singletons: the intra hops vanish and the inter ring spans all
ranks, so the hierarchical stack gracefully *is* the flat one.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .collectives import _charge
from .network import NetworkModel, rounds
from .simulator import Cluster

__all__ = [
    "hier_allreduce_bytes", "hier_intra_reduce_bytes",
    "hier_inter_ring_bytes", "hier_intra_gather_bytes",
    "hier_inter_allgatherv_bytes", "hier_intra_bcast_bytes",
]


def _hop(cluster: Cluster, hop: str, fanout: int, op: str, nbytes: float,
         n_messages: int, price: Callable[[NetworkModel], float]) -> float:
    """Charge one hop over ``fanout`` peers on the ``hop`` link, timed by
    ``price(link)``; a hop without peers is free and charges nothing."""
    if fanout <= 1:
        return 0.0
    link = cluster.network.intra if hop == "intra" else cluster.network.inter
    return _charge(cluster, op, int(nbytes), n_messages, price(link),
                   hop=hop, network=link)


# ---------------------------------------------------------------------------
# Per-hop primitives (the exchange's entry points)
# ---------------------------------------------------------------------------

def hier_intra_reduce_bytes(cluster: Cluster, nbytes: int,
                            op_label: str = "hier") -> float:
    """Charge the in-node tree reduction of a dense ``nbytes`` buffer."""
    local = cluster.groups.local_max
    return _hop(cluster, "intra", local, f"{op_label}_intra_reduce", nbytes,
                rounds(local),
                lambda link: link.broadcast_time(float(nbytes), local))


def hier_inter_ring_bytes(cluster: Cluster, nbytes: int,
                          op_label: str = "hier") -> float:
    """Charge the inter-node ring allreduce of node representatives."""
    nodes = cluster.groups.n_nodes
    return _hop(cluster, "inter", nodes, f"{op_label}_inter_ring", nbytes,
                2 * (nodes - 1),
                lambda link: link.allreduce_ring_time(float(nbytes), nodes))


def hier_intra_gather_bytes(cluster: Cluster, member_bytes: Sequence[int],
                            op_label: str = "hier") -> float:
    """Charge the in-node gather of per-rank sparse payloads.

    ``member_bytes`` holds every local rank's wire size; the critical path
    is the fullest node's internal allgather (matching the lump accounting
    in :meth:`NetworkModel.allgatherv_ring_time
    <repro.comm.network.NetworkModel.allgatherv_ring_time>`).
    """
    groups = cluster.groups
    if len(member_bytes) != groups.n_ranks:
        raise ValueError(
            f"expected {groups.n_ranks} member sizes, got {len(member_bytes)}")
    blocks = [float(member_bytes[i]) for i in groups.biggest()]
    return _hop(cluster, "intra", len(blocks), f"{op_label}_intra_gather",
                sum(float(b) for b in member_bytes), len(blocks) - 1,
                lambda link: link.allgatherv_ring_time(blocks, len(blocks)))


def hier_inter_allgatherv_bytes(cluster: Cluster, node_bytes: Sequence[int],
                                op_label: str = "hier") -> float:
    """Charge the inter-node allgatherv of one payload per node."""
    nodes = cluster.groups.n_nodes
    if len(node_bytes) != nodes:
        raise ValueError(
            f"expected {nodes} node sizes, got {len(node_bytes)}")
    blocks = [float(b) for b in node_bytes]
    return _hop(cluster, "inter", nodes, f"{op_label}_inter_gather",
                sum(blocks), nodes - 1,
                lambda link: link.allgatherv_ring_time(blocks, nodes))


def hier_intra_bcast_bytes(cluster: Cluster, nbytes: int,
                           op_label: str = "hier") -> float:
    """Charge the in-node broadcast fanning the gathered result back out."""
    local = cluster.groups.local_max
    return _hop(cluster, "intra", local, f"{op_label}_intra_bcast", nbytes,
                rounds(local),
                lambda link: link.broadcast_time(float(nbytes), local))


def hier_allreduce_bytes(cluster: Cluster, nbytes: int,
                         op_label: str = "hier_allreduce") -> float:
    """Charge a full dense hierarchical allreduce; return the total time.

    Three hop records: intra reduce, inter ring, intra broadcast.  Their
    times add up to ``NetworkModel.allreduce_ring_time`` (the same three
    terms, summed in another order), so flat-charged and hop-charged runs
    agree on the clock whenever faults are off.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    total = hier_intra_reduce_bytes(cluster, nbytes, op_label)
    total += hier_inter_ring_bytes(cluster, nbytes, op_label)
    total += hier_intra_bcast_bytes(cluster, nbytes, op_label)
    return total

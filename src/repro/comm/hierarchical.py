"""Two-level, compression-aware collectives (the topology-aware stack).

The flat collectives in :mod:`repro.comm.collectives` price every byte as if
the cluster were a single ring — on a two-level topology
(:class:`~repro.comm.topology.HierarchicalNetwork`) that means every hop
pays the slow inter-node link.  This module implements the hierarchical
alternative the DRS can pick per probe:

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
On a flat :class:`~repro.comm.network.NetworkModel` the node groups
degenerate to singletons: the intra hops vanish and the inter ring spans
all ranks, so the hierarchical stack gracefully *is* the flat one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .collectives import _charge
from .simulator import Cluster

__all__ = [
    "NodeGroups", "resolve_groups", "hop_models",
    "hier_allreduce_bytes", "hier_intra_reduce_bytes",
    "hier_inter_ring_bytes", "hier_intra_gather_bytes",
    "hier_inter_allgatherv_bytes", "hier_intra_bcast_bytes",
]


@dataclass(frozen=True)
class NodeGroups:
    """Placement of a world's local ranks onto physical nodes.

    ``node_ids`` are stable physical node identities (``global_rank //
    ranks_per_node``), sorted ascending; ``members`` lists each node's
    local ranks, aligned with ``node_ids``.  Node identities survive
    elastic membership changes — after a shrink, a node keeps its id with
    one member fewer, which is what keys the per-node error-feedback
    residuals across recoveries.
    """

    node_ids: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.node_ids) != len(self.members):
            raise ValueError("node_ids and members must align")
        if not self.node_ids:
            raise ValueError("a world must occupy at least one node")
        if list(self.node_ids) != sorted(set(self.node_ids)):
            raise ValueError(
                f"node_ids must be unique and sorted: {self.node_ids}")
        seen: list[int] = []
        for node, group in zip(self.node_ids, self.members):
            if not group:
                raise ValueError(f"node {node} has no members")
            seen.extend(group)
        if sorted(seen) != list(range(len(seen))):
            raise ValueError(
                f"members must partition local ranks 0..{len(seen) - 1}: "
                f"{self.members}")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_ranks(self) -> int:
        return sum(len(group) for group in self.members)

    @property
    def local_max(self) -> int:
        """Members on the fullest node (bounds every intra-hop's cost)."""
        return max(len(group) for group in self.members)

    def biggest(self) -> tuple[int, ...]:
        """The fullest node's member list (first one on ties, matching
        :meth:`HierarchicalNetwork.allgatherv_ring_time`'s accounting)."""
        return max(self.members, key=len)


def resolve_groups(network, n_ranks: int,
                   global_ranks: Sequence[int] | None = None) -> NodeGroups:
    """Map a world onto node groups under ``network``'s topology.

    A :class:`~repro.comm.topology.HierarchicalNetwork` (duck-typed on
    ``ranks_per_node``) places rank ``g`` on node ``g // ranks_per_node``,
    where ``g`` comes from the network's ``membership`` if set (the elastic
    supervisor's survivor occupancy), else from ``global_ranks``, else from
    the dense identity.  A flat model has no node structure: every rank is
    its own node, which collapses the hierarchy onto the flat ring.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    rpn = getattr(network, "ranks_per_node", None)
    if rpn is None:
        placement = (tuple(range(n_ranks)) if global_ranks is None
                     else tuple(int(g) for g in global_ranks))
        return NodeGroups(node_ids=tuple(sorted(placement)),
                          members=tuple(
                              (i,) for i, _ in sorted(
                                  enumerate(placement), key=lambda t: t[1])))
    membership = getattr(network, "membership", None)
    if membership is None:
        membership = (tuple(range(n_ranks)) if global_ranks is None
                      else tuple(int(g) for g in global_ranks))
    if len(membership) != n_ranks:
        raise ValueError(
            f"network membership names {len(membership)} ranks but the "
            f"world has {n_ranks}")
    grouped: dict[int, list[int]] = {}
    for local, g in enumerate(membership):
        grouped.setdefault(int(g) // rpn, []).append(local)
    nodes = sorted(grouped)
    return NodeGroups(node_ids=tuple(nodes),
                      members=tuple(tuple(grouped[n]) for n in nodes))


def hop_models(network) -> tuple:
    """(intra, inter) cost models for a network; a flat model plays both.

    With singleton node groups (the flat case) the intra hops are skipped
    entirely, so returning the flat model for both sides is exact.
    """
    intra = getattr(network, "intra", None)
    inter = getattr(network, "inter", None)
    if intra is None or inter is None:
        return network, network
    return intra, inter


def _tree_rounds(fanout: int) -> int:
    return max(0, int(math.ceil(math.log2(fanout)))) if fanout > 1 else 0


# ---------------------------------------------------------------------------
# Per-hop primitives (the exchange's entry points)
# ---------------------------------------------------------------------------

def hier_intra_reduce_bytes(cluster: Cluster, nbytes: int, groups: NodeGroups,
                            op_label: str = "hier") -> float:
    """Charge the in-node tree reduction of a dense ``nbytes`` buffer."""
    if groups.local_max <= 1:
        return 0.0
    intra, _ = hop_models(cluster.network)
    time = intra.broadcast_time(float(nbytes), groups.local_max)
    return _charge(cluster, f"{op_label}_intra_reduce", int(nbytes),
                   _tree_rounds(groups.local_max), time, hop="intra",
                   network=intra)


def hier_inter_ring_bytes(cluster: Cluster, nbytes: int, groups: NodeGroups,
                          op_label: str = "hier") -> float:
    """Charge the inter-node ring allreduce of node representatives."""
    nodes = groups.n_nodes
    if nodes <= 1:
        return 0.0
    _, inter = hop_models(cluster.network)
    time = inter.allreduce_ring_time(float(nbytes), nodes)
    return _charge(cluster, f"{op_label}_inter_ring", int(nbytes),
                   2 * (nodes - 1), time, hop="inter", network=inter)


def hier_intra_gather_bytes(cluster: Cluster, member_bytes: Sequence[int],
                            groups: NodeGroups,
                            op_label: str = "hier") -> float:
    """Charge the in-node gather of per-rank sparse payloads.

    ``member_bytes`` holds every local rank's wire size; the critical path
    is the fullest node's internal allgather (matching the lump accounting
    in :meth:`HierarchicalNetwork.allgatherv_ring_time`).
    """
    if len(member_bytes) != groups.n_ranks:
        raise ValueError(
            f"expected {groups.n_ranks} member sizes, got {len(member_bytes)}")
    if groups.local_max <= 1:
        return 0.0
    intra, _ = hop_models(cluster.network)
    biggest = groups.biggest()
    blocks = [float(member_bytes[i]) for i in biggest]
    time = intra.allgatherv_ring_time(blocks, len(biggest))
    total = int(sum(float(b) for b in member_bytes))
    return _charge(cluster, f"{op_label}_intra_gather", total,
                   len(biggest) - 1, time, hop="intra", network=intra)


def hier_inter_allgatherv_bytes(cluster: Cluster, node_bytes: Sequence[int],
                                groups: NodeGroups,
                                op_label: str = "hier") -> float:
    """Charge the inter-node allgatherv of one payload per node."""
    if len(node_bytes) != groups.n_nodes:
        raise ValueError(
            f"expected {groups.n_nodes} node sizes, got {len(node_bytes)}")
    nodes = groups.n_nodes
    if nodes <= 1:
        return 0.0
    _, inter = hop_models(cluster.network)
    blocks = [float(b) for b in node_bytes]
    time = inter.allgatherv_ring_time(blocks, nodes)
    return _charge(cluster, f"{op_label}_inter_gather", int(sum(blocks)),
                   nodes - 1, time, hop="inter", network=inter)


def hier_intra_bcast_bytes(cluster: Cluster, nbytes: int, groups: NodeGroups,
                           op_label: str = "hier") -> float:
    """Charge the in-node broadcast fanning the gathered result back out."""
    if groups.local_max <= 1:
        return 0.0
    intra, _ = hop_models(cluster.network)
    time = intra.broadcast_time(float(nbytes), groups.local_max)
    return _charge(cluster, f"{op_label}_intra_bcast", int(nbytes),
                   _tree_rounds(groups.local_max), time, hop="intra",
                   network=intra)


def hier_allreduce_bytes(cluster: Cluster, nbytes: int, groups: NodeGroups,
                         op_label: str = "hier_allreduce") -> float:
    """Charge a full dense hierarchical allreduce; return the total time.

    Three hop records: intra reduce, inter ring, intra broadcast.  Their
    times sum to ``HierarchicalNetwork.allreduce_ring_time`` exactly (the
    lump formula is the same three terms), so flat-charged and hop-charged
    runs agree on the clock whenever faults are off.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    total = hier_intra_reduce_bytes(cluster, nbytes, groups, op_label)
    total += hier_inter_ring_bytes(cluster, nbytes, groups, op_label)
    total += hier_intra_bcast_bytes(cluster, nbytes, groups, op_label)
    return total

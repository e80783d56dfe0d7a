"""Alpha-beta (Hockney) network cost model for the simulated cluster.

The paper ran on a Cray XC40 (Aries interconnect).  We do not have that
hardware, so wall-clock time is *modeled*: every hop of a collective charges

    T = n_messages * alpha + n_bytes * beta

where ``alpha`` is the per-message latency and ``beta`` the inverse
bandwidth.  Compute time is charged as ``flops / node_flops``.  The defaults
below are calibrated (see :mod:`repro.bench.calibration`) so that the
baseline configurations land in the same order of magnitude as the paper's
reported hours; the *shape* of every comparison (who wins, where crossovers
fall) is what the reproduction targets.

One model prices flat and two-level clusters.  A flat network is the
one-hop case: every rank is its own node and every collective is one
formula over the between-node link.  A two-level network packs
``ranks_per_node`` ranks onto each node, joined by a fast on-node link
``intra``; each collective then composes the same one-hop formulas over the
world's :class:`NodeGroups` — on-node hops bounded by the fullest node,
between-node hops over one representative per node — which is how Horovod
reduces hierarchically on multi-rank nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from ..spec import Key, build, each, parse_spec


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

    @classmethod
    def pack(cls, global_ranks: Sequence[int],
             ranks_per_node: int) -> "NodeGroups":
        """Place local rank ``i`` on node ``global_ranks[i] //
        ranks_per_node``: a fresh world (``range(p)``) packs densely, a
        world rebuilt over survivors keeps each on its original node."""
        if not global_ranks:
            raise ValueError("number of ranks must be >= 1, got 0")
        grouped: dict[int, list[int]] = {}
        for local, g in enumerate(global_ranks):
            grouped.setdefault(int(g) // ranks_per_node, []).append(local)
        nodes = sorted(grouped)
        return cls(node_ids=tuple(nodes),
                   members=tuple(tuple(grouped[n]) for n in nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @cached_property
    def n_ranks(self) -> int:
        return sum(len(group) for group in self.members)

    @cached_property
    def local_max(self) -> int:
        """Members on the fullest node (bounds every intra-hop's cost)."""
        return max(len(group) for group in self.members)

    def biggest(self) -> tuple[int, ...]:
        """The fullest node's member list (first one on ties)."""
        return max(self.members, key=len)


@lru_cache(maxsize=256)
def _dense(p: int, ranks_per_node: int) -> NodeGroups:
    """The densely packed placement of ``p`` ranks (immutable, so shared:
    every per-hop charge prices its link over one)."""
    return NodeGroups.pack(range(p), ranks_per_node)


def rounds(p: int) -> int:
    """ceil(log2 p), 0 for one rank: the rounds of a tree, recursive
    doubling or Bruck collective."""
    return math.ceil(math.log2(p)) if p > 1 else 0


@dataclass(frozen=True)
class NetworkModel:
    """Cost model for one homogeneous cluster, flat or two-level.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds of the between-node link (the only
        link when flat).  Aries MPI latency is ~1-2 us; we default a little
        higher to account for the software stack the paper used (Horovod
        on TCP-ish gRPC control plane).
    beta:
        Seconds per byte (inverse bandwidth) of the between-node link.
        Aries delivers ~10 GB/s per node in practice.
    node_flops:
        Effective sustained flop/s of one node's 24 cores running the
        (memory-bound) embedding kernels.  Deliberately far below peak.
        The node's ranks share it.
    ranks_per_node:
        Workers per physical node; 1 (the default) is a flat network.  The
        paper's setup, one 24-core MPI rank per node, is flat; a
        rank-per-socket layout is ``2``.
    intra:
        The on-node link (shared memory: tiny alpha, huge bandwidth) of a
        two-level network, itself a flat model sharing ``node_flops``;
        ``None`` when flat.
    """

    alpha: float = 5.0e-6
    beta: float = 1.0 / 8.0e9
    node_flops: float = 5.0e10
    ranks_per_node: int = 1
    intra: NetworkModel | None = None

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta),
                            ("node_flops", self.node_flops)):
            if not math.isfinite(value):
                raise ValueError(
                    f"NetworkModel {name} must be finite, got {value}")
        if self.alpha < 0 or self.beta <= 0 or self.node_flops <= 0:
            raise ValueError(
                "NetworkModel requires alpha >= 0, beta > 0, node_flops > 0; "
                f"got alpha={self.alpha}, beta={self.beta}, "
                f"node_flops={self.node_flops}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}")
        if (self.intra is None) != (self.ranks_per_node == 1):
            raise ValueError(
                "a network with ranks_per_node > 1 needs an intra link and "
                f"a flat one has none; got ranks_per_node="
                f"{self.ranks_per_node}, intra={self.intra}")
        if self.intra is not None and (
                self.intra.intra is not None
                or self.intra.node_flops != self.node_flops):
            raise ValueError(
                "intra must be a flat link sharing the node's node_flops; "
                f"got {self.intra}")

    @cached_property
    def inter(self) -> NetworkModel:
        """The between-node link as a flat network (``self`` when flat).

        A flat ring over a two-level cluster prices every hop here.
        """
        if self.intra is None:
            return self
        return replace(self, ranks_per_node=1, intra=None)

    def place(self, p: int | NodeGroups) -> NodeGroups:
        """The node groups a collective over ``p`` spans.

        ``p`` is a rank count, packed densely, or a world's resolved
        placement (:attr:`repro.comm.simulator.Cluster.groups`).  A flat
        network has one rank per node whatever the placement.
        """
        if isinstance(p, NodeGroups):
            if self.intra is not None or p.local_max == 1:
                return p
            p = p.n_ranks
        if p < 1:
            raise ValueError(f"number of ranks must be >= 1, got {p}")
        return _dense(p, self.ranks_per_node)

    def transfer_time(self, nbytes: float, n_messages: int = 1) -> float:
        """Time to move ``nbytes`` using ``n_messages`` point-to-point sends
        (between nodes, conservatively)."""
        if nbytes < 0 or n_messages < 0:
            raise ValueError("nbytes and n_messages must be non-negative")
        return n_messages * self.alpha + nbytes * self.beta

    def compute_time(self, flops: float) -> float:
        """Time for one rank to execute ``flops`` floating point operations
        on its share of the node."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        return flops / (self.node_flops / self.ranks_per_node)

    def split_time(self, time: float, n_messages: int) -> tuple[float, float]:
        """Split a collective's modeled time into (latency, bandwidth) parts.

        The latency part is ``n_messages * alpha`` clamped to ``time``; the
        remainder is attributed to bandwidth.  Used by the fault injector to
        jitter the two components independently.  A lump charge over a
        two-level network uses the between-node alpha, the level that
        dominates every lump formula's latency term; the per-hop charges in
        :mod:`repro.comm.hierarchical` split on their own link instead.
        """
        if time < 0 or n_messages < 0:
            raise ValueError("time and n_messages must be non-negative")
        latency = min(time, n_messages * self.alpha)
        return latency, time - latency

    # -- collective cost formulas: ``p`` is a rank count or a placement
    # (:meth:`place`), ``nbytes`` the *per-rank* payload ------------------

    def allreduce_ring_time(self, nbytes: float, p: int | NodeGroups) -> float:
        """Ring allreduce of a dense buffer of ``nbytes`` per rank.

        Reduce inside each node, ring across nodes, broadcast back inside
        each node.  The ring is Rabenseifner's: 2(n-1) steps, each moving
        ``nbytes/n``.
        """
        groups, t = self._reduce_in_node(nbytes, p)
        n = groups.n_nodes
        if n > 1:
            t += (2 * (n - 1) * self.alpha
                  + 2.0 * (n - 1) / n * nbytes * self.beta)
        return t

    def allreduce_recursive_doubling_time(self, nbytes: float,
                                          p: int | NodeGroups) -> float:
        """The same hierarchy with log2(n) full-buffer rounds across
        nodes."""
        groups, t = self._reduce_in_node(nbytes, p)
        if groups.n_nodes > 1:
            t += self._tree(nbytes, groups.n_nodes)
        return t

    def allgatherv_ring_time(self, block_bytes: Sequence[float],
                             p: int | NodeGroups) -> float:
        """Ring allgatherv of variable-size blocks (one per rank).

        Gather inside nodes, ring the concatenated node blocks around,
        broadcast the result inside each node.
        """
        return self._allgatherv(block_bytes, p, lambda n: n - 1)

    def allgatherv_bruck_time(self, block_bytes: Sequence[float],
                              p: int | NodeGroups) -> float:
        """Bruck allgatherv: ceil(log2 n) latency steps per hop, same
        volume."""
        return self._allgatherv(block_bytes, p, rounds)

    def broadcast_time(self, nbytes: float, p: int | NodeGroups) -> float:
        """Binomial-tree broadcast across nodes, then inside each node."""
        groups = self.place(p)
        t = 0.0
        if groups.n_nodes > 1:
            t += self._tree(nbytes, groups.n_nodes)
        if groups.local_max > 1:
            t += self.intra._tree(nbytes, groups.local_max)
        return t

    def _tree(self, nbytes: float, n: int) -> float:
        """One hop of log2(n) full-buffer rounds."""
        return rounds(n) * (self.alpha + nbytes * self.beta)

    def _gather(self, blocks: list[float], steps: int) -> float:
        """One allgatherv hop: the busiest member receives all but its own
        block."""
        received = float(sum(blocks)) - float(min(blocks))
        return steps * self.alpha + received * self.beta

    def _reduce_in_node(self, nbytes: float, p: int | NodeGroups
                        ) -> tuple[NodeGroups, float]:
        """The placement and its in-node reduce + broadcast time."""
        groups = self.place(p)
        local = groups.local_max
        return groups, (2 * self.intra._tree(nbytes, local) if local > 1
                        else 0.0)

    def _allgatherv(self, block_bytes: Sequence[float], p: int | NodeGroups,
                    steps: Callable[[int], int]) -> float:
        groups = self.place(p)
        if len(block_bytes) != groups.n_ranks:
            raise ValueError(f"expected {groups.n_ranks} block sizes, "
                             f"got {len(block_bytes)}")
        blocks = [float(b) for b in block_bytes]
        local, t = groups.local_max, 0.0
        if local > 1:
            # In-node gather, bounded by the fullest node.
            biggest = [blocks[i] for i in groups.biggest()]
            t += self.intra._gather(biggest, steps(local))
        if groups.n_nodes > 1:
            node_blocks = blocks if local == 1 else [
                sum(blocks[i] for i in group) for group in groups.members]
            t += self._gather(node_blocks, steps(groups.n_nodes))
            if local > 1:
                t += self.intra._tree(sum(blocks), local)
        return t

    #: The ``--net`` keys (grammar: :mod:`repro.spec`), each at most once;
    #: ``intra``/``inter`` are ``alpha:beta`` shorthands that collide with
    #: their explicit ``*_alpha``/``*_beta`` forms.
    _KEYS = {
        "rpn": Key(int),
        "intra": Key(each(float, float), "alpha:beta"),
        "inter": Key(each(float, float), "alpha:beta"),
        "intra_alpha": Key(float), "intra_beta": Key(float),
        "inter_alpha": Key(float), "inter_beta": Key(float),
        "flops": Key(float),
    }

    @classmethod
    def parse(cls, spec: str) -> NetworkModel:
        """Parse the CLI's ``--net`` mini-language.

        Comma-separated ``key=value`` entries (grammar and strictness:
        :mod:`repro.spec`)::

            rpn=4,intra=0.3e-6:2e-11,inter=5e-6:1.25e-10
            rpn=2,inter_alpha=8e-6,flops=5e10

        Keys: ``rpn`` (ranks per node, default 2; ``rpn=1`` is the flat
        network over the ``inter`` link), ``intra`` / ``inter``
        (``alpha:beta`` pairs), ``intra_alpha`` / ``intra_beta`` /
        ``inter_alpha`` / ``inter_beta`` (individual components),
        ``flops`` (per-node sustained flop/s).  Unset components keep the
        defaults of :data:`ON_NODE` and :class:`NetworkModel`.  A value the
        model rejects (a non-finite one, say) raises a :class:`ValueError`
        naming ``--net``.
        """
        entries = parse_spec(
            "--net", spec, cls._KEYS,
            aliases={"intra": ("intra_alpha", "intra_beta"),
                     "inter": ("inter_alpha", "inter_beta")},
            duplicate_hint="intra/inter collide with their _alpha/_beta "
                           "forms")

        def link(level: str, base: NetworkModel) -> tuple[float, float]:
            return entries.get(level, (
                entries.get(f"{level}_alpha", base.alpha),
                entries.get(f"{level}_beta", base.beta)))

        rpn = entries.get("rpn", 2)
        flops = entries.get("flops", cls.node_flops)
        alpha, beta = link("inter", cls())
        intra = None
        if rpn != 1:
            intra_alpha, intra_beta = link("intra", ON_NODE)
            intra = build("--net", spec, cls, alpha=intra_alpha,
                          beta=intra_beta, node_flops=flops)
        return build("--net", spec, cls, alpha=alpha, beta=beta,
                     node_flops=flops, ranks_per_node=rpn, intra=intra)

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        intra = ("" if self.intra is None else
                 f"intra=(a={self.intra.alpha:g},b={self.intra.beta:g}) ")
        return (f"rpn={self.ranks_per_node} {intra}"
                f"inter=(a={self.alpha:g},b={self.beta:g})")


#: Calibrated default used throughout the benchmarks.
DEFAULT_NETWORK = NetworkModel()
#: The on-node link ``--net`` defaults to (shared memory).
ON_NODE = NetworkModel(alpha=0.3e-6, beta=1.0 / 5.0e10)

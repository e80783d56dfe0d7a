"""Hierarchical network topologies (extension of the flat alpha-beta model).

The paper's Cray XC40 nodes hold 24 cores each; Horovod on such systems
typically reduces **hierarchically** — a cheap intra-node reduction followed
by an inter-node ring over one participant per node.  The flat
:class:`~repro.comm.network.NetworkModel` used by the main benchmarks folds
this into a single effective (alpha, beta); this module models the two
levels explicitly so the ablation suite can ask how sensitive the paper's
crossover points are to the hierarchy.

:class:`HierarchicalNetwork` exposes the same collective-time interface as
``NetworkModel`` (duck-typed), so it can be passed anywhere a network model
is accepted — including :class:`~repro.training.trainer.DistributedTrainer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..spec import Key, each, parse_spec
from .network import NetworkModel, _check_p


@dataclass(frozen=True)
class HierarchicalNetwork:
    """Two-level cluster: ``ranks_per_node`` workers share a node.

    Parameters
    ----------
    intra:
        Cost model for on-node communication (shared memory: tiny alpha,
        huge bandwidth).
    inter:
        Cost model for the network between nodes.
    ranks_per_node:
        Workers per physical node (the paper's setup: 1 MPI rank of 24
        cores per node would be ``1``; a rank-per-socket layout is ``2``).
    membership:
        Optional explicit global rank ids of the members actually present.
        A freshly launched job packs ranks densely (``None``, the default,
        models that), but an elastically *shrunk* world keeps survivors on
        their original nodes — after rank 2 of ``[0..3]`` dies with two
        ranks per node, node 1 holds a single member while node 0 still
        holds two.  ``membership`` preserves that occupancy so the
        two-level collective times stay faithful after recovery (see
        :meth:`with_membership`).
    """

    intra: NetworkModel = NetworkModel(alpha=0.3e-6, beta=1.0 / 5.0e10,
                                       node_flops=5.0e10)
    inter: NetworkModel = NetworkModel(alpha=5.0e-6, beta=1.0 / 8.0e9,
                                       node_flops=5.0e10)
    ranks_per_node: int = 2
    membership: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}")
        if self.membership is not None:
            if len(self.membership) < 1:
                raise ValueError("membership must name at least one rank")
            if len(set(self.membership)) != len(self.membership):
                raise ValueError(
                    f"membership has duplicate ranks: {self.membership}")
            if any(g < 0 for g in self.membership):
                raise ValueError("membership ranks must be >= 0")

    # -- helpers -----------------------------------------------------------

    def with_membership(self, global_ranks) -> "HierarchicalNetwork":
        """The same network, re-described over an explicit member set.

        Used by the elastic supervisor when it rebuilds the cluster over
        the surviving ranks: node occupancy follows each survivor's
        *original* placement (``global_rank // ranks_per_node``) instead
        of assuming dense re-packing.
        """
        from dataclasses import replace
        return replace(self, membership=tuple(int(g) for g in global_ranks))

    @property
    def node_flops(self) -> float:
        """Per-rank compute rate (shares the node's cores)."""
        return self.inter.node_flops / self.ranks_per_node

    def _levels(self, p: int) -> tuple[int, int]:
        """(max ranks inside one node, occupied nodes) for a p-rank job.

        Without ``membership``, ranks pack densely.  With it, occupancy
        follows the members' original node placement — the intra level is
        bounded by the fullest node, and a node with no survivors left
        drops out of the inter ring.
        """
        if self.membership is not None:
            if len(self.membership) != p:
                raise ValueError(
                    f"membership names {len(self.membership)} ranks "
                    f"but the collective spans {p}")
            occupancy: dict[int, int] = {}
            for g in self.membership:
                node = g // self.ranks_per_node
                occupancy[node] = occupancy.get(node, 0) + 1
            return max(occupancy.values()), len(occupancy)
        local = min(self.ranks_per_node, p)
        nodes = math.ceil(p / local)
        return local, nodes

    def _node_groups(self, p: int) -> list[list[int]]:
        """Local rank indices grouped by the physical node that hosts them."""
        if self.membership is not None:
            groups: dict[int, list[int]] = {}
            for i, g in enumerate(self.membership):
                groups.setdefault(g // self.ranks_per_node, []).append(i)
            return [groups[node] for node in sorted(groups)]
        local = min(self.ranks_per_node, p)
        return [list(range(i, min(i + local, p))) for i in range(0, p, local)]

    def compute_time(self, flops: float) -> float:
        """Time for one rank to execute ``flops``."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        return flops / self.node_flops

    def transfer_time(self, nbytes: float, n_messages: int = 1) -> float:
        """Point-to-point transfer (conservatively inter-node)."""
        return self.inter.transfer_time(nbytes, n_messages)

    def split_time(self, time: float, n_messages: int) -> tuple[float, float]:
        """Latency/bandwidth split of a *lump* collective time.

        A lump (non-hop-attributed) charge over this topology mixes both
        levels; the split conservatively uses the inter-node alpha — the
        level that dominates every lump formula's latency term.  The
        per-hop charges in :mod:`repro.comm.hierarchical` never come here:
        they hand the fault injector their own sub-model.
        """
        return self.inter.split_time(time, n_messages)

    #: The ``--net`` keys (grammar: :mod:`repro.spec`), each at most once;
    #: ``intra``/``inter`` are ``alpha:beta`` shorthands that collide with
    #: their explicit ``*_alpha``/``*_beta`` forms.
    _KEYS = {
        "rpn": Key(int),
        "intra": Key(each(float, float), "alpha:beta", noun="--net intra"),
        "inter": Key(each(float, float), "alpha:beta", noun="--net inter"),
        "intra_alpha": Key(float), "intra_beta": Key(float),
        "inter_alpha": Key(float), "inter_beta": Key(float),
        "flops": Key(float),
    }
    PARSE_KEYS = tuple(_KEYS)

    @classmethod
    def parse(cls, spec: str) -> "HierarchicalNetwork":
        """Parse the CLI's ``--net`` mini-language.

        Comma-separated ``key=value`` entries (grammar and strictness:
        :mod:`repro.spec`)::

            rpn=4,intra=0.3e-6:2e-11,inter=5e-6:1.25e-10
            rpn=2,inter_alpha=8e-6,flops=5e10

        Keys: ``rpn`` (ranks per node), ``intra`` / ``inter``
        (``alpha:beta`` pairs), ``intra_alpha`` / ``intra_beta`` /
        ``inter_alpha`` / ``inter_beta`` (individual components),
        ``flops`` (per-node sustained flop/s, applied to both levels).
        Unset components keep the class defaults.
        """
        entries = parse_spec(
            "--net", spec, cls._KEYS,
            aliases={"intra": ("intra_alpha", "intra_beta"),
                     "inter": ("inter_alpha", "inter_beta")},
            duplicate_hint="intra/inter collide with their _alpha/_beta "
                           "forms")
        defaults = cls()
        models = {}
        for level in ("intra", "inter"):
            base = getattr(defaults, level)
            alpha, beta = entries.get(level, (
                entries.get(f"{level}_alpha", base.alpha),
                entries.get(f"{level}_beta", base.beta)))
            models[level] = NetworkModel(
                alpha=alpha, beta=beta,
                node_flops=entries.get("flops", base.node_flops))
        return cls(intra=models["intra"], inter=models["inter"],
                   ranks_per_node=entries.get("rpn", cls.ranks_per_node))

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        return (f"rpn={self.ranks_per_node} "
                f"intra=(a={self.intra.alpha:g},b={self.intra.beta:g}) "
                f"inter=(a={self.inter.alpha:g},b={self.inter.beta:g})")

    # -- hierarchical collectives -------------------------------------

    def allreduce_ring_time(self, nbytes: float, p: int) -> float:
        """Reduce inside each node, ring across nodes, broadcast back."""
        _check_p(p)
        if p == 1:
            return 0.0
        local, nodes = self._levels(p)
        t = 0.0
        if local > 1:
            # Local reduce + final broadcast, both tree-shaped in-node.
            t += 2 * self.intra.broadcast_time(nbytes, local)
        if nodes > 1:
            t += self.inter.allreduce_ring_time(nbytes, nodes)
        return t

    def allreduce_recursive_doubling_time(self, nbytes: float,
                                          p: int) -> float:
        """Same hierarchy with recursive doubling across nodes."""
        _check_p(p)
        if p == 1:
            return 0.0
        local, nodes = self._levels(p)
        t = 0.0
        if local > 1:
            t += 2 * self.intra.broadcast_time(nbytes, local)
        if nodes > 1:
            t += self.inter.allreduce_recursive_doubling_time(nbytes, nodes)
        return t

    def allgatherv_ring_time(self, block_bytes, p: int) -> float:
        """Gather inside nodes, ring the concatenated node blocks around."""
        _check_p(p)
        if len(block_bytes) != p:
            raise ValueError(f"expected {p} block sizes, got {len(block_bytes)}")
        if p == 1:
            return 0.0
        local, nodes = self._levels(p)
        blocks = [float(b) for b in block_bytes]
        t = 0.0
        if local > 1:
            # In-node gather of each node's ranks (bounded by the largest
            # node group), plus the final in-node broadcast of the global
            # result.
            groups = self._node_groups(p)
            node_blocks = [sum(blocks[i] for i in group) for group in groups]
            biggest = max(groups, key=len)
            t += self.intra.allgatherv_ring_time(
                [blocks[i] for i in biggest], len(biggest))
            if nodes > 1:
                t += self.inter.allgatherv_ring_time(node_blocks, nodes)
                t += self.intra.broadcast_time(sum(blocks), local)
        else:
            t += self.inter.allgatherv_ring_time(blocks, nodes)
        return t

    def allgatherv_bruck_time(self, block_bytes, p: int) -> float:
        """Bruck variant of the hierarchical allgather."""
        _check_p(p)
        if len(block_bytes) != p:
            raise ValueError(f"expected {p} block sizes, got {len(block_bytes)}")
        if p == 1:
            return 0.0
        local, nodes = self._levels(p)
        blocks = [float(b) for b in block_bytes]
        t = 0.0
        if local > 1:
            groups = self._node_groups(p)
            node_blocks = [sum(blocks[i] for i in group) for group in groups]
            biggest = max(groups, key=len)
            t += self.intra.allgatherv_bruck_time(
                [blocks[i] for i in biggest], len(biggest))
            if nodes > 1:
                t += self.inter.allgatherv_bruck_time(node_blocks, nodes)
                t += self.intra.broadcast_time(sum(blocks), local)
        else:
            t += self.inter.allgatherv_bruck_time(blocks, nodes)
        return t

    def broadcast_time(self, nbytes: float, p: int) -> float:
        """Inter-node tree plus in-node tree."""
        _check_p(p)
        if p == 1:
            return 0.0
        local, nodes = self._levels(p)
        t = 0.0
        if nodes > 1:
            t += self.inter.broadcast_time(nbytes, nodes)
        if local > 1:
            t += self.intra.broadcast_time(nbytes, local)
        return t

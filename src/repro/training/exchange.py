"""The per-step gradient exchange: one pipeline, codec x transport.

Every communication strategy of the paper — DRS (Section 4.1), gradient-row
selection (4.2), 1-/2-bit quantization (4.3) — acts at one point: combining
the ranks' gradients of one matrix for one step.
:class:`GradientExchange` runs that point as four stages:

1. **prepare** — each rank folds its error-feedback residual into its rows,
   then row selection drops some;
2. **encode** — whoever puts bytes on the expensive link encodes once (each
   rank on the flat allgather, each node at the two-level hop boundary):
   1-/2-bit quantization or nothing;
3. **move** — the transport charges its collectives on the simulated
   cluster: flat allgatherv or two-level gather -> allgatherv -> bcast;
4. **combine** — every receiver sums the decoded rows.

The dense transports (flat ring, two-level) are lossless and skip 1-2.
Residual stores are written only after the last collective of a step
returned (*commit after delivery*): a collective that gives up under the
``fallback-dense`` policy is re-sent as a reliable dense allreduce of the
untouched gradients, so every store must stay exactly as the step found it.

The exchange owns all state the strategies keep between steps, and the
checkpoint layer reads it here: :meth:`GradientExchange.residual_stores`
(keyed by :func:`residual_key`) and the public fields ``rng``, ``drs`` and
``fallbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..comm import collectives, hierarchical
from ..comm.faults import CollectiveGaveUp
from ..comm.payload import dense_bytes
from ..comm.simulator import Cluster
from ..comm.sparse import SparseRows, combine_sparse
from ..compress.error_feedback import NodeResiduals, ResidualStore
from ..compress.quantization import dequantize, quantization_error, quantize
from ..compress.selection import select
from ..obs import Decision
from .rng import selection_rng
from .strategy import StrategyConfig


def _take(items: list, i: int):
    """``items[i]``, leaving ``None`` in its place so the caller's list no
    longer keeps it alive."""
    item, items[i] = items[i], None
    return item


def residual_key(kind: str, owner: int, hier: bool = False) -> str:
    """Checkpoint key of a rank's error-feedback store, or a node's."""
    return f"residual/{'hier_' if hier else ''}{kind}/{owner}"


@dataclass
class DrsState:
    """Dynamic comm-mode switch state (paper Section 4.1, extended).

    The paper's DRS is a two-way probe: run allreduce, probe allgather every
    k-th epoch, switch permanently when the probe's comm time wins.  The
    topology-aware collective stack extends this to a per-probe choice over
    several challengers (``probe_modes``): probe epochs cycle through them,
    and once every challenger has a measurement, the cheapest one commits —
    but only if it is also strictly faster than the incumbent
    ``default_mode``'s last measured comm time.  With the default
    single-challenger tuple this reduces *exactly* to the paper's rule.
    """

    #: Mode every epoch uses after the switch commits (the winning probe).
    current: str = "allreduce"
    switched: bool = False
    #: Incumbent (``default_mode``) comm time of the most recent default
    #: epoch.
    last_incumbent_comm: float = float("inf")
    probes: int = 0
    #: Mode of every non-probe epoch before the switch.
    default_mode: str = "allreduce"
    #: Challenger modes, probed round-robin on probe epochs.
    probe_modes: tuple = ("allgather",)
    #: Most recent comm-time measurement per challenger mode.
    probe_comms: dict = field(default_factory=dict)

    def mode_for_epoch(self, epoch: int, probe_interval: int) -> str:
        if self.switched:
            return self.current
        if epoch > 0 and epoch % probe_interval == 0:
            return self.probe_modes[self.probes % len(self.probe_modes)]
        return self.default_mode

    def observe(self, epoch: int, epoch_mode: str,
                comm_time: float) -> Decision | None:
        """Take ``epoch``'s measured comm time; returns the ``drs.probe``
        decision (a commit, or the incumbent kept) once it can decide."""
        if self.switched:
            return None
        if epoch_mode == self.default_mode:
            self.last_incumbent_comm = comm_time
            return None
        # Probe epoch result: record it; decide once every challenger has
        # a measurement (ties break toward the earlier probe_modes entry).
        self.probes += 1
        self.probe_comms[epoch_mode] = comm_time
        if not all(m in self.probe_comms for m in self.probe_modes):
            return None
        winner = min(self.probe_modes, key=lambda m: self.probe_comms[m])
        if self.probe_comms[winner] < self.last_incumbent_comm:
            self.switched, self.current = True, winner
        taken, other = ((winner, self.default_mode) if self.switched
                        else (self.default_mode, winner))
        return Decision("drs.probe", epoch, taken, other, {
            "incumbent_comm": self.last_incumbent_comm,
            "probe_comms": dict(self.probe_comms)})


@dataclass
class MatrixState:
    """What the exchange keeps per gradient matrix."""

    kind: str
    n_rows: int
    width: int
    #: Rows at or below this 2-norm never travel on a sparse wire (the
    #: baseline's sparse updates); ``None`` sends every row.
    zero_row_tol: float | None
    #: One store per rank around the flat allgather's per-rank quantizer.
    rank_residuals: list[ResidualStore] | None = None
    #: One store per physical node around the hop-boundary quantizer.
    node_residuals: NodeResiduals | None = None


class GradientExchange:
    """Combine per-rank gradients under one strategy on one cluster.

    ``matrices`` maps a kind (``"entity"``, ``"relation"``) to its
    ``(n_rows, width, zero_row_tol)``.  The kind prefixes every collective's
    op label, so comm stats attribute traffic per gradient matrix — the
    relation partition's no-communication invariant is then auditable as
    the absence of any ``relation_*`` op.
    """

    def __init__(self, cluster: Cluster, strategy: StrategyConfig,
                 matrices: dict[str, tuple[int, int, float | None]],
                 seed: int):
        self.cluster = cluster
        self.strategy = strategy
        network, world = cluster.network, cluster.n_ranks
        #: Selection / 2-bit quantization stream (checkpointed position).
        self.rng = selection_rng(seed)
        #: Steps re-sent through the dense fallback (checkpointed).
        self.fallbacks = 0

        # Topology-aware collective stack (collective != "flat"): the node
        # groups are the cluster's placement of this world.  Over a flat
        # network the groups are singletons and the hierarchical stack
        # *is* the flat ring, so "hier" is always safe to request.
        self.groups = (cluster.groups if strategy.collective != "flat"
                       else None)
        # With an explicit collective stack, "allreduce" means a genuinely
        # flat single-level ring: every hop priced on the between-node
        # link (the network's one-hop view), not the cluster network's
        # lump two-level time.
        self.flat_network = (network.inter if self.groups is not None
                             else None)

        self.matrices: dict[str, MatrixState] = {}
        for kind, (n_rows, width, zero_row_tol) in matrices.items():
            m = MatrixState(kind, n_rows, width, zero_row_tol)
            if strategy.error_feedback:
                m.rank_residuals = [ResidualStore(n_rows, width)
                                    for _ in range(world)]
                if self.groups is not None:
                    m.node_residuals = NodeResiduals(self.groups.node_ids,
                                                     n_rows, width)
            self.matrices[kind] = m

        #: DRS state, and the ``collective="auto"`` closed-form pick of the
        #: dense mode for this world (None for an explicit collective or p=1).
        self.drs, self.resolution = self._initial_drs()

    # -- mode choice -----------------------------------------------------

    def _initial_drs(self) -> tuple[DrsState, Decision | None]:
        """Resolve the dense mode and the DRS challengers for this world.

        Non-allgather steps use one dense collective: ``flat`` and ``hier``
        are explicit requests; ``auto`` compares the alpha-beta cost of a
        genuinely flat ring (as a topology-unaware stack would run) against
        the two-level stack, both on the dense entity payload, and takes
        the cheaper — preferring flat on ties, so a flat
        :class:`~repro.comm.network.NetworkModel` always resolves to flat.
        The paper's two-way DRS probes allgather only; under ``auto`` the
        dense mode the cost model did *not* pick joins the rotation, making
        the switch a three-way measured choice.
        """
        strategy, world = self.strategy, self.cluster.n_ranks
        dense, probes, resolution = "allreduce", ("allgather",), None
        if strategy.collective == "hier" and world > 1:
            dense = "hierarchical"
        elif strategy.collective == "auto" and world > 1:
            entity, network = self.matrices["entity"], self.cluster.network
            nbytes = float(dense_bytes(entity.n_rows, entity.width))
            flat_time = self.flat_network.allreduce_ring_time(nbytes, world)
            hier_time = network.allreduce_ring_time(nbytes, self.groups)
            other = "hierarchical"
            if hier_time < flat_time:
                dense, other = other, dense
            if strategy.comm_mode == "dynamic":
                probes = ("allgather", other)
            resolution = Decision("drs.resolve", 0, dense, other, {
                "allreduce": flat_time, "hierarchical": hier_time,
                "world": world})
        return DrsState(default_mode=dense, probe_modes=probes), resolution

    def mode_for_epoch(self, epoch: int) -> str:
        """The transport every step of ``epoch`` uses."""
        mode = self.strategy.comm_mode
        if mode == "dynamic":
            return self.drs.mode_for_epoch(epoch,
                                           self.strategy.drs_probe_interval)
        return self.drs.default_mode if mode == "allreduce" else mode

    def observe(self, epoch: int, mode: str,
                comm_time: float) -> Decision | None:
        """Feed one epoch's measured comm time to the DRS decision; returns
        the ``drs.probe`` decision it made, if any.

        Only the quantized two-level transport reads the node residuals, so
        a commit to any other one leaves them dead: they are cleared then,
        rather than carried in every later snapshot.
        """
        drs = self.drs
        if self.strategy.comm_mode != "dynamic" or drs.switched:
            return None
        decision = drs.observe(epoch, mode, comm_time)
        if drs.switched and not (drs.current == "hierarchical"
                                 and self.strategy.quantization_bits):
            for m in self.matrices.values():
                if m.node_residuals is not None:
                    m.node_residuals.clear()
        return decision

    # -- checkpoint surface ----------------------------------------------

    def residual_stores(self) -> Iterator[tuple[str, tuple[str, int] | None,
                                                ResidualStore]]:
        """Every error-feedback store as ``(checkpoint key, owner, store)``.

        ``owner`` is ``(kind, local rank)`` for a rank-level store, whose
        state a cross-world restore finds under :func:`residual_key` of the
        rank it had there, and ``None`` for a node-level one, whose key
        carries the stable physical node id instead (a cross-world restore
        intersects node sets rather than remapping ranks).
        """
        for m in self.matrices.values():
            for rank, store in enumerate(m.rank_residuals or ()):
                yield residual_key(m.kind, rank), (m.kind, rank), store
        for m in self.matrices.values():
            if m.node_residuals is not None:
                for node, store in m.node_residuals.stores.items():
                    yield residual_key(m.kind, node, hier=True), None, store

    # -- the pipeline ----------------------------------------------------

    def exchange(self, kind: str, parts: list[SparseRows],
                 mode: str) -> tuple[SparseRows, float]:
        """Combine one matrix's per-rank gradients for one step.

        Returns ``(combined, selection sparsity)``.  ``allreduce`` is the
        flat dense ring and ``hierarchical`` the two-level stack — both
        lossless, bitwise the same combination, only the charged hops
        differ — unless quantization is on, when ``hierarchical`` carries
        selected rows re-quantized at the hop boundary; ``allgather`` is
        the flat compressed path.
        """
        m = self.matrices[kind]
        strategy = self.strategy
        sparse = mode == "allgather" or (
            mode == "hierarchical" and strategy.quantization_bits > 0)
        if sparse and m.zero_row_tol is not None:
            parts = [p.select(np.linalg.norm(p.values, axis=1)
                              > m.zero_row_tol) for p in parts]
        if self.cluster.n_ranks == 1:
            return parts[0], 0.0
        nbytes = dense_bytes(m.n_rows, m.width)
        try:
            if sparse:
                return self._exchange_sparse(m, parts, mode == "hierarchical")
            if mode == "hierarchical":
                hierarchical.hier_allreduce_bytes(
                    self.cluster, nbytes, op_label=f"{kind}_hier")
            else:
                collectives.allreduce_bytes(
                    self.cluster, nbytes, op_label=f"{kind}_allreduce",
                    network=self.flat_network)
        except CollectiveGaveUp:
            # fallback-dense policy: a collective exhausted its retry
            # budget (the aborted attempt's time is already on the clocks).
            # Resend the step's update as a lossless dense allreduce, with
            # unbounded retries so the fallback cannot abort recursively.
            with self.cluster.faults.reliable():
                collectives.allreduce_bytes(
                    self.cluster, nbytes, op_label=f"{kind}_fallback_dense")
            self.fallbacks += 1
        return combine_sparse(parts), 0.0

    def _exchange_sparse(self, m: MatrixState, parts: list[SparseRows],
                         two_level: bool) -> tuple[SparseRows, float]:
        """prepare -> encode -> move -> combine over a sparse wire.

        Two-level: the intra hop gathers the selected rows at full precision
        (on-node bandwidth is nearly free; an on-node quantize would spend
        accuracy for nothing), each node combines its members' rows, folds
        in its node residual and encodes *once* — the expensive inter ring
        carries the codes and no payload survives more than one lossy encode
        per traversal — and the intra broadcast fans the codes back out.
        """
        strategy, cluster, groups = self.strategy, self.cluster, self.groups
        dropped = kept = 0
        sources: list[SparseRows] = []
        for rank, g in enumerate(parts):
            if m.rank_residuals is not None:
                g = m.rank_residuals[rank].inject(g)
            if strategy.selection != "none":
                g, stats = select(g, strategy.selection, self.rng)
                dropped += stats.rows_in - stats.rows_kept
                kept += stats.rows_kept
            sources.append(g)
        del g  # ``sources`` alone holds the rank rows from here

        # Each payload is decoded once; the same rows feed the residual
        # update and the combine.  Payloads are encoded one at a time and
        # each is dropped once encoded: a step holds its decoded rows and
        # errors, never every payload beside them.
        if two_level:
            hierarchical.hier_intra_gather_bytes(
                cluster, [g.nbytes_wire for g in sources],
                op_label=f"{m.kind}_hier")
            encoded = [self._encode(self._node_sum(m, node, members, sources))
                       for node, members in zip(groups.node_ids,
                                                groups.members)]
        else:
            encoded = [self._encode(_take(sources, rank))
                       for rank in range(len(sources))]
        decoded, wire, errors = zip(*encoded)
        if two_level:
            hierarchical.hier_inter_allgatherv_bytes(
                cluster, wire, op_label=f"{m.kind}_hier")
        else:
            codec = "quant" if strategy.quantization_bits else "sparse"
            collectives.allgatherv_bytes(
                cluster, wire, algo=strategy.allgather_algo,
                op_label=f"{m.kind}_allgather_{codec}")
        combined = combine_sparse(decoded)
        if two_level:
            hierarchical.hier_intra_bcast_bytes(
                cluster, sum(wire), op_label=f"{m.kind}_hier")

        # Commit after delivery.  The two-level path clears the rank
        # residuals it injected and never re-stores them — the node-level
        # store owns the compression error from here on, and a rank
        # residual left dirty would re-apply every epoch.
        if strategy.error_feedback and two_level:
            for store in m.rank_residuals:
                store.clear()
            for node, error in zip(groups.node_ids, errors):
                m.node_residuals.store(node, error)
        elif strategy.error_feedback and strategy.quantization_bits:
            for store, error in zip(m.rank_residuals, errors):
                store.store(error)

        total_rows = dropped + kept
        return combined, dropped / total_rows if total_rows else 0.0

    def _node_sum(self, m: MatrixState, node: int, members: Sequence[int],
                  sources: list[SparseRows]) -> SparseRows:
        """One node's hop-boundary sum: its members' rows, taken out of
        ``sources``, combined plus its node residual."""
        g = combine_sparse([_take(sources, r) for r in members])
        if m.node_residuals is not None:
            g = m.node_residuals.inject(node, g)
        return g

    def _encode(self, g: SparseRows
                ) -> tuple[SparseRows, int, SparseRows | None]:
        """One lossy encode of one rank's or node's rows: the rows as every
        receiver decodes them, their bytes on the wire, and the compression
        error (error feedback only)."""
        strategy = self.strategy
        if strategy.quantization_bits:
            q = quantize(g, strategy.quantization_bits,
                         stat=strategy.quantization_stat, rng=self.rng)
            approx = dequantize(q)
            error = (quantization_error(g, q, approx)
                     if strategy.error_feedback else None)
            return approx, q.nbytes_wire, error
        return g, g.nbytes_wire, None

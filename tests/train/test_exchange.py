"""Unit tests for the gradient exchange itself (codec x transport), driven
directly on hand-built parts rather than through a training run."""

import tracemalloc

import numpy as np
import pytest

from repro.comm import collectives
from repro.comm.faults import FaultPlan
from repro.comm.network import NetworkModel
from repro.comm.simulator import Cluster
from repro.comm.sparse import SparseRows, combine_sparse
from repro.training.exchange import DrsState, GradientExchange
from repro.training.strategy import StrategyConfig

NET = NetworkModel(alpha=5e-6, beta=1.25e-10, ranks_per_node=2,
                   intra=NetworkModel(alpha=1e-7, beta=1e-11))
#: The relation matrix is narrower than the entity matrix, so a codec that
#: sized one buffer from the other would fail here.
SHAPES = {"entity": (30, 16), "relation": (6, 8)}
CODECS = {"raw": {}, "1bit": {"quantization_bits": 1},
          "2bit": {"quantization_bits": 2}}
MODES = ("allreduce", "hierarchical", "allgather")
GIVE_UP = FaultPlan(drop_prob=0.95, max_retries=1, policy="fallback-dense",
                    seed=3)


def make_exchange(world=4, network=NET, faults=None, global_ranks=None,
                  **strategy):
    strategy.setdefault("comm_mode", "allgather")
    strategy.setdefault("collective", "hier")
    cluster = Cluster(world, network, faults=faults,
                      global_ranks=global_ranks)
    matrices = {"entity": SHAPES["entity"] + (1e-5,),
                "relation": SHAPES["relation"] + (None,)}
    return GradientExchange(cluster, StrategyConfig(**strategy), matrices,
                            seed=7)


def random_parts(world, kind, seed=0):
    n_rows, width = SHAPES[kind]
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(world):
        rows = np.flatnonzero(rng.random(n_rows) < 0.5)
        values = rng.normal(size=(len(rows), width)).astype(np.float32)
        parts.append(SparseRows(rows, values, n_rows))
    return parts


def empty_part(kind):
    n_rows, width = SHAPES[kind]
    return SparseRows(np.empty(0, np.int64),
                      np.empty((0, width), np.float32), n_rows)


def same_rows(a, b):
    return (a.n_rows == b.n_rows
            and a.indices.tobytes() == b.indices.tobytes()
            and a.values.tobytes() == b.values.tobytes())


def store_bytes(exchange):
    return {key: (st.rows.tobytes(), st.values.shape, st.values.tobytes())
            for key, _, st in exchange.residual_stores()}


def test_raw_flat_allgather_is_allgather_sparse():
    exchange = make_exchange(collective="flat")
    parts = random_parts(4, "entity")
    got, sparsity = exchange.exchange("entity", parts, "allgather")
    reference = Cluster(4, NET)
    want = collectives.allgather_sparse(reference, parts, algo="ring",
                                        op_label="entity_allgather_sparse")
    assert same_rows(got, want) and sparsity == 0.0
    assert exchange.cluster.stats.by_op == reference.stats.by_op
    assert exchange.cluster.stats.by_hop == reference.stats.by_hop
    assert exchange.cluster.elapsed == reference.elapsed


def test_two_level_dense_equals_flat_dense_on_uneven_nodes():
    ranks = (0, 1, 2, 4, 5)  # nodes 0, 1, 2 hold 2, 1, 2 members
    parts = random_parts(5, "entity")
    parts[3] = empty_part("entity")
    results = {}
    for mode in ("allreduce", "hierarchical"):
        exchange = make_exchange(5, NET, global_ranks=ranks)
        assert exchange.groups.members == ((0, 1), (2,), (3, 4))
        results[mode], sparsity = exchange.exchange("entity", parts, mode)
        assert sparsity == 0.0
        hops = set(exchange.cluster.stats.by_hop)
        assert hops == ({"intra", "inter"} if mode == "hierarchical"
                        else {"flat"})
    assert same_rows(results["allreduce"], results["hierarchical"])
    assert same_rows(results["allreduce"], combine_sparse(parts))


#: (mode, codec) -> op-label suffixes one exchange emits; the keys are
#: checkpointed (``comm_stats.by_op``) and reported, so they are pinned.
DENSE_HIER = ("hier_intra_reduce", "hier_inter_ring", "hier_intra_bcast")
QUANT_HIER = ("hier_intra_gather", "hier_inter_gather", "hier_intra_bcast")
OP_LABELS = {
    ("allreduce", "raw"): ("allreduce_ring",),
    ("allreduce", "1bit"): ("allreduce_ring",),
    ("allreduce", "2bit"): ("allreduce_ring",),
    ("hierarchical", "raw"): DENSE_HIER,
    ("hierarchical", "1bit"): QUANT_HIER,
    ("hierarchical", "2bit"): QUANT_HIER,
    ("allgather", "raw"): ("allgather_sparse_ring",),
    ("allgather", "1bit"): ("allgather_quant_ring",),
    ("allgather", "2bit"): ("allgather_quant_ring",),
}


@pytest.mark.parametrize("kind", sorted(SHAPES))
@pytest.mark.parametrize("mode,codec", sorted(OP_LABELS))
def test_op_labels(mode, codec, kind):
    suffixes = OP_LABELS[mode, codec]
    exchange = make_exchange(selection="random", error_feedback=True,
                             **CODECS[codec])
    exchange.exchange(kind, random_parts(4, kind), mode)
    assert set(exchange.cluster.stats.by_op) == {
        f"{kind}_{suffix}" for suffix in suffixes}

    failing = make_exchange(faults=GIVE_UP, selection="random",
                            error_feedback=True, **CODECS[codec])
    failing.exchange(kind, random_parts(4, kind), mode)
    assert failing.fallbacks == 1
    # The first collective of the transport is the one that gives up.
    assert set(failing.cluster.stats.by_op) == {
        f"{kind}_{suffixes[0]}_aborted", f"{kind}_fallback_dense_ring"}


@pytest.mark.parametrize("network,world", [(NetworkModel(), 2), (NET, 4)],
                         ids=["singleton-nodes", "two-per-node"])
@pytest.mark.parametrize("mode", ["allgather", "hierarchical"])
def test_fallback_leaves_every_residual_store_untouched(mode, network,
                                                        world):
    """A step that was not delivered compressed must not keep its
    compression error: the dense resend already applied it in full.  Over
    singleton nodes the two-level path gives up on the inter hop, *after*
    its hop-boundary encode."""
    exchange = make_exchange(world, network, faults=GIVE_UP,
                             selection="random", quantization_bits=1,
                             error_feedback=True)
    rng = np.random.default_rng(5)
    for _, _, st in exchange.residual_stores():
        rows = np.flatnonzero(rng.random(st.n_rows) < 0.3)
        st.store(SparseRows(rows, rng.normal(size=(len(rows), st.dim)),
                            st.n_rows))
    before = store_bytes(exchange)
    parts = random_parts(world, "entity")
    got, sparsity = exchange.exchange("entity", parts, mode)
    assert exchange.fallbacks == 1 and sparsity == 0.0
    assert same_rows(got, combine_sparse(parts))
    assert store_bytes(exchange) == before

    # The same step delivered does commit: rank stores take the flat
    # path's error, the two-level path clears them for the node stores.
    delivered = make_exchange(world, network, selection="random",
                              quantization_bits=1, error_feedback=True)
    clean = store_bytes(delivered)
    delivered.exchange("entity", parts, mode)
    changed = {key for key, value in store_bytes(delivered).items()
               if value != clean[key]}
    level = "hier_entity" if mode == "hierarchical" else "entity"
    assert changed and all(key.startswith(f"residual/{level}/")
                           for key in changed)


@pytest.mark.parametrize("winner,cleared", [
    ("allgather", True), ("allreduce", True), ("hierarchical", False)])
def test_drs_commit_clears_node_residuals_it_leaves_dead(winner, cleared):
    """Only the quantized two-level transport reads the node stores: a DRS
    commit to anything else empties them and leaves the rank stores as
    they were; a commit to it keeps every store."""
    exchange = make_exchange(comm_mode="dynamic", selection="random",
                             quantization_bits=1, error_feedback=True)
    incumbent = "allreduce" if winner == "hierarchical" else "hierarchical"
    exchange.drs = DrsState(default_mode=incumbent, probe_modes=(winner,))
    exchange.exchange("entity", random_parts(4, "entity"), "hierarchical")
    before = store_bytes(exchange)
    node_keys = {key for key in before if "/hier_" in key}
    assert any(before[key][1][0] for key in node_keys)
    exchange.observe(incumbent, 1.0)
    assert store_bytes(exchange) == before
    exchange.observe(winner, 0.5)
    assert exchange.drs.switched and exchange.drs.current == winner
    after = store_bytes(exchange)
    for key in before:
        if cleared and key in node_keys:
            assert after[key][1][0] == 0
        else:
            assert after[key] == before[key]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(SHAPES))
@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("mode", MODES)
def test_degenerate_inputs_have_pinned_outcomes(mode, codec, kind):
    n_rows, width = SHAPES[kind]
    strategy = dict(selection="random", error_feedback=True, **CODECS[codec])
    sparse_wire = mode == "allgather" or (
        mode == "hierarchical" and "quantization_bits" in CODECS[codec])

    # World of one under the two-level stack: nothing travels, the rank's
    # own rows come back.
    alone = make_exchange(1, **strategy)
    part = random_parts(1, kind)[0]
    got, sparsity = alone.exchange(kind, [part], mode)
    assert same_rows(got, part) and sparsity == 0.0
    assert alone.cluster.stats.calls == 0

    # Every part empty: an empty result of the matrix's own width.
    got, sparsity = make_exchange(**strategy).exchange(
        kind, [empty_part(kind)] * 4, mode)
    assert (got.nnz_rows, got.dim, got.n_rows) == (0, width, n_rows)
    assert sparsity == 0.0

    # All-zero rows: a sparse wire trims them (entity) or selection drops
    # them (nothing has norm); the lossless modes carry them as zeros.
    zeros = [SparseRows(np.arange(3), np.zeros((3, width), np.float32),
                        n_rows) for _ in range(4)]
    got, _ = make_exchange(**strategy).exchange(kind, zeros, mode)
    assert (got.nnz_rows, got.dim) == (0 if sparse_wire else 3, width)
    assert not got.values.any()

    # A non-finite value: the lossless modes deliver it as is; random
    # selection cannot rank the poisoned rank's rows and drops them all.
    parts = random_parts(4, kind)
    parts[1].values[0, 0] = np.nan
    got, _ = make_exchange(**strategy).exchange(kind, parts, mode)
    assert got.dim == width
    if sparse_wire:
        assert np.isfinite(got.values).all()
    else:
        assert same_rows(got, combine_sparse(parts))
        assert np.isnan(got.values).sum() == 1


def test_two_level_step_holds_at_most_two_node_sums():
    """One 1-bit two-level step over 8 ranks on 4 nodes, node residuals
    mostly dirty: the hop boundary encodes node by node and drops each node
    sum once it is encoded, so the step peaks at its decoded rows and
    errors plus two node sums (plus ``combine_sparse``'s row tables), not
    at every node sum held to the end."""
    n_rows, width = 4000, 64
    cluster = Cluster(8, NET)
    exchange = GradientExchange(cluster, StrategyConfig(
        comm_mode="allgather", collective="hier", quantization_bits=1,
        error_feedback=True), {"entity": (n_rows, width, None)}, seed=7)
    assert exchange.groups.members == ((0, 1), (2, 3), (4, 5), (6, 7))
    rng = np.random.default_rng(0)
    nodes = exchange.matrices["entity"].node_residuals.stores
    for st in nodes.values():
        rows = np.flatnonzero(rng.random(n_rows) < 0.9)
        st.store(SparseRows(rows, rng.normal(size=(len(rows), width)), n_rows))
    parts = []
    for _ in range(8):
        rows = np.flatnonzero(rng.random(n_rows) < 0.2)
        parts.append(SparseRows(rows, rng.normal(size=(len(rows), width)),
                                n_rows))
    tracemalloc.start()
    try:
        exchange.exchange("entity", parts, "hierarchical")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each node's error covers exactly its node sum's rows, as does its
    # decoded payload; a node sum holds at most every row.
    errors = sum(st.nbytes for st in nodes.values())
    row_bytes = width * 4 + 8
    tables = n_rows * (np.dtype(bool).itemsize + np.dtype(np.intp).itemsize)
    assert peak <= 2 * errors + 2 * n_rows * row_bytes + tables

"""Unit and property tests for the two-level (charge-only) collectives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.faults import FaultPlan
from repro.comm.hierarchical import (
    NodeGroups,
    hier_allreduce_bytes,
    hop_models,
    resolve_groups,
)
from repro.comm.network import NetworkModel
from repro.comm.simulator import HOPS, Cluster
from repro.comm.topology import HierarchicalNetwork


def hier_net(rpn=4, membership=None):
    return HierarchicalNetwork(
        intra=NetworkModel(alpha=1e-7, beta=1e-11),
        inter=NetworkModel(alpha=1e-6, beta=1e-9),
        ranks_per_node=rpn, membership=membership)


class TestNodeGroups:
    def test_properties(self):
        groups = NodeGroups(node_ids=(0, 1), members=((0, 1, 2), (3,)))
        assert groups.n_nodes == 2
        assert groups.n_ranks == 4
        assert groups.local_max == 3
        assert groups.biggest() == (0, 1, 2)

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError, match="align"):
            NodeGroups(node_ids=(0,), members=((0,), (1,)))

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            NodeGroups(node_ids=(), members=())

    def test_unsorted_node_ids_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            NodeGroups(node_ids=(1, 0), members=((0,), (1,)))

    def test_empty_member_group_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            NodeGroups(node_ids=(0, 1), members=((0, 1), ()))

    def test_members_must_partition_local_ranks(self):
        with pytest.raises(ValueError, match="partition"):
            NodeGroups(node_ids=(0, 1), members=((0,), (2,)))


class TestResolveGroups:
    def test_flat_network_degenerates_to_singletons(self):
        groups = resolve_groups(NetworkModel(), 3)
        assert groups.node_ids == (0, 1, 2)
        assert groups.members == ((0,), (1,), (2,))

    def test_dense_packing(self):
        groups = resolve_groups(hier_net(rpn=2), 5)
        assert groups.node_ids == (0, 1, 2)
        assert groups.members == ((0, 1), (2, 3), (4,))

    def test_global_ranks_follow_original_placement(self):
        # Survivors 0, 1, 3 of a 2-per-node world: node 1 is half empty.
        groups = resolve_groups(hier_net(rpn=2), 3, global_ranks=[0, 1, 3])
        assert groups.node_ids == (0, 1)
        assert groups.members == ((0, 1), (2,))

    def test_network_membership_wins_over_global_ranks(self):
        net = hier_net(rpn=2, membership=(0, 3))
        groups = resolve_groups(net, 2, global_ranks=[0, 1])
        assert groups.node_ids == (0, 1)
        assert groups.members == ((0,), (1,))

    def test_membership_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="membership"):
            resolve_groups(hier_net(rpn=2, membership=(0, 1, 2)), 2)

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError, match="n_ranks"):
            resolve_groups(hier_net(), 0)

    def test_hop_models_flat_plays_both(self):
        flat = NetworkModel()
        assert hop_models(flat) == (flat, flat)

    def test_hop_models_hier_splits(self):
        net = hier_net()
        assert hop_models(net) == (net.intra, net.inter)


class TestHopCharging:
    def test_records_carry_hop_labels(self):
        net = hier_net(rpn=2)
        cluster = Cluster(4, net)
        groups = resolve_groups(net, 4)
        hier_allreduce_bytes(cluster, 1 << 16, groups)
        hops = [r.hop for r in cluster.records]
        assert hops == ["intra", "inter", "intra"]
        assert all(r.hop in HOPS for r in cluster.records)

    def test_by_hop_stats_accumulate(self):
        net = hier_net(rpn=2)
        cluster = Cluster(4, net)
        groups = resolve_groups(net, 4)
        hier_allreduce_bytes(cluster, 1 << 16, groups)
        by_hop = cluster.stats.by_hop
        assert by_hop["intra"][0] == 2
        assert by_hop["inter"][0] == 1
        assert "flat" not in by_hop

    def test_sum_of_hops_equals_lump_formula(self):
        net = hier_net(rpn=4)
        for p in (2, 4, 8, 16):
            cluster = Cluster(p, net)
            groups = resolve_groups(net, p)
            total = hier_allreduce_bytes(cluster, 1 << 20, groups)
            assert total == pytest.approx(
                net.allreduce_ring_time(1 << 20, p), rel=1e-12)

    def test_sum_of_hops_equals_lump_with_uneven_membership(self):
        members = (0, 1, 2, 3, 4, 6)  # node 1 lost rank 5, node 2 rank 7
        net = hier_net(rpn=4, membership=members)
        cluster = Cluster(6, net)
        groups = resolve_groups(net, 6)
        total = hier_allreduce_bytes(cluster, 1 << 18, groups)
        assert total == pytest.approx(
            net.allreduce_ring_time(1 << 18, 6), rel=1e-12)

    def test_single_node_skips_inter_ring(self):
        net = hier_net(rpn=4)
        cluster = Cluster(4, net)
        groups = resolve_groups(net, 4)
        hier_allreduce_bytes(cluster, 1 << 16, groups)
        assert all(r.hop == "intra" for r in cluster.records)

    def test_singleton_groups_skip_intra_hops(self):
        net = hier_net(rpn=1)
        cluster = Cluster(4, net)
        groups = resolve_groups(net, 4)
        hier_allreduce_bytes(cluster, 1 << 16, groups)
        assert all(r.hop == "inter" for r in cluster.records)

    def test_negative_bytes_rejected(self):
        net = hier_net(rpn=2)
        with pytest.raises(ValueError, match="non-negative"):
            hier_allreduce_bytes(Cluster(4, net), -1,
                                 resolve_groups(net, 4))

    def test_fault_retries_attributed_per_hop(self):
        net = hier_net(rpn=2)
        plan = FaultPlan(drop_prob=0.9, seed=7)
        cluster = Cluster(4, net, faults=plan)
        groups = resolve_groups(net, 4)
        hier_allreduce_bytes(cluster, 1 << 16, groups)
        assert cluster.stats.retries > 0
        by_hop = cluster.stats.by_hop
        assert sum(v[3] for v in by_hop.values()) == cluster.stats.retries


@given(st.integers(2, 10), st.integers(1, 5), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_hier_time_matches_lump_across_worlds(p, rpn, seed):
    net = hier_net(rpn=rpn)
    nbytes = 1 << (10 + seed % 10)
    cluster = Cluster(p, net)
    groups = resolve_groups(net, p)
    total = hier_allreduce_bytes(cluster, nbytes, groups)
    assert total == pytest.approx(net.allreduce_ring_time(nbytes, p),
                                  rel=1e-12)


@given(st.integers(2, 8), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_hier_faults_change_time_not_data(p, seed):
    """Drops add retransmission time; the hop sequence and the bytes
    charged stay those of the fault-free run."""
    net = hier_net(rpn=2)
    groups = resolve_groups(net, p)
    clean = Cluster(p, net)
    faulty = Cluster(p, net, faults=FaultPlan(drop_prob=0.5, seed=seed))
    for cluster in (clean, faulty):
        hier_allreduce_bytes(cluster, 6 * 3 * 4, groups)
    assert [(r.op, r.hop, r.nbytes_total) for r in faulty.records] == \
        [(r.op, r.hop, r.nbytes_total) for r in clean.records]
    if faulty.stats.retries > 0:
        assert faulty.elapsed > clean.elapsed

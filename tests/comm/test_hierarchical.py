"""Unit and property tests for the two-level (charge-only) collectives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.faults import FaultPlan
from repro.comm.hierarchical import hier_allreduce_bytes
from repro.comm.network import NetworkModel, NodeGroups
from repro.comm.simulator import HOPS, Cluster
from tests._fixtures import capture_charges


def hier_net(rpn=4):
    return NetworkModel(
        alpha=1e-6, beta=1e-9, ranks_per_node=rpn,
        intra=None if rpn == 1 else NetworkModel(alpha=1e-7, beta=1e-11))


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
    """The cluster resolves its world's node groups once, from the
    network's ``ranks_per_node`` and the members' global ranks."""

    def test_flat_network_degenerates_to_singletons(self):
        groups = Cluster(3, NetworkModel()).groups
        assert groups.node_ids == (0, 1, 2)
        assert groups.members == ((0,), (1,), (2,))

    def test_dense_packing(self):
        groups = Cluster(5, hier_net(rpn=2)).groups
        assert groups.node_ids == (0, 1, 2)
        assert groups.members == ((0, 1), (2, 3), (4,))

    def test_global_ranks_follow_original_placement(self):
        # Survivors 0, 1, 3 of a 2-per-node world: node 1 is half empty.
        groups = Cluster(3, hier_net(rpn=2), global_ranks=(0, 1, 3)).groups
        assert groups.node_ids == (0, 1)
        assert groups.members == ((0, 1), (2,))
        assert NodeGroups.pack((0, 1, 3), 2) == groups

    def test_membership_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="global_ranks"):
            Cluster(2, hier_net(rpn=2), global_ranks=(0, 1, 2))

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError, match="n_ranks"):
            Cluster(0, hier_net())
        with pytest.raises(ValueError, match="number of ranks"):
            NodeGroups.pack((), 2)

    def test_hop_models_flat_plays_both(self):
        """A flat network is its own between-node hop, and its singleton
        groups never reach an on-node one."""
        flat = NetworkModel()
        assert flat.inter is flat and flat.intra is None
        assert Cluster(4, flat).groups.local_max == 1

    def test_hop_models_hier_splits(self):
        net = hier_net()
        assert net.intra == NetworkModel(alpha=1e-7, beta=1e-11)
        assert net.inter == NetworkModel(alpha=1e-6, beta=1e-9)


class TestHopCharging:
    def test_records_carry_hop_labels(self):
        net = hier_net(rpn=2)
        cluster = Cluster(4, net)
        records = capture_charges(cluster)
        hier_allreduce_bytes(cluster, 1 << 16)
        hops = [r.hop for r in records]
        assert hops == ["intra", "inter", "intra"]
        assert all(r.hop in HOPS for r in records)

    def test_by_hop_stats_accumulate(self):
        net = hier_net(rpn=2)
        cluster = Cluster(4, net)
        hier_allreduce_bytes(cluster, 1 << 16)
        by_hop = cluster.stats.by_hop
        assert by_hop["intra"][0] == 2
        assert by_hop["inter"][0] == 1
        assert "flat" not in by_hop

    def test_sum_of_hops_equals_lump_formula(self):
        net = hier_net(rpn=4)
        for p in (2, 4, 8, 16):
            total = hier_allreduce_bytes(Cluster(p, net), 1 << 20)
            assert total == pytest.approx(
                net.allreduce_ring_time(1 << 20, p), rel=1e-12)

    def test_sum_of_hops_equals_lump_with_uneven_membership(self):
        members = (0, 1, 2, 3, 4, 6)  # node 1 lost rank 5, node 2 rank 7
        net = hier_net(rpn=4)
        cluster = Cluster(6, net, global_ranks=members)
        total = hier_allreduce_bytes(cluster, 1 << 18)
        assert total == pytest.approx(
            net.allreduce_ring_time(1 << 18, cluster.groups), rel=1e-12)

    def test_single_node_skips_inter_ring(self):
        net = hier_net(rpn=4)
        cluster = Cluster(4, net)
        records = capture_charges(cluster)
        hier_allreduce_bytes(cluster, 1 << 16)
        assert all(r.hop == "intra" for r in records)

    def test_singleton_groups_skip_intra_hops(self):
        net = hier_net(rpn=1)
        cluster = Cluster(4, net)
        records = capture_charges(cluster)
        hier_allreduce_bytes(cluster, 1 << 16)
        assert all(r.hop == "inter" for r in records)

    def test_negative_bytes_rejected(self):
        net = hier_net(rpn=2)
        with pytest.raises(ValueError, match="non-negative"):
            hier_allreduce_bytes(Cluster(4, net), -1)

    def test_fault_retries_attributed_per_hop(self):
        net = hier_net(rpn=2)
        plan = FaultPlan(drop_prob=0.9, seed=7)
        cluster = Cluster(4, net, faults=plan)
        hier_allreduce_bytes(cluster, 1 << 16)
        assert cluster.stats.retries > 0
        by_hop = cluster.stats.by_hop
        assert sum(v[3] for v in by_hop.values()) == cluster.stats.retries


@given(st.integers(2, 10), st.integers(1, 5), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_hier_time_matches_lump_across_worlds(p, rpn, seed):
    net = hier_net(rpn=rpn)
    nbytes = 1 << (10 + seed % 10)
    total = hier_allreduce_bytes(Cluster(p, net), nbytes)
    assert total == pytest.approx(net.allreduce_ring_time(nbytes, p),
                                  rel=1e-12)


@given(st.integers(2, 8), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_hier_faults_change_time_not_data(p, seed):
    """Drops add retransmission time; the hop sequence and the bytes
    charged stay those of the fault-free run."""
    net = hier_net(rpn=2)
    clean = Cluster(p, net)
    faulty = Cluster(p, net, faults=FaultPlan(drop_prob=0.5, seed=seed))
    charged = [capture_charges(cluster) for cluster in (clean, faulty)]
    for cluster in (clean, faulty):
        hier_allreduce_bytes(cluster, 6 * 3 * 4)
    assert [(r.op, r.hop, r.nbytes_total) for r in charged[1]] == \
        [(r.op, r.hop, r.nbytes_total) for r in charged[0]]
    if faulty.stats.retries > 0:
        assert faulty.elapsed > clean.elapsed

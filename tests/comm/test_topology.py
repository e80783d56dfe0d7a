"""Unit tests for two-level networks: ``NetworkModel`` with ``ranks_per_node``
> 1 and an on-node ``intra`` link, and the ``--net`` spec that builds them."""

import pytest

from repro.comm.network import ON_NODE, NetworkModel
from repro.comm.simulator import Cluster


@pytest.fixture
def net():
    return NetworkModel(alpha=1e-6, beta=1e-9, ranks_per_node=4,
                        intra=NetworkModel(alpha=1e-7, beta=1e-11))


class TestConstruction:
    def test_invalid_ranks_per_node_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(ranks_per_node=0, intra=ON_NODE)

    def test_compute_rate_shared_across_ranks(self, net):
        flat = net.inter.compute_time(1e9)
        assert net.compute_time(1e9) == pytest.approx(flat * 4)

    def test_levels_must_match_ranks_per_node(self):
        with pytest.raises(ValueError, match="needs an intra link"):
            NetworkModel(ranks_per_node=2)
        with pytest.raises(ValueError, match="needs an intra link"):
            NetworkModel(intra=ON_NODE)

    def test_intra_is_a_flat_link_sharing_node_flops(self, net):
        with pytest.raises(ValueError, match="flat link"):
            NetworkModel(ranks_per_node=2, intra=net)
        with pytest.raises(ValueError, match="sharing the node's"):
            NetworkModel(ranks_per_node=2,
                         intra=NetworkModel(alpha=1e-7, node_flops=1e9))

    def test_flat_model_prices_a_placement_by_its_rank_count(self, net):
        """The one-hop view of a two-level cluster is a flat ring over
        all its ranks, whatever their node groups."""
        groups = Cluster(16, net).groups
        assert groups.local_max == 4
        flat = net.inter
        assert (flat.allreduce_ring_time(1 << 16, groups)
                == flat.allreduce_ring_time(1 << 16, 16))

    def test_negative_flops_rejected(self, net):
        with pytest.raises(ValueError):
            net.compute_time(-1)


class TestAllreduce:
    def test_single_rank_free(self, net):
        assert net.allreduce_ring_time(1 << 20, 1) == 0.0

    def test_all_intra_node_is_cheap(self, net):
        """4 ranks on one node never touch the slow network."""
        t_intra = net.allreduce_ring_time(1 << 20, 4)
        flat = NetworkModel(alpha=1e-6, beta=1e-9)
        t_flat = flat.allreduce_ring_time(1 << 20, 4)
        assert t_intra < t_flat

    def test_hierarchy_beats_flat_ring_at_scale(self, net):
        """16 ranks = 4 nodes x 4: the inter-node ring sees only 4
        participants instead of 16, saving latency steps."""
        nbytes = 1 << 16
        flat = NetworkModel(alpha=1e-6, beta=1e-9)
        assert (net.allreduce_ring_time(nbytes, 16)
                < flat.allreduce_ring_time(nbytes, 16))

    def test_recursive_doubling_variant(self, net):
        t = net.allreduce_recursive_doubling_time(1 << 16, 16)
        assert t > 0
        assert net.allreduce_recursive_doubling_time(1 << 16, 1) == 0.0


class TestAllgather:
    def test_block_count_validated(self, net):
        with pytest.raises(ValueError):
            net.allgatherv_ring_time([1.0, 2.0], 3)

    def test_single_rank_free(self, net):
        assert net.allgatherv_ring_time([100.0], 1) == 0.0

    def test_volume_grows_with_node_count(self, net):
        block = 1 << 14
        t8 = net.allgatherv_ring_time([float(block)] * 8, 8)
        t16 = net.allgatherv_ring_time([float(block)] * 16, 16)
        assert t16 > t8

    def test_bruck_at_most_ring_latency(self, net):
        blocks = [1000.0] * 16
        assert (net.allgatherv_bruck_time(blocks, 16)
                <= net.allgatherv_ring_time(blocks, 16) * 1.01)


class TestBroadcast:
    def test_two_level_cost(self, net):
        t = net.broadcast_time(1 << 12, 16)
        inter_only = net.inter.broadcast_time(1 << 12, 4)
        assert t > inter_only  # in-node fan-out adds on top

    def test_single_rank_free(self, net):
        assert net.broadcast_time(1 << 12, 1) == 0.0


class TestParse:
    def test_full_spec(self):
        net = NetworkModel.parse(
            "rpn=4,intra=1e-7:2e-11,inter=5e-6:1.25e-10")
        assert net.ranks_per_node == 4
        assert net.intra.alpha == 1e-7
        assert net.intra.beta == 2e-11
        assert net.inter.alpha == 5e-6
        assert net.inter.beta == 1.25e-10

    def test_unset_keys_keep_defaults(self):
        net = NetworkModel.parse("rpn=8")
        assert net.ranks_per_node == 8
        assert net.intra == ON_NODE
        assert net.inter == NetworkModel()
        assert NetworkModel.parse("").ranks_per_node == 2

    def test_component_keys_and_flops(self):
        net = NetworkModel.parse("inter_alpha=8e-6,flops=5e10")
        assert net.inter.alpha == 8e-6
        assert net.inter.beta == NetworkModel().beta
        assert net.intra.node_flops == 5e10
        assert net.inter.node_flops == 5e10

    def test_whitespace_and_empty_entries_tolerated(self):
        net = NetworkModel.parse(" rpn = 2 ,, inter_beta = 1e-9 ,")
        assert net.ranks_per_node == 2
        assert net.inter.beta == 1e-9

    def test_unknown_key_names_the_entry(self):
        with pytest.raises(ValueError, match="unknown --net key 'bogus'"):
            NetworkModel.parse("bogus=1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate --net key 'rpn'"):
            NetworkModel.parse("rpn=2,rpn=4")

    def test_shorthand_collides_with_component_form(self):
        with pytest.raises(ValueError, match="duplicate --net key"):
            NetworkModel.parse("inter=1e-6:1e-9,inter_alpha=2e-6")

    def test_component_then_shorthand_also_collides(self):
        with pytest.raises(ValueError, match="duplicate --net key 'intra'"):
            NetworkModel.parse("intra_beta=1e-11,intra=1e-7:2e-11")

    def test_both_component_forms_coexist(self):
        net = NetworkModel.parse("intra_alpha=1e-7,intra_beta=3e-11")
        assert net.intra.alpha == 1e-7
        assert net.intra.beta == 3e-11

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="expected key=value"):
            NetworkModel.parse("rpn")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="expected alpha:beta"):
            NetworkModel.parse("inter=5e-6")

    def test_rpn_one_is_the_flat_network(self):
        """A flat network is the one-hop case, as an equality: same model,
        same config fingerprint."""
        from repro.comm.topology import HierarchicalNetwork
        from repro.kg.datasets import make_tiny_kg
        from repro.training.checkpoint import config_fingerprint
        from repro.training.strategy import baseline_allreduce
        from repro.training.trainer import TrainConfig
        parsed = HierarchicalNetwork.parse(
            "rpn=1,inter=4e-6:2.5e-10,flops=3e10")
        flat = NetworkModel(alpha=4e-6, beta=2.5e-10, node_flops=3e10)
        assert parsed == flat and parsed.intra is None
        store, config = make_tiny_kg(), TrainConfig()
        assert (config_fingerprint(store, baseline_allreduce(), config,
                                   parsed, None)
                == config_fingerprint(store, baseline_allreduce(), config,
                                      flat, None))

    def test_non_finite_value_names_the_flag(self):
        with pytest.raises(ValueError,
                           match="bad --net spec .*alpha must be finite"):
            NetworkModel.parse("rpn=2,inter=nan:1.25e-10")

    def test_describe_round_trips_the_levels(self):
        net = NetworkModel.parse("rpn=4,inter=5e-6:1.25e-10")
        text = net.describe()
        assert "rpn=4" in text
        assert "a=5e-06" in text


class TestTrainerIntegration:
    def test_trainer_accepts_hierarchical_network(self, net):
        """A two-level network drives the full training stack."""
        from repro import TrainConfig, baseline_allreduce, train
        from repro.kg.datasets import make_tiny_kg
        store = make_tiny_kg()
        cfg = TrainConfig(dim=8, batch_size=128, max_epochs=2, lr_patience=5,
                          eval_max_queries=20)
        result = train(store, baseline_allreduce(1), 8, config=cfg,
                       network=net)
        assert result.epochs == 2
        assert result.total_time > 0

    def test_cluster_accepts_hierarchical_network(self, net):
        cluster = Cluster(8, net)
        from repro.comm.collectives import allreduce_bytes
        time = allreduce_bytes(cluster, 16)
        assert time == net.allreduce_ring_time(16, 8)
        assert cluster.elapsed == time > 0

"""Unit/behavioural tests for the distributed trainer."""

import numpy as np
import pytest

from repro.comm.network import NetworkModel
from repro.kg.datasets import make_tiny_kg
from repro.training.strategy import (
    StrategyConfig,
    baseline_allgather,
    baseline_allreduce,
    drs,
    rs,
    rs_1bit,
    rs_1bit_rp_ss,
)
from repro.training.trainer import DistributedTrainer, TrainConfig, train


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg(n_entities=100, n_relations=12, n_triples=1200)


def tiny_config(**overrides):
    defaults = dict(dim=8, batch_size=128, max_epochs=6, lr_patience=2,
                    eval_max_queries=30)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestConstruction:
    def test_invalid_nodes_rejected(self, store):
        with pytest.raises(ValueError):
            DistributedTrainer(store, baseline_allreduce(), 0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(dim=0)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(time_scale=0.0)

    def test_relation_partition_builds_disjoint_shards(self, store):
        strat = StrategyConfig(relation_partition=True)
        tr = DistributedTrainer(store, strat, 4, config=tiny_config())
        assert tr.partition.relations_disjoint()

    def test_uniform_partition_by_default(self, store):
        tr = DistributedTrainer(store, baseline_allreduce(), 4,
                                config=tiny_config())
        assert tr.partition.scheme == "uniform"

    def test_lr_scaling_rule_applied(self, store):
        cfg = tiny_config(base_lr=0.001)
        for p, expected in [(1, 0.001), (2, 0.002), (8, 0.004)]:
            tr = DistributedTrainer(store, baseline_allreduce(), p, config=cfg)
            assert tr.scheduler.lr == pytest.approx(expected)

    def test_steps_per_epoch_shrink_with_nodes(self, store):
        cfg = tiny_config()
        s1 = DistributedTrainer(store, baseline_allreduce(), 1,
                                config=cfg).steps_per_epoch
        s4 = DistributedTrainer(store, baseline_allreduce(), 4,
                                config=cfg).steps_per_epoch
        assert s4 < s1


class TestRun:
    def test_result_fields(self, store):
        r = train(store, baseline_allreduce(negatives=2), 2,
                  config=tiny_config())
        assert r.epochs == len(r.logs) > 0
        assert r.total_time > 0
        assert np.isfinite(r.test_mrr) and np.isfinite(r.test_tca)
        assert r.n_nodes == 2
        assert r.strategy_label == "allreduce"

    def test_deterministic_given_seed(self, store):
        a = train(store, baseline_allreduce(negatives=2), 2,
                  config=tiny_config(seed=11))
        b = train(store, baseline_allreduce(negatives=2), 2,
                  config=tiny_config(seed=11))
        assert a.test_mrr == b.test_mrr
        assert a.total_time == b.total_time
        assert a.series("loss") == b.series("loss")

    def test_single_node_has_no_comm_time(self, store):
        r = train(store, baseline_allreduce(negatives=2), 1,
                  config=tiny_config())
        assert all(log.comm_time == 0.0 for log in r.logs)

    def test_multi_node_has_comm_time(self, store):
        r = train(store, baseline_allreduce(negatives=2), 4,
                  config=tiny_config())
        assert all(log.comm_time > 0.0 for log in r.logs)

    def test_loss_decreases(self, store):
        r = train(store, baseline_allreduce(negatives=2), 1,
                  config=tiny_config(max_epochs=15, lr_patience=10))
        losses = r.series("loss")
        assert losses[-1] < losses[0]

    def test_early_stop_on_plateau(self, store):
        cfg = tiny_config(max_epochs=200, lr_patience=1, min_lr=0.9e-3,
                          base_lr=1e-3)
        r = train(store, baseline_allreduce(negatives=1), 1, config=cfg)
        assert r.converged
        assert r.epochs < 200

    def test_time_scale_multiplies_total(self, store):
        a = train(store, baseline_allreduce(negatives=1), 2,
                  config=tiny_config(seed=3, time_scale=1.0))
        b = train(store, baseline_allreduce(negatives=1), 2,
                  config=tiny_config(seed=3, time_scale=100.0))
        assert b.total_time == pytest.approx(a.total_time * 100.0)

    def test_eval_time_excludable(self, store):
        a = train(store, baseline_allreduce(negatives=1), 1,
                  config=tiny_config(seed=3, include_eval_time=True))
        b = train(store, baseline_allreduce(negatives=1), 1,
                  config=tiny_config(seed=3, include_eval_time=False))
        assert b.total_time < a.total_time


class TestCommModes:
    def test_allreduce_only_uses_allreduce(self, store):
        r = train(store, baseline_allreduce(negatives=1), 2,
                  config=tiny_config())
        assert r.allgather_steps == 0 and r.allreduce_steps > 0

    def test_allgather_only_uses_allgather(self, store):
        r = train(store, baseline_allgather(negatives=1), 2,
                  config=tiny_config())
        assert r.allreduce_steps == 0 and r.allgather_steps > 0

    def test_allreduce_bytes_independent_of_sparsity(self, store):
        """Dense wire format: bytes per step = full matrix regardless."""
        r = train(store, baseline_allreduce(negatives=1), 2,
                  config=tiny_config(max_epochs=2))
        per_epoch = [log.bytes_communicated for log in r.logs]
        assert per_epoch[0] == per_epoch[1]

    def test_quantized_allgather_fewer_bytes(self, store):
        cfg = tiny_config(max_epochs=3, seed=5)
        plain = train(store, baseline_allgather(negatives=1), 4, config=cfg)
        quant = train(store, rs_1bit(negatives=1), 4, config=cfg)
        assert quant.bytes_total < plain.bytes_total / 2

    def test_rs_reduces_bytes(self, store):
        cfg = tiny_config(max_epochs=3, seed=5)
        plain = train(store, baseline_allgather(negatives=1), 4, config=cfg)
        selected = train(store, rs(negatives=1), 4, config=cfg)
        assert selected.bytes_total < plain.bytes_total

    def test_selection_sparsity_logged(self, store):
        r = train(store, rs(negatives=1), 4, config=tiny_config(max_epochs=3))
        assert any(log.selection_sparsity > 0 for log in r.logs)


class TestDrs:
    def test_probe_epochs_use_allgather(self, store):
        strat = StrategyConfig(comm_mode="dynamic", drs_probe_interval=3)
        r = train(store, strat, 4, config=tiny_config(max_epochs=4,
                                                      lr_patience=10))
        modes = r.series("comm_mode")
        assert modes[0] == "allreduce"
        assert modes[2] == "allgather"  # epoch 3 is the probe

    def test_switch_is_permanent_when_allgather_wins(self, store):
        # Make allgather overwhelmingly cheaper: huge latency penalty on
        # ring allreduce steps via a tiny-alpha network and RS sparsity.
        strat = StrategyConfig(comm_mode="dynamic", selection="random",
                               quantization_bits=1, drs_probe_interval=2)
        net = NetworkModel(alpha=1e-9, beta=1e-6, node_flops=1e12)
        r = train(store, strat, 4, config=tiny_config(max_epochs=8,
                                                      lr_patience=10),
                  network=net)
        modes = r.series("comm_mode")
        first_ag = modes.index("allgather")
        assert all(m == "allgather" for m in modes[first_ag:])

    def test_stays_allreduce_when_cheaper(self, store):
        # Dense gradients + expensive per-byte allgather: allreduce wins.
        strat = StrategyConfig(comm_mode="dynamic", drs_probe_interval=3,
                               negatives_sampled=4, negatives_used=4)
        net = NetworkModel(alpha=1e-9, beta=1e-6, node_flops=1e12)
        r = train(store, strat, 8,
                  config=tiny_config(max_epochs=7, lr_patience=10),
                  network=net)
        modes = r.series("comm_mode")
        # Probes at 3 and 6 but never switches permanently.
        assert modes[0] == "allreduce"
        assert modes[3] == "allreduce"  # epoch after the first probe
        assert r.allreduce_steps > r.allgather_steps


class TestRelationPartition:
    def test_rp_eliminates_relation_bytes(self, store):
        """With RP the only traffic is the entity matrix."""
        cfg = tiny_config(max_epochs=2, seed=7)
        plain = train(store, baseline_allgather(negatives=1), 4, config=cfg)
        rp = train(store, StrategyConfig(comm_mode="allgather",
                                         relation_partition=True),
                   4, config=cfg)
        assert rp.bytes_total < plain.bytes_total

    def test_rp_single_node_is_fine(self, store):
        r = train(store, StrategyConfig(relation_partition=True), 1,
                  config=tiny_config(max_epochs=2))
        assert r.epochs == 2


class TestErrorFeedback:
    def test_ef_runs_and_accumulates(self, store):
        from dataclasses import replace
        strat = replace(rs_1bit(negatives=1), error_feedback=True)
        r = train(store, strat, 2, config=tiny_config(max_epochs=3))
        assert r.epochs == 3
        assert np.isfinite(r.test_mrr)


class TestFullMethod:
    def test_full_strategy_trains(self, store):
        r = train(store, rs_1bit_rp_ss(negatives_sampled=5), 4,
                  config=tiny_config(max_epochs=4))
        assert r.epochs == 4
        assert np.isfinite(r.test_mrr)
        assert r.bytes_total > 0


class TestRelationPartitionSemantics:
    def test_rp_matches_baseline_averaging_scale(self, store):
        """With disjoint relations, the baseline's averaged relation
        gradient equals (owner gradient) / p; the RP path must apply that
        scale, not the raw local gradient (a p-times lr inflation).  Guard:
        RP and no-RP runs converge to comparable accuracy."""
        cfg = tiny_config(max_epochs=25, lr_patience=25, base_lr=5e-3)
        no_rp = train(store, rs_1bit(negatives=2), 4, config=cfg)
        with_rp = train(store,
                        StrategyConfig(comm_mode="allgather",
                                       selection="random",
                                       quantization_bits=1,
                                       relation_partition=True,
                                       negatives_sampled=2,
                                       negatives_used=2),
                        4, config=cfg)
        assert with_rp.test_mrr > no_rp.test_mrr - 0.15


class TestSsWarmupCurriculum:
    def test_ss_inactive_during_warmup(self, store):
        """During the warmup window the worker must train on uniform
        negatives (negatives_used per positive, no candidate forwards)."""
        from repro.models import ComplEx
        from repro.training.worker import Worker
        strat = StrategyConfig(sample_selection=True, negatives_sampled=10,
                               negatives_used=1)
        w = Worker(rank=0, shard=store.train, n_entities=store.n_entities,
                   strategy=strat, seed=0, store=store)
        w.start_epoch()
        model = ComplEx(store.n_entities, store.n_relations, 8, seed=0)
        warm = w.compute_step(model, 0, 64, ss_active=False)
        hot = w.compute_step(model, 0, 64, ss_active=True)
        # Same training-example count either way (1 negative per positive)
        assert warm.n_examples == hot.n_examples == 128
        # ...but the warmup step skips the candidate forward passes.
        assert warm.flops < hot.flops

    def test_trainer_activates_ss_after_warmup(self, store):
        """The low-lr collapse guard: with the curriculum, SS converges at
        least as well as plain uniform-negative training."""
        cfg = tiny_config(max_epochs=30, lr_patience=30, base_lr=5e-3,
                          lr_warmup_epochs=10)
        ss = StrategyConfig(comm_mode="allgather", sample_selection=True,
                            negatives_sampled=5, negatives_used=1)
        plain = StrategyConfig(comm_mode="allgather", negatives_sampled=1,
                               negatives_used=1)
        r_ss = train(store, ss, 2, config=cfg)
        r_plain = train(store, plain, 2, config=cfg)
        assert r_ss.test_mrr > r_plain.test_mrr - 0.1

"""Cross-module invariants of the distributed training stack."""

import numpy as np
import pytest

from repro import (
    TrainConfig,
    baseline_allgather,
    baseline_allreduce,
    make_tiny_kg,
    train,
)
from repro.training.strategy import StrategyConfig


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg(n_entities=100, n_relations=12, n_triples=1200)


def cfg(**overrides):
    defaults = dict(dim=8, batch_size=128, max_epochs=4, lr_patience=10,
                    eval_max_queries=30)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestLosslessPathEquivalence:
    def test_allreduce_and_allgather_learn_identically(self, store):
        """Both lossless wire formats sum the same gradients, so with the
        same seed the resulting models must be numerically identical —
        only the timing differs."""
        a = train(store, baseline_allreduce(negatives=2), 4, config=cfg())
        b = train(store, baseline_allgather(negatives=2), 4, config=cfg())
        assert a.series("loss") == b.series("loss")
        assert a.series("val_mrr") == b.series("val_mrr")
        assert a.test_mrr == b.test_mrr
        assert a.total_time != b.total_time  # timing model differs

    def test_allgather_algo_does_not_change_learning(self, store):
        from dataclasses import replace
        ring = baseline_allgather(negatives=2)
        bruck = replace(ring, allgather_algo="bruck")
        a = train(store, ring, 4, config=cfg())
        b = train(store, bruck, 4, config=cfg())
        assert a.test_mrr == b.test_mrr
        assert a.bytes_total == b.bytes_total

class TestTimingInvariance:
    def test_network_speed_does_not_change_learning(self, store):
        """The cost model must never leak into the math."""
        from repro.comm.network import NetworkModel
        slow = NetworkModel(alpha=1e-3, beta=1e-6)
        fast = NetworkModel(alpha=1e-9, beta=1e-12)
        a = train(store, baseline_allreduce(negatives=2), 4, config=cfg(),
                  network=slow)
        b = train(store, baseline_allreduce(negatives=2), 4, config=cfg(),
                  network=fast)
        assert a.test_mrr == b.test_mrr
        assert a.total_time > b.total_time

    def test_compute_mode_does_not_change_learning(self, store):
        a = train(store, baseline_allreduce(negatives=2), 2,
                  config=cfg(compute_time_mode="modeled"))
        b = train(store, baseline_allreduce(negatives=2), 2,
                  config=cfg(compute_time_mode="measured"))
        assert a.test_mrr == b.test_mrr


class TestCompressionSafety:
    @pytest.mark.parametrize("strategy", [
        StrategyConfig(comm_mode="allgather", selection="random",
                       quantization_bits=1),
        StrategyConfig(comm_mode="allgather", quantization_bits=2),
        StrategyConfig(comm_mode="allgather", selection="average"),
    ], ids=["rs+1bit", "2bit", "avg-threshold"])
    def test_lossy_paths_keep_model_finite(self, store, strategy):
        result = train(store, strategy, 4, config=cfg())
        assert np.isfinite(result.test_mrr)
        assert all(np.isfinite(log.loss) for log in result.logs)

    def test_single_node_ignores_compression(self, store):
        """With p=1 there is no communication, so lossy settings must be
        exactly equivalent to the baseline."""
        lossy = StrategyConfig(comm_mode="allgather", selection="random",
                               quantization_bits=1, negatives_sampled=2,
                               negatives_used=2)
        plain = baseline_allgather(negatives=2)
        a = train(store, lossy, 1, config=cfg())
        b = train(store, plain, 1, config=cfg())
        assert a.test_mrr == b.test_mrr


class TestBytesAccounting:
    def test_bytes_total_equals_sum_of_epoch_bytes(self, store):
        r = train(store, baseline_allgather(negatives=2), 4, config=cfg())
        assert r.bytes_total == sum(log.bytes_communicated for log in r.logs)

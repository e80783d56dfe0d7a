"""Integration tests: real training runs exercising the whole stack."""

import numpy as np
import pytest

from repro import (ComplEx, TrainConfig, baseline_allreduce, evaluate_ranking,
                   train)
from repro.kg.datasets import generate_latent_kg, load_store, save_store
from repro.training import PRESETS


@pytest.fixture(scope="module")
def store():
    # Slightly bigger than the unit-test store so learning is visible.
    return generate_latent_kg(120, 10, 2000, seed=42)


def config(**overrides):
    defaults = dict(dim=12, batch_size=128, max_epochs=45, lr_patience=12,
                    base_lr=0.01, eval_max_queries=60)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestLearning:
    def test_training_beats_untrained_model(self, store):
        untrained = ComplEx(store.n_entities, store.n_relations, 12,
                            seed=store.n_entities)
        base = evaluate_ranking(untrained, store.test, store).mrr
        result = train(store, baseline_allreduce(negatives=4), 1,
                       config=config())
        assert result.test_mrr > base * 3

    def test_validation_mrr_improves(self, store):
        result = train(store, baseline_allreduce(negatives=4), 1,
                       config=config())
        curve = result.series("val_mrr")
        assert max(curve) > curve[0] * 2

    def test_all_presets_learn(self, store):
        """Every strategy combination must still converge to something
        useful — lossy compression may cost accuracy, not break training."""
        untrained = ComplEx(store.n_entities, store.n_relations, 12,
                            seed=store.n_entities)
        floor = evaluate_ranking(untrained, store.test, store).mrr * 2
        for name, maker in PRESETS.items():
            # Hardest-negative selection has a slow warmup phase; give the
            # presets enough epochs to get past it.
            result = train(store, maker(), 2,
                           config=config(max_epochs=40, lr_patience=15))
            assert result.test_mrr > floor, \
                f"{name} failed to learn: {result.test_mrr:.3f} <= {floor:.3f}"


class TestDistributedConsistency:
    def test_more_nodes_fewer_steps_same_learning_direction(self, store):
        r1 = train(store, baseline_allreduce(negatives=2), 1, config=config())
        r4 = train(store, baseline_allreduce(negatives=2), 4, config=config())
        # Both learn; four nodes do fewer optimisation steps per epoch.
        assert r4.test_mrr > 0.05 and r1.test_mrr > 0.05

    def test_epoch_time_decreases_with_nodes(self, store):
        cfg = config(max_epochs=3, lr_patience=10)
        t1 = train(store, baseline_allreduce(negatives=2), 1, config=cfg)
        t4 = train(store, baseline_allreduce(negatives=2), 4, config=cfg)
        mean = lambda r: np.mean(r.series("compute_time"))
        assert mean(t4) < mean(t1)

    def test_relation_partition_converges(self, store):
        from repro.training import rs_1bit_rp_ss
        result = train(store, rs_1bit_rp_ss(negatives_sampled=5), 4,
                       config=config())
        assert result.test_mrr > 0.05


class TestPersistenceRoundtrip:
    def test_saved_dataset_trains_identically(self, store, tmp_path):
        path = str(tmp_path / "kg.npz")
        save_store(store, path)
        reloaded = load_store(path)
        cfg = config(max_epochs=4, lr_patience=10)
        a = train(store, baseline_allreduce(negatives=2), 2, config=cfg)
        b = train(reloaded, baseline_allreduce(negatives=2), 2, config=cfg)
        assert a.series("loss") == b.series("loss")
        assert a.test_mrr == b.test_mrr


class TestTimingSanity:
    def test_comm_time_increases_with_nodes_for_allgather(self, store):
        cfg = config(max_epochs=2, lr_patience=10)
        from repro import baseline_allgather
        times = []
        for p in (2, 4, 8):
            r = train(store, baseline_allgather(negatives=2), p, config=cfg)
            times.append(np.mean(r.series("comm_time")))
        assert times[-1] > times[0]

    def test_total_time_is_sum_of_epochs(self, store):
        r = train(store, baseline_allreduce(negatives=2), 2,
                  config=config(max_epochs=3, lr_patience=10, time_scale=1.0))
        assert r.total_time == pytest.approx(sum(r.series("epoch_time")),
                                             rel=1e-6)


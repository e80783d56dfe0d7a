"""Tests for the elastic training supervisor (rank-loss shrink/regrow).

The expensive six-epoch elastic runs are module-scoped fixtures shared by
many assertions; everything here runs on the tiny synthetic KG.
"""

import json
from dataclasses import replace

import pytest

from repro import DistributedTrainer, FaultPlan, TrainConfig
from repro.comm.faults import CollectiveFaultError, RankLossError
from repro.comm.network import NetworkModel
from repro.kg.datasets import make_tiny_kg
from repro.training import (
    CheckpointWorldMismatchError,
    ElasticSupervisor,
    train,
)
from repro.training.checkpoint import (capture_state, list_checkpoints,
                                       write_checkpoint)
from repro.training.strategy import baseline_allreduce, drs_1bit_rp_ss

PLAN = FaultPlan(seed=7, rank_loss=((2, 3),))


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg()


def config(**overrides):
    defaults = dict(dim=8, batch_size=128, max_epochs=6, lr_patience=6,
                    eval_max_queries=30, seed=20220829)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def elastic_log(result) -> list[dict]:
    """The ``elastic`` records of a run's decision log, oldest first."""
    return [d for d in result.decisions if d["mechanism"] == "elastic"]


def elastic_run(store, allow_regrow=False, **overrides):
    supervisor = ElasticSupervisor(store, drs_1bit_rp_ss(), 4,
                                   config=config(**overrides), faults=PLAN,
                                   max_restarts=2, allow_regrow=allow_regrow)
    result = supervisor.run()
    return supervisor, result


@pytest.fixture(scope="module")
def shrunk(store):
    return elastic_run(store)


@pytest.fixture(scope="module")
def shrunk_again(store):
    return elastic_run(store)


@pytest.fixture(scope="module")
def regrown(store):
    return elastic_run(store, allow_regrow=True)


@pytest.fixture(scope="module")
def uninterrupted(store):
    return train(store, drs_1bit_rp_ss(), 4, config=config())


# ---------------------------------------------------------------------------
# Without the supervisor: rank loss is fatal, loud and checkpointed
# ---------------------------------------------------------------------------

class TestRankLossWithoutSupervisor:
    def test_raises_rank_loss_error_with_context(self, store):
        trainer = DistributedTrainer(store, drs_1bit_rp_ss(), 4,
                                     config=config(), faults=PLAN)
        with pytest.raises(RankLossError, match="--elastic") as err:
            trainer.run()
        assert err.value.rank == 2
        assert err.value.local_rank == 2
        assert err.value.epoch == 3
        assert err.value.op == "rank_loss"
        # Subclass of the fault taxonomy, so existing fail-fast handling
        # (CLI exit codes, failure checkpoints) applies unchanged.
        assert isinstance(err.value, CollectiveFaultError)

    def test_flushes_failure_checkpoint(self, store, tmp_path):
        trainer = DistributedTrainer(
            store, drs_1bit_rp_ss(), 4, faults=PLAN,
            config=config(checkpoint_dir=str(tmp_path)))
        with pytest.raises(RankLossError):
            trainer.run()
        found = list_checkpoints(tmp_path)
        assert found and found[-1][1].name == "failure-epoch-0002"

    def test_loss_epoch_never_starts(self, store):
        trainer = DistributedTrainer(store, drs_1bit_rp_ss(), 4,
                                     config=config(), faults=PLAN)
        with pytest.raises(RankLossError):
            trainer.run()
        # The loss fires at the top of epoch 3: exactly 2 epochs trained.
        assert trainer._completed_epochs == 2
        assert len(trainer.result.logs) == 2


# ---------------------------------------------------------------------------
# Shrink: complete on the survivors
# ---------------------------------------------------------------------------

class TestShrink:
    def test_completes_on_survivors(self, shrunk):
        supervisor, result = shrunk
        assert result.epochs == 6
        assert result.restarts == 1
        assert result.world_lineage == [4, 3]
        assert supervisor.trainer.n_nodes == 3
        assert supervisor.trainer.global_ranks == (0, 1, 3)

    def test_recovery_log(self, shrunk):
        _, result = shrunk
        (event,) = elastic_log(result)
        assert (event["choice"], event["alternative"]) == ("shrink", "abort")
        inputs = event["inputs"]
        assert inputs["rank"] == 2 and event["at"] == 3
        assert inputs["world_before"] == [0, 1, 2, 3]
        assert inputs["world_after"] == [0, 1, 3]
        assert inputs["resume_epoch"] == 3
        assert inputs["overhead"] > 0.0

    def test_recovery_overhead_charged(self, shrunk):
        _, result = shrunk
        assert 0.0 < result.recovery_time < result.total_time

    def test_epoch_logs_record_world_size(self, shrunk):
        _, result = shrunk
        worlds = [log.world_size for log in result.logs]
        assert worlds == [4, 4, 3, 3, 3, 3]

    def test_repartition_reruns_prefix_sum_split(self, shrunk):
        supervisor, _ = shrunk
        part = supervisor.trainer.partition
        assert part.scheme == "relation"
        assert part.n_parts == 3
        assert part.relations_disjoint()
        assert sum(len(p) for p in part.parts) == len(
            supervisor.store.train)

    def test_no_relation_bytes_ever_communicated(self, shrunk):
        """RP's invariant survives the shrink: zero relation-matrix ops."""
        supervisor, _ = shrunk
        by_op = supervisor.trainer.cluster.stats.by_op
        assert by_op, "expected entity traffic to be recorded"
        relation_ops = [op for op in by_op if op.startswith("relation_")]
        assert relation_ops == []

    def test_max_restarts_exhaustion_reraises(self, store):
        with pytest.raises(RankLossError, match="rank 2"):
            ElasticSupervisor(store, drs_1bit_rp_ss(), 4, config=config(),
                              faults=PLAN, max_restarts=0).run()

    def test_single_rank_world_cannot_shrink(self, store):
        plan = FaultPlan(seed=7, rank_loss=((0, 1),))
        with pytest.raises(RankLossError):
            ElasticSupervisor(store, baseline_allreduce(), 1,
                              config=config(), faults=plan,
                              max_restarts=3).run()


# ---------------------------------------------------------------------------
# Determinism: the whole trajectory is a function of (seed, fault plan)
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_bitwise_identical_embeddings(self, shrunk, shrunk_again):
        a, b = shrunk[0].trainer, shrunk_again[0].trainer
        assert a.model.entity_emb.tobytes() == b.model.entity_emb.tobytes()
        assert (a.model.relation_emb.tobytes()
                == b.model.relation_emb.tobytes())

    def test_identical_recovery_logs_and_trajectory(self, shrunk,
                                                    shrunk_again):
        ra, rb = shrunk[1], shrunk_again[1]
        assert json.dumps(ra.decisions) == json.dumps(rb.decisions)
        assert ra.logs == rb.logs
        assert ra.total_time == rb.total_time
        assert ra.bytes_total == rb.bytes_total


# ---------------------------------------------------------------------------
# Convergence: elastic recovery must not meaningfully hurt model quality
# ---------------------------------------------------------------------------

class TestConvergence:
    @pytest.mark.parametrize("fixture", ["shrunk", "regrown"])
    def test_final_mrr_within_tolerance(self, fixture, request,
                                        uninterrupted):
        """DRS+RP+1-bit: elastic final filtered MRR within 0.02 of the
        uninterrupted full-world run."""
        _, result = request.getfixturevalue(fixture)
        assert result.test_mrr == pytest.approx(uninterrupted.test_mrr,
                                                abs=0.02)
        assert result.final_val_mrr == pytest.approx(
            uninterrupted.final_val_mrr, abs=0.02)


# ---------------------------------------------------------------------------
# Regrow: the lost rank rejoins at the next boundary
# ---------------------------------------------------------------------------

class TestRegrow:
    def test_lineage_and_log(self, regrown):
        supervisor, result = regrown
        assert result.world_lineage == [4, 3, 4]
        events = elastic_log(result)
        assert [e["choice"] for e in events] == ["shrink", "regrow"]
        regrow = events[1]
        assert regrow["alternative"] == "stay"
        assert regrow["inputs"]["rank"] == 2
        assert regrow["inputs"]["world_after"] == [0, 1, 2, 3]
        assert regrow["inputs"]["rollback_epochs"] == 0
        assert supervisor.trainer.n_nodes == 4

    def test_regrow_happens_at_next_boundary(self, regrown):
        _, result = regrown
        shrink, regrow = elastic_log(result)
        assert regrow["at"] == shrink["inputs"]["resume_epoch"]
        assert regrow["inputs"]["resume_epoch"] == regrow["at"] + 1
        worlds = [log.world_size for log in result.logs]
        assert worlds == [4, 4, 3, 4, 4, 4]

    def test_regrow_consumes_no_restart_budget(self, regrown):
        _, result = regrown
        assert result.restarts == 1

    def test_rejoined_worker_gets_fresh_stream(self, regrown):
        from repro.training.rng import rejoin_rng, worker_rng
        # The re-admitted rank must not be on its original (seed, rank)
        # stream: that one was rolled back mid-flight with the survivors.
        fresh = worker_rng(20220829, 2)
        rejoined = rejoin_rng(20220829, 2, 4)
        assert (fresh.bit_generator.state
                != rejoined.bit_generator.state)

    def test_determinism_with_regrow(self, store, regrown):
        _, result = regrown
        again = ElasticSupervisor(store, drs_1bit_rp_ss(), 4,
                                  config=config(), faults=PLAN,
                                  max_restarts=2, allow_regrow=True).run()
        assert json.dumps(again.decisions) == json.dumps(result.decisions)
        assert again.logs == result.logs


# ---------------------------------------------------------------------------
# The decision log across membership changes
# ---------------------------------------------------------------------------

#: Two ranks per node on a cheap on-node link: the two-level stack wins.
TWO_LEVEL = NetworkModel(alpha=5e-6, beta=1.25e-10, ranks_per_node=2,
                         intra=NetworkModel(alpha=0.3e-6, beta=1e-11))


class TestDecisionLog:
    def test_auto_pick_is_logged_and_redone_by_the_shrunk_world(self,
                                                                 store):
        strategy = replace(drs_1bit_rp_ss(), collective="auto")
        fresh = DistributedTrainer(store, strategy, 4, config=config(),
                                   network=TWO_LEVEL)
        (resolve,) = fresh.result.decisions
        assert (resolve["mechanism"], resolve["at"]) == ("drs.resolve", 0)
        assert resolve["choice"] == fresh.exchange.drs.default_mode
        assert resolve["choice"] == "hierarchical"
        assert resolve["alternative"] == "allreduce"
        costs = resolve["inputs"]
        assert costs["hierarchical"] < costs["allreduce"]
        assert costs["world"] == 4

        supervisor = ElasticSupervisor(store, strategy, 4, config=config(),
                                       network=TWO_LEVEL, faults=PLAN)
        result = supervisor.run()
        log = [(d["mechanism"], d["at"]) for d in result.decisions
               if d["mechanism"] != "drs.probe"]
        assert log == [("drs.resolve", 0), ("elastic", 3),
                       ("drs.resolve", 3)]
        again = result.decisions[2]
        assert again["inputs"]["world"] == 3
        assert again["choice"] == supervisor.trainer.exchange.drs.default_mode

    def test_a_rollback_keeps_the_records_before_it(self, store):
        """The second loss rolls the shrunk world back to its pre-epoch
        snapshot, which already holds the first shrink."""
        plan = FaultPlan(seed=7, rank_loss=((2, 3), (1, 3)))
        result = ElasticSupervisor(store, drs_1bit_rp_ss(), 4,
                                   config=config(), faults=plan,
                                   max_restarts=2).run()
        assert [(d["at"], d["inputs"]["rank"], d["inputs"]["world_after"])
                for d in elastic_log(result)] == [(3, 1, [0, 2, 3]),
                                                  (3, 2, [0, 3])]


# ---------------------------------------------------------------------------
# World-size lineage in the checkpoint layer
# ---------------------------------------------------------------------------

class TestWorldMismatch:
    def test_plain_restore_across_worlds_is_refused(self, store, tmp_path):
        donor = DistributedTrainer(store, drs_1bit_rp_ss(), 4,
                                   config=config())
        write_checkpoint(capture_state(donor), tmp_path / "snap")
        other = DistributedTrainer(store, drs_1bit_rp_ss(), 3,
                                   config=config())
        with pytest.raises(CheckpointWorldMismatchError, match="--elastic"):
            other.restore(tmp_path / "snap")

    def test_snapshot_records_world(self, store):
        trainer = DistributedTrainer(store, drs_1bit_rp_ss(), 4,
                                     config=config())
        state = capture_state(trainer)
        assert state.world_size == 4
        assert state.world_lineage == (4,)


# ---------------------------------------------------------------------------
# fallback-dense x relation partition (satellite): degradation on the
# entity path must not leak relation traffic or precision
# ---------------------------------------------------------------------------

class TestFallbackDenseWithRelationPartition:
    def test_relation_rows_stay_local_after_fallback(self, store):
        plan = FaultPlan(seed=3, drop_prob=0.45, max_retries=1,
                         policy="fallback-dense")
        trainer = DistributedTrainer(store, drs_1bit_rp_ss(), 3,
                                     config=config(max_epochs=3),
                                     faults=plan)
        result = trainer.run()
        assert result.comm_fallbacks > 0, "plan must trigger the fallback"
        by_op = trainer.cluster.stats.by_op
        fallback_ops = [op for op in by_op if "fallback_dense" in op]
        assert fallback_ops, "fallback traffic must be recorded"
        # Every degraded resend belongs to the entity matrix; the relation
        # matrix stays partition-local, uncommunicated, full precision.
        assert all(op.startswith("entity_") for op in fallback_ops)
        assert not any(op.startswith("relation_") for op in by_op)

    def test_without_rp_relation_fallback_is_possible(self, store):
        """Contrast: turning RP off puts relation traffic on the wire."""
        plan = FaultPlan(seed=3, drop_prob=0.45, max_retries=1,
                         policy="fallback-dense")
        strategy = replace(drs_1bit_rp_ss(), relation_partition=False)
        trainer = DistributedTrainer(store, strategy, 3,
                                     config=config(max_epochs=3),
                                     faults=plan)
        trainer.run()
        assert any(op.startswith("relation_")
                   for op in trainer.cluster.stats.by_op)

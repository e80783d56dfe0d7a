"""Unit tests for the fault-injection & heterogeneity layer."""

import numpy as np
import pytest

from repro.comm.collectives import (allgather_sparse, allgatherv_bytes,
                                    allreduce_bytes)
from repro.comm.faults import (
    FAULT_POLICIES,
    CollectiveFaultError,
    CollectiveGaveUp,
    FaultInjector,
    FaultPlan,
)
from repro.comm.network import NetworkModel
from repro.comm.simulator import Cluster, CommRecord, CommStats
from repro.comm.sparse import SparseRows
from repro.comm.tracing import ClusterTracer

NET = NetworkModel(alpha=1e-6, beta=1e-9)


class TestFaultPlanValidation:
    def test_defaults_are_null(self):
        assert FaultPlan().is_null

    def test_probabilities_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.0)
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(corruption_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=0.6, corruption_prob=0.5)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(policy="explode")
        for policy in FAULT_POLICIES:
            FaultPlan(policy=policy)

    def test_bad_stragglers_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(compute_slowdown=((0, -1.0),))
        with pytest.raises(ValueError):
            FaultPlan(compute_slowdown=((-1, 2.0),))
        with pytest.raises(ValueError):
            FaultPlan(compute_slowdown=((0, 2.0), (0, 3.0)))

    def test_retry_and_backoff_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(max_retries=0)
        with pytest.raises(ValueError):
            FaultPlan(backoff_factor=0.5)
        with pytest.raises(ValueError):
            FaultPlan(alpha_jitter=-0.1)

    def test_unit_slowdown_is_null(self):
        assert FaultPlan(compute_slowdown=((1, 1.0),)).is_null
        assert not FaultPlan(compute_slowdown=((1, 2.0),)).is_null
        assert not FaultPlan(drop_prob=0.1).is_null

    def test_plan_is_hashable(self):
        """Plans key the bench run cache, so they must hash."""
        a = FaultPlan(drop_prob=0.1, compute_slowdown=((0, 2.0),))
        b = FaultPlan(drop_prob=0.1, compute_slowdown=((0, 2.0),))
        assert hash(a) == hash(b) and a == b


class TestFaultPlanParse:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "drop=0.05,corrupt=0.01,jitter=0.2,straggler=2:3.0,"
            "straggler=0:1.5,policy=fallback-dense,seed=9,retries=4,"
            "backoff=1e-3")
        assert plan.drop_prob == 0.05
        assert plan.corruption_prob == 0.01
        assert plan.alpha_jitter == plan.beta_jitter == 0.2
        assert plan.compute_slowdown == ((0, 1.5), (2, 3.0))
        assert plan.policy == "fallback-dense"
        assert plan.seed == 9
        assert plan.max_retries == 4
        assert plan.backoff_base == 1e-3

    def test_separate_jitter_keys(self):
        plan = FaultPlan.parse("alpha_jitter=0.3,beta_jitter=0.1")
        assert plan.alpha_jitter == 0.3 and plan.beta_jitter == 0.1

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("drop")
        with pytest.raises(ValueError):
            FaultPlan.parse("frobnicate=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("straggler=2")

    def test_with_stragglers_helper(self):
        plan = FaultPlan.with_stragglers({3: 2.0, 1: 4.0}, drop_prob=0.1)
        assert plan.compute_slowdown == ((1, 4.0), (3, 2.0))
        assert plan.drop_prob == 0.1

    def test_describe_mentions_active_knobs(self):
        text = FaultPlan.parse("drop=0.05,straggler=2:3.0").describe()
        assert "drop=0.05" in text and "straggler[2]=3x" in text


class TestHeterogeneity:
    def test_straggler_scales_compute(self):
        plan = FaultPlan.with_stragglers({1: 3.0})
        cluster = Cluster(4, NET, faults=plan)
        for rank in range(4):
            cluster.advance_compute(rank, 1.0)
        assert cluster.clocks[1] == pytest.approx(3.0)
        assert cluster.clocks[0] == pytest.approx(1.0)

    def test_straggler_scales_advance_all(self):
        plan = FaultPlan.with_stragglers({0: 2.0})
        cluster = Cluster(2, NET, faults=plan)
        cluster.advance_compute_all(1.0)
        assert list(cluster.clocks) == pytest.approx([2.0, 1.0])

    def test_straggler_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Cluster(2, NET, faults=FaultPlan.with_stragglers({5: 2.0}))

    def test_null_plan_attaches_no_injector(self):
        assert Cluster(2, NET, faults=FaultPlan()).faults is None
        assert Cluster(2, NET, faults=None).faults is None

    def test_straggler_skew_reflects_imbalance(self):
        plan = FaultPlan.with_stragglers({1: 3.0})
        cluster = Cluster(2, NET, faults=plan)
        cluster.advance_compute_all(1.0)
        cluster.charge_collective(CommRecord("sync", 0, 0, 0.0))
        # Rank 0 waited 2 of the 3 elapsed seconds.
        assert cluster.straggler_skew == pytest.approx(2.0 / 3.0)

    def test_skew_zero_when_balanced(self):
        cluster = Cluster(4, NET)
        cluster.advance_compute_all(1.0)
        cluster.charge_collective(CommRecord("sync", 0, 0, 0.0))
        assert cluster.straggler_skew == 0.0


class TestDropsAndRetries:
    def test_drops_charge_extra_time_and_record_retries(self):
        base = Cluster(4, NET)
        allreduce_bytes(base, 1 << 16)
        faulty = Cluster(4, NET,
                         faults=FaultPlan(drop_prob=0.5, seed=1))
        allreduce_bytes(faulty, 1 << 16)
        assert faulty.stats.retries > 0
        assert faulty.elapsed > base.elapsed
        assert faulty.records[-1].retries == faulty.stats.retries

    def test_retry_policy_never_gives_up(self):
        plan = FaultPlan(drop_prob=0.9, max_retries=1, policy="retry", seed=3)
        cluster = Cluster(8, NET, faults=plan)
        allreduce_bytes(cluster, 1 << 20)  # must complete, not raise
        assert cluster.stats.retries > 0

    def test_fail_fast_raises_clear_error(self):
        plan = FaultPlan(drop_prob=0.9, max_retries=1, policy="fail-fast",
                         seed=3)
        cluster = Cluster(8, NET, faults=plan)
        with pytest.raises(CollectiveFaultError,
                           match=r"after 1 retries.*fail-fast"):
            allreduce_bytes(cluster, 1 << 20)

    def test_fallback_dense_signals_and_charges_aborted_record(self):
        plan = FaultPlan(drop_prob=0.9, max_retries=1,
                         policy="fallback-dense", seed=3)
        cluster = Cluster(8, NET, faults=plan)
        with pytest.raises(CollectiveGaveUp):
            allgatherv_bytes(cluster, [1 << 12] * 8)
        assert cluster.records[-1].op.endswith("_aborted")
        assert cluster.records[-1].time > 0
        assert cluster.faults.counters.giveups == 1

    def test_reliable_context_overrides_giveup(self):
        plan = FaultPlan(drop_prob=0.9, max_retries=1, policy="fail-fast",
                         seed=3)
        cluster = Cluster(8, NET, faults=plan)
        with cluster.faults.reliable():
            allreduce_bytes(cluster, 1 << 20)  # must not raise
        assert cluster.faults._reliable_depth == 0

    def test_corruption_counts_separately_from_drops(self):
        plan = FaultPlan(corruption_prob=0.4, seed=5)
        cluster = Cluster(8, NET, faults=plan)
        allreduce_bytes(cluster, 1 << 16)
        counters = cluster.faults.counters
        assert counters.corruptions > 0
        assert counters.drops == 0

    def test_comm_stats_aggregate_retries(self):
        stats = CommStats()
        stats.add(CommRecord("op", 10, 1, 0.5, retries=3))
        stats.add(CommRecord("op", 10, 1, 0.5))
        assert stats.retries == 3


class TestJitter:
    def test_jitter_perturbs_time_but_not_data(self):
        plan = FaultPlan(alpha_jitter=0.5, beta_jitter=0.5, seed=2)
        payloads = [SparseRows(np.arange(4), np.full((4, 4), float(i),
                                                     np.float32), 4)
                    for i in range(3)]
        clean = Cluster(3, NET)
        noisy = Cluster(3, NET, faults=plan)
        out_clean = allgather_sparse(clean, payloads)
        out_noisy = allgather_sparse(noisy, payloads)
        np.testing.assert_array_equal(out_clean.values, out_noisy.values)
        assert noisy.elapsed != clean.elapsed
        assert noisy.stats.retries == 0

    def test_jitter_is_deterministic_per_seed(self):
        times = []
        for _ in range(2):
            cluster = Cluster(4, NET,
                              faults=FaultPlan(beta_jitter=0.3, seed=11))
            allreduce_bytes(cluster, 1 << 18)
            times.append(cluster.elapsed)
        assert times[0] == times[1]


class TestTracingIntegration:
    def test_trace_records_retries(self):
        plan = FaultPlan(drop_prob=0.5, seed=1)
        cluster = Cluster(4, NET, faults=plan)
        with ClusterTracer(cluster) as tracer:
            allreduce_bytes(cluster, 256)
        event = tracer.comm_events()[0]
        assert event.args.get("retries", 0) == cluster.stats.retries
        assert event.args["retries"] > 0


class TestNetworkSplit:
    def test_split_time_partitions_exactly(self):
        lat, bw = NET.split_time(1.0, 100)
        assert lat == pytest.approx(100 * NET.alpha)
        assert lat + bw == pytest.approx(1.0)

    def test_split_time_clamps_latency(self):
        lat, bw = NET.split_time(1e-9, 1_000_000)
        assert lat == pytest.approx(1e-9)
        assert bw == 0.0

    def test_split_time_rejects_negative(self):
        with pytest.raises(ValueError):
            NET.split_time(-1.0, 1)


class TestInjectorDeterminism:
    def test_same_seed_same_trajectory(self):
        def run():
            inj = FaultInjector(FaultPlan(drop_prob=0.3, seed=17), 4)
            times = [inj.collective_time("op", 1e-3, 10, NET)
                     for _ in range(20)]
            return times, inj.counters


        (t1, c1), (t2, c2) = run(), run()
        assert t1 == t2
        assert c1 == c2


class TestFaultPlanParseMatrix:
    """Every key of the --faults mini-language, valid and invalid forms."""

    @pytest.mark.parametrize("spec, attr, expected", [
        ("seed=7", "seed", 7),
        ("drop=0.1", "drop_prob", 0.1),
        ("corrupt=0.2", "corruption_prob", 0.2),
        ("alpha_jitter=0.4", "alpha_jitter", 0.4),
        ("beta_jitter=0.5", "beta_jitter", 0.5),
        ("straggler=1:2.0", "compute_slowdown", ((1, 2.0),)),
        ("rankloss=2:3", "rank_loss", ((2, 3),)),
        ("retries=5", "max_retries", 5),
        ("backoff=1e-3", "backoff_base", 1e-3),
        ("policy=fail-fast", "policy", "fail-fast"),
    ])
    def test_every_valid_key_parses(self, spec, attr, expected):
        assert getattr(FaultPlan.parse(spec), attr) == expected

    def test_jitter_shorthand_sets_both_sigmas(self):
        plan = FaultPlan.parse("jitter=0.3")
        assert plan.alpha_jitter == plan.beta_jitter == 0.3

    def test_whitespace_and_empty_items_tolerated(self):
        plan = FaultPlan.parse(" drop = 0.1 , , seed = 3 ,")
        assert plan.drop_prob == 0.1 and plan.seed == 3

    def test_unknown_key_error_names_the_key(self):
        with pytest.raises(ValueError, match="frobnicate"):
            FaultPlan.parse("frobnicate=1")

    def test_missing_equals_error_names_the_entry(self):
        with pytest.raises(ValueError, match="expected key=value"):
            FaultPlan.parse("drop=0.1,oops")

    @pytest.mark.parametrize("spec", [
        "drop=0.1,drop=0.2",
        "seed=1,seed=2",
        "policy=retry,policy=fail-fast",
        "jitter=0.1,jitter=0.2",
        # `jitter` is shorthand for both sigmas, so it collides with each
        # explicit key...
        "jitter=0.1,alpha_jitter=0.2",
        "beta_jitter=0.2,jitter=0.1",
    ])
    def test_duplicate_keys_rejected(self, spec):
        with pytest.raises(ValueError, match="duplicate|jitter"):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("spec", [
        # ...but the two explicit sigmas together are fine, and the
        # repeatable keys repeat.
        "alpha_jitter=0.3,beta_jitter=0.1",
        "straggler=0:2.0,straggler=1:3.0",
        "rankloss=0:2,rankloss=1:3",
    ])
    def test_legitimate_combinations_accepted(self, spec):
        FaultPlan.parse(spec)

    @pytest.mark.parametrize("spec, message", [
        ("straggler=2", "rank:factor"),
        ("rankloss=2", "rank:epoch"),
    ])
    def test_bad_pair_forms_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("spec", [
        "straggler=x:2.0", "rankloss=2:y", "drop=lots", "retries=few",
    ])
    def test_non_numeric_values_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_rankloss_events_sorted(self):
        plan = FaultPlan.parse("rankloss=3:5,rankloss=1:2")
        assert plan.rank_loss == ((1, 2), (3, 5))

    def test_parsed_constraint_violations_still_rejected(self):
        """parse() routes through __post_init__, so semantic checks hold."""
        with pytest.raises(ValueError, match="epoch must be >= 1"):
            FaultPlan.parse("rankloss=2:0")
        with pytest.raises(ValueError, match="drop_prob"):
            FaultPlan.parse("drop=1.0")


class TestRankLossPlan:
    def test_validation_rejects_bad_events(self):
        with pytest.raises(ValueError, match="rank must be >= 0"):
            FaultPlan(rank_loss=((-1, 3),))
        with pytest.raises(ValueError, match="epoch must be >= 1"):
            FaultPlan(rank_loss=((2, 0),))
        with pytest.raises(ValueError, match="duplicate rank_loss"):
            FaultPlan(rank_loss=((2, 3), (2, 3)))
        with pytest.raises(ValueError, match="rank, epoch"):
            FaultPlan(rank_loss=((1, 2, 3),))

    def test_rank_loss_is_not_null(self):
        assert not FaultPlan(rank_loss=((2, 3),)).is_null

    def test_describe_mentions_rankloss(self):
        assert "rankloss[2]@3" in FaultPlan(rank_loss=((2, 3),)).describe()

    def test_same_rank_may_die_in_different_worlds(self):
        """One (rank, epoch) pair per event, but a rank can have several
        scheduled deaths (relevant when regrow re-admits it)."""
        FaultPlan(rank_loss=((2, 3), (2, 7)))


class TestRankLossInjector:
    def test_exact_epoch_matching(self):
        inj = FaultInjector(FaultPlan(rank_loss=((2, 3),)), n_ranks=4)
        assert inj.lost_ranks(2) == []
        assert inj.lost_ranks(3) == [2]
        assert inj.lost_ranks(4) == []

    def test_events_follow_global_ranks_through_renumbering(self):
        # Shrunk world (0, 1, 3): the event naming the departed global
        # rank 2 lies dormant; an event for global rank 3 fires at its
        # *local* index 2.
        plan = FaultPlan(rank_loss=((2, 3), (3, 5)))
        inj = FaultInjector(plan, n_ranks=3, global_ranks=(0, 1, 3))
        assert inj.lost_ranks(3) == []
        assert inj.lost_ranks(5) == [2]

    def test_multiple_losses_same_epoch_all_reported(self):
        inj = FaultInjector(FaultPlan(rank_loss=((1, 2), (3, 2))), n_ranks=4)
        assert inj.lost_ranks(2) == [1, 3]

    def test_global_ranks_validated(self):
        with pytest.raises(ValueError, match="must name 3 members"):
            FaultInjector(FaultPlan(), n_ranks=3, global_ranks=(0, 1))
        with pytest.raises(ValueError, match="duplicates"):
            FaultInjector(FaultPlan(), n_ranks=3, global_ranks=(0, 1, 1))

    def test_identity_world_still_checks_straggler_range(self):
        # Explicit global_ranks suspends the straggler range check: a
        # plan can name ranks absent from the current (shrunk) world.
        plan = FaultPlan(compute_slowdown=((5, 2.0),))
        with pytest.raises(ValueError, match="out of range"):
            FaultInjector(plan, n_ranks=4)
        inj = FaultInjector(plan, n_ranks=3, global_ranks=(0, 1, 3))
        assert inj.compute_scale(0) == 1.0

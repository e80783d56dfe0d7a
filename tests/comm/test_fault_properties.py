"""Property tests locking in the fault layer's contracts.

Three guarantees the chaos layer must keep (ISSUE 1):

a. a :class:`FaultPlan` with every probability at zero is byte-identical
   to running with no plan at all — same data, same virtual clocks;
b. retry counts are pathwise monotone in the drop probability for a fixed
   seed;
c. the same fault seed yields an identical training trajectory
   run-to-run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import (
    allgather_sparse,
    allgatherv_bytes,
    allreduce_bytes,
)
from repro.comm.faults import FaultInjector, FaultPlan
from repro.comm.network import NetworkModel
from repro.comm.simulator import Cluster
from repro.comm.sparse import SparseRows
from tests._fixtures import sparse_to_dense

NET = NetworkModel(alpha=1e-6, beta=1e-9)


def _random_sparse_parts(rng, p, n_rows, dim):
    parts = []
    for _ in range(p):
        nnz = int(rng.integers(0, n_rows + 1))
        idx = np.sort(rng.choice(n_rows, size=nnz, replace=False))
        parts.append(SparseRows(idx, rng.normal(size=(nnz, dim))
                                .astype(np.float32), n_rows))
    return parts


class TestZeroFaultByteIdentity:
    """(a) all probabilities zero => byte-identical to the seed behaviour."""

    @given(st.integers(1, 8), st.integers(0, 1 << 16), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_collective_sequence_identical(self, p, nbytes, fault_seed):
        plans = [None, FaultPlan(seed=fault_seed),
                 FaultPlan(seed=fault_seed,
                           compute_slowdown=tuple((r, 1.0) for r in range(p)))]
        clocks, stats = [], []
        for plan in plans:
            cluster = Cluster(p, NET, faults=plan)
            cluster.advance_compute(0, 1e-3)
            allreduce_bytes(cluster, nbytes)
            allgatherv_bytes(cluster, [nbytes] * p)
            cluster.advance_compute_all(1e-4)
            clocks.append(cluster.clocks.copy())
            stats.append((cluster.stats.calls, cluster.stats.nbytes_total,
                          cluster.stats.time_total, cluster.stats.retries))
        for other_clocks, other_stats in zip(clocks[1:], stats[1:]):
            np.testing.assert_array_equal(clocks[0], other_clocks)
            assert stats[0] == other_stats

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
           st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_data_movement_identical(self, p, n_rows, dim, seed):
        rng = np.random.default_rng(seed)
        parts = _random_sparse_parts(rng, p, n_rows, dim)
        clean = Cluster(p, NET)
        nulled = Cluster(p, NET, faults=FaultPlan(seed=seed))
        comb_a = allgather_sparse(clean, parts)
        comb_b = allgather_sparse(nulled, parts)
        np.testing.assert_array_equal(sparse_to_dense(comb_a),
                                      sparse_to_dense(comb_b))
        np.testing.assert_array_equal(clean.clocks, nulled.clocks)


class TestRetryMonotonicity:
    """(b) more drops can only mean more retries, never fewer."""

    @given(st.integers(0, 2**31), st.integers(1, 64),
           st.floats(0.0, 0.9), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_single_collective_monotone(self, seed, n_messages, p1, p2):
        lo, hi = sorted((p1, p2))
        results = []
        for prob in (lo, hi):
            inj = FaultInjector(FaultPlan(drop_prob=prob, seed=seed), 4)
            time, retries = inj.collective_time("op", 1e-3, n_messages, NET)
            results.append((time, retries))
        (t_lo, r_lo), (t_hi, r_hi) = results
        assert r_lo <= r_hi
        assert t_lo <= t_hi + 1e-12

    @given(st.integers(0, 2**31), st.floats(0.0, 0.6), st.floats(0.0, 0.6))
    @settings(max_examples=30, deadline=None)
    def test_whole_sequence_monotone(self, seed, p1, p2):
        """Per-call substreams align the draws across runs, so monotonicity
        holds for an entire collective sequence, not just one call."""
        lo, hi = sorted((p1, p2))
        totals = []
        for prob in (lo, hi):
            cluster = Cluster(
                4, NET, faults=FaultPlan(drop_prob=prob, seed=seed))
            for nbytes in (1 << 10, 1 << 14, 1 << 12):
                allreduce_bytes(cluster, nbytes)
                allgatherv_bytes(cluster, [nbytes] * 4)
            totals.append(0 if cluster.faults is None
                          else cluster.stats.retries)
        assert totals[0] <= totals[1]


class TestSeededReproducibility:
    """(c) the same fault seed yields an identical trajectory."""

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_collective_trajectory_reproducible(self, seed):
        plan = FaultPlan(drop_prob=0.3, corruption_prob=0.1,
                         alpha_jitter=0.2, beta_jitter=0.2, seed=seed)
        snapshots = []
        for _ in range(2):
            cluster = Cluster(4, NET, faults=plan)
            for _ in range(5):
                allreduce_bytes(cluster, 1 << 14)
            snapshots.append((cluster.elapsed, cluster.stats.retries,
                              [r.time for r in cluster.records]))
        assert snapshots[0] == snapshots[1]

    def test_train_result_reproducible_under_faults(self):
        from repro import TrainConfig, baseline_allgather
        from repro.kg.datasets import make_tiny_kg
        from repro.training.trainer import train

        store = make_tiny_kg()
        cfg = TrainConfig(dim=8, batch_size=128, max_epochs=3, lr_patience=5,
                          eval_max_queries=20)
        plan = FaultPlan(drop_prob=0.1, alpha_jitter=0.2, beta_jitter=0.2,
                         compute_slowdown=((1, 2.5),), seed=99)
        runs = [train(store, baseline_allgather(1), 3, config=cfg,
                      faults=plan) for _ in range(2)]
        a, b = runs
        assert a.series("loss") == b.series("loss")
        assert a.series("val_mrr") == b.series("val_mrr")
        assert a.series("epoch_time") == b.series("epoch_time")
        assert a.comm_retries == b.comm_retries and a.comm_retries > 0
        assert a.straggler_skew == b.straggler_skew > 0.0
        assert a.test_mrr == b.test_mrr


class TestFaultsNeverCorruptDeliveredData:
    """Drops/corruption are detect-and-retransmit: data stays exact."""

    @given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 4),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_sparse_data_unchanged(self, p, n_rows, dim, seed):
        parts = _random_sparse_parts(np.random.default_rng(seed), p, n_rows,
                                     dim)
        plan = FaultPlan(drop_prob=0.4, corruption_prob=0.2, seed=seed)
        clean, faulty = Cluster(p, NET), Cluster(p, NET, faults=plan)
        out_clean = allgather_sparse(clean, parts)
        out_faulty = allgather_sparse(faulty, parts)
        np.testing.assert_array_equal(out_clean.indices, out_faulty.indices)
        np.testing.assert_array_equal(out_clean.values, out_faulty.values)
        if faulty.stats.retries > 0:
            assert faulty.elapsed > clean.elapsed

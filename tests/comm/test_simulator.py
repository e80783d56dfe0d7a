"""Unit tests for the SPMD cluster simulator's time accounting."""

import pytest

from repro.comm.collectives import allreduce_bytes
from repro.comm.network import NetworkModel
from repro.comm.simulator import Cluster, CommRecord, CommStats
from tests._fixtures import capture_charges


@pytest.fixture
def cluster():
    return Cluster(4, NetworkModel(alpha=1e-6, beta=1e-9))


class TestConstruction:
    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_clocks_start_at_zero(self, cluster):
        assert cluster.elapsed == 0.0


class TestComputeAccounting:
    def test_advance_one_rank(self, cluster):
        cluster.advance_compute(2, 1.5)
        assert cluster.elapsed == 1.5
        assert cluster.clocks[0] == 0.0

    def test_advance_all(self, cluster):
        cluster.advance_compute_all(2.0)
        assert all(c == 2.0 for c in cluster.clocks)

    def test_negative_time_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.advance_compute(0, -1.0)
        with pytest.raises(ValueError):
            cluster.advance_compute_all(-1.0)

    def test_invalid_rank_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.advance_compute(4, 1.0)
        with pytest.raises(ValueError):
            cluster.advance_compute(-1, 1.0)


class TestCollectiveSemantics:
    def test_collective_synchronises_to_slowest_rank(self, cluster):
        """A blocking collective starts when the last rank arrives."""
        cluster.advance_compute(0, 1.0)
        cluster.advance_compute(1, 5.0)  # straggler
        cluster.charge_collective(CommRecord("allreduce", 100, 2, 0.5))
        assert all(c == 5.5 for c in cluster.clocks)

    def test_library_collective_starts_at_straggler_clock(self, cluster):
        cluster.advance_compute(1, 2.0)
        records = capture_charges(cluster)
        allreduce_bytes(cluster, 16)
        (record,) = records
        assert record.time > 0
        assert all(c == 2.0 + record.time for c in cluster.clocks)

    def test_records_are_kept_in_order(self, cluster):
        cluster.charge_collective(CommRecord("a", 1, 1, 0.1))
        cluster.charge_collective(CommRecord("b", 2, 1, 0.2))
        assert list(cluster.stats.by_op) == ["a", "b"]

    def test_straggler_dominates_total(self, cluster):
        """Load imbalance shows up as idle time on fast ranks."""
        for rank in range(4):
            cluster.advance_compute(rank, float(rank))
        cluster.charge_collective(CommRecord("sync", 0, 0, 0.0))
        assert cluster.elapsed == 3.0


class TestStats:
    def test_accumulation(self, cluster):
        cluster.charge_collective(CommRecord("allreduce", 100, 2, 0.5))
        cluster.charge_collective(CommRecord("allreduce", 50, 2, 0.25))
        cluster.charge_collective(CommRecord("allgather", 10, 1, 0.1))
        s = cluster.stats
        assert s.calls == 3
        assert s.nbytes_total == 160
        assert s.time_total == pytest.approx(0.85)
        assert s.by_op["allreduce"][0] == 2
        assert s.by_op["allreduce"][1] == 150


def test_comm_stats_standalone():
    stats = CommStats()
    stats.add(CommRecord("op", 10, 1, 0.5))
    assert stats.nbytes_total == 10 and stats.calls == 1

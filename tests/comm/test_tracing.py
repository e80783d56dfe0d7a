"""Unit tests for the cluster timeline tracer."""

import json

import pytest

from repro.comm.collectives import allreduce_bytes
from repro.comm.network import NetworkModel
from repro.comm.simulator import Cluster
from repro.comm.tracing import ClusterTracer


@pytest.fixture
def cluster():
    return Cluster(3, NetworkModel(alpha=1e-6, beta=1e-9))


class TestLifecycle:
    def test_records_comm_and_compute(self, cluster):
        with ClusterTracer(cluster) as tracer:
            cluster.advance_compute(0, 0.5)
            allreduce_bytes(cluster, 32)
        assert len(tracer.compute_events()) == 1
        assert len(tracer.comm_events()) == 1
        event = tracer.comm_events()[0]
        assert event.name.startswith("allreduce")
        assert event.args["bytes"] == 32

    def test_detach_restores_cluster(self, cluster):
        tracer = ClusterTracer(cluster).attach()
        tracer.detach()
        cluster.advance_compute(0, 1.0)
        assert tracer.events == []

    def test_double_attach_rejected(self, cluster):
        tracer = ClusterTracer(cluster).attach()
        with pytest.raises(RuntimeError):
            tracer.attach()
        tracer.detach()

    def test_events_timestamps_consistent(self, cluster):
        with ClusterTracer(cluster) as tracer:
            cluster.advance_compute(1, 2.0)
            allreduce_bytes(cluster, 16)
        comm = tracer.comm_events()[0]
        # Collective starts at the straggler's clock (rank 1 at t=2).
        assert comm.start == pytest.approx(2.0)

    def test_category_totals(self, cluster):
        with ClusterTracer(cluster) as tracer:
            cluster.advance_compute(0, 1.0)
            cluster.advance_compute(1, 2.0)
        totals = tracer.total_time_by_category()
        assert totals["compute"] == pytest.approx(3.0)

    def test_advance_compute_all_traced(self, cluster):
        with ClusterTracer(cluster) as tracer:
            cluster.advance_compute_all(0.5)
        events = tracer.compute_events()
        assert len(events) == cluster.n_ranks
        assert {e.rank for e in events} == set(range(cluster.n_ranks))
        assert tracer.total_time_by_category()["compute"] == pytest.approx(
            0.5 * cluster.n_ranks)

    def test_failing_run_detaches_and_can_retrace(self, cluster):
        """A raising traced run must not leave the cluster patched."""
        orig_charge = cluster.charge_collective
        orig_advance = cluster.advance_compute
        orig_advance_all = cluster.advance_compute_all

        class Boom(RuntimeError):
            pass

        for _ in range(2):  # trace a failing run twice in a row
            with pytest.raises(Boom):
                with ClusterTracer(cluster) as tracer:
                    cluster.advance_compute(0, 1.0)
                    raise Boom()
            assert len(tracer.compute_events()) == 1
            assert cluster.charge_collective == orig_charge
            assert cluster.advance_compute == orig_advance
            assert cluster.advance_compute_all == orig_advance_all

    def test_trace_helper_detaches_on_error(self, cluster):
        orig_advance = cluster.advance_compute
        tracer = ClusterTracer(cluster)

        def failing_run():
            cluster.advance_compute(1, 0.5)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            tracer.trace(failing_run)
        assert cluster.advance_compute == orig_advance
        assert len(tracer.compute_events()) == 1
        # The tracer is reusable afterwards.
        assert tracer.trace(lambda: 42) == 42

    def test_stale_patch_not_captured_as_original(self, cluster):
        """Attaching over another live tracer is refused, not stacked."""
        first = ClusterTracer(cluster).attach()
        second = ClusterTracer(cluster)
        with pytest.raises(RuntimeError, match="already traced"):
            second.attach()
        first.detach()
        second.attach()
        second.detach()

    def test_detach_idempotent(self, cluster):
        orig = cluster.advance_compute
        tracer = ClusterTracer(cluster).attach()
        tracer.detach()
        tracer.detach()
        assert cluster.advance_compute == orig


class TestExport:
    def test_chrome_trace_schema(self, cluster):
        with ClusterTracer(cluster) as tracer:
            cluster.advance_compute(0, 0.25)
            allreduce_bytes(cluster, 16)
        trace = tracer.to_chrome_trace()
        assert all(ev["ph"] == "X" for ev in trace)
        assert all("ts" in ev and "dur" in ev for ev in trace)
        # Collectives land on a dedicated virtual lane.
        comm = [ev for ev in trace if ev["cat"] == "comm"]
        assert comm[0]["tid"] == cluster.n_ranks

    def test_save_is_valid_json(self, cluster, tmp_path):
        with ClusterTracer(cluster) as tracer:
            allreduce_bytes(cluster, 16)
        path = tmp_path / "trace.json"
        tracer.save(str(path))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded
        assert len(loaded["traceEvents"]) == 1


class TestTrainerIntegration:
    def test_trace_a_training_run(self):
        from repro import TrainConfig, baseline_allgather
        from repro.kg.datasets import make_tiny_kg
        from repro.training import DistributedTrainer
        store = make_tiny_kg()
        cfg = TrainConfig(dim=8, batch_size=128, max_epochs=2, lr_patience=5,
                          eval_max_queries=20)
        trainer = DistributedTrainer(store, baseline_allgather(1), 3,
                                     config=cfg)
        with ClusterTracer(trainer.cluster) as tracer:
            trainer.run()
        totals = tracer.total_time_by_category()
        assert totals["comm"] > 0
        assert totals["compute"] > 0
        # Every step should have produced one entity + one relation gather.
        steps = trainer.steps_per_epoch * 2
        assert len(tracer.comm_events()) == 2 * steps

"""Unit tests for training telemetry containers."""

import math

import pytest

from repro.training.metrics import EpochLog, TrainResult


def make_log(epoch, **overrides):
    defaults = dict(epoch=epoch, loss=0.5, val_mrr=0.3, lr=0.001,
                    comm_mode="allreduce", epoch_time=10.0, compute_time=6.0,
                    comm_time=4.0, bytes_communicated=1000,
                    nonzero_entity_rows=50.0, selection_sparsity=0.1)
    defaults.update(overrides)
    return EpochLog(**defaults)


class TestTrainResult:
    def test_total_hours(self):
        r = TrainResult("x", 2, 10, total_time=7200.0, final_val_mrr=0.3)
        assert r.total_hours == pytest.approx(2.0)

    def test_allreduce_fraction(self):
        r = TrainResult("x", 2, 1, 1.0, 0.3, allreduce_steps=3,
                        allgather_steps=1)
        assert r.allreduce_fraction == pytest.approx(0.75)

    def test_allreduce_fraction_no_steps(self):
        r = TrainResult("x", 1, 1, 1.0, 0.3)
        assert r.allreduce_fraction == 0.0

    def test_series_extraction(self):
        r = TrainResult("x", 2, 3, 30.0, 0.3,
                        logs=[make_log(1, loss=0.9), make_log(2, loss=0.5),
                              make_log(3, loss=0.2)])
        assert r.series("loss") == [0.9, 0.5, 0.2]
        assert r.series("epoch") == [1, 2, 3]

    def test_series_unknown_attr_raises(self):
        r = TrainResult("x", 2, 1, 1.0, 0.3, logs=[make_log(1)])
        with pytest.raises(AttributeError):
            r.series("nonexistent")

    def test_summary_row_columns(self):
        r = TrainResult("RS+1-bit", 4, 120, 3600.0, 0.5)
        r.test_tca = 90.0
        r.test_mrr = 0.58
        row = r.summary_row()
        assert row == {"method": "RS+1-bit", "nodes": 4, "TT_hours": 1.0,
                       "N_epochs": 120, "TCA": 90.0, "MRR": 0.58}

    def test_defaults_are_nan(self):
        r = TrainResult("x", 1, 0, 0.0, float("nan"))
        assert math.isnan(r.test_mrr) and math.isnan(r.test_tca)


class TestEpochLog:
    def test_fields_roundtrip(self):
        log = make_log(5, comm_mode="allgather", eval_time=1.5)
        assert log.epoch == 5
        assert log.comm_mode == "allgather"
        assert log.eval_time == 1.5


class TestEvalTimer:
    def test_measure_accumulates(self):
        from repro.training.metrics import EvalTimer
        timer = EvalTimer()
        with timer.measure():
            sum(range(1000))
        with timer.measure():
            pass
        assert timer.seconds > 0.0

    def test_measure_charges_on_exception(self):
        from repro.training.metrics import EvalTimer
        timer = EvalTimer()
        with pytest.raises(RuntimeError):
            with timer.measure():
                raise RuntimeError("boom")
        assert timer.seconds > 0.0

    def test_count_and_throughput(self):
        from repro.training.metrics import EvalTimer
        timer = EvalTimer()
        with timer.measure():
            sum(range(10000))
        timer.count(500)
        assert timer.queries == 500
        assert timer.queries_per_sec == pytest.approx(500 / timer.seconds)

    def test_zero_time_throughput_is_zero(self):
        from repro.training.metrics import EvalTimer
        timer = EvalTimer()
        timer.count(10)
        assert timer.queries_per_sec == 0.0


class TestEvalFieldsOnResult:
    def test_defaults(self):
        r = TrainResult("x", 1, 0, 0.0, float("nan"))
        assert r.eval_seconds == 0.0 and r.eval_queries == 0
        assert r.eval_queries_per_sec == 0.0

    def test_queries_per_sec(self):
        # The rate is the reporting process's own: queries a restore
        # carried into the timer ran in another process.
        from repro.training.metrics import EvalTimer
        timer = EvalTimer()
        timer.queries = 1000
        with timer.measure():
            sum(range(10000))
        timer.count(100)
        assert timer.queries == 1100
        assert timer.queries_per_sec == pytest.approx(100 / timer.seconds)

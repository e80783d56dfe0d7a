"""Unit tests for the benchmark harness, calibration and paper constants."""

import numpy as np
import pytest

from repro.bench import paper
from repro.bench.calibration import (
    BENCH_NETWORK,
    FULL,
    PROFILES,
    QUICK,
    active_profile,
    train_config,
)
from repro.bench.harness import (
    bench_store,
    reduction,
    run_once,
    trend_slope,
)
from repro.kg.datasets import make_tiny_kg
from repro.training.strategy import baseline_allreduce
from repro.training.trainer import TrainConfig


class TestCalibration:
    def test_profiles_registered(self):
        assert PROFILES["quick"] is QUICK
        assert PROFILES["full"] is FULL

    def test_active_profile_defaults_to_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert active_profile() is QUICK

    def test_active_profile_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "full")
        assert active_profile() is FULL

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "turbo")
        with pytest.raises(ValueError):
            active_profile()

    def test_train_config_carries_profile_values(self):
        cfg = train_config(QUICK)
        assert isinstance(cfg, TrainConfig)
        assert cfg.dim == QUICK.dim
        assert cfg.max_epochs == QUICK.max_epochs

    def test_train_config_overrides(self):
        cfg = train_config(QUICK, max_epochs=7)
        assert cfg.max_epochs == 7

    def test_bench_network_bandwidth_dominated(self):
        """Calibration intent: for our payload sizes the byte term must
        dominate latency, as in the paper's regime."""
        nbytes = 40_000  # a typical per-rank gradient block
        latency = BENCH_NETWORK.alpha
        transfer = nbytes * BENCH_NETWORK.beta
        assert transfer > 5 * latency


class TestHarnessHelpers:
    def test_trend_slope(self):
        assert trend_slope([1, 2, 3, 4]) == pytest.approx(1.0)
        assert trend_slope([4, 3, 2, 1]) == pytest.approx(-1.0)
        assert trend_slope([7]) == 0.0

    def test_reduction(self):
        assert reduction(10.0, 4.0) == pytest.approx(0.6)
        with pytest.raises(ValueError):
            reduction(0.0, 1.0)

    def test_bench_store_cached(self):
        a = bench_store("fb15k", scale=0.005)
        b = bench_store("fb15k", scale=0.005)
        assert a is b

    def test_bench_store_unknown_rejected(self):
        with pytest.raises(ValueError):
            bench_store("wordnet")

    def test_run_once_memoised(self):
        store = make_tiny_kg()
        cfg = TrainConfig(dim=8, batch_size=128, max_epochs=2, lr_patience=5,
                          eval_max_queries=20)
        a = run_once(store, baseline_allreduce(1), 2, config=cfg)
        b = run_once(store, baseline_allreduce(1), 2, config=cfg)
        assert a is b


class TestPaperConstants:
    def test_table1_rows_complete(self):
        assert [r.nodes for r in paper.TABLE1_ALLREDUCE] == [1, 2, 4, 8]
        assert [r.nodes for r in paper.TABLE1_ALLGATHER] == [1, 2, 4, 8]

    def test_table2_rows_complete(self):
        assert [r.nodes for r in paper.TABLE2_ALLREDUCE] == [1, 2, 4, 8, 16]

    def test_table1_claim_allreduce_wins(self):
        """Sanity on the transcription itself: the paper's own numbers back
        the claim that allreduce beats allgather on FB15K past 1 node."""
        for ar, ag in zip(paper.TABLE1_ALLREDUCE[1:],
                          paper.TABLE1_ALLGATHER[1:]):
            assert ar.tt_hours < ag.tt_hours

    def test_table2_claim_crossover(self):
        ar = {r.nodes: r.tt_hours for r in paper.TABLE2_ALLREDUCE}
        ag = {r.nodes: r.tt_hours for r in paper.TABLE2_ALLGATHER}
        assert ag[2] < ar[2] and ag[4] < ar[4]   # allgather wins early
        assert ar[8] < ag[8] and ar[16] < ag[16]  # allreduce wins late

    def test_table4_rows(self):
        assert len(paper.TABLE4) == 7
        one_of_ten = next(r for r in paper.TABLE4
                          if r.used == 1 and r.sampled == 10)
        assert one_of_ten.mrr == pytest.approx(0.61)

    def test_headline_constants(self):
        assert 0 < paper.FB250K_FULL_METHOD_TT_REDUCTION < 1
        assert paper.FB250K_16N_FULL_METHOD_HOURS < \
            paper.FB250K_16N_BASELINE_HOURS

    def test_table3_example(self):
        assert len(paper.TABLE3_TRIPLES) == 5
        assert paper.TABLE3_EXPECTED_SPLIT == ((0, 1), (2, 3, 4))

    def test_claims_cover_all_figures(self):
        for fig in ("fig1a", "fig1b", "fig1c", "fig1d", "fig2", "fig3",
                    "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8",
                    "fig9"):
            assert fig in paper.CLAIMS


class TestEvalTable:
    def test_trainer_populates_eval_fields(self):
        from repro.kg.datasets import make_tiny_kg
        from repro.training.trainer import DistributedTrainer
        store = make_tiny_kg()
        cfg = TrainConfig(dim=8, batch_size=128, max_epochs=2, lr_patience=5,
                          eval_max_queries=20)
        result = DistributedTrainer(store, baseline_allreduce(1), 1,
                                    config=cfg).run()
        assert result.eval_seconds > 0.0
        assert result.eval_queries > 0
        assert result.eval_queries_per_sec > 0.0

"""Unit tests for strategy configuration and presets."""

from dataclasses import replace

import pytest

from repro.training.strategy import (
    PRESETS,
    StrategyConfig,
    baseline_allgather,
    baseline_allreduce,
    drs,
    drs_1bit,
    drs_1bit_rp_ss,
    rs,
    rs_1bit,
    rs_1bit_rp_ss,
)


class TestValidation:
    def test_bad_comm_mode_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(comm_mode="p2p")

    def test_bad_selection_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(selection="topk")

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(quantization_bits=4)

    def test_negatives_used_bounded_by_sampled(self):
        with pytest.raises(ValueError):
            StrategyConfig(negatives_sampled=3, negatives_used=5)

    def test_zero_negatives_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(negatives_sampled=0)

    def test_ss_with_m_equal_n_rejected(self):
        """'n out of n' is the baseline, not sample selection."""
        with pytest.raises(ValueError):
            StrategyConfig(sample_selection=True, negatives_sampled=5,
                           negatives_used=5)

    def test_bad_probe_interval_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(drs_probe_interval=0)

    def test_dynamic_needs_an_incumbent_epoch_between_probes(self):
        """At k = 1 every epoch is a probe: the incumbent is never
        measured, so the first probe would commit against +inf."""
        with pytest.raises(ValueError, match="drs_probe_interval"):
            replace(drs(), drs_probe_interval=1)
        assert replace(drs(), drs_probe_interval=2).drs_probe_interval == 2
        StrategyConfig(comm_mode="allgather", drs_probe_interval=1)


class TestPresets:
    def test_all_presets_construct(self):
        for name, maker in PRESETS.items():
            strat = maker()
            assert isinstance(strat, StrategyConfig), name

    def test_baselines_do_not_compress(self):
        for strat in (baseline_allreduce(), baseline_allgather()):
            assert (strat.selection, strat.quantization_bits) == ("none", 0)

    def test_rs_compresses(self):
        assert rs().selection == "random"

    def test_drs_is_dynamic(self):
        assert drs().comm_mode == "dynamic"

    def test_quantization_presets(self):
        assert rs_1bit().quantization_bits == 1
        assert drs_1bit().quantization_bits == 1
        assert rs_1bit().quantization_stat == "max"

    def test_full_method_flags(self):
        full = drs_1bit_rp_ss()
        assert full.comm_mode == "dynamic"
        assert full.selection == "random"
        assert full.quantization_bits == 1
        assert full.relation_partition
        assert full.sample_selection
        assert full.negatives_used == 1

    def test_ss_ratios_match_paper(self):
        """1:10 for FB15K, 1:5 for FB250K (Section 5)."""
        assert rs_1bit_rp_ss().negatives_sampled == 10
        assert drs_1bit_rp_ss().negatives_sampled == 5

    def test_negatives_parameterised(self):
        assert baseline_allreduce(negatives=7).negatives_sampled == 7
        assert rs(negatives=3).negatives_used == 3


class TestLabels:
    def test_baseline_labels(self):
        assert baseline_allreduce().label() == "allreduce"
        assert baseline_allgather().label() == "allgather"

    def test_composed_labels(self):
        assert rs().label() == "RS"
        assert drs().label() == "DRS"
        assert rs_1bit().label() == "RS+1-bit"
        assert drs_1bit_rp_ss().label() == "DRS+1-bit+RP+SS"

    def test_error_feedback_label(self):
        from dataclasses import replace
        strat = replace(rs_1bit(), error_feedback=True)
        assert strat.label().endswith("+EF")

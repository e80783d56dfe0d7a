"""Tests of the top-level public API surface."""

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_key_entry_points(self):
        assert callable(repro.train)
        assert callable(repro.make_fb15k_like)
        assert callable(repro.make_fb250k_like)
        assert callable(repro.evaluate_ranking)

    def test_presets_exported(self):
        assert "DRS+1-bit+RP+SS" in repro.PRESETS

    def test_subpackage_modules_importable(self):
        import repro.bench
        import repro.comm
        import repro.compress
        import repro.eval
        import repro.kg
        import repro.models
        import repro.optim
        import repro.training

    def test_submodule_attribute_access_not_shadowed(self):
        """`repro.training.trainer` must remain importable even though the
        top level re-exports a `train` *function* (historic footgun)."""
        import repro.training.trainer as trainer_mod
        assert hasattr(trainer_mod, "DistributedTrainer")


class TestPaperSpecs:
    def test_fb15k_spec_matches_paper(self):
        assert repro.FB15K_SPEC.n_entities == 14_951
        assert repro.FB15K_SPEC.n_relations == 1_345

    def test_fb250k_spec_matches_paper(self):
        assert repro.FB250K_SPEC.n_entities == 240_000
        assert repro.FB250K_SPEC.n_relations == 9_280


class TestConfigConstants:
    def test_paper_constants(self):
        from repro import config
        assert config.PAPER_BATCH_SIZE == 10_000
        assert config.PAPER_LR_PATIENCE == 15
        assert config.PAPER_LR_SCALE_CAP == 4
        assert config.PAPER_DRS_PROBE_INTERVAL == 10

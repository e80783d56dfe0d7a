"""Unit tests for the synthetic dataset generators."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kg import datasets
from repro.kg.datasets import (
    EXHAUSTIVE_ENTITY_LIMIT,
    _allocate_counts,
    _mine_exhaustive,
    _mine_sampled,
    _zipf_weights,
    generate_latent_kg,
    load_store,
    make_fb15k_like,
    make_fb250k_like,
    make_tiny_kg,
    save_store,
)
from repro.kg.negative import NegativeBatch, select_hardest
from repro.select import best_first, best_set
from repro.training.checkpoint import store_fingerprint

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__


class TestZipfAllocation:
    def test_weights_normalised_and_decreasing(self):
        w = _zipf_weights(50, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()

    def test_allocation_sums_to_total(self):
        counts = _allocate_counts(1000, _zipf_weights(17, 1.05))
        assert counts.sum() == 1000
        assert (counts >= 1).all()

    def test_allocation_respects_minimum(self):
        counts = _allocate_counts(100, _zipf_weights(10, 2.0), minimum=3)
        assert (counts >= 3).all() and counts.sum() == 100

    def test_infeasible_allocation_rejected(self):
        with pytest.raises(ValueError):
            _allocate_counts(5, _zipf_weights(10, 1.0))


class TestGenerator:
    def test_deterministic(self):
        a = generate_latent_kg(60, 6, 600, seed=5)
        b = generate_latent_kg(60, 6, 600, seed=5)
        np.testing.assert_array_equal(a.train.to_array(), b.train.to_array())
        np.testing.assert_array_equal(a.test.to_array(), b.test.to_array())

    def test_seed_changes_data(self):
        a = generate_latent_kg(60, 6, 600, seed=5)
        b = generate_latent_kg(60, 6, 600, seed=6)
        assert not np.array_equal(a.train.to_array(), b.train.to_array())

    def test_ids_in_range(self):
        kg = generate_latent_kg(60, 6, 600, seed=1)
        for split in (kg.train, kg.valid, kg.test):
            assert split.heads.max() < 60 and split.tails.max() < 60
            assert split.relations.max() < 6

    def test_no_self_loops_without_noise(self):
        kg = generate_latent_kg(60, 6, 600, seed=1, noise_fraction=0.0)
        for split in (kg.train, kg.valid, kg.test):
            assert (split.heads != split.tails).all()

    def test_splits_are_disjoint(self):
        kg = generate_latent_kg(80, 8, 900, seed=2)
        sets = [set(map(tuple, s.to_array().tolist()))
                for s in (kg.train, kg.valid, kg.test)]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) \
            and not (sets[1] & sets[2])

    def test_no_duplicate_triples(self):
        kg = generate_latent_kg(80, 8, 900, seed=2, noise_fraction=0.2)
        arr = np.concatenate([kg.train.to_array(), kg.valid.to_array(),
                              kg.test.to_array()])
        assert len(np.unique(arr, axis=0)) == len(arr)

    def test_relation_frequencies_are_skewed(self):
        kg = generate_latent_kg(100, 20, 3000, seed=3)
        counts = kg.relation_counts()
        assert counts.max() > 3 * np.median(counts)

    def test_noise_fraction_validated(self):
        with pytest.raises(ValueError):
            generate_latent_kg(60, 6, 600, noise_fraction=1.0)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_latent_kg(2, 6, 600)
        with pytest.raises(ValueError):
            generate_latent_kg(60, 10, 5)

    def test_bad_split_fractions_rejected(self):
        with pytest.raises(ValueError):
            generate_latent_kg(60, 6, 600, valid_fraction=0.6,
                               test_fraction=0.6)

    @pytest.mark.parametrize("oversample", [0, -5])
    def test_oversample_below_one_rejected(self, oversample):
        """Not a graph short of its requested triples."""
        with pytest.raises(ValueError, match=f"oversample .*{oversample}"):
            generate_latent_kg(EXHAUSTIVE_ENTITY_LIMIT + 200, 12, 4000,
                               oversample=oversample)

    def test_latent_dim_below_one_rejected(self):
        """Not a divide-by-zero warning and a graph with no signal."""
        with pytest.raises(ValueError, match="latent_dim .*0"):
            generate_latent_kg(60, 6, 600, latent_dim=0)

    def test_latent_structure_is_learnable_signal(self):
        """Facts must score higher than random pairs under a fresh latent
        re-derivation — i.e. the generator really mined top pairs."""
        kg = generate_latent_kg(80, 6, 800, seed=9, noise_fraction=0.0)
        # Random pairs hit the same (h, r, t) distribution support rarely.
        rng = np.random.default_rng(0)
        rand_t = rng.integers(0, 80, len(kg.train))
        known = kg.is_known(kg.train.heads, kg.train.relations, rand_t)
        assert known.mean() < 0.5  # random corruptions are mostly negatives


class TestScaledMakers:
    def test_fb15k_like_ratios(self):
        kg = make_fb15k_like(scale=0.02)
        n = len(kg.train) + len(kg.valid) + len(kg.test)
        triples_per_entity = n / kg.n_entities
        assert 30 < triples_per_entity < 50  # paper: ~40

    def test_fb250k_like_ratios(self):
        kg = make_fb250k_like(scale=0.002)
        n = len(kg.train) + len(kg.valid) + len(kg.test)
        triples_per_entity = n / kg.n_entities
        assert 50 < triples_per_entity < 80  # paper: ~67

    def test_scale_bounds_validated(self):
        with pytest.raises(ValueError):
            make_fb15k_like(scale=0.0)
        with pytest.raises(ValueError):
            make_fb15k_like(scale=1.5)

    def test_minimum_relations_enforced(self):
        kg = make_fb15k_like(scale=0.001)
        assert kg.n_relations >= 8

    def test_tiny_kg_is_small_and_fast(self):
        kg = make_tiny_kg()
        assert kg.n_entities <= 100
        assert len(kg.train) < 1000


def host_digests() -> list[str]:
    """sha256 of two noisy exhaustively mined graphs, one noisy sampled one,
    one seeded m-of-n hardest selection and tie-heavy ``best_set`` pools
    (short rows and rows long enough for the pre-threshold) — the outputs
    a host-dependent top-k order or score would change."""
    rng = np.random.default_rng(3)
    batch = NegativeBatch(*rng.integers(0, 1000, size=(3, 64, 20)))
    scores = np.round(rng.normal(size=(64, 20)) * 4) / 4  # many ties
    picked = np.concatenate(select_hardest(batch, scores, m=10))
    tied = (np.round(rng.normal(size=(16, 4096)) * 2) / 2).astype(np.float32)
    tied[:, ::7] = np.nan  # rounding left both signed zeros
    tied[:, 3::509], tied[:, 5::509] = np.inf, -np.inf
    pools = np.concatenate([best_set(row, take) for row in tied
                            for take in (1, 10, 1200, 4096)])
    sampled = generate_latent_kg(EXHAUSTIVE_ENTITY_LIMIT + 200, 12, 2400,
                                 noise_fraction=0.1)
    return [store_fingerprint(make_fb15k_like(scale=0.02)),
            store_fingerprint(make_fb250k_like(scale=0.002)),
            store_fingerprint(sampled),
            hashlib.sha256(picked.tobytes()).hexdigest(),
            hashlib.sha256(pools.tobytes()).hexdigest()]


class TestHostIndependence:
    @pytest.mark.skipif(not __cpu_dispatch__,
                        reason="this NumPy build dispatches no SIMD kernels")
    def test_same_bytes_with_every_simd_kernel_disabled(self):
        """Each relation's facts and each row's hardest negatives come out
        in one order whichever partition kernel NumPy dispatches to."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ,
                   NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(repro.__file__).parents[1]), str(root),
                        os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "from tests.kg.test_datasets import host_digests; "
             "print(*host_digests())"],
            cwd=root, env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == host_digests()


class TestPinnedBytes:
    """Noise-free graphs depend only on each relation's fact *set*, so the
    top-k rule's order must not move them (digests recorded before it
    changed)."""

    def test_exhaustive_path(self):
        kg = generate_latent_kg(300, 24, 2400, seed=20220829)
        assert store_fingerprint(kg) == (
            "cbe021a62d7225219e5cc49bc531c0a552c91654b158c85fdefed3afedfa2d0f")

    def test_sampled_path(self):
        kg = generate_latent_kg(EXHAUSTIVE_ENTITY_LIMIT + 200, 12, 2400,
                                seed=20220829)
        assert store_fingerprint(kg) == (
            "47a49929023308256156dbf9e963d4a2b5c4f162d938b62c2ffe2fe5432969dd")

    def test_benchmark_graph(self):
        """``perf``'s G15k graph, digest recorded from the row-layout
        sampled miner."""
        kg = generate_latent_kg(14951, 1345, 60000, seed=20220829)
        assert store_fingerprint(kg) == (
            "c10fe9bc04ea73146557203d90dc26c8d4cb9a48ab48554f101c439144dc4ff2")

    def test_sampled_mining_peaks_near_20_bytes_per_candidate(self):
        """One relation's 10**6 candidates: two int64 index arrays and one
        float32 score each plus one block and ``best_first``'s pre-threshold
        pass; gathering every candidate's latents at once took 81 bytes per
        candidate."""
        rng = np.random.default_rng(0)
        e_re_t, e_im_t = rng.normal(size=(2, 4, 14951)).astype(np.float32)
        r_re, r_im = rng.normal(size=(2, 3, 4)).astype(np.float32)
        count, oversample = 10_000, 100
        tracemalloc.start()
        try:
            facts = _mine_sampled(e_re_t, e_im_t, r_re, r_im, 1, count,
                                  oversample, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert facts.shape == (count, 3)
        assert peak <= 26 * count * oversample

    def test_exhaustive_mining_peaks_at_two_score_matrices(self):
        """Deterministic allocation count, not RSS: the score matrix plus
        the second product's temporary, never a negated copy or an index
        array as long as the matrix."""
        rng = np.random.default_rng(0)
        n = 1495
        e_re, e_im = rng.normal(size=(2, n, 4)).astype(np.float32)
        r_re, r_im = rng.normal(size=(2, 3, 4)).astype(np.float32)
        tracemalloc.start()
        try:
            facts = _mine_exhaustive(e_re, e_im, r_re, r_im, 1, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert facts.shape == (2000, 3)
        assert peak <= 2.1 * n * n * np.dtype(np.float32).itemsize


def mine_sampled_rows(e_re, e_im, r_re, r_im, rel, count, oversample, rng):
    """Oracle: the row-layout sampled miner, which gathers every
    candidate's ``(latent_dim,)`` rows at once, compacts self-loops out of
    the candidate arrays and sums each row with ``np.sum``."""
    n_entities = e_re.shape[0]
    m = max(count * oversample, 64)
    h = rng.integers(0, n_entities, size=m)
    t = rng.integers(0, n_entities, size=m)
    ok = h != t
    h, t = h[ok], t[ok]
    x_re, x_im = e_re[h], e_im[h]
    hr_re = x_re * r_re[rel]
    hr_re -= x_im * r_im[rel]
    x_re *= r_im[rel]
    x_im *= r_re[rel]
    x_re += x_im
    hr_re *= e_re[t]
    x_re *= e_im[t]
    hr_re += x_re
    top = best_first(hr_re.sum(axis=1), count)
    rel_col = np.full(len(top), rel, dtype=np.int64)
    return np.stack([h[top], rel_col, t[top]], axis=1)


class TestStreamedMiner:
    """The block-streamed sampled miner returns the row-layout oracle's
    facts bitwise, whatever the block size."""

    @pytest.mark.parametrize("latent_dim",
                             [1, 4, 7, 8, 9, 13, 16, 24, 130, 300])
    def test_column_sums_equal_row_sums(self, latent_dim):
        """The score bits the row layout's ``np.sum`` gave: terms spanning
        eight decades round differently in any other order, which the mined
        facts alone rarely show."""
        rng = np.random.default_rng(latent_dim)
        shape = (4096, latent_dim)
        rows = (rng.normal(size=shape)
                * 10.0 ** rng.uniform(-4, 4, size=shape)).astype(np.float32)
        cols = np.ascontiguousarray(rows.T)
        np.testing.assert_array_equal(
            datasets._sum_rows(cols), rows.sum(axis=1))

    @pytest.mark.parametrize("block", [1, 3, 64, datasets._SAMPLED_BLOCK])
    @pytest.mark.parametrize("latent_dim", [1, 4, 13, 130])
    @pytest.mark.parametrize("quantized", [True, False],
                             ids=["quantized", "normal"])
    def test_equals_row_layout_oracle(self, monkeypatch, block, latent_dim,
                                      quantized):
        """Nine entities make every ninth candidate a self-loop and most
        pairs repeats (tied scores); quantized latents tie distinct pairs
        too.  No ``m`` below is a multiple of a block but the 1-wide one,
        and ``oversample=1`` asks for more facts than there are
        candidates."""
        monkeypatch.setattr(datasets, "_SAMPLED_BLOCK", block)
        rng = np.random.default_rng(latent_dim)
        shape = (2, 9, latent_dim)
        if quantized:
            latents = rng.integers(-2, 3, size=shape) / 2
        else:
            latents = rng.normal(size=shape)
        e_re, e_im = latents.astype(np.float32)
        r_re, r_im = rng.normal(size=(2, 4, latent_dim)).astype(np.float32)
        e_re_t, e_im_t = np.ascontiguousarray(latents.transpose(0, 2, 1),
                                              dtype=np.float32)
        cases = [(37, 5), (70, 1)] + ([(331, 100)] if block >= 64 else [])
        for rel, (count, oversample) in enumerate(cases):
            want = mine_sampled_rows(e_re, e_im, r_re, r_im, rel, count,
                                     oversample, np.random.default_rng(rel))
            got = _mine_sampled(e_re_t, e_im_t, r_re, r_im, rel, count,
                                oversample, np.random.default_rng(rel))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        kg = make_tiny_kg()
        path = str(tmp_path / "kg.npz")
        save_store(kg, path)
        back = load_store(path)
        assert back.n_entities == kg.n_entities
        assert back.n_relations == kg.n_relations
        np.testing.assert_array_equal(back.train.to_array(),
                                      kg.train.to_array())
        np.testing.assert_array_equal(back.test.to_array(),
                                      kg.test.to_array())

    def test_loaded_store_membership_works(self, tmp_path):
        kg = make_tiny_kg()
        path = str(tmp_path / "kg.npz")
        save_store(kg, path)
        back = load_store(path)
        assert back.is_known(kg.train.heads[:5], kg.train.relations[:5],
                             kg.train.tails[:5]).all()

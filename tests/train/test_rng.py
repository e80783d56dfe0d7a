"""Tests for the normalized RNG stream derivations in repro.training.rng."""

import numpy as np
import pytest

from repro import DistributedTrainer, TrainConfig
from repro.kg.datasets import make_tiny_kg
from repro.training.rng import (
    SELECTION_STREAM,
    rng_state,
    selection_rng,
    set_rng_state,
    trainer_rng,
    worker_rng,
)
from repro.training.strategy import drs_1bit_rp_ss


def test_stream_derivations_are_the_documented_ones():
    seed = 1234
    assert (trainer_rng(seed).random(8)
            == np.random.default_rng(seed).random(8)).all()
    assert (selection_rng(seed).random(8)
            == np.random.default_rng((seed, SELECTION_STREAM)).random(8)).all()
    assert (worker_rng(seed, 3).random(8)
            == np.random.default_rng((seed, 3)).random(8)).all()


def test_streams_are_pairwise_disjoint():
    seed = 7
    draws = {
        "selection": tuple(selection_rng(seed).random(4)),
        "worker0": tuple(worker_rng(seed, 0).random(4)),
        "worker1": tuple(worker_rng(seed, 1).random(4)),
        "worker2": tuple(worker_rng(seed, 2).random(4)),
    }
    assert len(set(draws.values())) == len(draws)


def test_trainer_stream_coincides_with_worker_zero():
    """SeedSequence absorbs trailing zeros: documented, load-bearing quirk."""
    seed = 7
    assert (trainer_rng(seed).random(4) == worker_rng(seed, 0).random(4)).all()


def test_worker_rank_bounds():
    with pytest.raises(ValueError, match="rank"):
        worker_rng(1, -1)
    with pytest.raises(ValueError, match="rank"):
        worker_rng(1, SELECTION_STREAM)


def test_state_roundtrip_resumes_stream_position():
    rng = selection_rng(42)
    rng.random(100)
    saved = rng_state(rng)
    expected = rng.random(16)
    fresh = selection_rng(0)  # wrong seed on purpose; state overrides it
    set_rng_state(fresh, saved)
    assert (fresh.random(16) == expected).all()


def test_equal_config_trainers_produce_identical_streams():
    """Two trainers built from equal configs share every stream, bit for bit."""
    store = make_tiny_kg()
    cfg = TrainConfig(dim=8, batch_size=128, max_epochs=2, seed=99)
    a = DistributedTrainer(store, drs_1bit_rp_ss(), 3, config=cfg)
    b = DistributedTrainer(store, drs_1bit_rp_ss(), 3, config=cfg)
    assert rng_state(a.rng) == rng_state(b.rng)
    assert rng_state(a.exchange.rng) == rng_state(b.exchange.rng)
    for wa, wb in zip(a.workers, b.workers):
        assert rng_state(wa.rng) == rng_state(wb.rng)
    # ... and keep producing the same draws.
    assert (a.exchange.rng.random(32) == b.exchange.rng.random(32)).all()
    for wa, wb in zip(a.workers, b.workers):
        assert (wa.rng.integers(0, 1 << 30, 32)
                == wb.rng.integers(0, 1 << 30, 32)).all()


def test_fresh_worker_rng_matches_helper():
    store = make_tiny_kg()
    cfg = TrainConfig(dim=8, batch_size=128, max_epochs=2, seed=55)
    trainer = DistributedTrainer(store, drs_1bit_rp_ss(), 4, config=cfg)
    for rank, worker in enumerate(trainer.workers):
        assert rng_state(worker.rng) == rng_state(worker_rng(cfg.seed, rank))

"""Unit tests for the checkpoint subsystem: format, validation, recovery.

The bitwise resume-equivalence guarantees live in
``tests/integration/test_determinism.py``; this file covers the snapshot
format itself — deterministic bytes, state round-trips, checkpoint
discovery — and that every corruption mode (flipped byte, missing array,
wrong schema, mismatched config) raises its own distinct, actionable error.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import DistributedTrainer, FaultPlan, TrainConfig
from repro.comm.faults import CollectiveFaultError
from repro.kg.datasets import make_tiny_kg
from repro.training import (
    CheckpointChecksumError,
    CheckpointConfigMismatchError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMissingArrayError,
    CheckpointSchemaError,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.training.checkpoint import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    _npz_bytes,
    capture_state,
)
from repro.training.strategy import baseline_allreduce, drs_1bit_rp_ss, rs_1bit


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg()


def config(**overrides):
    defaults = dict(dim=8, batch_size=128, max_epochs=2, lr_patience=6,
                    eval_max_queries=20, seed=4321)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def make_trainer(store, maker=drs_1bit_rp_ss, n_nodes=3, faults=None,
                 **overrides):
    return DistributedTrainer(store, maker(), n_nodes,
                              config=config(**overrides), faults=faults)


@pytest.fixture(scope="module")
def snapshot(store, tmp_path_factory):
    """One trained trainer plus its saved checkpoint directory."""
    trainer = make_trainer(store)
    trainer.run()
    path = tmp_path_factory.mktemp("ckpt") / "snap"
    trainer.save_checkpoint(path)
    return trainer, path


def _rewrite_npz(path, drop=None, tamper=None, extra=None):
    """Rewrite ``state.npz`` with surgical modifications, valid zip intact."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: np.array(data[name]) for name in data.files}
    if drop is not None:
        arrays.pop(drop)
    if tamper is not None:
        arr = arrays[tamper].copy()
        flat = arr.reshape(-1)
        flat[0] = flat[0] + 1 if arr.dtype.kind in "iub" else flat[0] + 0.5
        arrays[tamper] = arr
    if extra is not None:
        arrays[extra] = np.zeros(3)
    path.write_bytes(_npz_bytes(arrays))


# ---------------------------------------------------------------------------
# Format and round-trips
# ---------------------------------------------------------------------------

def test_checkpoint_layout_and_manifest(snapshot):
    trainer, path = snapshot
    assert (path / MANIFEST_NAME).is_file()
    assert (path / ARRAYS_NAME).is_file()
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["format"] == "repro-checkpoint"
    assert manifest["schema_version"] == 2
    assert manifest["epoch"] == 2
    assert manifest["world_size"] == 3
    assert manifest["world_lineage"] == [3]
    assert manifest["config_hash"] == trainer.config_fingerprint()
    assert "model/entity_emb" in manifest["arrays"]
    for meta in manifest["arrays"].values():
        assert set(meta) == {"sha256", "dtype", "shape"}


def test_restore_roundtrips_exact_state(store, snapshot):
    trainer, path = snapshot
    other = make_trainer(store)
    assert other.restore(path) == 2
    assert np.array_equal(other.model.entity_emb, trainer.model.entity_emb)
    assert np.array_equal(other.model.relation_emb, trainer.model.relation_emb)
    for name in ("entity_state", "relation_state"):
        a = getattr(trainer.optimizer, name)
        b = getattr(other.optimizer, name)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.steps, b.steps)
    assert other.scheduler.lr == trainer.scheduler.lr
    assert other.scheduler.best == trainer.scheduler.best
    assert other.scheduler.epoch == trainer.scheduler.epoch
    assert other._drs.switched == trainer._drs.switched
    assert other.result.logs == trainer.result.logs
    assert other.cluster.stats.nbytes_total == trainer.cluster.stats.nbytes_total
    assert other.cluster.elapsed == trainer.cluster.elapsed
    # RNG streams continue from the identical position.
    assert other.rng.bit_generator.state == trainer.rng.bit_generator.state
    assert (other._sel_rng.random(4) == trainer._sel_rng.random(4)).all()
    for wa, wb in zip(trainer.workers, other.workers):
        assert (wa.rng.random(4) == wb.rng.random(4)).all()


def test_save_load_save_is_byte_identical(snapshot, tmp_path):
    _, path = snapshot
    state = load_checkpoint(path)
    copy = write_checkpoint(state, tmp_path / "copy")
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        assert (copy / name).read_bytes() == (path / name).read_bytes()


def test_error_feedback_residuals_are_captured(store):
    maker = lambda: replace(rs_1bit(), error_feedback=True)
    trainer = make_trainer(store, maker=maker, n_nodes=2)
    trainer.run()
    state = capture_state(trainer)
    for rank in range(2):
        assert f"residual/entity/{rank}/values" in state.arrays
        assert f"residual/relation/{rank}/dirty" in state.arrays


# ---------------------------------------------------------------------------
# Distinct, actionable failure modes
# ---------------------------------------------------------------------------

def _copy_checkpoint(path, tmp_path):
    dst = tmp_path / "tampered"
    dst.mkdir()
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        (dst / name).write_bytes((path / name).read_bytes())
    return dst


def test_wrong_schema_version_rejected(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    manifest = json.loads((dst / MANIFEST_NAME).read_text())
    manifest["schema_version"] = 999
    (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointSchemaError, match="999"):
        load_checkpoint(dst)


def test_config_hash_mismatch_rejected(store, snapshot):
    _, path = snapshot
    other = make_trainer(store, seed=999)  # different training seed
    with pytest.raises(CheckpointConfigMismatchError, match="config hash"):
        other.restore(path)


def test_max_epochs_and_checkpoint_knobs_may_differ(store, snapshot, tmp_path):
    _, path = snapshot
    other = make_trainer(store, max_epochs=7,
                         checkpoint_dir=str(tmp_path / "elsewhere"),
                         checkpoint_every=5)
    assert other.restore(path) == 2


def test_missing_array_rejected(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    _rewrite_npz(dst / ARRAYS_NAME, drop="adam/entity/m")
    with pytest.raises(CheckpointMissingArrayError, match="adam/entity/m"):
        load_checkpoint(dst)


def test_undeclared_array_rejected(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    _rewrite_npz(dst / ARRAYS_NAME, extra="smuggled")
    with pytest.raises(CheckpointCorruptError, match="smuggled"):
        load_checkpoint(dst)


def test_tampered_array_fails_checksum(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    _rewrite_npz(dst / ARRAYS_NAME, tamper="model/entity_emb")
    with pytest.raises(CheckpointChecksumError, match="model/entity_emb"):
        load_checkpoint(dst)


def test_flipped_raw_byte_detected(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    raw = bytearray((dst / ARRAYS_NAME).read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    (dst / ARRAYS_NAME).write_bytes(bytes(raw))
    # Depending on where the flip lands, either the zip layer (CRC/header)
    # or the per-array checksum catches it — never a silent load.
    with pytest.raises((CheckpointCorruptError, CheckpointChecksumError)):
        load_checkpoint(dst)


def test_truncated_npz_detected(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    raw = (dst / ARRAYS_NAME).read_bytes()
    (dst / ARRAYS_NAME).write_bytes(raw[:len(raw) // 2])
    with pytest.raises((CheckpointCorruptError, CheckpointChecksumError)):
        load_checkpoint(dst)


def test_mangled_manifest_rejected(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    (dst / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(CheckpointCorruptError, match="JSON"):
        load_checkpoint(dst)


def test_foreign_json_rejected(snapshot, tmp_path):
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    (dst / MANIFEST_NAME).write_text('{"hello": "world"}')
    with pytest.raises(CheckpointCorruptError, match="manifest"):
        load_checkpoint(dst)


def test_empty_directory_is_a_clear_error(tmp_path, store):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        load_checkpoint(tmp_path / "nothing-here")
    with pytest.raises(CheckpointError, match="no checkpoint"):
        make_trainer(store).restore(tmp_path)


# ---------------------------------------------------------------------------
# Discovery and trainer-driven checkpointing
# ---------------------------------------------------------------------------

def test_latest_checkpoint_picks_highest_epoch(store, tmp_path):
    trainer = make_trainer(store, maker=baseline_allreduce, n_nodes=1,
                           max_epochs=3, checkpoint_dir=str(tmp_path),
                           checkpoint_every=1, checkpoint_keep=0)
    trainer.run()
    epochs = [epoch for epoch, _ in list_checkpoints(tmp_path)]
    assert epochs == [1, 2, 3]
    assert latest_checkpoint(tmp_path).name == "epoch-0003"
    # Torn-write leftovers (manifest-less dirs) are skipped, not fatal.
    (tmp_path / "epoch-9999").mkdir()
    assert latest_checkpoint(tmp_path).name == "epoch-0003"


def test_default_retention_keeps_last_two(store, tmp_path):
    trainer = make_trainer(store, maker=baseline_allreduce, n_nodes=1,
                           max_epochs=4, checkpoint_dir=str(tmp_path),
                           checkpoint_every=1)  # checkpoint_keep defaults to 2
    trainer.run()
    epochs = [epoch for epoch, _ in list_checkpoints(tmp_path)]
    assert epochs == [3, 4]


def test_checkpoint_config_validation():
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainConfig(checkpoint_every=-1)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        TrainConfig(checkpoint_every=2)


def test_fail_fast_flushes_a_resumable_checkpoint(store, tmp_path):
    plan = FaultPlan(seed=3, drop_prob=0.9, max_retries=1, policy="fail-fast")
    trainer = make_trainer(store, maker=baseline_allreduce, n_nodes=3,
                           faults=plan, checkpoint_dir=str(tmp_path))
    with pytest.raises(CollectiveFaultError):
        trainer.run()
    found = list_checkpoints(tmp_path)
    assert found, "fail-fast abort must leave a checkpoint behind"
    epoch, path = found[-1]
    assert path.name == f"failure-epoch-{epoch:04d}"
    state = load_checkpoint(path)  # fully valid and loadable
    assert state.epoch == epoch

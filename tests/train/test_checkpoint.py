"""Unit tests for the checkpoint subsystem: format, validation, recovery.

The bitwise resume-equivalence guarantees live in
``tests/integration/test_determinism.py``; this file covers the snapshot
format itself — deterministic bytes, state round-trips, checkpoint
discovery — and that every corruption mode (flipped byte, missing array,
wrong schema, mismatched config) raises its own distinct, actionable error.
"""

import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import DistributedTrainer, FaultPlan, TrainConfig
from repro.comm.faults import CollectiveFaultError
from repro.comm.network import NetworkModel
from repro.comm.sparse import SparseRows
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
    CheckpointState,
    _write_npz,
    apply_state,
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
    with open(path, "wb") as fh:
        _write_npz(fh, arrays)


# ---------------------------------------------------------------------------
# Format and round-trips
# ---------------------------------------------------------------------------

def test_checkpoint_layout_and_manifest(snapshot):
    trainer, path = snapshot
    assert (path / MANIFEST_NAME).is_file()
    assert (path / ARRAYS_NAME).is_file()
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["format"] == "repro-checkpoint"
    assert manifest["schema_version"] == 4
    assert manifest["model"] == trainer.config.model_name == "complex"
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
    assert other.exchange.drs.switched == trainer.exchange.drs.switched
    assert other.result.logs == trainer.result.logs
    assert other.cluster.stats.nbytes_total == trainer.cluster.stats.nbytes_total
    assert other.cluster.elapsed == trainer.cluster.elapsed
    # RNG streams continue from the identical position.
    assert other.rng.bit_generator.state == trainer.rng.bit_generator.state
    assert (other.exchange.rng.random(4)
            == trainer.exchange.rng.random(4)).all()
    for wa, wb in zip(trainer.workers, other.workers):
        assert (wa.rng.random(4) == wb.rng.random(4)).all()


def test_save_load_save_is_byte_identical(snapshot, tmp_path):
    _, path = snapshot
    state = load_checkpoint(path)
    copy = write_checkpoint(state, tmp_path / "copy")
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        assert (copy / name).read_bytes() == (path / name).read_bytes()


def test_eval_timer_section_carries_queries_not_wall_time(store, snapshot,
                                                         tmp_path):
    """The snapshot holds the lineage's query count only; a schema-3
    manifest that still carries the old wall-clock fields restores, and
    they are ignored."""
    trainer, path = snapshot
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["state"]["eval_timer"] == {
        "queries": trainer.eval_timer.queries}
    old = tmp_path / "old"
    old.mkdir()
    (old / ARRAYS_NAME).write_bytes((path / ARRAYS_NAME).read_bytes())
    manifest["state"]["eval_timer"].update(seconds=12.5, sections=3)
    (old / MANIFEST_NAME).write_text(json.dumps(manifest))
    other = make_trainer(store)
    assert other.restore(old) == 2
    assert other.eval_timer.queries == trainer.eval_timer.queries > 0
    assert other.eval_timer.seconds == 0.0
    assert capture_state(other).scalars == load_checkpoint(path).scalars


def test_error_feedback_residuals_are_captured(store):
    maker = lambda: replace(rs_1bit(), error_feedback=True)
    trainer = make_trainer(store, maker=maker, n_nodes=2)
    trainer.run()
    state = capture_state(trainer)
    for rank in range(2):
        assert f"residual/entity/{rank}/values" in state.arrays
        assert f"residual/relation/{rank}/rows" in state.arrays


# ---------------------------------------------------------------------------
# Distinct, actionable failure modes
# ---------------------------------------------------------------------------

def _copy_checkpoint(path, tmp_path):
    dst = tmp_path / "tampered"
    dst.mkdir()
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        (dst / name).write_bytes((path / name).read_bytes())
    return dst


def _with_schema_version(path, tmp_path, version):
    dst = _copy_checkpoint(path, tmp_path)
    manifest = json.loads((dst / MANIFEST_NAME).read_text())
    manifest["schema_version"] = version
    (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
    return dst


def test_wrong_schema_version_rejected(snapshot, tmp_path):
    _, path = snapshot
    dst = _with_schema_version(path, tmp_path, 999)
    with pytest.raises(CheckpointSchemaError, match="999"):
        load_checkpoint(dst)


def test_schema_2_checkpoints_are_refused_not_converted(snapshot, tmp_path):
    """Schema 2 stored residuals as dense ``values`` + ``dirty``; there is
    one reader, so the previous version is refused like any other."""
    _, path = snapshot
    dst = _with_schema_version(path, tmp_path, 2)
    with pytest.raises(CheckpointSchemaError, match="version 2 .*expected 4"):
        load_checkpoint(dst)


def test_schema_3_checkpoints_are_refused_not_defaulted(snapshot, tmp_path):
    """Schema 3 did not name the model; nothing guesses it for them."""
    _, path = snapshot
    dst = _with_schema_version(path, tmp_path, 3)
    manifest = json.loads((dst / MANIFEST_NAME).read_text())
    del manifest["model"]
    (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointSchemaError, match="version 3 .*expected 4"):
        load_checkpoint(dst)


def test_unregistered_model_is_corrupt(snapshot, tmp_path):
    """Only a registered model name parses, so serving never has to guess
    what a manifest's ``model`` means."""
    _, path = snapshot
    dst = _copy_checkpoint(path, tmp_path)
    manifest = json.loads((dst / MANIFEST_NAME).read_text())
    manifest["model"] = "rotate"
    (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointCorruptError,
                       match=r"field 'model' is 'rotate', expected one of"):
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


# ---------------------------------------------------------------------------
# Overwriting a checkpoint directory: the manifest is still last
# ---------------------------------------------------------------------------

class _Killed(BaseException):
    """Stands in for the process dying at a chosen rename."""


def test_kill_between_npz_and_manifest_hides_an_overwritten_dir(
        store, tmp_path, monkeypatch):
    """Re-writing ``epoch-0002`` (a resume from epoch 1 does) and dying
    after the npz landed must not leave the *old* manifest describing the
    *new* arrays: the directory vanishes from discovery and resume falls
    back to the previous epoch instead of hitting a checksum error."""
    first = make_trainer(store, checkpoint_dir=str(tmp_path),
                         checkpoint_every=1, checkpoint_keep=0)
    first.run()
    assert latest_checkpoint(tmp_path).name == "epoch-0002"

    other = make_trainer(store, seed=99)  # different arrays, same layout
    other.run()
    real_replace = os.replace

    def dying_replace(src, dst):
        if str(dst).endswith(MANIFEST_NAME):
            raise _Killed
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(_Killed):
        write_checkpoint(capture_state(other), tmp_path / "epoch-0002")
    monkeypatch.undo()

    assert [p.name for _, p in list_checkpoints(tmp_path)] == ["epoch-0001"]
    assert not list(tmp_path.rglob("*.tmp"))
    resumed = make_trainer(store, checkpoint_keep=0)
    assert resumed.restore(tmp_path) == 1

    # The next complete write makes the directory visible again.
    write_checkpoint(capture_state(first), tmp_path / "epoch-0002")
    assert latest_checkpoint(tmp_path).name == "epoch-0002"
    assert load_checkpoint(tmp_path / "epoch-0002").epoch == 2


def test_failed_write_leaves_no_tmp_file(snapshot, tmp_path, monkeypatch):
    _, path = snapshot
    state = load_checkpoint(path)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(state, tmp_path / "never")
    monkeypatch.undo()
    assert list((tmp_path / "never").iterdir()) == []
    assert latest_checkpoint(tmp_path) is None


# ---------------------------------------------------------------------------
# Dirty-row residual storage (schema 3)
# ---------------------------------------------------------------------------

NET = NetworkModel(alpha=5e-6, beta=1.25e-10, ranks_per_node=2,
                   intra=NetworkModel(alpha=1e-7, beta=1e-11))


def ef_hier_trainer(store, global_ranks=None, **overrides):
    """Error feedback on the two-level stack: rank *and* node residuals."""
    strategy = replace(drs_1bit_rp_ss(), error_feedback=True,
                       collective="auto", drs_probe_interval=2)
    return DistributedTrainer(store, strategy, 4, config=config(**overrides),
                              network=NET, global_ranks=global_ranks)


def residual_stores(trainer) -> dict:
    """Every residual store of a trainer by its checkpoint key."""
    return {key: st for key, _, st in trainer.exchange.residual_stores()}


def dirty_every_store(trainer, fraction, seed=5):
    rng = np.random.default_rng(seed)
    for st in residual_stores(trainer).values():
        rows = np.flatnonzero(rng.random(st.n_rows) < fraction)
        values = rng.normal(size=(len(rows), st.dim)).astype(np.float32)
        values[::3, 0] = -0.0  # a dirty row may hold signed zeros
        st.store(SparseRows(rows, values, st.n_rows))


def assert_same_store(a, b):
    assert a.rows.tobytes() == b.rows.tobytes()
    assert a.values.shape == b.values.shape
    assert a.values.tobytes() == b.values.tobytes()


def assert_pristine(st):
    assert st.rows.shape == (0,)
    assert st.values.shape == (0, st.dim)


@pytest.fixture(scope="module")
def ef_run(store, tmp_path_factory):
    """Three epochs (hier, allgather probe, hier), one checkpoint each."""
    root = tmp_path_factory.mktemp("ef-ckpt")
    trainer = ef_hier_trainer(store, max_epochs=3, checkpoint_dir=str(root),
                              checkpoint_every=1, checkpoint_keep=0)
    trainer.run()
    assert [log.comm_mode for log in trainer.result.logs] == [
        "hierarchical", "allgather", "hierarchical"]
    return trainer, root


@pytest.mark.parametrize("fraction", [0.0, 0.4, 1.0],
                         ids=["all-clean", "mixed", "all-dirty"])
def test_residuals_round_trip_through_disk(store, tmp_path, fraction):
    source = ef_hier_trainer(store)
    dirty_every_store(source, fraction)
    path = write_checkpoint(capture_state(source), tmp_path / "snap")
    state = load_checkpoint(path, source.config_fingerprint())
    for key, st in residual_stores(source).items():
        assert state.arrays[f"{key}/rows"].tolist() == st.rows.tolist()
        assert state.arrays[f"{key}/values"].shape == (st.nnz_rows, st.dim)
        assert state.arrays[f"{key}/values"].tobytes() == st.values.tobytes()

    target = ef_hier_trainer(store)
    dirty_every_store(target, 0.7, seed=6)  # stale state must not survive
    apply_state(target, state)
    restored = residual_stores(target)
    for key, st in residual_stores(source).items():
        assert_same_store(st, restored[key])


def test_residuals_follow_rank_map_and_node_ids(store, tmp_path):
    """Elastic restore: ranks follow ``rank_map`` (``None`` = fresh member),
    node stores follow physical node ids (intersection of old and new)."""
    source = ef_hier_trainer(store)  # global ranks 0-3 on nodes 0, 1
    dirty_every_store(source, 0.5)
    path = write_checkpoint(capture_state(source), tmp_path / "snap")
    state = load_checkpoint(path)

    # New world: old ranks 2, 3 survive (node 1); ranks 4, 5 join (node 2).
    target = ef_hier_trainer(store, global_ranks=(2, 3, 4, 5))
    dirty_every_store(target, 0.7, seed=6)
    apply_state(target, state, rank_map=[2, 3, None, None])

    old, new = residual_stores(source), residual_stores(target)
    for name in ("entity", "relation"):
        assert_same_store(old[f"residual/{name}/2"], new[f"residual/{name}/0"])
        assert_same_store(old[f"residual/{name}/3"], new[f"residual/{name}/1"])
        assert_pristine(new[f"residual/{name}/2"])
        assert_pristine(new[f"residual/{name}/3"])
        assert_same_store(old[f"residual/hier_{name}/1"],
                          new[f"residual/hier_{name}/1"])
        assert_pristine(new[f"residual/hier_{name}/2"])
        assert f"residual/hier_{name}/0" not in new


def test_trained_residuals_resave_byte_identical(ef_run, tmp_path):
    _, root = ef_run
    path = root / "epoch-0002"  # rank and node stores both dirty here
    state = load_checkpoint(path)
    assert len(state.arrays["residual/entity/0/rows"]) > 0
    assert len(state.arrays["residual/hier_entity/0/rows"]) > 0
    copy = write_checkpoint(state, tmp_path / "copy")
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        assert (copy / name).read_bytes() == (path / name).read_bytes()


def test_snapshot_stores_dirty_rows_only(ef_run):
    """The deterministic size gate: a hierarchical epoch leaves every rank
    store clean (inject + clear) and RP never dirties a relation store, so
    those cost zero value rows; node stores cost exactly their dirty rows."""
    trainer, root = ef_run
    for epoch, log in enumerate(trainer.result.logs, start=1):
        arrays = load_checkpoint(root / f"epoch-{epoch:04d}").arrays
        rank_rows = [len(arrays[f"residual/entity/{r}/values"])
                     for r in range(4)]
        if log.comm_mode == "hierarchical":
            assert rank_rows == [0, 0, 0, 0]
        else:
            assert all(n > 0 for n in rank_rows)
        for key in arrays:
            if key.startswith(("residual/relation/", "residual/hier_relation")):
                assert len(arrays[key]) == 0

    live = residual_stores(trainer)
    final = capture_state(trainer).arrays
    for key, st in live.items():
        # The snapshot shares the store's read-only pair, not a copy.
        assert final[f"{key}/rows"] is st.rows
        assert final[f"{key}/values"] is st.values
        assert len(st.values) == len(st.rows) == st.nnz_rows
    assert all(live[f"residual/hier_entity/{node}"].nnz_rows > 0
               for node in (0, 1))


def test_snapshot_residuals_survive_the_next_epoch(store):
    """A snapshot shares the stores' arrays; the next epoch swaps new ones
    into the stores and leaves the snapshot's bytes as captured."""
    trainer = ef_hier_trainer(store, max_epochs=3)
    trainer._stop_after = 2  # epoch 2 is the allgather probe
    trainer.run()
    snapshot = capture_state(trainer).arrays
    keys = [key for key in snapshot if key.startswith("residual/")]
    captured = {key: snapshot[key].tobytes() for key in keys}
    assert len(snapshot["residual/entity/0/rows"]) > 0
    assert len(snapshot["residual/hier_entity/0/rows"]) > 0

    trainer._stop_after = None
    trainer.run()  # epoch 3, hierarchical: clears ranks, re-stores nodes
    assert trainer.result.logs[-1].comm_mode == "hierarchical"
    live = capture_state(trainer).arrays
    assert live["residual/entity/0/rows"].shape == (0,)
    assert (live["residual/hier_entity/0/values"].tobytes()
            != captured["residual/hier_entity/0/values"])
    for key in keys:
        assert snapshot[key].tobytes() == captured[key]
        assert not snapshot[key].flags.writeable


MALFORMED = {
    "unsorted": lambda rows, values: (rows[::-1].copy(), values),
    "duplicate": lambda rows, values: (
        np.concatenate([rows[:1], rows[:-1]]), values),
    "out-of-range": lambda rows, values: (rows + 10 ** 6, values),
    "negative": lambda rows, values: (rows - 10 ** 6, values),
    "shorter-than-values": lambda rows, values: (rows[:-1], values),
    "longer-than-values": lambda rows, values: (rows, values[:-1]),
    "float-rows": lambda rows, values: (rows.astype(np.float64), values),
    "two-d-rows": lambda rows, values: (rows[:, None], values),
    "narrow-values": lambda rows, values: (rows, values[:, :1]),
    "flat-values": lambda rows, values: (rows, values[:, 0]),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("key", ["residual/entity/1", "residual/hier_entity/0"])
def test_malformed_residual_rows_are_corrupt_not_numpy_errors(
        store, ef_run, tmp_path, key, kind):
    _, root = ef_run
    state = load_checkpoint(root / "epoch-0002")
    rows, values = state.arrays[f"{key}/rows"], state.arrays[f"{key}/values"]
    assert len(rows) >= 2
    state.arrays[f"{key}/rows"], state.arrays[f"{key}/values"] = \
        MALFORMED[kind](rows, values)
    # Through the writer too: its checksums are honest, the rows are not.
    state = load_checkpoint(write_checkpoint(state, tmp_path / "bad"))
    with pytest.raises(CheckpointCorruptError, match=f"{key}/rows"):
        apply_state(ef_hier_trainer(store), state)


# ---------------------------------------------------------------------------
# The writer streams: no second copy of the state is ever held
# ---------------------------------------------------------------------------

def test_write_checkpoint_never_holds_a_second_copy(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {f"block/{i}": rng.random((1 << 19,)) for i in range(3)}  # 4 MiB each
    arrays["mask"] = rng.random(1 << 20) < 0.5
    arrays["empty"] = np.empty((0, 8), dtype=np.float32)
    state = CheckpointState(epoch=1, arrays=arrays, scalars={},
                            config_hash="0" * 64, model_name="complex",
                            world_size=1, world_lineage=(1,))
    total = sum(a.nbytes for a in arrays.values())

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        path = write_checkpoint(state, tmp_path / "big")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # One un-streamed array (a ``tobytes``, a ``BytesIO``) is already 31 %.
    assert peak < 0.25 * total, (peak, total)

    loaded = load_checkpoint(path)
    for name, arr in arrays.items():
        assert loaded.arrays[name].tobytes() == arr.tobytes()
        assert loaded.arrays[name].shape == arr.shape

"""Seeded fuzzer over every file of a snapshot.

A trained checkpoint with error-feedback residuals, a fault plan and a
binary sidecar is damaged one way at a time: seeded bit flips and
truncations of all four files (``manifest.json``, ``state.npz``,
``binary.json``, ``binary.npz``), and a key deletion plus a type swap at
every path of both manifests, nested ``state`` included.  For each damaged
copy:

* only the typed :class:`CheckpointError` taxonomy escapes
  ``load_checkpoint``, ``DistributedTrainer.restore`` and
  ``EmbeddingStore.from_checkpoint(with_binary=True)``, and
  ``list_checkpoints`` never raises;
* a failed ``restore`` leaves the trainer byte-equal to what it was —
  arrays, residual stores, clocks, scheduler, RNG positions and every other
  captured field.

The CLI surfaces the same failures as exit code 2 naming the path.
"""

import copy
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.comm.faults import FaultPlan
from repro.kg.datasets import make_tiny_kg, save_store
from repro.serve import EmbeddingStore, export_binary
from repro.training.checkpoint import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    CheckpointCorruptError,
    CheckpointError,
    capture_state,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.training.strategy import drs_1bit_rp_ss
from repro.training.trainer import DistributedTrainer, TrainConfig

SEED = 1234
FLIPS_PER_FILE = 24
SIDECAR_FILES = ("binary.json", "binary.npz")
FILES = (MANIFEST_NAME, ARRAYS_NAME) + SIDECAR_FILES


def make_trainer(store):
    strategy = replace(drs_1bit_rp_ss(), error_feedback=True,
                       drs_probe_interval=2)
    config = TrainConfig(dim=8, batch_size=128, max_epochs=2, lr_patience=6,
                         eval_max_queries=20, seed=31)
    faults = FaultPlan(seed=5, drop_prob=0.05, policy="fallback-dense")
    return DistributedTrainer(store, strategy, 2, config=config,
                              faults=faults)


def image(trainer) -> tuple:
    """Every byte a checkpoint would capture from ``trainer``."""
    state = capture_state(trainer)
    arrays = {name: (arr.dtype.str, arr.shape, arr.tobytes())
              for name, arr in state.arrays.items()}
    return (arrays, json.dumps(state.scalars, sort_keys=True), state.epoch,
            state.world_lineage)


def json_paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def swapped(value):
    """A value of another JSON type."""
    if isinstance(value, dict):
        return []
    if isinstance(value, list):
        return {}
    return 7 if isinstance(value, str) else "x"


def damaged_manifests(raw: bytes):
    """``(label, bytes)``: one deletion and one type swap per path."""
    doc = json.loads(raw)
    for path in json_paths(doc):
        if not path:
            yield "root: a JSON list", json.dumps([doc]).encode()
            continue
        for op in ("delete", "swap"):
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if op == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = swapped(parent[path[-1]])
            yield f"{op} {'.'.join(map(str, path))}", \
                json.dumps(mutated).encode()


def damaged_bytes(raw: bytes, rng):
    """``(label, bytes)``: seeded single-bit flips and truncations."""
    for at in rng.integers(0, len(raw), size=FLIPS_PER_FILE):
        bit = int(rng.integers(0, 8))
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        yield f"flip byte {at} bit {bit}", bytes(flipped)
    for size in (0, 1, len(raw) // 2, len(raw) - 1):
        yield f"truncate to {size}", raw[:size]


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    store = make_tiny_kg(seed=7)
    trainer = make_trainer(store)
    trainer.run()
    # Epoch 2 probes allgather and decides, so the path-wise fuzzer below
    # damages a real decision record.
    assert any(d["mechanism"] == "drs.probe"
               for d in trainer.result.decisions)
    pristine = tmp_path_factory.mktemp("fuzz-src") / "snap"
    write_checkpoint(capture_state(trainer), pristine)
    export_binary(pristine)
    return store, pristine


def test_only_typed_errors_escape_and_restore_is_all_or_nothing(
        snapshot, tmp_path):
    store, pristine = snapshot
    parent = tmp_path / "parent"
    snap = parent / "snap"
    shutil.copytree(pristine, snap)
    original = {name: (pristine / name).read_bytes() for name in FILES}
    trainer = make_trainer(store)
    before = image(trainer)

    rng = np.random.default_rng(SEED)
    cases = []
    for name in FILES:
        if name.endswith(".json"):
            cases += [(name, label, raw) for label, raw
                      in damaged_manifests(original[name])]
        cases += [(name, label, raw) for label, raw
                  in damaged_bytes(original[name], rng)]

    restored = 0
    for name, label, raw in cases:
        (snap / name).write_bytes(raw)
        where = f"{name}: {label}"
        list_checkpoints(parent)
        if name not in SIDECAR_FILES:
            try:
                load_checkpoint(snap)
            except CheckpointError:
                pass
            try:
                trainer.restore(snap)
                restored += 1
                before = image(trainer)
            except CheckpointError:
                assert image(trainer) == before, where
        try:
            EmbeddingStore.from_checkpoint(snap, with_binary=True)
        except CheckpointError:
            pass
        (snap / name).write_bytes(original[name])
    # Most damage is refused.  What restores is harmless: the unused
    # dtype/shape columns of the arrays table, a value its parser still
    # accepts (any JSON value reads as a flag), a flipped digit in a
    # counter.  Every field a writer emits is required.
    assert len(cases) > 500
    assert restored < len(cases) // 2


@pytest.mark.parametrize("section,field", [
    ("comm_stats", "by_hop"), ("drs", "probe_comms"),
    ("result", "hier_steps"), ("result", "decisions")])
def test_missing_field_is_corrupt_and_writes_nothing(snapshot, tmp_path,
                                                     section, field):
    store, pristine = snapshot
    snap = tmp_path / "snap"
    shutil.copytree(pristine, snap)
    manifest = json.loads((snap / MANIFEST_NAME).read_text())
    del manifest["state"][section][field]
    (snap / MANIFEST_NAME).write_text(json.dumps(manifest))
    trainer = make_trainer(store)
    before = image(trainer)
    with pytest.raises(CheckpointCorruptError, match=f"state.{section}"):
        trainer.restore(snap)
    assert image(trainer) == before


@pytest.mark.parametrize("damage", [
    lambda record: record.pop("inputs"),
    lambda record: record.update(at="2"),
    lambda record: record.update(mechanism="plateau"),
    lambda record: record.update(choice=None),
    lambda record: record.update(inputs=[]),
    lambda record: record.update(extra=1),
], ids=["no-inputs", "at-string", "unknown-mechanism", "choice-null",
        "inputs-list", "extra-field"])
def test_malformed_decision_is_corrupt_and_writes_nothing(snapshot, tmp_path,
                                                          damage):
    store, pristine = snapshot
    snap = tmp_path / "snap"
    shutil.copytree(pristine, snap)
    manifest = json.loads((snap / MANIFEST_NAME).read_text())
    damage(manifest["state"]["result"]["decisions"][-1])
    (snap / MANIFEST_NAME).write_text(json.dumps(manifest))
    trainer = make_trainer(store)
    before = image(trainer)
    with pytest.raises(CheckpointCorruptError,
                       match="state.result.decisions"):
        trainer.restore(snap)
    assert image(trainer) == before


CLI_TRAIN = ["--dim", "8", "--batch-size", "128", "--max-epochs", "2",
             "--patience", "5", "--warmup", "0", "--nodes", "2",
             "--strategy", "DRS+1-bit+RP+SS", "--json"]


def _edit_json(path, edit):
    """Apply ``edit`` in place; an edit returning a list replaces the
    document with it."""
    doc = json.loads(path.read_text())
    new = edit(doc)
    path.write_text(json.dumps(new if isinstance(new, list) else doc))


RESUME_AND_SERVE = {
    "manifest is a JSON list": (MANIFEST_NAME, lambda doc: [doc]),
    "no epoch": (MANIFEST_NAME, lambda doc: doc.pop("epoch")),
    "epoch is a string": (MANIFEST_NAME,
                          lambda doc: doc.update(epoch="x")),
    "lineage is a string": (MANIFEST_NAME,
                            lambda doc: doc.update(world_lineage="ab")),
    "arrays table is a list": (MANIFEST_NAME,
                               lambda doc: doc.update(arrays=[])),
    # Schema 4 names the model that wrote the snapshot: required, and
    # only "complex" parses.
    "no model": (MANIFEST_NAME, lambda doc: doc.pop("model")),
    "model is unregistered": (MANIFEST_NAME,
                              lambda doc: doc.update(model="rotate")),
    "model is distmult": (MANIFEST_NAME,
                          lambda doc: doc.update(model="distmult")),
}
RESUME_ONLY = {
    "no state.scheduler": (MANIFEST_NAME,
                           lambda doc: doc["state"].pop("scheduler")),
    "no state.drs.probes": (MANIFEST_NAME,
                            lambda doc: doc["state"]["drs"].pop("probes")),
    # Written by every schema-3 writer, so required: no silent default.
    "no state.drs.probe_comms": (
        MANIFEST_NAME, lambda doc: doc["state"]["drs"].pop("probe_comms")),
    "no state.comm_stats.by_hop": (
        MANIFEST_NAME, lambda doc: doc["state"]["comm_stats"].pop("by_hop")),
    "no state.result.hier_steps": (
        MANIFEST_NAME, lambda doc: doc["state"]["result"].pop("hier_steps")),
    # Schema 5: the decision log is required, and each record typed.
    "no state.result.decisions": (
        MANIFEST_NAME, lambda doc: doc["state"]["result"].pop("decisions")),
    "decision record has only a mechanism": (
        MANIFEST_NAME, lambda doc: doc["state"]["result"]["decisions"].append(
            {"mechanism": "drs.probe"})),
    "lineage is empty": (MANIFEST_NAME,
                         lambda doc: doc.update(world_lineage=[])),
}
SERVE_ONLY = {
    "sidecar entry is a string": (
        "binary.json",
        lambda doc: doc["arrays"].update({"binary/entity_codes": "x"})),
}


def test_cli_exits_2_naming_the_path(tmp_path, capsys):
    kg = tmp_path / "kg.npz"
    save_store(make_tiny_kg(seed=7), str(kg))
    train = ["--dataset-file", str(kg)] + CLI_TRAIN
    run = tmp_path / "run"
    assert main(train + ["--checkpoint-dir", str(run),
                         "--checkpoint-every", "1"]) == 0
    newest = list_checkpoints(run)[-1][1]
    assert main(["export-binary", "--checkpoint", str(newest)]) == 0
    capsys.readouterr()

    cases = [(label, case, commands) for commands, table in (
        (("resume", "serve"), RESUME_AND_SERVE), (("resume",), RESUME_ONLY),
        (("serve",), SERVE_ONLY)) for label, case in table.items()]
    for i, (label, (name, edit), commands) in enumerate(cases):
        parent = tmp_path / f"case-{i}"
        snap = parent / "snap"
        shutil.copytree(newest, snap)
        _edit_json(snap / name, edit)
        for command in commands:
            target = parent if label == "manifest is a JSON list" else snap
            argv = (train + ["--resume", str(target)] if command == "resume"
                    else ["serve", "--checkpoint", str(target), "--tier",
                          "binary", "--no-filter", "--query", "0,0"])
            assert main(argv) == 2, (label, command)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(target) in err, \
                (label, command, err)

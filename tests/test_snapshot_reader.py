"""The snapshot read path: one reader, and what one load costs.

Every checkpoint and sidecar file is parsed and verified by the reader in
``repro.training.checkpoint`` and nowhere else (an AST guard), and the
deterministic counters below pin how much work one load does: manifests
parsed and SHA-256 passes over entity-shaped arrays.  Counters, not wall
clock, so the gates hold on any runner.
"""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.kg.datasets import make_tiny_kg
from repro.serve import EmbeddingStore, QueryEngine, export_binary
from repro.training import checkpoint as ckpt
from repro.training.strategy import baseline_allreduce
from repro.training.trainer import DistributedTrainer, TrainConfig


def _calls(root: Path):
    """``(module, enclosing function, callee)`` for every call under
    ``root``; module-level calls report ``<module>``."""
    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                yield module, where, ast.unparse(child.func)
            yield from visit(child, module, where)

    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        yield from visit(ast.parse(path.read_text()), module, "<module>")


def test_snapshot_files_are_read_by_the_reader_alone():
    """One manifest parser and one array validator: ``json.loads`` and
    ``np.load`` run only inside them (``load_store`` reads a dataset, not a
    snapshot), array digests are computed only inside the checkpoint
    module, and the one public digest helper serves only the sidecar
    binding check of an in-memory store, which never went through the
    reader."""
    sites = {"_sha256_array": set(), "np.load": set(), "json.loads": set(),
             "array_digest": set()}
    for module, where, callee in _calls(Path(repro.__file__).parent):
        name = callee.rpartition(".")[2]
        if callee in ("np.load", "json.loads"):
            sites[callee].add((module, where))
        elif name in ("_sha256_array", "array_digest"):
            sites[name].add((module, where))
    assert {module for module, _ in sites["_sha256_array"]} == {
        "training/checkpoint.py"}
    assert sites["np.load"] == {("training/checkpoint.py", "_read_arrays"),
                                ("kg/datasets.py", "load_store")}
    assert sites["json.loads"] == {("training/checkpoint.py",
                                    "_read_manifest")}
    assert sites["array_digest"] == {("serve/binary.py", "check_geometry")}


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """A parent of three epoch snapshots of one run, each with a sidecar."""
    root = tmp_path_factory.mktemp("reader")
    config = TrainConfig(dim=8, batch_size=128, max_epochs=3, lr_patience=6,
                         eval_max_queries=20, seed=777,
                         checkpoint_dir=str(root), checkpoint_every=1,
                         checkpoint_keep=0)
    DistributedTrainer(make_tiny_kg(seed=7), baseline_allreduce(), 2,
                       config=config).run()
    paths = [path for _, path in ckpt.list_checkpoints(root)]
    assert len(paths) == 3
    for path in paths:
        export_binary(path)
    return root, paths


@pytest.fixture()
def entity_hashes(monkeypatch, snapshots):
    """Counts SHA-256 passes over arrays shaped like the entity matrix."""
    shape = EmbeddingStore.from_checkpoint(
        snapshots[1][-1]).model.entity_emb.shape
    counted = []
    real = ckpt._sha256_array

    def counting(arr):
        counted.append(arr.shape == shape)
        return real(arr)

    monkeypatch.setattr(ckpt, "_sha256_array", counting)
    return counted


def test_reload_hashes_each_entity_shaped_array_once(snapshots,
                                                     entity_hashes):
    """The loader verifies the matrix and its two Adam moments; the
    sidecar binding reuses the verified digest instead of re-hashing."""
    _, paths = snapshots
    engine = QueryEngine(EmbeddingStore.from_checkpoint(
        paths[0], with_binary=True), tier="binary", rerank_k=8)
    entity_hashes.clear()
    assert engine.reload(paths[1])["swapped"] is True
    assert sum(entity_hashes) == 3


def test_export_hashes_each_entity_shaped_array_once(snapshots,
                                                     entity_hashes):
    export_binary(snapshots[1][0])
    assert sum(entity_hashes) == 3


def test_parent_load_parses_few_manifests(snapshots, monkeypatch):
    """Resolving a parent of three reads each child manifest once; then
    the snapshot's own and its sidecar's."""
    parses = []
    real = json.loads

    def counting(*args, **kwargs):
        parses.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    store = EmbeddingStore.from_checkpoint(snapshots[0], with_binary=True)
    monkeypatch.undo()
    assert store.epoch == 3
    assert len(parses) <= 5

"""EmbeddingStore: checkpoint-backed read-only serving state.

Covers the read-only load path: a served snapshot is bitwise the trained
model, the arrays are frozen, naming the wrong architecture fails loudly,
and every checkpoint corruption mode surfaces as its specific
``CheckpointError`` subclass — while a world-lineage mismatch, which a
plain training resume must refuse, is accepted read-only.
"""

import json

import numpy as np
import pytest

from repro.kg.datasets import make_tiny_kg
from repro.serve import EmbeddingStore, QueryEngine
from repro.training.checkpoint import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    CheckpointChecksumError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointSchemaError,
    CheckpointWorldMismatchError,
    _write_npz,
)
from repro.training.strategy import baseline_allreduce
from repro.training.trainer import DistributedTrainer, TrainConfig


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg(seed=7)


def make_trainer(store, n_nodes=2, **overrides):
    defaults = dict(dim=8, batch_size=128, max_epochs=2, lr_patience=6,
                    eval_max_queries=20, seed=777)
    defaults.update(overrides)
    return DistributedTrainer(store, baseline_allreduce(), n_nodes,
                              config=TrainConfig(**defaults))


@pytest.fixture(scope="module")
def snapshot(store, tmp_path_factory):
    """A trained trainer plus its saved checkpoint directory."""
    trainer = make_trainer(store)
    trainer.run()
    path = tmp_path_factory.mktemp("serve-ckpt") / "snap"
    trainer.save_checkpoint(path)
    return trainer, path


def _copy_checkpoint(path, tmp_path):
    dst = tmp_path / "tampered"
    dst.mkdir()
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        (dst / name).write_bytes((path / name).read_bytes())
    return dst


class TestLoad:
    def test_served_embeddings_are_bitwise_the_trained_model(
            self, store, snapshot):
        trainer, path = snapshot
        served = EmbeddingStore.from_checkpoint(path, model_name="complex",
                                                dataset=store)
        assert served.model.entity_emb.tobytes() == \
            trainer.model.entity_emb.tobytes()
        assert served.model.relation_emb.tobytes() == \
            trainer.model.relation_emb.tobytes()
        assert served.epoch == 2
        assert served.filter_index is store.filter_index
        assert served.model.dim == trainer.model.dim

    def test_parent_directory_resolves_to_latest(self, store, snapshot):
        trainer, path = snapshot
        served = EmbeddingStore.from_checkpoint(path.parent,
                                                model_name="complex",
                                                dataset=store)
        assert served.epoch == 2

    def test_arrays_are_frozen(self, store, snapshot):
        _, path = snapshot
        served = EmbeddingStore.from_checkpoint(path, model_name="complex",
                                                dataset=store)
        with pytest.raises(ValueError, match="read-only"):
            served.model.entity_emb[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            served.model.relation_emb[0, 0] = 1.0

    def test_from_model_freezes_a_copy(self, store):
        from repro.models import ComplEx
        model = ComplEx(store.n_entities, store.n_relations, 8, seed=3)
        served = EmbeddingStore.from_model(model, dataset=store)
        with pytest.raises(ValueError, match="read-only"):
            served.model.entity_emb[0, 0] = 1.0
        model.entity_emb[0, 0] = 1.0  # the original stays trainable

    def test_wrong_architecture_rejected(self, store, snapshot):
        _, path = snapshot
        # The manifest names the model that wrote it.  A ComplEx snapshot
        # has DistMult's array shapes at twice the dim, so only that name
        # tells the two apart.
        with pytest.raises(ValueError, match="layout|architecture"):
            EmbeddingStore.from_checkpoint(path, model_name="distmult")

    def test_unknown_model_name_rejected(self, snapshot):
        _, path = snapshot
        with pytest.raises(ValueError, match="unknown model"):
            EmbeddingStore.from_checkpoint(path, model_name="magic")

    def test_vocabulary_mismatch_rejected(self, snapshot):
        _, path = snapshot
        other = make_tiny_kg(seed=1, n_entities=33, n_relations=5)
        with pytest.raises(ValueError, match="entities"):
            EmbeddingStore.from_checkpoint(path, model_name="complex",
                                           dataset=other)

    def test_summary_and_nbytes(self, store, snapshot):
        _, path = snapshot
        served = EmbeddingStore.from_checkpoint(path, model_name="complex",
                                                dataset=store)
        summary = served.summary()
        assert summary["model"] == "ComplEx"
        assert summary["entities"] == store.n_entities
        assert summary["filtered"] is True
        assert served.nbytes > served.model.entity_emb.nbytes


class TestNegative:
    """Corruption must raise the checkpoint error taxonomy, not a generic
    exception — serving reuses the training stack's validation wholesale."""

    def test_missing_checkpoint_is_a_clear_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            EmbeddingStore.from_checkpoint(tmp_path)

    def test_corrupt_manifest(self, snapshot, tmp_path):
        _, path = snapshot
        dst = _copy_checkpoint(path, tmp_path)
        (dst / MANIFEST_NAME).write_text('{"format": "repro-checkpoint", ')
        with pytest.raises(CheckpointCorruptError, match="JSON"):
            EmbeddingStore.from_checkpoint(dst, model_name="complex")

    def test_checksum_mismatch(self, snapshot, tmp_path):
        _, path = snapshot
        dst = _copy_checkpoint(path, tmp_path)
        with np.load(dst / ARRAYS_NAME, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["model/entity_emb"][0, 0] += 0.5
        with open(dst / ARRAYS_NAME, "wb") as fh:
            _write_npz(fh, arrays)
        with pytest.raises(CheckpointChecksumError, match="model/entity_emb"):
            EmbeddingStore.from_checkpoint(dst, model_name="complex")

    def test_schema_v1_without_lineage(self, snapshot, tmp_path):
        """A pre-lineage (schema 1) snapshot is a foreign writer: the
        schema error names both versions, read path included."""
        _, path = snapshot
        dst = _copy_checkpoint(path, tmp_path)
        manifest = json.loads((dst / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 1
        del manifest["world_size"]
        del manifest["world_lineage"]
        (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointSchemaError, match="1"):
            EmbeddingStore.from_checkpoint(dst, model_name="complex")

    def test_world_mismatch_accepted_read_only(self, store, snapshot,
                                               tmp_path):
        """A snapshot from a shrunk world refuses a plain 2-rank resume
        but serves fine — serving rebuilds no world."""
        _, path = snapshot
        dst = _copy_checkpoint(path, tmp_path)
        manifest = json.loads((dst / MANIFEST_NAME).read_text())
        manifest["world_size"] = 3
        manifest["world_lineage"] = [4, 3]
        (dst / MANIFEST_NAME).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")

        fresh = make_trainer(store)
        with pytest.raises(CheckpointWorldMismatchError):
            fresh.restore(dst)

        served = EmbeddingStore.from_checkpoint(dst, model_name="complex",
                                                dataset=store)
        assert served.world_lineage == (4, 3)
        # ... and it actually answers queries.
        result = QueryEngine(served).topk_tails(0, 0, k=3)
        assert len(result) == 3

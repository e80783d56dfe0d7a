"""Binary sidecar: export, load, and every way it must fail loudly.

The sidecar (``binary.npz`` + ``binary.json``) rides next to a checkpoint
without touching the checkpoint's own files.  Its failure taxonomy must
mirror the checkpoint's: corrupt bytes raise ``CheckpointChecksumError``
naming the array, a foreign schema raises ``CheckpointSchemaError``, an
internally inconsistent manifest raises ``CheckpointCorruptError``, and a
sidecar from a *different snapshot* — same shape, different digest —
raises ``CheckpointConfigMismatchError`` instead of silently generating
candidates from stale geometry.  The CLI surfaces all of these as exit
code 2 with the offending path in the message.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.kg.datasets import make_tiny_kg
from repro.serve import EmbeddingStore, QueryEngine, export_binary
from repro.training.checkpoint import (
    CheckpointChecksumError,
    CheckpointConfigMismatchError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointSchemaError,
    _write_npz,
)
from repro.training.strategy import baseline_allreduce
from repro.training.trainer import DistributedTrainer, TrainConfig


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg(seed=7)


@pytest.fixture(scope="module")
def checkpoint(store, tmp_path_factory):
    """A trained checkpoint directory, no sidecar yet."""
    trainer = DistributedTrainer(
        store, baseline_allreduce(), 2,
        config=TrainConfig(dim=8, batch_size=128, max_epochs=2,
                           lr_patience=6, eval_max_queries=20, seed=777))
    trainer.run()
    path = tmp_path_factory.mktemp("binary-ckpt") / "snap"
    trainer.save_checkpoint(path)
    return path


@pytest.fixture()
def exported(checkpoint, tmp_path):
    """A tamperable copy of the checkpoint with a fresh sidecar."""
    dst = tmp_path / "exported"
    dst.mkdir()
    for item in checkpoint.iterdir():
        (dst / item.name).write_bytes(item.read_bytes())
    export_binary(dst, model_name="complex")
    return dst


class TestExport:
    def test_export_then_serve_binary_tier(self, store, exported):
        served = EmbeddingStore.from_checkpoint(exported,
                                                model_name="complex",
                                                dataset=store,
                                                with_binary=True)
        assert served.binary is not None
        summary = served.summary()
        assert summary["binary_bytes"] == served.binary.nbytes
        assert summary["binary_stat"] == "avg"
        result = QueryEngine(served, tier="binary",
                             rerank_k=8).topk_tails(0, 0, k=3)
        assert len(result) == 3

    def test_export_summary_reports_measured_sizes(self, checkpoint,
                                                   tmp_path):
        dst = tmp_path / "copy"
        dst.mkdir()
        for item in checkpoint.iterdir():
            (dst / item.name).write_bytes(item.read_bytes())
        _, summary = export_binary(dst, model_name="complex")
        dense = summary["dense_bytes"]
        assert summary["binary_bytes"] < dense
        assert summary["memory_reduction"] == dense / summary["binary_bytes"]
        # dim=8 complex -> 16-bit rows: 64 dense bytes vs 2 + 4.
        assert summary["memory_reduction"] == pytest.approx(64 / 6)

    def test_cli_export_json(self, exported, capsys):
        rc = main(["export-binary", "--checkpoint", str(exported),
                   "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["width_bits"] == 16
        assert summary["memory_reduction"] > 1.0

    def test_cli_export_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main(["export-binary", "--checkpoint",
                   str(tmp_path / "nowhere")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot export")


class TestNegative:
    def test_missing_sidecar(self, store, checkpoint):
        with pytest.raises(CheckpointError, match="binary.json"):
            EmbeddingStore.from_checkpoint(checkpoint, model_name="complex",
                                           dataset=store, with_binary=True)

    def test_cli_serve_missing_sidecar_exits_2(self, checkpoint, capsys):
        rc = main(["serve", "--checkpoint", str(checkpoint), "--tier",
                   "binary", "--no-filter", "--query", "0,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot serve")
        assert "binary.json" in err

    def test_corrupt_codes_raise_checksum_error(self, exported):
        npz = exported / "binary.npz"
        with np.load(npz, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["binary/entity_codes"][0, 0] ^= 0xFF
        with open(npz, "wb") as fh:
            _write_npz(fh, arrays)
        with pytest.raises(CheckpointChecksumError,
                           match="binary/entity_codes"):
            EmbeddingStore.from_checkpoint(exported, model_name="complex",
                                           with_binary=True)

    def test_foreign_snapshot_digest_rejected(self, exported, capsys):
        """Same geometry, different recorded digest: the sidecar belongs
        to another snapshot and must be refused — including via the CLI,
        naming the file."""
        manifest_path = exported / "binary.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["source_entity_sha"] = "f" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointConfigMismatchError,
                           match="different snapshot"):
            EmbeddingStore.from_checkpoint(exported, model_name="complex",
                                           with_binary=True)
        rc = main(["serve", "--checkpoint", str(exported), "--tier",
                   "binary", "--no-filter", "--query", "0,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "binary.npz" in err and "export-binary" in err

    def test_inconsistent_width_is_corrupt(self, exported):
        """A manifest whose declared width cannot describe the stored
        code bytes is corruption, not a config mismatch."""
        manifest_path = exported / "binary.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["width"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptError,
                           match="internally inconsistent"):
            EmbeddingStore.from_checkpoint(exported, model_name="complex",
                                           with_binary=True)

    def test_foreign_schema_version_rejected(self, exported):
        manifest_path = exported / "binary.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointSchemaError, match="99"):
            EmbeddingStore.from_checkpoint(exported, model_name="complex",
                                           with_binary=True)

    def test_sidecar_leaves_checkpoint_files_untouched(self, checkpoint,
                                                       exported):
        """Exporting writes only the two sidecar files; the checkpoint's
        own bytes stay identical, so resume equivalence and golden diffs
        cannot be perturbed by an export."""
        for item in checkpoint.iterdir():
            assert (exported / item.name).read_bytes() == item.read_bytes()
        extras = {p.name for p in exported.iterdir()} \
            - {p.name for p in checkpoint.iterdir()}
        assert extras == {"binary.npz", "binary.json"}

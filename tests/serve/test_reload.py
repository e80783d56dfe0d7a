"""Hot checkpoint reload: atomic validate-then-swap of the served store.

The acceptance property: after ``QueryEngine.reload(new_checkpoint)``,
every query kind returns results *bitwise identical* to a fresh engine
built on the new checkpoint — and any reload failure (corrupt arrays,
missing sidecar, vocabulary drift) rolls back completely, leaving the old
store serving and the cache intact.  Plus the satellite regression: the
LRU cache must be invalidated on swap so no pre-reload answer — under any
``(tier, rerank_k)`` key — survives into the new snapshot's traffic.
"""

import hashlib
import shutil

import numpy as np
import pytest

from repro.kg.datasets import make_tiny_kg
from repro.serve import (EmbeddingStore, QueryEngine, ServeFaultPlan,
                         export_binary)
from repro.training import checkpoint as ckpt
from repro.training.checkpoint import (ARRAYS_NAME, MANIFEST_NAME,
                                       CheckpointChecksumError,
                                       CheckpointError, _write_npz,
                                       manifest_digest)
from repro.training.strategy import baseline_allreduce
from repro.training.trainer import DistributedTrainer, TrainConfig
from tests._fixtures import cache_keys, store_from_model


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_kg(seed=7)


def _train_and_save(dataset, path, seed, max_epochs=2):
    config = TrainConfig(dim=8, batch_size=128, max_epochs=max_epochs,
                         lr_patience=6, eval_max_queries=20, seed=seed)
    trainer = DistributedTrainer(dataset, baseline_allreduce(), 2,
                                 config=config)
    trainer.run()
    ckpt.write_checkpoint(ckpt.capture_state(trainer), path)
    return path


@pytest.fixture(scope="module")
def ckpt_a(dataset, tmp_path_factory):
    path = _train_and_save(dataset,
                           tmp_path_factory.mktemp("reload") / "gen-a",
                           seed=777)
    export_binary(path)
    return path


@pytest.fixture(scope="module")
def ckpt_b(dataset, tmp_path_factory):
    """A later generation: more epochs, different seed — the embeddings
    demonstrably differ from ``ckpt_a``."""
    path = _train_and_save(dataset,
                           tmp_path_factory.mktemp("reload") / "gen-b",
                           seed=778, max_epochs=3)
    export_binary(path)
    return path


def _engine_on(path, dataset, **kw):
    store = EmbeddingStore.from_checkpoint(
        path, model_name="complex", dataset=dataset,
        with_binary=kw.pop("with_binary", False))
    return QueryEngine(store, **kw)


def _copy_checkpoint(path, tmp_path, name="copy"):
    dst = tmp_path / name
    dst.mkdir()
    for item in (MANIFEST_NAME, ARRAYS_NAME):
        (dst / item).write_bytes((path / item).read_bytes())
    return dst


PROBES = [(0, 0), (3, 1), (7, 2), (11, 0)]


def _answers(engine, k=8):
    """One answer per query kind, in a bitwise-comparable form."""
    out = []
    for anchor, rel in PROBES:
        tails = engine.topk_tails(anchor, rel, k=k)
        heads = engine.topk_heads(anchor, rel, k=k)
        near = engine.nearest_entities(anchor, k=k)
        out.append((
            float(engine.score(anchor, rel, (anchor + 1) % 16)),
            tails.entities.tobytes(), tails.scores.tobytes(),
            heads.entities.tobytes(), heads.scores.tobytes(),
            near.entities.tobytes(), near.scores.tobytes(),
        ))
    return out


class TestSwap:
    def test_all_query_kinds_match_a_fresh_engine(self, dataset, ckpt_a,
                                                  ckpt_b):
        """The acceptance property, on the dense tier."""
        engine = _engine_on(ckpt_a, dataset)
        _answers(engine)                       # warm the cache on gen-a
        summary = engine.reload(ckpt_b, dataset=dataset)
        assert summary["swapped"] is True
        assert summary["old_epoch"] == 2 and summary["new_epoch"] == 3
        assert summary["cache_entries_dropped"] > 0
        fresh = _engine_on(ckpt_b, dataset)
        assert _answers(engine) == _answers(fresh)

    def test_binary_tier_matches_too(self, dataset, ckpt_a, ckpt_b):
        engine = _engine_on(ckpt_a, dataset, with_binary=True,
                            tier="binary", rerank_k=12)
        _answers(engine)
        engine.reload(ckpt_b, dataset=dataset)
        fresh = _engine_on(ckpt_b, dataset, with_binary=True,
                           tier="binary", rerank_k=12)
        assert engine.store.binary is not None
        assert _answers(engine) == _answers(fresh)

    def test_reload_accepts_a_prebuilt_store(self, dataset, ckpt_a, ckpt_b):
        engine = _engine_on(ckpt_a, dataset)
        new_store = EmbeddingStore.from_checkpoint(
            ckpt_b, model_name="complex", dataset=dataset)
        summary = engine.reload(new_store)
        assert summary["swapped"] is True
        assert engine.store is new_store

    def test_same_digest_is_a_noop_and_keeps_the_cache_warm(
            self, dataset, ckpt_a):
        engine = _engine_on(ckpt_a, dataset)
        _answers(engine)
        warm = len(engine.cache)
        summary = engine.reload(ckpt_a)
        assert summary["swapped"] is False
        assert summary["reason"] == "same manifest digest"
        assert len(engine.cache) == warm
        assert engine.cache.invalidations == 0
        assert engine.stats.decisions == []

    def test_reload_counters_and_snapshot(self, dataset, ckpt_a, ckpt_b):
        engine = _engine_on(ckpt_a, dataset)
        answered = engine.stats.n_queries
        engine.reload(ckpt_b, dataset=dataset)
        reload = {"mechanism": "reload", "at": answered, "choice": "swap",
                  "alternative": "keep",
                  "inputs": {"new_epoch": 3, "old_epoch": 2}}
        assert engine.stats.decisions == [reload]
        snap = engine.snapshot()
        assert snap["cache_invalidations"] == 1
        # Reported without a resilience controller too.
        assert "resilience" not in snap and snap["decisions"] == [reload]

    def test_filter_index_grafts_when_no_dataset_given(self, dataset,
                                                       ckpt_a, ckpt_b):
        engine = _engine_on(ckpt_a, dataset)
        old_filter = engine.store.filter_index
        assert old_filter is not None
        engine.reload(ckpt_b)                  # no dataset: graft
        assert engine.store.filter_index is old_filter
        # ... and filtered queries still work on the new embeddings.
        fresh = _engine_on(ckpt_b, dataset)
        got = engine.topk_tails(0, 0, k=5, filtered=True)
        want = fresh.topk_tails(0, 0, k=5, filtered=True)
        assert got.entities.tobytes() == want.entities.tobytes()


class TestCachePoisoning:
    """Regression: a reload that kept the LRU would serve the *old*
    model's answers for every warm key."""

    def test_stale_answers_do_not_survive_the_swap(self, dataset, ckpt_a,
                                                   ckpt_b):
        engine = _engine_on(ckpt_a, dataset)
        stale = engine.topk_tails(0, 0, k=8)
        assert engine.topk_tails(0, 0, k=8) is stale   # warm hit
        engine.reload(ckpt_b, dataset=dataset)
        assert len(engine.cache) == 0
        post = engine.topk_tails(0, 0, k=8)
        want = _engine_on(ckpt_b, dataset).topk_tails(0, 0, k=8)
        assert post.scores.tobytes() == want.scores.tobytes()
        assert post.scores.tobytes() != stale.scores.tobytes()

    def test_tier_keyed_entries_are_dropped_too(self, dataset, ckpt_a,
                                                ckpt_b):
        """Binary-tier cache keys carry ``(tier, rerank_k)``; they must
        be invalidated alongside the dense keys, not orphaned."""
        engine = _engine_on(ckpt_a, dataset, with_binary=True,
                            tier="binary", rerank_k=12)
        stale = engine.topk_tails(2, 1, k=6)
        keys_before = cache_keys(engine.cache)
        assert any("binary" in str(key) for key in keys_before)
        engine.reload(ckpt_b, dataset=dataset)
        assert cache_keys(engine.cache) == []
        post = engine.topk_tails(2, 1, k=6)
        want = _engine_on(ckpt_b, dataset, with_binary=True, tier="binary",
                          rerank_k=12).topk_tails(2, 1, k=6)
        assert post.scores.tobytes() == want.scores.tobytes()
        assert post.scores.tobytes() != stale.scores.tobytes()


class TestRollback:
    """Failure anywhere in build/validate must leave the engine exactly
    as it was: old store object, old answers, warm cache."""

    def _assert_untouched(self, engine, old_store, before, warm):
        assert engine.store is old_store
        assert len(engine.cache) == warm
        assert _answers(engine) == before
        assert engine.stats.decisions == []

    def test_corrupted_new_checkpoint_rolls_back(self, dataset, ckpt_a,
                                                 ckpt_b, tmp_path):
        engine = _engine_on(ckpt_a, dataset)
        before = _answers(engine)
        old_store, warm = engine.store, len(engine.cache)

        bad = _copy_checkpoint(ckpt_b, tmp_path, "bad")
        with np.load(bad / ARRAYS_NAME, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["model/entity_emb"][0, 0] += 0.25
        with open(bad / ARRAYS_NAME, "wb") as fh:
            _write_npz(fh, arrays)
        assert manifest_digest(bad) != old_store.manifest_digest

        with pytest.raises(CheckpointChecksumError):
            engine.reload(bad, dataset=dataset)
        self._assert_untouched(engine, old_store, before, warm)

    def test_binary_tier_refuses_a_store_without_sidecar(self, dataset,
                                                         ckpt_a, ckpt_b):
        engine = _engine_on(ckpt_a, dataset, with_binary=True,
                            tier="binary", rerank_k=12)
        before = _answers(engine)
        old_store, warm = engine.store, len(engine.cache)
        dense_only = EmbeddingStore.from_checkpoint(
            ckpt_b, model_name="complex", dataset=dataset)
        with pytest.raises(ValueError, match="binary sidecar"):
            engine.reload(dense_only)
        self._assert_untouched(engine, old_store, before, warm)

    def test_binary_tier_refuses_a_checkpoint_without_sidecar(
            self, dataset, ckpt_a, ckpt_b, tmp_path):
        """Path reload on a binary-tier engine defaults to
        ``with_binary=True``; a checkpoint copy missing ``binary.npz``
        fails in the loader and rolls back."""
        engine = _engine_on(ckpt_a, dataset, with_binary=True,
                            tier="binary", rerank_k=12)
        before = _answers(engine)
        old_store, warm = engine.store, len(engine.cache)
        nosidecar = _copy_checkpoint(ckpt_b, tmp_path, "nosidecar")
        with pytest.raises(CheckpointError):
            engine.reload(nosidecar, dataset=dataset)
        self._assert_untouched(engine, old_store, before, warm)

    def test_vocabulary_drift_refuses_the_graft(self, dataset, ckpt_a):
        from repro.models import ComplEx
        engine = _engine_on(ckpt_a, dataset)
        before = _answers(engine)
        old_store, warm = engine.store, len(engine.cache)
        other = store_from_model(
            ComplEx(dataset.n_entities + 5, dataset.n_relations, 8, seed=1))
        with pytest.raises(ValueError, match="graft"):
            engine.reload(other)
        self._assert_untouched(engine, old_store, before, warm)


class TestBreakerRearm:
    def test_reload_restores_the_binary_rung(self, dataset, ckpt_a, ckpt_b):
        """A tripped breaker keeps the binary rung out until a reload
        re-validates a sidecar; the swap re-arms it."""
        plan = ServeFaultPlan.parse("sidecar_corrupt=1")
        store = EmbeddingStore.from_checkpoint(
            ckpt_a, model_name="complex", dataset=dataset, with_binary=True)
        engine = QueryEngine(store, tier="binary", rerank_k=12, faults=plan)
        for i in range(6):
            engine.topk_tails(i, 0, k=4)
        assert [d["mechanism"] for d in engine.stats.decisions] == [
            "breaker"]
        assert not engine.resilience.binary_available

        engine.reload(ckpt_b, dataset=dataset)
        assert engine.stats.decisions[-1]["mechanism"] == "reload"
        assert engine.resilience.binary_available
        # Binary routing is live again on the new snapshot.
        got = engine.topk_tails(3, 1, k=4)
        want = _engine_on(ckpt_b, dataset, with_binary=True, tier="binary",
                          rerank_k=12).topk_tails(3, 1, k=4)
        assert got.entities.tobytes() == want.entities.tobytes()


class TestSnapshotIdentity:
    def test_snapshot_landing_mid_load_is_not_claimed(self, dataset,
                                                      tmp_path, monkeypatch):
        """``from_checkpoint(parent)`` resolves the parent once.  A snapshot
        landing while the newest one loads is neither served nor recorded:
        the store's digest is the manifest it parsed, and a later reload of
        the parent sees a new digest and swaps."""
        source = tmp_path / "run"
        config = TrainConfig(dim=8, batch_size=128, max_epochs=2,
                             lr_patience=6, eval_max_queries=20, seed=777,
                             checkpoint_dir=str(source), checkpoint_every=1,
                             checkpoint_keep=0)
        DistributedTrainer(dataset, baseline_allreduce(), 2,
                           config=config).run()
        parent = tmp_path / "served"
        parent.mkdir()
        shutil.copytree(source / "epoch-0001", parent / "epoch-0001")

        real_load = ckpt.load_checkpoint

        def load_then_land(*args, **kwargs):
            state = real_load(*args, **kwargs)
            if not (parent / "epoch-0002").exists():
                shutil.copytree(source / "epoch-0002", parent / "epoch-0002")
            return state

        monkeypatch.setattr(ckpt, "load_checkpoint", load_then_land)
        store = EmbeddingStore.from_checkpoint(parent, model_name="complex",
                                               dataset=dataset)
        monkeypatch.undo()

        served = (parent / "epoch-0001" / MANIFEST_NAME).read_bytes()
        assert store.epoch == 1
        assert store.manifest_digest == hashlib.sha256(served).hexdigest()
        summary = QueryEngine(store).reload(parent)
        assert summary["swapped"] is True
        assert (summary["old_epoch"], summary["new_epoch"]) == (1, 2)

"""Read-only embedding store: a training checkpoint made servable.

:class:`EmbeddingStore` is the bridge between the training stack and the
query engine.  It resolves a snapshot once and reads it, with its binary
sidecar, through the checkpoint module's one reader — full corruption/
checksum/schema validation, but no config binding and no world
reconstruction — then rebuilds the scoring model around the snapshot's
embedding matrices, and freezes them: every array is marked
non-writeable, so a serving process can never corrupt the model it
answers from.  Its identity (``manifest_digest``, ``entity_sha``) is what
that one load parsed and verified, never a second read of the directory.

The store also owns the known-fact :class:`~repro.kg.triples.FilterIndex`
when a dataset is attached — the same CSR adjacency filtered evaluation
scatters, reused verbatim so serve-time exclusion is bitwise-consistent
with eval-time filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..kg.triples import FilterIndex, TripleStore
from ..models import MODEL_REGISTRY, make_model
from ..models.base import KGEModel
from ..training import checkpoint as ckpt
from .binary import BinaryStore, check_geometry, load_sidecar

ENTITY_EMB_KEY = "model/entity_emb"
RELATION_EMB_KEY = "model/relation_emb"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass
class EmbeddingStore:
    """Frozen model + optional filter index, ready to serve queries.

    Build one via :meth:`from_checkpoint` (production path) or
    :meth:`from_model` (tests, benchmarks that skip training).
    """

    model: KGEModel
    filter_index: FilterIndex | None = None
    #: Completed training epochs behind the served embeddings.
    epoch: int = 0
    #: World lineage of the snapshot (empty for non-checkpoint stores).
    world_lineage: tuple = ()
    #: Where the snapshot came from (None for in-memory stores).
    checkpoint_path: str | None = None
    #: Optional 1-bit candidate-generation tier (see
    #: :mod:`repro.serve.binary`); required by ``QueryEngine(tier="binary")``.
    binary: BinaryStore | None = None
    #: SHA-256 of the manifest bytes the loader parsed (None for in-memory
    #: stores): the cheap identity hot reload compares to skip no-op swaps.
    manifest_digest: str | None = None
    #: SHA-256 of ``model.entity_emb`` as a manifest records it: the one
    #: the loader verified (an in-memory store's is computed on first use).
    entity_sha: str | None = None
    _frozen: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        self.model.entity_emb = _freeze(
            np.ascontiguousarray(self.model.entity_emb))
        self.model.relation_emb = _freeze(
            np.ascontiguousarray(self.model.relation_emb))
        self._frozen = True

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_checkpoint(cls, path: str | Path, model_name: str = "complex",
                        dataset: TripleStore | None = None,
                        with_binary: bool = False) -> "EmbeddingStore":
        """Serve the (latest) checkpoint under ``path``.

        ``model_name`` must be the architecture the manifest records
        (``TrainConfig.model_name`` of the run that wrote the snapshot):
        naming another fails loudly here with a ``ValueError`` instead of
        producing garbage scores.  The embedding dimension is inferred
        from the stored array shapes.  ``dataset`` (the training
        TripleStore, or any store with the same vocabularies) enables
        known-fact filtering.
        ``with_binary`` additionally loads the ``binary.npz`` sidecar
        (written by ``repro export-binary``) and cross-checks it against
        the embeddings it claims to describe.
        """
        if model_name not in MODEL_REGISTRY:
            raise ValueError(f"unknown model {model_name!r}; choose from "
                             f"{sorted(MODEL_REGISTRY)}")
        path = ckpt.resolve_checkpoint_dir(path)
        state = ckpt.load_checkpoint(path)
        if state.model_name != model_name:
            raise ValueError(
                f"checkpoint at {path} was written by model "
                f"{state.model_name!r}; serving it as {model_name!r} names "
                f"the wrong architecture")
        try:
            entity_emb = state.arrays[ENTITY_EMB_KEY]
            relation_emb = state.arrays[RELATION_EMB_KEY]
        except KeyError as exc:
            raise ckpt.CheckpointMissingArrayError(
                f"checkpoint at {path} has no {exc.args[0]!r} array; it is "
                f"not a trainer snapshot") from exc

        width_factor = MODEL_REGISTRY[model_name].width_factor
        n_entities, entity_width = entity_emb.shape
        n_relations, relation_width = relation_emb.shape
        if entity_width % width_factor:
            raise ValueError(
                f"checkpoint entity width {entity_width} is not a multiple "
                f"of {model_name}'s width factor {width_factor}")
        dim = entity_width // width_factor

        model = make_model(model_name, n_entities, n_relations, dim, seed=0)
        if model.relation_emb.shape != relation_emb.shape:
            raise ValueError(
                f"checkpoint relation matrix {relation_emb.shape} does not "
                f"match {model_name}'s layout "
                f"{model.relation_emb.shape} at dim={dim}; the snapshot was "
                f"written by a different architecture")
        model.entity_emb = np.asarray(entity_emb, dtype=np.float32)
        model.relation_emb = np.asarray(relation_emb, dtype=np.float32)

        index = None
        if dataset is not None:
            if dataset.n_entities != n_entities:
                raise ValueError(
                    f"dataset has {dataset.n_entities} entities but the "
                    f"checkpoint embeds {n_entities}; filter index would "
                    f"mask the wrong columns")
            index = dataset.filter_index

        store = cls(model=model, filter_index=index, epoch=state.epoch,
                    world_lineage=state.world_lineage,
                    checkpoint_path=str(path),
                    binary=load_sidecar(path) if with_binary else None,
                    manifest_digest=state.manifest_digest,
                    entity_sha=state.digests[ENTITY_EMB_KEY])
        if store.binary is not None:
            check_geometry(store.binary, store)
        return store

    @classmethod
    def from_model(cls, model: KGEModel,
                   dataset: TripleStore | None = None,
                   with_binary: bool = False) -> "EmbeddingStore":
        """Wrap an in-memory model (a private copy; the original stays
        writeable for continued training).  ``with_binary`` binarizes the
        entity matrix in-process — the test/benchmark shortcut that skips
        the sidecar round-trip."""
        from .binary import binarize_model

        index = None
        if dataset is not None:
            if dataset.n_entities != model.n_entities:
                raise ValueError(
                    f"dataset has {dataset.n_entities} entities but the "
                    f"model embeds {model.n_entities}")
            index = dataset.filter_index
        binary = binarize_model(model) if with_binary else None
        return cls(model=model.copy(), filter_index=index, binary=binary)

    # -- introspection -----------------------------------------------------

    @property
    def model_name(self) -> str | None:
        """Registry name of the served architecture (None if foreign).

        Hot reload defaults to loading the new checkpoint as the same
        architecture the old store serves.
        """
        for name, cls in MODEL_REGISTRY.items():
            if type(self.model) is cls:
                return name
        return None

    @property
    def n_entities(self) -> int:
        return self.model.n_entities

    @property
    def n_relations(self) -> int:
        return self.model.n_relations

    @property
    def nbytes(self) -> int:
        """Resident bytes: embeddings plus the filter index, if any."""
        total = self.model.entity_emb.nbytes + self.model.relation_emb.nbytes
        if self.filter_index is not None:
            total += self.filter_index.nbytes
        if self.binary is not None:
            total += self.binary.nbytes
        return total

    def summary(self) -> dict:
        out = {
            "model": type(self.model).__name__,
            "entities": self.n_entities,
            "relations": self.n_relations,
            "dim": self.model.dim,
            "epoch": self.epoch,
            "filtered": self.filter_index is not None,
            "nbytes": self.nbytes,
            "checkpoint": self.checkpoint_path,
        }
        if self.binary is not None:
            out["binary_bytes"] = self.binary.nbytes
            out["binary_stat"] = self.binary.stat
        return out

"""Binarized embedding tier: Hamming-space candidate generation.

Binarized KGE (Kishimoto et al.) shows trained embeddings survive
compression to **1 bit per dimension** plus one float32 scale per row at
modest ranking cost — a ~30x memory reduction that is the difference
between serving an FB250K-scale entity matrix from RAM or not.  This
module is the serving half of that result:

* :func:`binarize_model` folds a trained model's entity matrix through the
  *same* 1-bit quantizer the gradient-compression path uses
  (:func:`repro.compress.quantization.binarize_matrix` — shared sign
  convention for zeros, shared per-row statistics) into a
  :class:`BinaryStore`: packed sign bits + per-row scales.
* :func:`save_sidecar` / :func:`load_sidecar` persist the store as a
  checkpoint **sidecar** (``binary.npz`` + ``binary.json``) through the
  checkpoint machinery's checksummed sidecar format — the checkpoint's own
  files stay byte-identical, and a corrupt, missing, or foreign sidecar
  raises the existing :class:`~repro.training.checkpoint.CheckpointError`
  taxonomy.  The sidecar records the SHA-256 of the entity matrix it was
  exported from, so serving a sidecar against the wrong checkpoint fails
  loudly instead of generating candidates from someone else's geometry.
* :meth:`BinaryStore.candidate_pools` is the first stage of the tiered
  query path: the engine asks each model for its full-precision
  :meth:`~repro.models.base.KGEModel.query_vector` and ranks every entity
  against the 1-bit reconstruction, reading only packed bytes —
  :meth:`BinaryStore.sign_dots` generalises packed-XOR-popcount Hamming
  scoring (``sign(q) . sign(t) = width - 2 * hamming``) to the query's
  real per-dimension magnitudes via per-byte lookup tables, and
  :meth:`BinaryStore.approx_scores` folds in the per-row scale.  The top
  ``rerank_k`` become the candidate pool the full-precision scorers
  re-rank.  Selection is the serve path's one rule in its set form,
  :func:`~repro.select.best_set` —
  descending approximate score, exact ties toward the smaller entity id
  — so ``rerank_k >= n_entities`` always yields the complete, id-ordered
  entity set and the tiered path collapses onto the dense engine bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compress.packing import hamming_distances, pack_signs, unpack_signs
from ..compress.quantization import binarize_matrix
from ..models.base import KGEModel
from ..select import best_set, check_take
from ..training import checkpoint as ckpt

#: Sidecar file stem: ``binary.npz`` + ``binary.json`` in a checkpoint dir.
SIDECAR_STEM = "binary"
SIDECAR_FORMAT = "repro-binary-sidecar"
SIDECAR_VERSION = 1

ENTITY_CODES_KEY = "binary/entity_codes"
ENTITY_SCALES_KEY = "binary/entity_scales"

#: Sign pattern of every possible code byte, MSB-first like ``packbits``:
#: ``_BYTE_SIGNS[v, b]`` is +1 if bit ``b`` of value ``v`` is set else -1.
_BYTE_SIGNS = ((((np.arange(256)[:, None]
                  >> np.arange(7, -1, -1)[None, :]) & 1) * 2 - 1)
               .astype(np.float32))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass
class BinaryStore:
    """Packed 1-bit entity codes + per-row scales, ready for Hamming search.

    ``codes`` is ``(n_entities, ceil(width / 8))`` uint8 in the row-major
    :func:`~repro.compress.packing.pack_signs` layout; ``scales`` is
    ``(n_entities,)`` float32; ``width`` is the unpacked bit width (the
    model's real entity storage width, ``dim * width_factor``).  Arrays
    are frozen on construction like the dense store's.
    """

    codes: np.ndarray
    scales: np.ndarray
    width: int
    #: Statistic the per-row scale was computed with ('avg' or 'max').
    stat: str = "avg"
    #: Completed training epochs behind the snapshot the codes came from.
    source_epoch: int = 0
    #: SHA-256 of the float32 entity matrix the codes were exported from —
    #: binds a sidecar to its checkpoint (empty for in-memory stores).
    source_entity_sha: str = ""
    _frozen: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32)
        if self.codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got {self.codes.shape}")
        if self.scales.shape != (len(self.codes),):
            raise ValueError(
                f"scales shape {self.scales.shape} does not match "
                f"{len(self.codes)} code rows")
        if not 0 < (self.width + 7) // 8 == self.codes.shape[1]:
            raise ValueError(
                f"width {self.width} needs {(self.width + 7) // 8} packed "
                f"byte(s) per row, codes have {self.codes.shape[1]}")
        _freeze(self.codes)
        _freeze(self.scales)
        self._frozen = True

    @property
    def n_entities(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the candidate-generation tier."""
        return self.codes.nbytes + self.scales.nbytes

    def approx_entity_emb(self) -> np.ndarray:
        """The rank-1 reconstruction ``sign * scale`` (float32).

        This is what the 1-bit tier *believes* the entity matrix is; the
        round-trip property tests pin it against
        ``dequantize(quantize_1bit(...))`` exactly.
        """
        return unpack_signs(self.codes, self.width) * self.scales[:, None]

    # -- stage 1: Hamming candidate generation ------------------------------

    def pack_queries(self, vectors: np.ndarray) -> np.ndarray:
        """Pack query vectors' sign bits with the entity-code convention."""
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.width:
            raise ValueError(
                f"query vectors must be (batch, {self.width}), got "
                f"{vectors.shape}")
        return pack_signs(vectors)

    def hamming(self, vectors: np.ndarray) -> np.ndarray:
        """Hamming distances of each query's sign pattern to every entity:
        shape ``(batch, n_entities)`` int64."""
        return hamming_distances(self.pack_queries(vectors), self.codes)

    def sign_dots(self, vectors: np.ndarray) -> np.ndarray:
        """Exact ``q . sign(t)`` for every (query, entity) pair, float32
        ``(batch, n_entities)`` — computed from the **packed** codes.

        This is asymmetric distance computation over 1-bit codes: the
        full-precision query is folded into a per-query, per-byte lookup
        table ``LUT[j, v] = sum_b q[8 j + b] * sign_bit(v, b)`` (256
        entries per code byte), and each candidate costs one table gather
        per stored byte — the same bytes-touched as XOR + popcount, but
        weighted by the query's per-dimension magnitudes instead of
        counting each disagreement as 1.  The popcount identity
        ``sign(q) . sign(t) = width - 2 * hamming`` is the special case
        where every ``|q_i|`` is 1.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.width:
            raise ValueError(
                f"query vectors must be (batch, {self.width}), got "
                f"{vectors.shape}")
        m, n_bytes = len(vectors), self.codes.shape[1]
        pad = 8 * n_bytes - self.width
        if pad:
            # packbits pads code rows with zero bits; zero-padding the
            # query makes those dims contribute 0 either way.
            vectors = np.concatenate(
                [vectors, np.zeros((m, pad), dtype=np.float32)], axis=1)
        # Batch-innermost LUT layout: each ``take`` below copies a
        # contiguous (m,) row per candidate byte (several times faster
        # than the mixed fancy index ``lut[j, codes[:, j], :]``).
        lut = np.ascontiguousarray(np.einsum(
            "mjb,vb->jvm", vectors.reshape(m, n_bytes, 8), _BYTE_SIGNS))
        acc = lut[0].take(self.codes[:, 0], axis=0)
        for j in range(1, n_bytes):
            acc += lut[j].take(self.codes[:, j], axis=0)
        return np.ascontiguousarray(acc.T)

    def approx_scores(self, vectors: np.ndarray) -> np.ndarray:
        """Candidate-ranking scores from the packed tier, higher = better.

        The tier stores ``(sign bits, scale)`` per entity, so the best
        available stand-in for an embedding is the rank-1 reconstruction
        ``t ~ s * sign(t)``; :meth:`sign_dots` supplies the exact
        ``q . sign(t)`` from the packed codes.  The true score is
        ``q . t``, so candidates rank by ``s * (q . sign(t))`` — the query
        scored against the reconstruction, scale included (a pure
        sign-agreement count is blind to candidate norms, which dominate
        the dense rankings).
        """
        return self.sign_dots(vectors) * self.scales[None, :]

    def candidate_pools(self, vectors: np.ndarray, rerank_k: int,
                        masked: tuple[np.ndarray, np.ndarray] | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``rerank_k`` candidate ids per query by approximate score.

        Returns ``(pools, approx)`` with ``k = min(rerank_k, n_entities)``:
        ``pools`` is ``(batch, k)`` int64, each row the
        :func:`~repro.select.best_set` of its query's approximate scores,
        in **ascending id order** (the layout the re-rank stage's
        tie-breaks need), so ``rerank_k >= n_entities`` always yields the
        complete entity set; ``approx`` is ``(batch, k)`` float32, the
        scores stage 1 selected those ids by, kept for recall telemetry.
        ``masked`` — ``(rows, cols)`` index arrays of known facts from the
        CSR filter — sinks known candidates to ``-inf`` so a partial pool
        never wastes slots on answers the re-rank stage must filter
        anyway; a NaN approximation (non-finite embedding) sinks with
        them and is dropped by the re-rank's own NaN.
        """
        rerank_k = check_take("rerank_k", rerank_k)
        scores = self.approx_scores(vectors)
        if masked is not None and len(masked[0]):
            scores[masked[0], masked[1]] = -np.inf
        if np.isnan(scores.max(initial=-np.inf)):  # max propagates NaN
            scores[np.isnan(scores)] = -np.inf
        take = min(rerank_k, self.n_entities)
        pools = np.empty((len(scores), take), dtype=np.int64)
        approx = np.empty(pools.shape, dtype=scores.dtype)
        for i, row in enumerate(scores):
            pools[i] = best_set(row, take)
            approx[i] = row[pools[i]]
        return pools, approx


def binarize_model(model: KGEModel, stat: str = "avg",
                   source_epoch: int = 0,
                   source_entity_sha: str = "") -> BinaryStore:
    """Binarize a trained model's entity matrix into a :class:`BinaryStore`."""
    codes, scales = binarize_matrix(model.entity_emb, stat=stat)
    return BinaryStore(codes=codes, scales=scales,
                       width=model.entity_emb.shape[1], stat=stat,
                       source_epoch=source_epoch,
                       source_entity_sha=source_entity_sha)


# ---------------------------------------------------------------------------
# Sidecar persistence
# ---------------------------------------------------------------------------

def save_sidecar(store: BinaryStore, ckpt_dir) -> "Path":  # noqa: F821
    """Write ``binary.npz`` + ``binary.json`` next to a checkpoint manifest."""
    meta = {
        "width": int(store.width),
        "stat": store.stat,
        "n_entities": int(store.n_entities),
        "source_epoch": int(store.source_epoch),
        "source_entity_sha": store.source_entity_sha,
    }
    arrays = {ENTITY_CODES_KEY: store.codes, ENTITY_SCALES_KEY: store.scales}
    return ckpt.write_sidecar(ckpt_dir, SIDECAR_STEM, SIDECAR_FORMAT,
                              SIDECAR_VERSION, arrays, meta)


def load_sidecar(ckpt_dir) -> BinaryStore:
    """Load and validate the binary sidecar of checkpoint directory
    ``ckpt_dir`` (checksums, format, geometry)."""
    arrays, meta = ckpt.read_sidecar(ckpt_dir, SIDECAR_STEM, SIDECAR_FORMAT,
                                     SIDECAR_VERSION)
    try:
        return BinaryStore(codes=arrays[ENTITY_CODES_KEY],
                           scales=arrays[ENTITY_SCALES_KEY],
                           width=int(meta["width"]),
                           stat=str(meta.get("stat", "avg")),
                           source_epoch=int(meta.get("source_epoch", 0)),
                           source_entity_sha=str(
                               meta.get("source_entity_sha", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ckpt.CheckpointCorruptError(
            f"binary sidecar under {ckpt_dir} is internally inconsistent: "
            f"{exc}") from exc


def check_geometry(binary: BinaryStore, served) -> None:
    """Refuse a sidecar that does not describe ``served``'s embeddings.

    Geometry (rows x bit width) must match the store's dense entity
    matrix, and a recorded matrix digest must equal the store's
    ``entity_sha``: the digest its loader verified, never a re-hash (an
    in-memory store hashes once).  A sidecar exported from a different
    checkpoint is a configuration mismatch, the same class of error as
    resuming the wrong run.
    """
    n, width = served.model.entity_emb.shape
    if binary.n_entities != n or binary.width != width:
        raise ckpt.CheckpointConfigMismatchError(
            f"binary sidecar binary.npz encodes {binary.n_entities} entities x "
            f"{binary.width} bits but the checkpoint embeds {n} entities x "
            f"{width} dims; the sidecar belongs to a different checkpoint "
            f"— re-run `repro export-binary`")
    if binary.source_entity_sha:
        if served.entity_sha is None:  # an in-memory store hashes once
            served.entity_sha = ckpt.array_digest(served.model.entity_emb)
        actual = served.entity_sha
        if actual != binary.source_entity_sha:
            raise ckpt.CheckpointConfigMismatchError(
                f"binary sidecar binary.npz was exported from an entity matrix "
                f"with digest {binary.source_entity_sha[:12]}... but this "
                f"checkpoint's is {actual[:12]}...; the sidecar belongs to "
                f"a different snapshot — re-run `repro export-binary`")


def export_binary(ckpt_dir, model_name: str = "complex",
                  stat: str = "avg") -> tuple["Path", dict]:  # noqa: F821
    """Post-training export: checkpoint -> binarize -> checksummed sidecar.

    Loads the (latest) checkpoint under ``ckpt_dir`` read-only, binarizes
    its entity matrix, and writes the sidecar, bound to the entity digest
    the loader verified, into the very directory it loaded.  Returns
    ``(checkpoint_dir, summary)`` where the summary reports the measured
    memory story (dense bytes, binary bytes, reduction factor).
    """
    from .store import EmbeddingStore

    served = EmbeddingStore.from_checkpoint(ckpt_dir, model_name=model_name)
    store = binarize_model(served.model, stat=stat,
                           source_epoch=served.epoch,
                           source_entity_sha=served.entity_sha)
    path = save_sidecar(store, served.checkpoint_path)
    dense = int(served.model.entity_emb.nbytes)
    summary = {
        "checkpoint": str(path),
        "model": model_name,
        "stat": stat,
        "epoch": served.epoch,
        "n_entities": store.n_entities,
        "width_bits": store.width,
        "dense_bytes": dense,
        "binary_bytes": store.nbytes,
        "memory_reduction": dense / store.nbytes,
    }
    return path, summary

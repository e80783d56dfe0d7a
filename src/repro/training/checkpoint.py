"""Versioned checkpoint/resume with bitwise-deterministic recovery.

A checkpoint is a directory holding exactly two files:

``manifest.json``
    Schema version, a config hash binding the snapshot to the run that
    produced it, the name of the model that wrote it, per-array SHA-256
    checksums, and every piece of scalar training state (scheduler, DRS
    switch state, RNG stream positions, cumulative counters, the epoch
    logs so far).
``state.npz``
    Every array-valued piece of state: embeddings, full Adam moments,
    error-feedback residuals, and the cluster's virtual clocks.  A residual
    store travels as its dirty rows only (schema 3): ``<key>/rows`` (sorted
    int64 row ids) plus ``<key>/values`` (those rows of the store, float32).
    Rows outside ``rows`` are exactly zero in the store, so nothing is lost,
    and a clean store — every rank store after a hierarchical epoch, every
    relation store under RP — costs two empty arrays instead of a dense
    matrix.

The determinism contract
------------------------

Restoring a checkpoint into a freshly constructed trainer with the same
configuration and calling :meth:`~repro.training.trainer.DistributedTrainer.run`
produces **bitwise identical** results to the uninterrupted run: the same
embeddings, the same epoch logs, the same DRS switch epoch, the same fault
trajectory.  This holds because training state is *closed* over what the
checkpoint captures — all randomness flows through the streams in
:mod:`repro.training.rng` plus the fault injector's call counter, and both
are snapshotted here.  A snapshot is itself a pure function of (seed,
plan): no wall clock enters it (real eval seconds stay with the process
that measured them), so two runs of one configuration, or a straight and a
resumed run, write byte-identical checkpoint files for every epoch.

Both files are written deterministically — sorted keys, fixed zip
timestamps, atomic renames — so saving, loading and re-saving a checkpoint
is byte-identical, and a checkpoint can itself be checksummed or diffed.
The writer streams: every zip entry and every SHA-256 reads the array's own
buffer and goes straight into the ``.tmp`` file, so writing never holds a
second copy of the state.  Order on disk is *stale manifest unlinked →
npz → manifest*: a directory with a readable manifest is always complete,
also when it is written over an older checkpoint, and a kill at any point
leaves at worst a manifest-less directory that discovery skips.

One reader serves every consumer — resume, discovery, serving, sidecars.
A manifest's bytes are read once and parsed into the object plus the
SHA-256 of those same bytes (the snapshot's identity); its type, format
marker, schema version, fields and ``arrays`` table are checked there.  One
array loader then verifies the npz against that table.  A parent directory
is resolved to one snapshot once per load (:func:`resolve_checkpoint_dir`).

One table names each field once (:func:`_sections`, :func:`_arrays`), and
:func:`capture_state` and :func:`apply_state` both walk it; per-rank state
goes through one ``remap`` over a ``rank_map`` checked once.  Every field
a writer emits is required, and every section parses before the first
trainer field is written.

Failure modes are loud, distinct and typed: a truncated, bit-flipped or
malformed file raises :class:`CheckpointCorruptError` (naming the file and
the field) or :class:`CheckpointChecksumError`, an array missing from the
npz raises :class:`CheckpointMissingArrayError`, a snapshot from an
incompatible writer raises :class:`CheckpointSchemaError`, and a config-hash
mismatch raises :class:`CheckpointConfigMismatchError` instead of silently
resuming a different experiment.  ``max_epochs`` and the checkpoint knobs
themselves are excluded from the hash, so a resume may train longer than
the interrupted run intended.

World-size lineage
------------------

The manifest records the ``world_size`` that captured the snapshot plus the
``world_lineage`` of every world it has lived through (e.g. ``[4, 3]`` after
one shrink).  The world size is deliberately *not* part of the config hash:
the elastic supervisor restores a 4-rank snapshot into a 3-rank trainer by
passing :func:`apply_state` an explicit ``rank_map``, making the shrink an
intentional, auditable act.  Without a ``rank_map``, a world mismatch raises
:class:`CheckpointWorldMismatchError` rather than a misleading config error.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..comm.faults import FaultCounters
from ..comm.sparse import SparseRows
from ..models import MODEL_REGISTRY
from .exchange import residual_key
from .metrics import EpochLog
from .rng import rng_state, set_rng_state

#: Bump on any incompatible change to the manifest or array layout; other
#: versions are refused with :class:`CheckpointSchemaError`, never converted.
#: 2: added world_size / world_lineage; dropped n_nodes from the config hash.
#: 3: residual stores carry ``rows`` + ``values[rows]``, not dense + mask.
#: 4: a top-level ``model`` names the architecture that wrote the snapshot.
SCHEMA_VERSION = 4

#: Marker distinguishing our manifests from arbitrary JSON files.
FORMAT_NAME = "repro-checkpoint"

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "state.npz"


class CheckpointError(RuntimeError):
    """Base class for every checkpoint load/save failure."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file is unreadable (bad JSON, bad zip, torn write)."""


class CheckpointChecksumError(CheckpointError):
    """An array's content does not match its manifest SHA-256."""


class CheckpointMissingArrayError(CheckpointError):
    """The manifest declares an array that ``state.npz`` does not contain."""


class CheckpointSchemaError(CheckpointError):
    """The checkpoint was written under a different schema version."""


class CheckpointConfigMismatchError(CheckpointError):
    """The checkpoint belongs to a run with a different configuration."""


class CheckpointWorldMismatchError(CheckpointError):
    """The checkpoint was captured by a different world size.

    Restoring across world sizes is legal — that is exactly what elastic
    shrink/regrow does — but it must be *asked for* by passing
    :func:`apply_state` a ``rank_map``; a plain resume refuses, loudly.
    """


@dataclass
class CheckpointState:
    """In-memory image of one checkpoint (captured or loaded)."""

    #: Completed training epochs at capture time (0 = pristine trainer).
    epoch: int
    #: Array-valued state, keyed by manifest array name.
    arrays: dict
    #: JSON-serialisable scalar state (scheduler, DRS, RNG, counters, logs).
    scalars: dict
    #: Fingerprint of the run configuration that produced this state.
    config_hash: str
    #: Registry name of the model that wrote the embeddings
    #: (``TrainConfig.model_name``); serving refuses any other.
    model_name: str
    #: Ranks in the world that captured this snapshot.
    world_size: int
    #: Every world size this training lineage has lived through, oldest
    #: first (``(4, 3)`` after one shrink; ``(4, 3, 4)`` after a regrow).
    world_lineage: tuple
    #: SHA-256 of the manifest bytes this state was parsed from, and the
    #: per-array SHA-256 it verified (empty for a captured state).
    manifest_digest: str = ""
    digests: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fingerprints and checksums
# ---------------------------------------------------------------------------

def _raw(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array as a uint8 view (no copy)."""
    return arr.reshape(-1).view(np.uint8)


def _sha256_array(arr: np.ndarray) -> str:
    """Digest of one array's dtype, shape and C-order bytes."""
    arr = np.ascontiguousarray(arr)
    digest = hashlib.sha256()
    digest.update(arr.dtype.str.encode())
    digest.update(repr(arr.shape).encode())
    digest.update(_raw(arr))
    return digest.hexdigest()


def array_digest(arr: np.ndarray) -> str:
    """The SHA-256 a manifest records for ``arr``.  A loaded snapshot
    already carries its verified digests (:attr:`CheckpointState.digests`);
    this is for a matrix that never went through the reader."""
    return _sha256_array(arr)


def store_fingerprint(store) -> str:
    """Digest of a :class:`~repro.kg.triples.TripleStore`'s exact contents."""
    digest = hashlib.sha256()
    digest.update(repr((store.n_entities, store.n_relations)).encode())
    for split in (store.train, store.valid, store.test):
        digest.update(np.ascontiguousarray(split.to_array()).tobytes())
    return digest.hexdigest()


#: TrainConfig fields a resume is allowed to change: extending the epoch
#: budget and re-pointing (or disabling) checkpointing do not perturb the
#: training trajectory up to any given epoch.
_RESUMABLE_CONFIG_FIELDS = ("max_epochs", "checkpoint_dir",
                            "checkpoint_every")


def config_fingerprint(store, strategy, config, network, faults) -> str:
    """Hash everything that shapes the training trajectory.

    Two same-world trainers with equal fingerprints are guaranteed to walk
    identical trajectories, so a checkpoint from one resumes bitwise-exactly
    on the other.  A null fault plan hashes like no plan at all (they are
    byte-identical at runtime).  The world size is deliberately absent —
    cross-world restores are the elastic supervisor's job and are policed
    by :class:`CheckpointWorldMismatchError`, not by the hash.
    """
    cfg = dataclasses.asdict(config)
    for key in _RESUMABLE_CONFIG_FIELDS:
        cfg.pop(key, None)
    plan = (None if faults is None or faults.is_null
            else dataclasses.asdict(faults))
    payload = {
        "store": store_fingerprint(store),
        "strategy": dataclasses.asdict(strategy),
        "config": cfg,
        "network": dataclasses.asdict(network),
        "faults": plan,
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Capture / apply (the trainer <-> CheckpointState mapping lives here,
# in one place, so the manifest schema has a single owner)
# ---------------------------------------------------------------------------

def _mapping(parse):
    """Parser of a JSON object whose values each go through ``parse``."""
    return lambda saved: {str(k): parse(v) for k, v in saved.items()}


def _row(*types):
    """Parser of a fixed-length list, one type per position."""
    return lambda saved: [t(v) for t, v in zip(types, saved, strict=True)]


def _sections(trainer) -> tuple:
    """Every scalar section: ``(manifest key, owner, {field: parser})``.

    A section is a JSON object of its owner's fields (``null`` for an
    absent owner: no fault plan); the ``None`` key's fields sit directly
    in ``state``.
    """
    return (
        ("scheduler", trainer.scheduler, {
            "lr": float, "best": float, "bad_epochs": int, "done": bool,
            "n_decays": int, "epoch": int}),
        ("drs", trainer.exchange.drs, {
            "current": str, "switched": bool, "last_incumbent_comm": float,
            "probes": int, "probe_comms": _mapping(float)}),
        ("result", trainer.result, {
            "allreduce_steps": int, "allgather_steps": int,
            "hier_steps": int, "drs_switch_epoch": int, "converged": bool,
            "logs": lambda logs: [EpochLog(**log) for log in logs]}),
        ("comm_stats", trainer.cluster.stats, {
            "calls": int, "nbytes_total": int, "time_total": float,
            "retries": int, "by_op": _mapping(_row(int, int, float)),
            "by_hop": _mapping(_row(int, int, float, int))}),
        (None, trainer.exchange, {"fallbacks": int}),
        ("faults", trainer.cluster.faults, {
            "calls": int,
            "counters": lambda saved: FaultCounters(
                **{k: int(v) for k, v in saved.items()})}),
        ("eval_timer", trainer.eval_timer, {"queries": int}),
    )


def _arrays(trainer) -> tuple:
    """Every array restored as captured: ``(name, owner, field, dtype)``."""
    model, opt = trainer.model, trainer.optimizer
    return (("model/entity_emb", model, "entity_emb", np.float32),
            ("model/relation_emb", model, "relation_emb", np.float32)) + tuple(
        (f"adam/{name}/{part}", state, part, dtype)
        for name, state in (("entity", opt.entity_state),
                            ("relation", opt.relation_state))
        for part, dtype in (("m", np.float32), ("v", np.float32),
                            ("steps", np.int64)))


def _plain(value):
    """A JSON-ready deep copy: dataclasses become dicts."""
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return (dataclasses.asdict(value) if dataclasses.is_dataclass(value)
            else copy.deepcopy(value))


def capture_state(trainer) -> CheckpointState:
    """Snapshot everything a bitwise resume needs out of a trainer.

    Arrays training writes in place (embeddings, Adam moments, clocks) are
    copied; residual stores are shared, as their arrays are read-only.
    Must be called at an epoch boundary (the only points where trainer
    state is consistent); the trainer does so after each completed epoch.
    """
    arrays = {name: getattr(owner, attr).copy()
              for name, owner, attr, _ in _arrays(trainer)}
    arrays["cluster/clocks"] = trainer.cluster.clocks.copy()
    arrays["cluster/wait"] = trainer.cluster.wait_total.copy()
    for key, _, store in trainer.exchange.residual_stores():
        arrays[f"{key}/rows"] = store.rows
        arrays[f"{key}/values"] = store.values

    scalars: dict = {"rng": {
        "trainer": rng_state(trainer.rng),
        "selection": rng_state(trainer.exchange.rng),
        "workers": [rng_state(w.rng) for w in trainer.workers],
    }}
    for key, owner, fields in _sections(trainer):
        section = None if owner is None else {
            name: _plain(getattr(owner, name)) for name in fields}
        scalars.update(section if key is None else {key: section})
    return CheckpointState(epoch=trainer._completed_epochs, arrays=arrays,
                           scalars=scalars,
                           config_hash=trainer.config_fingerprint(),
                           model_name=trainer.config.model_name,
                           world_size=trainer.n_nodes,
                           world_lineage=tuple(trainer.world_lineage))


def apply_state(trainer, state: CheckpointState,
                rank_map: list | None = None) -> None:
    """Overwrite a freshly built trainer's state with a checkpoint's.

    The caller has already verified ``state.config_hash`` matches the
    trainer (:func:`load_checkpoint` / ``DistributedTrainer.restore``), so
    array shapes line up by construction.

    ``rank_map`` maps each of the trainer's local ranks to the local rank
    that held its state in the *capturing* world, or ``None`` for a member
    with no prior state (a regrown rank).  Surviving ranks carry their
    clocks, barrier-wait totals, error-feedback residuals and worker RNG
    positions across the membership change; fresh members start with a
    clock at the restored maximum (they join at the barrier), zero wait,
    pristine residuals and whatever RNG the caller installed (the elastic
    supervisor hands them a rejoin stream).  Without a ``rank_map``, any
    world-size difference raises :class:`CheckpointWorldMismatchError`.

    A missing or malformed field raises :class:`CheckpointCorruptError`
    naming it before the first trainer field is written.
    """
    arrays, scalars, old_world = state.arrays, state.scalars, state.world_size
    if rank_map is None:
        if old_world != trainer.n_nodes:
            raise CheckpointWorldMismatchError(
                f"checkpoint was captured by a {old_world}-rank world "
                f"(lineage {list(state.world_lineage)}) but this trainer has "
                f"{trainer.n_nodes} ranks; plain resume requires matching "
                f"worlds — use the elastic supervisor (--elastic) to shrink "
                f"or regrow across a membership change")
        rank_map = list(range(trainer.n_nodes))
    survivors = [old for old in rank_map if old is not None]
    if (len(rank_map) != trainer.n_nodes or not survivors
            or len(set(survivors)) != len(survivors)
            or not all(0 <= old < old_world for old in survivors)):
        raise ValueError(
            f"rank_map {rank_map} must name, for each of this trainer's "
            f"{trainer.n_nodes} ranks, a distinct rank of the capturing "
            f"{old_world}-rank world or None, with at least one survivor")

    def remap(values, fresh):
        """Per local rank: its source rank's entry, or ``fresh``."""
        return [fresh if old is None else values[old] for old in rank_map]

    cluster = trainer.cluster
    writes = []  # run only once every section has parsed
    where = "arrays"
    try:
        for name, owner, attr, dtype in _arrays(trainer):
            writes.append((setattr, owner, attr,
                           np.array(arrays[name], dtype=dtype)))
        clocks = np.asarray(arrays["cluster/clocks"], dtype=np.float64)
        wait = np.asarray(arrays["cluster/wait"], dtype=np.float64)
        join_clock = float(max(clocks[old] for old in survivors))
        writes += [
            (setattr, cluster, "clocks", np.array(remap(clocks, join_clock))),
            (setattr, cluster, "wait_total", np.array(remap(wait, 0.0))),
            (cluster.records.clear,)]
        # Rank stores follow ``rank_map``; node stores restore by node-id
        # intersection: a (re)grown node starts pristine, and a snapshot
        # node with no survivors is dropped (its residual died with its
        # last member, as a real node buffer would).
        for key, owner, store in trainer.exchange.residual_stores():
            if owner is not None:
                kind, rank = owner
                key = (None if rank_map[rank] is None
                       else residual_key(kind, rank_map[rank]))
            if key is None or (owner is None and f"{key}/rows" not in arrays):
                writes.append((store.clear,))
                continue
            where = f"{key}/rows"  # sorted in-range ids of rows in /values
            rows, values = arrays[where], arrays[f"{key}/values"]
            if rows.dtype.kind not in "iu" or values.shape[1:] != (store.dim,):
                raise ValueError(
                    f"rows {rows.dtype} / values {values.shape} do not fit a "
                    f"({store.n_rows}, {store.dim}) store")
            writes.append((store.store, SparseRows(rows, values, store.n_rows)))

        where = "state.rng"
        rng = scalars["rng"]
        if len(rng["workers"]) != old_world:
            raise CheckpointCorruptError(
                f"checkpoint carries {len(rng['workers'])} worker RNG states "
                f"for a world of {old_world} ranks")
        for generator, position in [
                (trainer.rng, rng["trainer"]),
                (trainer.exchange.rng, rng["selection"]),
                *zip((w.rng for w in trainer.workers),
                     remap(rng["workers"], None))]:
            if position is not None:  # None: a fresh member keeps its own
                type(generator.bit_generator)(0).state = position  # or raise
                writes.append((set_rng_state, generator, position))

        for key, owner, fields in _sections(trainer):
            where = f"state.{key}" if key else "state"
            saved = scalars[key] if key else scalars
            if (saved is None) != (owner is None):
                raise CheckpointCorruptError(
                    f"checkpoint field {where!r} does not match the trainer "
                    f"(the config hash should have caught this)")
            if owner is None:
                continue
            for name, parse in fields.items():
                where = f"state.{key + '.' if key else ''}{name}"
                writes.append((setattr, owner, name, parse(saved[name])))

        where = "world_lineage"
        lineage = [int(w) for w in state.world_lineage]
        if lineage[-1] != trainer.n_nodes:
            lineage.append(trainer.n_nodes)
        writes += [(setattr, trainer, "world_lineage", lineage),
                   (setattr, trainer, "_completed_epochs", int(state.epoch)),
                   (setattr, trainer, "_last_snapshot", None)]
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:  # what a malformed value raises
        raise CheckpointCorruptError(
            f"checkpoint field {where!r} is malformed "
            f"({type(exc).__name__}: {exc}); the checkpoint is corrupt"
        ) from exc
    for write, *args in writes:
        write(*args)


# ---------------------------------------------------------------------------
# Deterministic on-disk format
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, write) -> None:
    """Run ``write(fh)`` on ``<path>.tmp``, then rename it over ``path``;
    a failed write removes the half-written ``.tmp``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_npz(fh, arrays: dict) -> None:
    """Stream arrays into ``fh`` as an npz with fully deterministic bytes.

    ``np.savez`` stamps zip entries with the current time, so two saves of
    identical state would differ; we write the container ourselves with
    sorted entry order, a fixed 1980-01-01 timestamp and no compression,
    each entry an npy header followed by the array's own buffer.  The
    result is still a regular npz that ``np.load`` reads.
    """
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            info = zipfile.ZipInfo(name + ".npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            info.file_size = arr.nbytes  # decides zip64 before the write
            with zf.open(info, "w") as entry:
                np.lib.format.write_array_header_1_0(
                    entry, np.lib.format.header_data_from_array_1_0(arr))
                entry.write(_raw(arr))


def _write_pair(npz_path: Path, manifest_path: Path, arrays: dict,
                manifest: dict) -> None:
    """Write ``arrays`` and ``manifest``, which gains their checksum table.

    A manifest left by an earlier write goes first, then the npz lands,
    then the new manifest, each through an atomic rename — so a readable
    manifest always describes the npz beside it.
    """
    manifest["arrays"] = {
        name: {
            "sha256": _sha256_array(arr),
            "dtype": np.ascontiguousarray(arr).dtype.str,
            "shape": list(np.shape(arr)),
        }
        for name, arr in arrays.items()
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    manifest_path.unlink(missing_ok=True)
    _atomic_write(npz_path, lambda fh: _write_npz(fh, arrays))
    _atomic_write(manifest_path, lambda fh: fh.write(text.encode()))


def write_checkpoint(state: CheckpointState, path: str | Path) -> Path:
    """Write one checkpoint directory (``manifest.json`` + ``state.npz``).

    A kill mid-write leaves at worst a manifest-less directory that
    :func:`latest_checkpoint` ignores (see :func:`_write_pair`), also when
    ``path`` already held a checkpoint.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "config_hash": state.config_hash,
        "model": state.model_name,
        "epoch": state.epoch,
        "world_size": state.world_size,
        "world_lineage": list(state.world_lineage),
        "state": state.scalars,
    }
    _write_pair(path / ARRAYS_NAME, path / MANIFEST_NAME, state.arrays,
                manifest)
    return path


# ---------------------------------------------------------------------------
# The one reader: every snapshot file is parsed and verified here
# ---------------------------------------------------------------------------

#: Fields every checkpoint manifest carries, with their JSON types.
_CHECKPOINT_FIELDS = {"config_hash": str, "model": str, "epoch": int,
                      "world_size": int, "world_lineage": list,
                      "state": dict}


def _read_manifest(path: Path, fmt: str = FORMAT_NAME,
                   version: int = SCHEMA_VERSION,
                   fields: dict = _CHECKPOINT_FIELDS) -> tuple[dict, str]:
    """Parse one manifest; returns it and the SHA-256 of the bytes parsed.

    A missing file raises plain :class:`CheckpointError` and a foreign
    ``schema_version`` :class:`CheckpointSchemaError`.  Anything else
    malformed — bad JSON, a non-object, a foreign ``format``, a field of
    ``fields`` or the ``arrays`` table missing or mistyped — raises
    :class:`CheckpointCorruptError` naming the file and the field.
    """
    try:
        raw = path.read_bytes()
        manifest = json.loads(raw)
    except (FileNotFoundError, NotADirectoryError):
        raise CheckpointError(
            f"no checkpoint file {path.name} in {path.parent}") from None
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise CheckpointCorruptError(
            f"cannot read {path} as JSON ({exc}); the file is corrupt or was "
            f"torn mid-write") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != fmt:
        raise CheckpointCorruptError(f"{path} is not a {fmt} manifest")
    found = manifest.get("schema_version")
    if found != version:
        raise CheckpointSchemaError(
            f"{path} has schema version {found!r} (expected {version}); "
            f"re-create it with a matching version of repro")
    for key, kind in {"arrays": dict, **fields}.items():
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            found = repr(value)[:60] if key in manifest else "missing"
            raise CheckpointCorruptError(
                f"{path}: field {key!r} is {found}, expected {kind.__name__}")
    for name, meta in manifest["arrays"].items():
        if not isinstance(meta, dict) or not isinstance(meta.get("sha256"),
                                                        str):
            raise CheckpointCorruptError(
                f"{path}: field 'arrays.{name}' has no sha256 string")
    return manifest, hashlib.sha256(raw).hexdigest()


def _read_arrays(path: Path, declared: dict) -> dict:
    """Load an npz without copying it and verify it against ``declared``,
    a manifest's ``arrays`` table: nothing missing, nothing undeclared,
    every SHA-256 equal."""
    try:
        # Opened here: np.load leaks its own handle when the zip is bad.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except Exception as exc:  # a missing file; zipfile, numpy: a dozen kinds
        raise CheckpointCorruptError(
            f"cannot read {path} ({exc}); the file is corrupt or was torn "
            f"mid-write") from exc
    missing = sorted(set(declared) - set(arrays))
    if missing:
        raise CheckpointMissingArrayError(
            f"{path} is missing declared array(s) {missing}")
    undeclared = sorted(set(arrays) - set(declared))
    if undeclared:
        raise CheckpointCorruptError(
            f"{path} contains array(s) {undeclared} absent from its "
            f"manifest; manifest and npz are out of sync")
    for name, meta in sorted(declared.items()):
        actual = _sha256_array(arrays[name])
        if actual != meta["sha256"]:
            raise CheckpointChecksumError(
                f"array {name!r} in {path} fails its SHA-256 check "
                f"(manifest {meta['sha256'][:12]}..., file {actual[:12]}...)")
    return arrays


def load_checkpoint(path: str | Path,
                    expected_config_hash: str | None = None
                    ) -> CheckpointState:
    """Load and fully validate the checkpoint directory ``path`` (one
    snapshot; :func:`resolve_checkpoint_dir` turns a parent into one).

    Raises the most specific :class:`CheckpointError` subclass for each
    failure mode (see module docstring).  When ``expected_config_hash`` is
    given, a mismatch is rejected *before* any array is deserialised.
    """
    path = Path(path)
    manifest, digest = _read_manifest(path / MANIFEST_NAME)
    if manifest["model"] not in MODEL_REGISTRY:
        raise CheckpointCorruptError(
            f"{path / MANIFEST_NAME}: field 'model' is "
            f"{manifest['model'][:60]!r}, expected one of "
            f"{sorted(MODEL_REGISTRY)}")
    config_hash = manifest["config_hash"]
    if expected_config_hash is not None and config_hash != expected_config_hash:
        raise CheckpointConfigMismatchError(
            f"checkpoint config hash {config_hash[:12]}... does not match "
            f"this trainer's {expected_config_hash[:12]}...: the snapshot "
            f"was written by a run with a different dataset, strategy, "
            f"network, fault plan or TrainConfig.  Rebuild the trainer "
            f"with the original settings to resume (only max_epochs and "
            f"the checkpoint knobs may differ).")
    declared = manifest["arrays"]
    return CheckpointState(
        epoch=manifest["epoch"],
        arrays=_read_arrays(path / ARRAYS_NAME, declared),
        scalars=manifest["state"], config_hash=config_hash,
        model_name=manifest["model"],
        world_size=manifest["world_size"],
        world_lineage=tuple(manifest["world_lineage"]),
        manifest_digest=digest,
        digests={name: meta["sha256"] for name, meta in declared.items()})


def resolve_checkpoint_dir(path: str | Path) -> Path:
    """The checkpoint directory ``path`` names: itself if it holds a
    manifest, else the highest-epoch checkpoint under it.

    Every reader resolves once, here, so ``restore``, ``serve``, hot reload
    and ``export-binary`` given one parent agree on the snapshot, and one
    landing mid-load cannot mix two snapshots into one load.
    """
    path = Path(path)
    if (path / MANIFEST_NAME).is_file():
        return path
    found = latest_checkpoint(path)
    if found is None:
        raise CheckpointError(f"no checkpoint found under {path}")
    return found


def manifest_digest(path: str | Path) -> str:
    """SHA-256 of the manifest in checkpoint directory ``path``: a cheap
    snapshot identity.

    The manifest embeds every array's checksum, so two checkpoints with
    equal manifests hold bitwise-equal arrays.  Hot reload compares it with
    the served store's (the digest its loader parsed) to skip no-op swaps
    without reading the array payload.
    """
    return _read_manifest(Path(path) / MANIFEST_NAME)[1]


# ---------------------------------------------------------------------------
# Sidecars: derived artifacts living next to a checkpoint
# ---------------------------------------------------------------------------
#
# A sidecar is a pair of files (``<stem>.npz`` + ``<stem>.json``) written
# into an existing checkpoint directory by a post-training export (the
# binary embedding tier is the first).  It deliberately does NOT touch
# ``manifest.json`` — the checkpoint's own files stay byte-identical, so
# resume equivalence, pruning and golden diffs are unaffected — but it is
# validated exactly like the checkpoint's arrays: per-array SHA-256 checksums,
# a format marker, a schema version, and the same loud error taxonomy.

def write_sidecar(ckpt_dir: str | Path, stem: str, fmt: str, version: int,
                  arrays: dict, meta: dict) -> Path:
    """Write a checksummed sidecar next to a checkpoint's manifest.

    ``arrays`` land in ``<stem>.npz`` (deterministic bytes, like
    ``state.npz``); ``meta`` plus the per-array checksum table land in
    ``<stem>.json``, through the same :func:`_write_pair` as a checkpoint,
    so a readable sidecar manifest always describes a complete npz.
    Returns the resolved checkpoint directory.
    """
    path = resolve_checkpoint_dir(ckpt_dir)
    manifest = {"format": fmt, "schema_version": version, "meta": meta}
    _write_pair(path / f"{stem}.npz", path / f"{stem}.json", arrays, manifest)
    return path


def read_sidecar(ckpt_dir: str | Path, stem: str, fmt: str, version: int
                 ) -> tuple[dict, dict]:
    """Load and fully validate one sidecar in the checkpoint directory
    ``ckpt_dir``; returns ``(arrays, meta)``.  The reader and the error
    taxonomy are :func:`load_checkpoint`'s."""
    path = Path(ckpt_dir)
    manifest, _ = _read_manifest(path / f"{stem}.json", fmt, version,
                                 {"meta": dict})
    return (_read_arrays(path / f"{stem}.npz", manifest["arrays"]),
            manifest["meta"])


# ---------------------------------------------------------------------------
# Checkpoint discovery
# ---------------------------------------------------------------------------

def list_checkpoints(root: str | Path) -> list[tuple[int, Path]]:
    """All readable checkpoints directly under ``root``: (epoch, path).

    Sorted by (epoch, name).  A directory whose manifest the reader refuses
    (missing, torn, foreign, wrong version, no valid epoch) is skipped:
    a bad child must not break discovery of older snapshots, so this
    never raises.
    """
    root = Path(root)
    found: list[tuple[int, Path]] = []
    if not root.is_dir():
        return found
    for child in sorted(root.iterdir()):
        try:
            found.append((_read_manifest(child / MANIFEST_NAME)[0]["epoch"],
                          child))
        except CheckpointError:
            continue
    found.sort(key=lambda item: (item[0], item[1].name))
    return found


def latest_checkpoint(root: str | Path) -> Path | None:
    """The highest-epoch checkpoint under ``root`` (None if there is none)."""
    found = list_checkpoints(root)
    return found[-1][1] if found else None


def prune_checkpoints(root: str | Path, keep: int) -> list[Path]:
    """Delete all but the newest ``keep`` routine checkpoints under ``root``.

    Failure snapshots (directories named ``failure-*``) are never pruned —
    they are the post-mortem record of what the run looked like when a
    fault killed it, and the elastic supervisor's audit trail.  ``keep <= 0``
    keeps everything.  Deletion is torn-write safe in the same sense the
    writer is: the manifest goes first (the directory instantly vanishes
    from :func:`list_checkpoints`), then the arrays, then the directory, so
    a kill mid-prune can never leave a half-deleted checkpoint discoverable.

    Returns the deleted paths, oldest first.
    """
    if keep <= 0:
        return []
    routine = [(epoch, path) for epoch, path in list_checkpoints(root)
               if not path.name.startswith("failure-")]
    doomed = routine[:-keep] if len(routine) > keep else []
    pruned: list[Path] = []
    for _epoch, path in doomed:
        manifest = path / MANIFEST_NAME
        if manifest.is_file():
            manifest.unlink()
        for leftover in sorted(path.iterdir()):
            leftover.unlink()
        path.rmdir()
        pruned.append(path)
    return pruned

"""The OpenKE dataset layout, which ``--dataset-file DIR`` reads.

The synthetic generators stand in for Freebase offline, but anyone holding
the real FB15K/FB250K files can train and serve on them unchanged.  The
OpenKE layout (what the paper's evaluation pipeline uses) is a directory
with ``entity2id.txt``, ``relation2id.txt`` and ``train2id.txt`` /
``valid2id.txt`` / ``test2id.txt``.  The first line of each file is the
count; triple files store ``head tail relation`` (note the OpenKE column
order!).
"""

from __future__ import annotations

import os

import numpy as np

from .triples import TripleSet, TripleStore


def _read_id_count(path: str) -> int:
    with open(path) as fh:
        line = fh.readline().strip()
    try:
        return int(line)
    except ValueError:
        raise ValueError(f"{path}: first line must be a count, got "
                         f"{line!r}") from None


def _read_openke_triples(path: str) -> TripleSet:
    """OpenKE ``*2id.txt``: first line count, then ``h t r`` per line."""
    try:
        data = np.loadtxt(path, skiprows=1, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"{path} contains no triples")
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {data.shape[1]}")
    # OpenKE column order is (head, tail, relation).
    return TripleSet(heads=data[:, 0], relations=data[:, 2], tails=data[:, 1])


def load_openke_dir(path: str, name: str | None = None) -> TripleStore:
    """Load an OpenKE-format dataset directory.

    A missing file raises ``FileNotFoundError``; a malformed one raises
    ``ValueError`` naming it.
    """
    required = ["entity2id.txt", "relation2id.txt", "train2id.txt",
                "valid2id.txt", "test2id.txt"]
    for fname in required:
        if not os.path.exists(os.path.join(path, fname)):
            raise FileNotFoundError(
                f"OpenKE directory {path!r} is missing {fname}")
    n_entities = _read_id_count(os.path.join(path, "entity2id.txt"))
    n_relations = _read_id_count(os.path.join(path, "relation2id.txt"))
    train, valid, test = (
        _read_openke_triples(os.path.join(path, f"{split}2id.txt"))
        for split in ("train", "valid", "test"))
    try:
        return TripleStore(
            n_entities=n_entities, n_relations=n_relations,
            train=train, valid=valid, test=test,
            name=name or os.path.basename(os.path.normpath(path)))
    except ValueError as exc:
        raise ValueError(f"OpenKE directory {path!r}: {exc}") from None


def save_openke_dir(store: TripleStore, path: str) -> None:
    """Write a dataset in the OpenKE layout (ids are synthetic labels)."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "entity2id.txt"), "w") as fh:
        fh.write(f"{store.n_entities}\n")
        for i in range(store.n_entities):
            fh.write(f"e{i}\t{i}\n")
    with open(os.path.join(path, "relation2id.txt"), "w") as fh:
        fh.write(f"{store.n_relations}\n")
        for i in range(store.n_relations):
            fh.write(f"r{i}\t{i}\n")
    for split_name in ("train", "valid", "test"):
        split: TripleSet = getattr(store, split_name)
        with open(os.path.join(path, f"{split_name}2id.txt"), "w") as fh:
            fh.write(f"{len(split)}\n")
            for h, r, t in zip(split.heads, split.relations, split.tails):
                fh.write(f"{h} {t} {r}\n")  # OpenKE order: head tail relation

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


def _read_counted(path: str) -> list[str]:
    """The non-blank lines after an OpenKE file's count line.

    The first line must be an integer equal to the number of those lines.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            rows = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        count = int(header)
    except ValueError:
        raise ValueError(f"{path}: first line must be a count, got "
                         f"{header!r}") from None
    if count != len(rows):
        raise ValueError(f"{path}: first line counts {count} rows, the "
                         f"file holds {len(rows)}")
    return rows


def _read_openke_triples(path: str) -> TripleSet:
    """OpenKE ``*2id.txt``: first line count, then ``h t r`` per line."""
    rows = _read_counted(path)
    if not rows:
        raise ValueError(f"{path} contains no triples")
    try:
        data = np.loadtxt(rows, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    n_entities = len(_read_counted(os.path.join(path, "entity2id.txt")))
    n_relations = len(_read_counted(os.path.join(path, "relation2id.txt")))
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

"""Fixture builders that only tests call.

Nothing under ``src/repro`` imports this module (``tests/test_spec.py``
enforces it).  Each builder goes through the public surface only, and
:func:`cache_keys` is the one reader of private state:

* :func:`sparse_from_dense` / :func:`sparse_to_dense` — a dense matrix to
  its non-zero :class:`~repro.comm.sparse.SparseRows` and back;
* :func:`save_openke_dir` — the writer of the OpenKE directory layout that
  :func:`repro.kg.io.load_openke_dir` reads;
* :func:`store_from_model` — a serving store over an in-memory model,
  skipping the checkpoint round trip;
* :func:`cache_keys` — an :class:`~repro.serve.cache.LRUCache`'s keys in
  eviction order, which the cache itself never needs to expose;
* :func:`capture_charges` — every :class:`~repro.comm.simulator.CommRecord`
  a cluster charges from then on, which the cluster itself only sums;
* :data:`MODELS` — the model classes the model-generic suites
  parametrize over.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.comm.sparse import SparseRows
from repro.models import ComplEx
from repro.serve.binary import binarize_model
from repro.serve.store import EmbeddingStore

#: Every model class, under its test id.
MODELS = [pytest.param(ComplEx, id="complex")]


def sparse_from_dense(matrix: np.ndarray,
                      zero_tol: float = 0.0) -> SparseRows:
    """The rows of ``matrix`` whose 2-norm exceeds ``zero_tol``.

    ``zero_tol = 0`` keeps every row with any non-zero element (the
    baseline's definition of a "non-zero gradient row").
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if zero_tol == 0.0:
        # Exact check: a float32 norm of subnormal values can underflow
        # to zero and silently drop a row that has non-zero elements.
        mask = (matrix != 0).any(axis=1)
    else:
        norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
        mask = norms > zero_tol
    idx = np.flatnonzero(mask)
    return SparseRows(indices=idx, values=matrix[idx], n_rows=matrix.shape[0])


def sparse_to_dense(rows: SparseRows) -> np.ndarray:
    """The full ``(n_rows, dim)`` float32 matrix ``rows`` stands for."""
    out = np.zeros((rows.n_rows, rows.dim), dtype=np.float32)
    out[rows.indices] = rows.values
    return out


def save_openke_dir(store, path: str) -> None:
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
        split = getattr(store, split_name)
        with open(os.path.join(path, f"{split_name}2id.txt"), "w") as fh:
            fh.write(f"{len(split)}\n")
            for h, r, t in zip(split.heads, split.relations, split.tails):
                fh.write(f"{h} {t} {r}\n")  # OpenKE order: head tail relation


def store_from_model(model, dataset=None,
                     with_binary: bool = False) -> EmbeddingStore:
    """Serve a private copy of ``model`` (the original stays writeable).

    ``dataset`` supplies the filter index; ``with_binary`` binarizes the
    entity matrix in-process instead of loading a sidecar.
    """
    return EmbeddingStore(
        model=model.copy(),
        filter_index=dataset.filter_index if dataset is not None else None,
        binary=binarize_model(model) if with_binary else None)


def cache_keys(cache) -> list:
    """``cache``'s keys in LRU -> MRU (eviction) order, without promoting
    any entry."""
    return list(cache._entries)


def capture_charges(cluster) -> list:
    """A list that receives every :class:`~repro.comm.simulator.CommRecord`
    ``cluster`` charges from now on, in order (wraps the instance's
    ``charge_collective``)."""
    records: list = []
    charge = cluster.charge_collective

    def recording(record):
        charge(record)
        records.append(record)

    cluster.charge_collective = recording
    return records

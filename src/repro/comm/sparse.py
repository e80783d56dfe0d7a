"""Sparse row-set representation of a gradient matrix.

A KGE gradient matrix touches only the entity/relation rows that appear in
the current batch, so the natural wire format is ``(row_indices, values)``.
This module provides the container the allgather path exchanges, plus the
combine operation (sum rows with matching indices) each rank applies after
gathering everyone's rows.

Both accumulation entry points replay an input-order scatter-add's exact
float additions (the property suites pin them bitwise against
``tests._reference.scatter_add_rows``).  :meth:`SparseRows.from_rows` takes
arbitrary duplicated updates through the sorted-segment CSR fold in
:mod:`repro.kg.spmat`; :func:`combine_sparse` knows every part's indices
are already unique and sorted, so it adds the parts in order into one
compact accumulator through a row -> slot table, with no concatenation,
sort or fold plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..kg.spmat import build_fold_plan, fold_rows
from .payload import sparse_rows_bytes


@dataclass
class SparseRows:
    """Non-zero rows of a ``(n_rows, dim)`` float32 matrix.

    Attributes
    ----------
    indices:
        1-D int64 array of row indices, strictly increasing.
    values:
        2-D float32 array, ``values[i]`` is row ``indices[i]``.
    n_rows:
        Number of rows in the full (dense) matrix this was extracted from.
    """

    indices: np.ndarray
    values: np.ndarray
    n_rows: int

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if self.indices.ndim != 1 or len(self.indices) != len(self.values):
            raise ValueError(
                f"indices ({self.indices.shape}) must be 1-D and match values "
                f"rows ({self.values.shape})"
            )
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n_rows
        ):
            raise ValueError("row indices out of range")
        if len(self.indices) > 1 and np.any(np.diff(self.indices) <= 0):
            raise ValueError("row indices must be strictly increasing")

    @property
    def nnz_rows(self) -> int:
        """Number of rows actually carried."""
        return len(self.indices)

    @property
    def dim(self) -> int:
        """Row width."""
        return self.values.shape[1]

    @property
    def nbytes_wire(self) -> int:
        """Bytes this payload occupies on the wire."""
        return sparse_rows_bytes(self.nnz_rows, self.dim)

    @classmethod
    def from_rows(cls, indices: np.ndarray, values: np.ndarray,
                  n_rows: int) -> "SparseRows":
        """Build from possibly-unsorted, possibly-duplicated row updates.

        Duplicate indices are summed (scatter-add semantics), matching what
        a framework does when the same entity appears several times in a
        batch.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float32)
        if len(indices) == 0:
            return cls(indices=np.empty(0, dtype=np.int64),
                       values=np.empty((0, values.shape[1] if values.ndim == 2 else 0),
                                       dtype=np.float32),
                       n_rows=n_rows)
        plan = build_fold_plan(indices, n_rows)
        return cls(indices=plan.rows, values=fold_rows(plan, values),
                   n_rows=n_rows)

    def select(self, keep_mask: np.ndarray) -> "SparseRows":
        """Keep only rows where ``keep_mask`` is True (same length as nnz)."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.nnz_rows,):
            raise ValueError(
                f"mask shape {keep_mask.shape} != ({self.nnz_rows},)"
            )
        return SparseRows(indices=self.indices[keep_mask],
                          values=self.values[keep_mask],
                          n_rows=self.n_rows)

    def scale(self, factor: float) -> "SparseRows":
        """Return a copy with values multiplied by ``factor``."""
        return SparseRows(indices=self.indices.copy(),
                          values=self.values * np.float32(factor),
                          n_rows=self.n_rows)


def combine_sparse(parts: Iterable[SparseRows]) -> SparseRows:
    """Sum several ranks' sparse row sets into one.

    This is what each rank computes locally after an allgather: rows present
    on multiple ranks are added elementwise, rows unique to one rank pass
    through.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("combine_sparse needs at least one part")
    n_rows = parts[0].n_rows
    dim = parts[0].dim
    for p in parts[1:]:
        if p.n_rows != n_rows or p.dim != dim:
            raise ValueError(
                "all parts must describe the same matrix shape; got "
                f"({p.n_rows}, {p.dim}) vs ({n_rows}, {dim})"
            )
    touched = np.zeros(n_rows, dtype=bool)
    for p in parts:
        touched[p.indices] = True
    rows = np.flatnonzero(touched)
    slot = np.empty(n_rows, dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    # Zero-initialised and added to, never assigned: a lone -0.0 comes out
    # as 0.0 + -0.0 = +0.0, exactly as the scatter-add leaves it.
    summed = np.zeros((len(rows), dim), dtype=np.float32)
    for p in parts:
        summed[slot[p.indices]] += p.values
    return SparseRows(indices=rows, values=summed, n_rows=n_rows)

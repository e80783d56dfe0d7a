"""Scipy-free sparse-matrix kernels for the training hot path.

Folding a batch's per-example gradient block ``G`` (one row per example
slot) into the embedding rows it touches is a sparse matrix product:
``A.T @ G`` where ``A`` is the batch's binary *incidence matrix*
(example-slot x touched-row).  This module builds the CSR structure of
``A.T`` once per batch (:class:`FoldPlan`) and applies it with a
vectorised sorted-segment reduction (:func:`fold_rows`) that is **bitwise
identical** to the reference ``np.add.at`` scatter
(``tests._reference.scatter_add_rows``) — the invariant the golden-run
suite and the accumulation property tests pin.

Why not ``np.add.reduceat``: its SIMD-unrolled partial sums differ from
sequential accumulation in the last ulp, so it cannot be bitwise-pinned.
Float32 addition is non-associative, so a row's sum is inherently
sequential; the fold vectorises around that sequence in two directions:

* **Short chains across rows.**  The k-th occurrence of every touched row
  is added in one whole-array gather + add per rank ``k`` below
  :data:`FOLD_RANK_CUTOVER`, in the scatter-add's exact input order,
  including the ``0.0 + x`` first touch that normalises ``-0.0``.  Entity
  indices live here (under 0.1 % of an FB15K batch's slots past rank 8).
* **Long chains down columns.**  A row with more occurrences continues
  from its partial sum with one left-to-right sum down its own slot block,
  vectorised across the row's columns.  For Zipf-skewed relations this is
  the common case, not a tail: 44 % of a dense batch's relation slots sit
  past rank 8 (the head relation alone is a chain of 200-300), and 98 %
  once relation partition leaves a rank two relations.

The column sum is ``np.add.reduce(axis=0)``, which walks the rows in order
only while a row has at least two columns: one column is a contiguous 1-D
reduction, which NumPy sums *pairwise*, so width 1 takes
``np.add.accumulate`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Occurrence rank at which :func:`fold_rows` goes from rank passes to column
#: sums; measured flat between 6 and 12 on all three training workloads.
FOLD_RANK_CUTOVER = 8


@dataclass(frozen=True)
class FoldPlan:
    """CSR structure of a batch's transposed incidence matrix.

    Attributes
    ----------
    rows:
        1-D int64, strictly increasing: the distinct embedding rows the
        batch touches (the CSR row ids of ``A.T``).
    indptr:
        1-D int64 of length ``len(rows) + 1``: segment boundaries into
        ``perm`` (the CSR row pointer).
    perm:
        1-D int64 of length ``n_slots``: example-slot ids grouped by
        touched row, preserving input order within each group (the CSR
        column indices; also a stable sorting permutation of the
        original index array).
    n_rows:
        Height of the full (dense) matrix being accumulated into.
    n_slots:
        Number of example slots (rows of the gradient block to fold).
    """

    rows: np.ndarray
    indptr: np.ndarray
    perm: np.ndarray
    n_rows: int
    n_slots: int

    @property
    def nnz_rows(self) -> int:
        """Distinct embedding rows the batch touches."""
        return len(self.rows)

    def counts(self) -> np.ndarray:
        """Occurrences of each touched row in the batch."""
        return np.diff(self.indptr)


def build_fold_plan(indices: np.ndarray, n_rows: int) -> FoldPlan:
    """Group example slots by the embedding row they touch.

    ``indices[i]`` is the row that example slot ``i`` accumulates into;
    duplicates are expected (the same entity appearing several times in a
    batch).  The grouping is *stable*: within one row's segment, slots
    appear in input order, which is what makes :func:`fold_rows` bitwise
    equal to an input-order scatter-add.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    n_slots = len(idx)
    if n_slots == 0:
        empty = np.empty(0, dtype=np.int64)
        return FoldPlan(rows=empty, indptr=np.zeros(1, dtype=np.int64),
                        perm=empty.copy(), n_rows=n_rows, n_slots=0)
    if idx.min() < 0 or idx.max() >= n_rows:
        raise ValueError("row indices out of range")
    if n_rows <= (np.iinfo(np.int64).max - n_slots) // n_slots:
        # Composite-key sort: (row, slot) packed into one int64 makes the
        # slot id the tie-breaker, so an ordinary (unstable, faster) sort
        # yields the stable grouping directly.
        keys = idx * n_slots + np.arange(n_slots, dtype=np.int64)
        keys.sort()
        grouped = keys // n_slots
        perm = keys - grouped * n_slots
    else:  # pragma: no cover - needs n_rows * n_slots overflowing int64
        perm = np.argsort(idx, kind="stable")
        grouped = idx[perm]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    return FoldPlan(rows=grouped[starts],
                    indptr=np.append(starts, n_slots),
                    perm=perm, n_rows=n_rows, n_slots=n_slots)


def fold_rows(plan: FoldPlan, values: np.ndarray,
              cutover: int = FOLD_RANK_CUTOVER) -> np.ndarray:
    """Sum the gradient block into one row per touched embedding row.

    Returns a ``(plan.nnz_rows, width)`` float32 block where row ``j`` is
    the sum of ``values[i]`` over every slot ``i`` with
    ``indices[i] == plan.rows[j]`` — bitwise identical to the reference
    scatter-add into zeros: every row's occurrences are added in input
    order, across rows for the first ``cutover``, down columns after.
    """
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    if values.shape[0] != plan.n_slots:
        raise ValueError(
            f"values rows ({values.shape[0]}) must match plan slots "
            f"({plan.n_slots})")
    if cutover < 1:
        raise ValueError(f"cutover must be >= 1, got {cutover}")
    width = values.shape[1]
    if plan.nnz_rows == 0:
        return np.empty((0, width), dtype=np.float32)
    starts = plan.indptr[:-1]
    counts = plan.counts()
    perm = plan.perm
    # Rank-0 occurrence of every row; "+= 0.0" reproduces the scatter-add's
    # zero-initialised first addition (it maps -0.0 to +0.0) without a
    # second full-block allocation.
    out = np.take(values, perm[starts], axis=0)
    out += np.float32(0.0)
    max_count = int(counts.max())
    k = 1
    while k < max_count and k < cutover:
        sel = np.flatnonzero(counts > k)
        out[sel] += values[perm[starts[sel] + k]]
        k += 1
    if max_count > k:
        # One gather lays every long row's remaining occurrences out as
        # consecutive blocks, each led by a spare slot (occurrence k - 1)
        # that is overwritten with the row's partial sum, so the block's
        # column sum continues the chain where the rank passes left it.
        sel = np.flatnonzero(counts > k)
        lengths = counts[sel] - (k - 1)
        ends = np.cumsum(lengths)
        begins = ends - lengths
        positions = (np.arange(ends[-1])
                     + np.repeat(starts[sel] + (k - 1) - begins, lengths))
        chains = values[perm[positions]]
        chains[begins] = out[sel]
        for row, lo, hi in zip(sel.tolist(), begins.tolist(), ends.tolist()):
            if width == 1:
                out[row] = np.add.accumulate(chains[lo:hi], axis=0)[-1]
            else:
                np.add.reduce(chains[lo:hi], axis=0, out=out[row])
    return out

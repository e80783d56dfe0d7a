"""Error feedback for lossy gradient compression (extension).

Karimireddy et al. (2019) show 1-bit schemes converge reliably when the
compression error is accumulated locally and added back to the next step's
gradient.  The paper cites this line of work (Section 2) without adopting
it; we implement it as an optional ablation
(``StrategyConfig.error_feedback``) so the benchmark suite can quantify what
it buys on KGE workloads.

Two granularities exist:

* :class:`ResidualStore` — one store per (rank, matrix), wrapped around the
  flat allgather path's per-rank quantizer;
* :class:`NodeResiduals` — one store per *physical node*, wrapped around the
  hierarchical stack's hop-boundary re-quantization (see
  :mod:`repro.comm.hierarchical`): the node sum is quantized once before the
  inter-node ring, and the node — not the rank — owns the error it made, so
  compression error cannot compound across hops.
"""

from __future__ import annotations

import numpy as np

from ..comm.sparse import SparseRows, combine_sparse


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (no copy; ``arr`` itself stays as is)."""
    view = arr.view()
    view.flags.writeable = False
    return view


class ResidualStore:
    """Per-matrix residual memory for one worker.

    Only the rows holding a residual are kept, as a sorted ``(rows,
    values)`` pair — the schema-3 checkpoint layout — so the memory it
    holds scales with those rows, not with ``n_rows``.  Both arrays are
    read-only: :meth:`store` and :meth:`clear` swap in a new pair and never
    write into the old one, so a checkpoint snapshot may share them instead
    of copying.
    """

    def __init__(self, n_rows: int, dim: int):
        if n_rows < 1 or dim < 1:
            raise ValueError(f"invalid residual shape ({n_rows}, {dim})")
        self.n_rows = n_rows
        self.dim = dim
        self._empty = (_frozen(np.empty(0, dtype=np.int64)),
                       _frozen(np.empty((0, dim), dtype=np.float32)))
        self.rows, self.values = self._empty

    @property
    def nnz_rows(self) -> int:
        """Rows currently stored (a stored row may hold zeros)."""
        return len(self.rows)

    @property
    def nbytes(self) -> int:
        """Bytes the stored rows occupy."""
        return self.rows.nbytes + self.values.nbytes

    def inject(self, grad: SparseRows) -> SparseRows:
        """Add stored residuals into ``grad`` (union of row sets)."""
        if grad.n_rows != self.n_rows or (grad.nnz_rows and grad.dim != self.dim):
            raise ValueError("gradient shape does not match residual store")
        if not self.nnz_rows:
            return grad
        return combine_sparse([grad, SparseRows(self.rows, self.values,
                                                self.n_rows)])

    def store(self, residual: SparseRows) -> None:
        """Replace every stored residual with ``residual``'s rows.

        inject() always folds every stored row in, so after a store the
        stored set is exactly this step's compression error.
        """
        if residual.n_rows != self.n_rows or (residual.nnz_rows
                                              and residual.dim != self.dim):
            raise ValueError(
                f"residual of shape ({residual.n_rows}, {residual.dim}) "
                f"does not fit a ({self.n_rows}, {self.dim}) store")
        self.rows, self.values = (
            (_frozen(residual.indices), _frozen(residual.values))
            if residual.nnz_rows else self._empty)

    def clear(self) -> None:
        """Drop all residual state."""
        self.rows, self.values = self._empty


class NodeResiduals:
    """Hop-boundary residual memory, one :class:`ResidualStore` per node.

    Keys are stable physical node ids (``global_rank // ranks_per_node``),
    so residual ownership survives elastic membership changes: a shrunk
    node keeps its accumulated error, and a node whose last member died
    simply drops out (its residual is lost with it, exactly as a real
    node-local buffer would be).
    """

    def __init__(self, node_ids, n_rows: int, dim: int):
        ids = sorted(int(n) for n in node_ids)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids: {node_ids}")
        self.stores: dict[int, ResidualStore] = {
            node: ResidualStore(n_rows, dim) for node in ids}

    def _store(self, node: int) -> ResidualStore:
        try:
            return self.stores[node]
        except KeyError:
            raise ValueError(f"node {node} holds no residual store; held "
                             f"node ids: {sorted(self.stores)}") from None

    def inject(self, node: int, grad: SparseRows) -> SparseRows:
        """Fold node ``node``'s stored residual into its hop-boundary sum."""
        return self._store(node).inject(grad)

    def store(self, node: int, residual: SparseRows) -> None:
        """Replace node ``node``'s residual with this hop's fresh error."""
        self._store(node).store(residual)

    def clear(self) -> None:
        """Drop every node's residual."""
        for store in self.stores.values():
            store.clear()

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


class ResidualStore:
    """Per-matrix residual memory for one worker.

    Residuals are kept densely for the rows that have ever had one; lookup
    and update cost scales with the touched rows only.
    """

    def __init__(self, n_rows: int, dim: int):
        if n_rows < 1 or dim < 1:
            raise ValueError(f"invalid residual shape ({n_rows}, {dim})")
        self.n_rows = n_rows
        self.dim = dim
        self._residual = np.zeros((n_rows, dim), dtype=np.float32)
        self._dirty = np.zeros(n_rows, dtype=bool)

    @property
    def nnz_rows(self) -> int:
        """Rows currently holding non-zero residual."""
        return int(self._dirty.sum())

    def inject(self, grad: SparseRows) -> SparseRows:
        """Add stored residuals into ``grad`` (union of row sets)."""
        if grad.n_rows != self.n_rows or (grad.nnz_rows and grad.dim != self.dim):
            raise ValueError("gradient shape does not match residual store")
        dirty_idx = np.flatnonzero(self._dirty)
        if len(dirty_idx) == 0:
            return grad
        residual = SparseRows(indices=dirty_idx,
                              values=self._residual[dirty_idx],
                              n_rows=self.n_rows)
        return combine_sparse([grad, residual])

    def store(self, residual: SparseRows) -> None:
        """Replace stored residuals for the given rows."""
        if residual.n_rows != self.n_rows:
            raise ValueError("residual shape does not match store")
        # Rows previously dirty but not refreshed keep their value only if
        # they were not part of this step's compression input; inject()
        # always folds every dirty row in, so after a store the dirty set is
        # exactly the refreshed rows.
        self._residual[self._dirty] = 0.0
        self._dirty[:] = False
        if residual.nnz_rows:
            self._residual[residual.indices] = residual.values
            self._dirty[residual.indices] = True

    def clear(self) -> None:
        """Drop all residual state."""
        self._residual[self._dirty] = 0.0
        self._dirty[:] = False


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

    def inject(self, node: int, grad: SparseRows) -> SparseRows:
        """Fold node ``node``'s stored residual into its hop-boundary sum."""
        return self.stores[node].inject(grad)

    def store(self, node: int, residual: SparseRows) -> None:
        """Replace node ``node``'s residual with this hop's fresh error."""
        self.stores[node].store(residual)

"""Byte accounting for the wire formats the strategies produce.

Three payload families exist in the paper's system:

* **dense** — the full gradient matrix, 4 bytes per float32 element
  (allreduce path);
* **sparse rows** — only the non-zero rows, each carrying a 4-byte row index
  plus ``dim`` float32 values (baseline allgather path, and the
  random-selection path);
* **quantized rows** — non-zero rows where values are compressed to 1 or 2
  bits each, plus a 4-byte float scale per row and the 4-byte row index.

The trainer uses these to charge communication time to the network model and
to report communication-volume statistics.
"""

from __future__ import annotations

import math

FLOAT32_BYTES = 4
INDEX_BYTES = 4


def dense_bytes(n_rows: int, dim: int) -> int:
    """Wire size of a dense float32 matrix."""
    _check_nonneg(n_rows=n_rows, dim=dim)
    return n_rows * dim * FLOAT32_BYTES


def sparse_rows_bytes(n_rows: int, dim: int) -> int:
    """Wire size of ``n_rows`` sparse rows: index + float32 values."""
    _check_nonneg(n_rows=n_rows, dim=dim)
    return n_rows * (INDEX_BYTES + dim * FLOAT32_BYTES)


def quantized_rows_bytes(n_rows: int, dim: int, bits: int,
                         n_scales: int = 1) -> int:
    """Wire size of ``n_rows`` quantized rows.

    Each row carries its 4-byte index, ``n_scales`` 4-byte float32 scales
    (two for the sign-split 1-bit statistics), and ``ceil(dim * bits / 8)``
    bytes of packed codes.
    """
    _check_nonneg(n_rows=n_rows, dim=dim)
    if bits not in (1, 2):
        raise ValueError(f"bits must be 1 or 2, got {bits}")
    packed = math.ceil(dim * bits / 8)
    return n_rows * (INDEX_BYTES + n_scales * FLOAT32_BYTES + packed)


def _check_nonneg(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")

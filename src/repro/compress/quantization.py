"""Gradient quantization — the paper's Section 4.3.

Two families, applied row-wise to sparse gradient rows:

* **1-bit**: ``quant(v) = sign(v) * stat(v)`` where ``stat`` is one of the
  six statistics the paper compared — ``max`` (of |v|, the winner), ``avg``,
  and the sign-split variants ``negmax`` / ``posmax`` / ``negavg`` /
  ``posavg`` that scale negative and positive elements separately.
* **2-bit (TernGrad-style, modified)**: ``quant(v) = sign(v) * mean(|v|) * P``
  with ``P`` a Bernoulli mask, ``P(P_i = 1) = min(1, |v_i| / mean(|v|))``.
  The paper swaps TernGrad's max statistic for the mean.

Every quantized row travels as (row index, packed codes, scale(s)); wire
sizes follow :func:`repro.comm.payload.quantized_rows_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.payload import FLOAT32_BYTES, INDEX_BYTES
from ..comm.sparse import SparseRows
from .packing import pack_signs, pack_ternary, unpack_signs, unpack_ternary

ONE_BIT_STATS = ("max", "avg", "negmax", "posmax", "negavg", "posavg")


@dataclass
class QuantizedRows:
    """Quantized sparse gradient rows as they travel on the wire.

    ``codes`` are packed bits (row-major); ``scales`` has one column per
    scale the statistic needs (1 for max/avg/2-bit, 2 for the split stats).
    """

    indices: np.ndarray
    codes: np.ndarray
    scales: np.ndarray
    n_rows: int
    dim: int
    bits: int
    stat: str

    def __post_init__(self) -> None:
        if self.bits not in (1, 2):
            raise ValueError(f"bits must be 1 or 2, got {self.bits}")
        if self.scales.ndim != 2 or len(self.scales) != len(self.indices):
            raise ValueError("scales must be (nnz, n_scales)")
        if len(self.codes) != len(self.indices):
            raise ValueError("codes and indices must align")

    @property
    def nnz_rows(self) -> int:
        return len(self.indices)

    @property
    def nbytes_wire(self) -> int:
        """Index + packed code bytes + scale bytes per row."""
        per_row = (INDEX_BYTES + self.codes.shape[1]
                   + self.scales.shape[1] * FLOAT32_BYTES)
        return self.nnz_rows * per_row


def _split_scales(values: np.ndarray, stat: str) -> np.ndarray:
    """Compute the per-row scale column(s) for a 1-bit statistic.

    Exactly-zero elements belong to *neither* sign class: counting them as
    positives (the old ``pos = ~neg`` convention) diluted the ``posavg``
    scale and made zeros dequantize as ``+scale``.
    """
    absv = np.abs(values)
    if stat == "max":
        return absv.max(axis=1, keepdims=True)
    if stat == "avg":
        return absv.mean(axis=1, keepdims=True)
    neg = values < 0
    pos = values > 0
    out = np.zeros((len(values), 2), dtype=np.float64)
    if stat in ("negmax", "posmax"):
        # Row scale for elements of each sign, max over that sign's entries.
        out[:, 0] = np.where(neg, absv, 0.0).max(axis=1)
        out[:, 1] = np.where(pos, absv, 0.0).max(axis=1)
    elif stat in ("negavg", "posavg"):
        neg_count = np.maximum(neg.sum(axis=1), 1)
        pos_count = np.maximum(pos.sum(axis=1), 1)
        out[:, 0] = np.where(neg, absv, 0.0).sum(axis=1) / neg_count
        out[:, 1] = np.where(pos, absv, 0.0).sum(axis=1) / pos_count
    else:
        raise ValueError(
            f"unknown 1-bit statistic {stat!r}; choose from {ONE_BIT_STATS}"
        )
    return out


def quantize_1bit(grad: SparseRows, stat: str = "max") -> QuantizedRows:
    """1-bit quantization: one sign bit per element plus per-row scale(s).

    The paper's chosen scheme is ``stat='max'``: ``sign(v) * max(|v|)``.

    Sign convention for exact zeros: a single bit cannot encode a third
    value, but under the split statistics each zero is assigned to the sign
    class with the *smaller* scale — so whenever a row's positive or
    negative class is empty (scale 0), its zeros dequantize to exactly 0
    instead of ``±scale``.  All-zero rows dequantize to 0 under every
    statistic (both scales are 0).
    """
    if stat not in ONE_BIT_STATS:
        raise ValueError(
            f"unknown 1-bit statistic {stat!r}; choose from {ONE_BIT_STATS}"
        )
    values = grad.values
    scales = _split_scales(values, stat)
    bits = values >= 0
    if scales.shape[1] == 2 and len(values):
        zero = values == 0
        if zero.any():
            # Positive bit iff the positive-side scale is the cheaper error.
            bits = np.where(zero, scales[:, 1:2] <= scales[:, :1], bits)
    codes = pack_signs(bits)
    return QuantizedRows(indices=grad.indices.copy(), codes=codes,
                         scales=scales.astype(np.float32), n_rows=grad.n_rows,
                         dim=grad.dim, bits=1, stat=stat)


def binarize_matrix(matrix: np.ndarray, stat: str = "avg"
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Post-training binarization of a dense embedding matrix.

    The export helper behind the serving layer's binary tier: every row of
    ``matrix`` becomes packed sign bits plus one float32 scale, produced by
    the *same* 1-bit quantizer the gradient compression path uses (so the
    sign convention for zeros and the per-row statistics are shared, not
    re-implemented).  Only the single-scale statistics make sense here —
    the split (two-scale) stats describe a gradient's sign asymmetry, not
    a storage format — so ``stat`` must be ``"avg"`` or ``"max"``.

    Returns ``(codes, scales)``: ``codes`` is ``(rows, ceil(dim / 8))``
    uint8 (row-major :func:`~repro.compress.packing.pack_signs` layout),
    ``scales`` is ``(rows,)`` float32.  The approximate reconstruction is
    ``unpack_signs(codes, dim) * scales[:, None]``.
    """
    if stat not in ("avg", "max"):
        raise ValueError(
            f"binarize_matrix needs a single-scale statistic ('avg' or "
            f"'max'), got {stat!r}")
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rows = SparseRows(indices=np.arange(len(matrix), dtype=np.int64),
                      values=matrix, n_rows=len(matrix))
    q = quantize_1bit(rows, stat=stat)
    return q.codes, q.scales[:, 0].astype(np.float32)


def quantize_2bit(grad: SparseRows, rng: np.random.Generator) -> QuantizedRows:
    """TernGrad-style 2-bit quantization with the paper's mean statistic."""
    values = grad.values
    absv = np.abs(values)
    scale = absv.mean(axis=1, keepdims=True)
    safe = np.where(scale > 0, scale, 1.0)
    keep_prob = np.minimum(1.0, absv / safe)
    mask = rng.random(values.shape) < keep_prob
    ternary = np.where(mask, np.sign(values), 0.0).astype(np.int8)
    codes = pack_ternary(ternary)
    return QuantizedRows(indices=grad.indices.copy(), codes=codes,
                         scales=scale.astype(np.float32), n_rows=grad.n_rows,
                         dim=grad.dim, bits=2, stat="ternary_mean")


def quantize(grad: SparseRows, bits: int, stat: str = "max",
             rng: np.random.Generator | None = None) -> QuantizedRows:
    """Dispatch to the 1-bit or 2-bit scheme (shared by the flat allgather
    path and the hierarchical stack's hop-boundary re-quantization).

    The 2-bit scheme's Bernoulli mask needs ``rng``; forgetting it is a
    programming error, not a quantization outcome, so it raises.
    """
    if bits == 1:
        return quantize_1bit(grad, stat=stat)
    if bits == 2:
        if rng is None:
            raise ValueError("2-bit quantization requires an rng")
        return quantize_2bit(grad, rng=rng)
    raise ValueError(f"bits must be 1 or 2, got {bits}")


def dequantize(q: QuantizedRows) -> SparseRows:
    """Reconstruct approximate gradient rows from a quantized payload."""
    if q.nnz_rows == 0:
        return SparseRows(indices=q.indices,
                          values=np.empty((0, q.dim), dtype=np.float32),
                          n_rows=q.n_rows)
    if q.bits == 2:
        values = unpack_ternary(q.codes, q.dim)
        values *= q.scales[:, :1]
    else:
        values = unpack_signs(q.codes, q.dim)
        if q.scales.shape[1] == 1:
            values *= q.scales
        else:
            # Split statistics: negative elements use scale 0, positive 1.
            values = np.where(values < 0, -q.scales[:, :1], q.scales[:, 1:2])
    return SparseRows(indices=q.indices.copy(), values=values,
                      n_rows=q.n_rows)


def quantization_error(grad: SparseRows, q: QuantizedRows,
                       approx: SparseRows | None = None) -> SparseRows:
    """Residual ``grad - dequantize(q)`` (feeds error feedback).

    A caller that already decoded ``q`` passes that ``approx`` so the
    payload is not unpacked a second time.
    """
    if approx is None:
        approx = dequantize(q)
    if not np.array_equal(approx.indices, grad.indices):
        raise ValueError("quantized payload does not cover the same rows")
    return SparseRows(indices=grad.indices.copy(),
                      values=grad.values - approx.values,
                      n_rows=grad.n_rows)

"""Bit packing/unpacking for quantized gradient payloads.

The quantizers produce small integer codes per element; these helpers pack
them into the byte arrays that would actually travel over the wire, so the
byte accounting in :mod:`repro.comm.payload` corresponds to real buffers.

* 1-bit codes: sign bits, 8 per byte (``numpy.packbits``).
* 2-bit codes: ternary {-1, 0, +1} stored as {0b00, 0b01, 0b10}, 4 per byte.

Decoding gathers one row of a 256-entry float32 table per code byte; the
``unpackbits`` / shift formulas the tables are pinned against live in
``tests._reference``.
"""

from __future__ import annotations

import numpy as np


def pack_signs(signs: np.ndarray) -> np.ndarray:
    """Pack a +-1 (or boolean nonneg) matrix into bits, row-major.

    Accepts shape ``(rows, dim)``; returns ``(rows, ceil(dim / 8))`` uint8.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValueError(f"expected 2-D signs, got shape {signs.shape}")
    bits = (signs >= 0).astype(np.uint8) if signs.dtype != np.bool_ else signs
    return np.packbits(bits, axis=1)


_BYTES = np.arange(256, dtype=np.uint8)[:, None]

#: Row ``b`` holds the eight +-1 signs code byte ``b`` packs (MSB first).
_SIGN_TABLE = np.where(np.unpackbits(_BYTES, axis=1) > 0,
                       np.float32(1.0), np.float32(-1.0))

#: Row ``b`` holds the four 2-bit fields of byte ``b`` (low bits first) minus
#: one: {-1, 0, +1}, and 2 for the field value 0b11 no encoder emits.
_TERNARY_TABLE = ((_BYTES >> np.arange(0, 8, 2, dtype=np.uint8)) & 0b11
                  ).astype(np.float32) - 1.0


def _decode(table: np.ndarray, packed: np.ndarray, dim: int) -> np.ndarray:
    """Gather ``table`` rows by code byte: a fresh float32 (rows, dim)."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"expected 2-D packed array, got shape {packed.shape}")
    out = table.take(packed, axis=0).reshape(
        len(packed), packed.shape[1] * table.shape[1])
    return out if dim >= out.shape[1] else np.ascontiguousarray(out[:, :dim])


def unpack_signs(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_signs`: returns float32 +-1 of shape (rows, dim)."""
    return _decode(_SIGN_TABLE, packed, dim)


#: Bits set in each possible byte value — the popcount kernel behind
#: packed-XOR Hamming scoring.  uint16 keeps the LUT lookup result wide
#: enough that per-byte sums never wrap before NumPy promotes the reduce.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                     dtype=np.uint16)

#: NumPy >= 2.0 ships a vectorized ufunc popcount; the 256-entry LUT
#: gather stays as the fallback for older runtimes.  Identical results —
#: both count set bits per byte — only throughput differs.
_BITWISE_COUNT = getattr(np, "bitwise_count", None)


def popcount_bytes(packed: np.ndarray) -> np.ndarray:
    """Per-row set-bit count of a packed uint8 array (last axis summed)."""
    packed = np.asarray(packed, dtype=np.uint8)
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(packed).sum(axis=-1, dtype=np.int64)
    return _POPCOUNT[packed].sum(axis=-1).astype(np.int64)


def hamming_distances(query: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Hamming distances between packed sign rows: ``popcount(a XOR b)``.

    ``query`` is one packed row ``(n_bytes,)`` or a batch ``(m, n_bytes)``;
    ``codes`` is the candidate matrix ``(n, n_bytes)``.  Returns int64 of
    shape ``(n,)`` / ``(m, n)``.  Both sides must be packed with the same
    :func:`pack_signs` convention so their padding bits agree (``packbits``
    pads with zeros, which XOR away).
    """
    query = np.asarray(query, dtype=np.uint8)
    codes = np.asarray(codes, dtype=np.uint8)
    if query.shape[-1] != codes.shape[-1]:
        raise ValueError(
            f"packed widths differ: query has {query.shape[-1]} byte(s) per "
            f"row, codes {codes.shape[-1]}")
    if query.ndim == 1:
        return popcount_bytes(query[None, :] ^ codes)
    return popcount_bytes(query[:, None, :] ^ codes[None, :, :])


_TERNARY_TO_CODE = {-1: 0, 0: 1, 1: 2}


def pack_ternary(codes: np.ndarray) -> np.ndarray:
    """Pack a {-1, 0, +1} matrix at 2 bits per element, row-major.

    Returns ``(rows, ceil(dim / 4))`` uint8.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected 2-D codes, got shape {codes.shape}")
    if len(codes) and not np.isin(codes, (-1, 0, 1)).all():
        raise ValueError("ternary codes must be in {-1, 0, +1}")
    rows, dim = codes.shape
    if rows == 0:
        return np.empty((0, (dim + 3) // 4), dtype=np.uint8)
    shifted = (codes + 1).astype(np.uint8)  # {0, 1, 2}
    pad = (-dim) % 4
    if pad:
        shifted = np.concatenate(
            [shifted, np.ones((rows, pad), dtype=np.uint8)], axis=1)
    shifted = shifted.reshape(rows, -1, 4)
    out = (shifted[:, :, 0] | (shifted[:, :, 1] << 2)
           | (shifted[:, :, 2] << 4) | (shifted[:, :, 3] << 6))
    return out.astype(np.uint8)


def unpack_ternary(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_ternary`: float32 {-1, 0, +1} of shape (rows, dim)."""
    return _decode(_TERNARY_TABLE, packed, dim)

"""Unit tests for wire-format byte accounting."""

import pytest

from repro.comm.payload import (
    dense_bytes,
    quantized_rows_bytes,
    sparse_rows_bytes,
)


class TestDense:
    def test_formula(self):
        assert dense_bytes(100, 32) == 100 * 32 * 4

    def test_zero_rows(self):
        assert dense_bytes(0, 32) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dense_bytes(-1, 32)


class TestSparse:
    def test_formula(self):
        # 4-byte index + dim float32 per row.
        assert sparse_rows_bytes(10, 16) == 10 * (4 + 64)

    def test_sparse_smaller_than_dense_when_few_rows(self):
        assert sparse_rows_bytes(10, 64) < dense_bytes(1000, 64)

    def test_sparse_larger_than_dense_when_all_rows(self):
        """Index overhead makes a fully-dense sparse payload bigger."""
        assert sparse_rows_bytes(1000, 64) > dense_bytes(1000, 64)


class TestQuantized:
    def test_1bit_formula(self):
        # index(4) + scale(4) + ceil(64/8)=8 packed bytes.
        assert quantized_rows_bytes(10, 64, 1) == 10 * (4 + 4 + 8)

    def test_2bit_formula(self):
        assert quantized_rows_bytes(10, 64, 2) == 10 * (4 + 4 + 16)

    def test_dim_not_multiple_of_eight_rounds_up(self):
        assert quantized_rows_bytes(1, 9, 1) == 4 + 4 + 2

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            quantized_rows_bytes(1, 8, 3)

"""Unit + property tests for bit packing of quantized payloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compress.packing import (
    pack_signs,
    pack_ternary,
    unpack_signs,
    unpack_ternary,
)
from tests import _reference


class TestSignPacking:
    def test_roundtrip_exact(self):
        signs = np.array([[1, -1, 1, 1, -1, -1, 1, -1, 1]], dtype=np.float32)
        packed = pack_signs(signs)
        assert packed.shape == (1, 2)  # 9 bits -> 2 bytes
        back = unpack_signs(packed, 9)
        np.testing.assert_array_equal(back, signs)

    def test_packed_size_is_one_eighth(self):
        signs = np.ones((10, 64), dtype=np.float32)
        assert pack_signs(signs).shape == (10, 8)

    def test_zero_treated_as_positive(self):
        signs = np.array([[0.0, -1.0]])
        back = unpack_signs(pack_signs(signs), 2)
        np.testing.assert_array_equal(back, [[1.0, -1.0]])

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            pack_signs(np.ones(8))
        with pytest.raises(ValueError):
            unpack_signs(np.ones(2, dtype=np.uint8), 8)

    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 8),
                                            st.integers(1, 40)),
                      elements=st.sampled_from([-1.0, 1.0])))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, signs):
        back = unpack_signs(pack_signs(signs), signs.shape[1])
        np.testing.assert_array_equal(back, signs)


class TestTernaryPacking:
    def test_roundtrip_exact(self):
        codes = np.array([[-1, 0, 1, 1, -1]], dtype=np.int8)
        packed = pack_ternary(codes)
        assert packed.shape == (1, 2)  # 5 codes at 2 bits -> 2 bytes
        back = unpack_ternary(packed, 5)
        np.testing.assert_array_equal(back, codes.astype(np.float32))

    def test_packed_size_is_one_quarter(self):
        codes = np.zeros((7, 64), dtype=np.int8)
        assert pack_ternary(codes).shape == (7, 16)

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            pack_ternary(np.array([[2]]))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            pack_ternary(np.array([-1, 0, 1]))
        with pytest.raises(ValueError):
            unpack_ternary(np.zeros(4, dtype=np.uint8), 4)

    @given(hnp.arrays(np.int8, st.tuples(st.integers(1, 8),
                                         st.integers(1, 40)),
                      elements=st.sampled_from([-1, 0, 1])))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, codes):
        back = unpack_ternary(pack_ternary(codes), codes.shape[1])
        np.testing.assert_array_equal(back, codes.astype(np.float32))


class TestTableDecodeMatchesReference:
    """The lookup-table decoders are bit-for-bit the ``unpackbits`` / shift
    formulas kept in ``tests._reference`` — on every byte value (also the
    0b11 field no encoder emits), widths that are not multiples of 8 or 4,
    and zero rows."""

    @given(packed=hnp.arrays(np.uint8, st.tuples(st.integers(0, 6),
                                                 st.integers(1, 9))),
           trim=st.integers(0, 7))
    @settings(max_examples=120, deadline=None)
    def test_signs(self, packed, trim):
        dim = max(1, min(70, packed.shape[1] * 8 - trim))
        got = unpack_signs(packed, dim)
        want = _reference.unpack_signs(packed, dim)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint32),
                                      want.view(np.uint32))
        assert got.flags.c_contiguous and got.flags.writeable

    @given(packed=hnp.arrays(np.uint8, st.tuples(st.integers(0, 6),
                                                 st.integers(1, 18))),
           trim=st.integers(0, 3))
    @settings(max_examples=120, deadline=None)
    def test_ternary(self, packed, trim):
        dim = max(1, min(70, packed.shape[1] * 4 - trim))
        got = unpack_ternary(packed, dim)
        want = _reference.unpack_ternary(packed, dim)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint32),
                                      want.view(np.uint32))
        assert got.flags.c_contiguous and got.flags.writeable

    def test_decoding_never_writes_the_shared_tables(self):
        packed = np.arange(256, dtype=np.uint8).reshape(32, 8)
        first = unpack_signs(packed, 64)
        first *= np.float32(3.0)
        np.testing.assert_array_equal(np.abs(unpack_signs(packed, 64)), 1.0)

"""Unit + property tests for 1-bit and 2-bit gradient quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm.sparse import SparseRows
from repro.compress.quantization import (
    ONE_BIT_STATS,
    dequantize,
    quantization_error,
    quantize_1bit,
    quantize_2bit,
)
from tests import _reference


def grad_from(values, n_rows=None):
    values = np.asarray(values, dtype=np.float32)
    n_rows = n_rows or len(values)
    return SparseRows(np.arange(len(values)), values, n_rows)


class TestOneBitMax:
    def test_dequant_is_sign_times_max(self):
        """The paper's chosen scheme: quant(v) = sign(v) * max(|v|)."""
        grad = grad_from([[1.0, -3.0, 2.0]])
        q = quantize_1bit(grad, stat="max")
        back = dequantize(q)
        np.testing.assert_allclose(back.values, [[3.0, -3.0, 3.0]])

    def test_sign_preserved_for_nonzero(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(5, 8)).astype(np.float32)
        back = dequantize(quantize_1bit(grad_from(values)))
        nonzero = values != 0
        assert (np.sign(back.values[nonzero])
                == np.sign(values[nonzero])).all()

    def test_indices_preserved(self):
        grad = SparseRows(np.array([3, 7]),
                          np.ones((2, 4), np.float32), 10)
        q = quantize_1bit(grad)
        np.testing.assert_array_equal(dequantize(q).indices, [3, 7])

    def test_wire_bytes_much_smaller(self):
        values = np.random.default_rng(1).normal(size=(100, 64)).astype(np.float32)
        grad = grad_from(values)
        q = quantize_1bit(grad)
        assert q.nbytes_wire < grad.nbytes_wire / 10

    def test_unknown_stat_rejected(self):
        with pytest.raises(ValueError):
            quantize_1bit(grad_from([[1.0]]), stat="median")


class TestOneBitVariants:
    @pytest.mark.parametrize("stat", ONE_BIT_STATS)
    def test_all_stats_roundtrip_shapes(self, stat):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(6, 10)).astype(np.float32)
        q = quantize_1bit(grad_from(values), stat=stat)
        back = dequantize(q)
        assert back.values.shape == values.shape

    def test_avg_magnitude_below_max(self):
        values = np.array([[1.0, -2.0, 4.0, -8.0]], dtype=np.float32)
        b_max = dequantize(quantize_1bit(grad_from(values), stat="max"))
        b_avg = dequantize(quantize_1bit(grad_from(values), stat="avg"))
        assert abs(b_avg.values).max() < abs(b_max.values).max()

    def test_split_stats_scale_signs_separately(self):
        values = np.array([[-10.0, -10.0, 1.0, 1.0]], dtype=np.float32)
        back = dequantize(quantize_1bit(grad_from(values), stat="negmax"))
        # negatives get the negative-side max (10), positives the
        # positive-side max (1).
        np.testing.assert_allclose(back.values, [[-10.0, -10.0, 1.0, 1.0]])

    def test_split_avg(self):
        values = np.array([[-4.0, -2.0, 1.0, 3.0]], dtype=np.float32)
        back = dequantize(quantize_1bit(grad_from(values), stat="negavg"))
        np.testing.assert_allclose(back.values, [[-3.0, -3.0, 2.0, 2.0]])

    def test_split_stats_carry_two_scales(self):
        q = quantize_1bit(grad_from([[1.0, -1.0]]), stat="posmax")
        assert q.scales.shape[1] == 2
        q1 = quantize_1bit(grad_from([[1.0, -1.0]]), stat="max")
        assert q1.scales.shape[1] == 1


class TestZeroHandling:
    @pytest.mark.parametrize("stat", ONE_BIT_STATS)
    def test_all_zero_rows_roundtrip_to_zero(self, stat):
        values = np.zeros((3, 5), dtype=np.float32)
        back = dequantize(quantize_1bit(grad_from(values), stat=stat))
        np.testing.assert_array_equal(back.values, values)

    def test_zeros_do_not_dilute_posavg(self):
        """Zeros used to count as positives, halving the posavg scale."""
        values = np.array([[0.0, 0.0, 2.0, 4.0]], dtype=np.float32)
        q = quantize_1bit(grad_from(values), stat="posavg")
        assert q.scales[0, 1] == pytest.approx(3.0)

    @pytest.mark.parametrize("stat", ["negmax", "posmax", "negavg", "posavg"])
    def test_zeros_exact_when_one_sign_class_empty(self, stat):
        """With no positives, the positive scale is 0 and zeros land there."""
        values = np.array([[-4.0, 0.0, -2.0, 0.0]], dtype=np.float32)
        back = dequantize(quantize_1bit(grad_from(values), stat=stat))
        assert (back.values[0, [1, 3]] == 0.0).all()
        assert (back.values[0, [0, 2]] < 0.0).all()

    def test_zeros_take_smaller_scale_class(self):
        values = np.array([[-10.0, 0.0, 1.0]], dtype=np.float32)
        back = dequantize(quantize_1bit(grad_from(values), stat="negmax"))
        # |error| for the zero is min(10, 1) = 1, not 10.
        np.testing.assert_allclose(back.values, [[-10.0, 1.0, 1.0]])

    @pytest.mark.parametrize("stat", ONE_BIT_STATS)
    def test_mixed_rows_with_zeros_roundtrip(self, stat):
        """Residual + dequant reconstructs exactly even with zero elements."""
        values = np.array([[0.0, -3.0, 0.0, 5.0, 1.0],
                           [0.0, 0.0, 0.0, 0.0, 0.0],
                           [-2.0, 0.0, -7.0, 0.0, 0.0]], dtype=np.float32)
        grad = grad_from(values)
        q = quantize_1bit(grad, stat=stat)
        err = quantization_error(grad, q)
        np.testing.assert_allclose(err.values + dequantize(q).values, values,
                                   rtol=1e-6, atol=1e-6)


class TestTwoBit:
    def test_values_in_ternary_times_mean(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, 16)).astype(np.float32)
        grad = grad_from(values)
        q = quantize_2bit(grad, rng=np.random.default_rng(0))
        back = dequantize(q).values
        mean_abs = np.abs(values).mean(axis=1, keepdims=True)
        allowed = np.concatenate([-mean_abs, np.zeros_like(mean_abs), mean_abs],
                                 axis=1)
        for i in range(4):
            assert np.isin(np.round(back[i], 5),
                           np.round(allowed[i], 5)).all()

    def test_expectation_is_clipped_value(self):
        """E[quant(v)] = sign(v) * min(|v|, mean(|v|)): unbiased below the
        mean statistic, clipped above it (the cost of swapping TernGrad's
        max for the paper's mean)."""
        values = np.array([[0.5, -1.0, 1.5]], dtype=np.float32)
        mean_abs = np.abs(values).mean()
        expected = np.sign(values[0]) * np.minimum(np.abs(values[0]), mean_abs)
        grad = grad_from(values)
        acc = np.zeros(3)
        n = 3000
        rng = np.random.default_rng(4)
        for _ in range(n):
            acc += dequantize(quantize_2bit(grad, rng=rng)).values[0]
        np.testing.assert_allclose(acc / n, expected, atol=0.06)

    def test_wire_bytes_about_double_one_bit(self):
        values = np.random.default_rng(5).normal(size=(50, 64)).astype(np.float32)
        q1 = quantize_1bit(grad_from(values))
        q2 = quantize_2bit(grad_from(values), rng=np.random.default_rng(0))
        assert 1.4 < q2.nbytes_wire / q1.nbytes_wire < 2.1


class TestQuantizationError:
    def test_residual_is_difference(self):
        values = np.array([[1.0, -3.0, 2.0]], dtype=np.float32)
        grad = grad_from(values)
        q = quantize_1bit(grad)
        err = quantization_error(grad, q)
        np.testing.assert_allclose(err.values,
                                   values - dequantize(q).values)

    def test_row_mismatch_rejected(self):
        grad = grad_from([[1.0, 2.0]])
        other = SparseRows(np.array([5]), np.ones((1, 2), np.float32), 10)
        q = quantize_1bit(other)
        with pytest.raises(ValueError):
            quantization_error(grad, q)
        with pytest.raises(ValueError):
            quantization_error(grad, q, dequantize(q))

    @pytest.mark.parametrize("stat", ONE_BIT_STATS + ("2bit",))
    def test_supplied_decode_equals_own_decode(self, stat):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(9, 13)).astype(np.float32)
        values[2] = 0.0
        values[4, ::2] = 0.0
        grad = grad_from(values)
        q = (quantize_2bit(grad, rng=rng) if stat == "2bit"
             else quantize_1bit(grad, stat=stat))
        approx = dequantize(q)
        kept = approx.values.copy()
        own = quantization_error(grad, q)
        given_ = quantization_error(grad, q, approx)
        np.testing.assert_array_equal(own.indices, given_.indices)
        np.testing.assert_array_equal(own.values.view(np.uint32),
                                      given_.values.view(np.uint32))
        # The decode is shared with the combine afterwards: not consumed.
        np.testing.assert_array_equal(approx.values.view(np.uint32),
                                      kept.view(np.uint32))


class TestEmptyGradients:
    def test_empty_1bit(self):
        empty = SparseRows(np.array([], dtype=np.int64),
                           np.empty((0, 4), np.float32), 10)
        q = quantize_1bit(empty)
        assert q.nbytes_wire == 0
        assert dequantize(q).nnz_rows == 0

    def test_empty_2bit(self):
        empty = SparseRows(np.array([], dtype=np.int64),
                           np.empty((0, 4), np.float32), 10)
        q = quantize_2bit(empty, rng=np.random.default_rng(0))
        assert dequantize(q).nnz_rows == 0


class TestProperties:
    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 6),
                                            st.integers(1, 24)),
                      elements=st.floats(-1e3, 1e3, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_1bit_magnitude_bounded_by_row_max(self, values):
        back = dequantize(quantize_1bit(grad_from(values), stat="max")).values
        row_max = np.abs(values).max(axis=1, keepdims=True)
        assert (np.abs(back) <= row_max + 1e-4).all()

    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 6),
                                            st.integers(1, 24)),
                      elements=st.floats(-1e3, 1e3, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_error_plus_dequant_reconstructs(self, values):
        grad = grad_from(values)
        q = quantize_1bit(grad)
        err = quantization_error(grad, q)
        np.testing.assert_allclose(err.values + dequantize(q).values,
                                   values, rtol=1e-4, atol=1e-4)


def reference_dequantize(q):
    """``dequantize`` as it was before the table decode: the reference
    unpackers, out-of-place arithmetic, one final float32 cast."""
    if q.bits == 2:
        values = _reference.unpack_ternary(q.codes, q.dim) * q.scales[:, :1]
    else:
        signs = _reference.unpack_signs(q.codes, q.dim)
        if q.scales.shape[1] == 1:
            values = signs * q.scales
        else:
            values = np.where(signs < 0, -q.scales[:, :1], q.scales[:, 1:2])
    return values.astype(np.float32)


@st.composite
def gradient_values(draw):
    """Rows of width 1-70 (so not only multiples of 8 and 4), some of them
    all zero, some holding zeros among non-zeros."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 70)))
    values = draw(hnp.arrays(
        np.float32, shape,
        elements=st.one_of(st.just(0.0), st.floats(-1e3, 1e3, width=32))))
    zero_rows = draw(st.lists(st.booleans(), min_size=shape[0],
                              max_size=shape[0]))
    values[np.array(zero_rows)] = 0.0
    return values


class TestDecodeMatchesReference:
    @pytest.mark.parametrize("stat", ONE_BIT_STATS)
    @given(values=gradient_values())
    @settings(max_examples=40, deadline=None)
    def test_1bit_every_stat(self, stat, values):
        q = quantize_1bit(grad_from(values), stat=stat)
        np.testing.assert_array_equal(
            dequantize(q).values.view(np.uint32),
            reference_dequantize(q).view(np.uint32))

    @given(values=gradient_values(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_2bit(self, values, seed):
        q = quantize_2bit(grad_from(values), rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(
            dequantize(q).values.view(np.uint32),
            reference_dequantize(q).view(np.uint32))

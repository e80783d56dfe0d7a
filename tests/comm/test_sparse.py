"""Unit + property tests for the SparseRows gradient container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm.sparse import SparseRows, combine_sparse
from tests._reference import scatter_add_rows


def make(indices, values, n_rows=10):
    return SparseRows(indices=np.array(indices),
                      values=np.array(values, dtype=np.float32),
                      n_rows=n_rows)


class TestConstruction:
    def test_valid(self):
        s = make([1, 3], [[1.0, 2.0], [3.0, 4.0]])
        assert s.nnz_rows == 2 and s.dim == 2 and s.n_rows == 10

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            make([1, 10], [[1.0], [2.0]], n_rows=10)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            make([-1], [[1.0]])

    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValueError):
            make([3, 1], [[1.0], [2.0]])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            make([1, 1], [[1.0], [2.0]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make([1], [[1.0], [2.0]])

    def test_1d_values_rejected(self):
        with pytest.raises(ValueError):
            make([1], [1.0])


class TestFromDense:
    def test_extracts_nonzero_rows(self):
        m = np.zeros((5, 3), dtype=np.float32)
        m[1] = [1, 0, 0]
        m[4] = [0, 2, 0]
        s = SparseRows.from_dense(m)
        assert list(s.indices) == [1, 4]
        np.testing.assert_array_equal(s.to_dense(), m)

    def test_zero_tolerance_prunes_tiny_rows(self):
        m = np.zeros((3, 2), dtype=np.float32)
        m[0] = [1e-9, 0]
        m[2] = [1.0, 1.0]
        s = SparseRows.from_dense(m, zero_tol=1e-6)
        assert list(s.indices) == [2]

    def test_all_zero_matrix(self):
        s = SparseRows.from_dense(np.zeros((4, 2)))
        assert s.nnz_rows == 0
        assert s.to_dense().shape == (4, 2)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            SparseRows.from_dense(np.zeros(5))


class TestFromRows:
    def test_duplicates_are_summed(self):
        """Scatter-add semantics: one entity hit twice in a batch."""
        s = SparseRows.from_rows(np.array([2, 2, 5]),
                                 np.array([[1.0], [2.0], [4.0]], dtype=np.float32),
                                 n_rows=6)
        assert list(s.indices) == [2, 5]
        np.testing.assert_allclose(s.values, [[3.0], [4.0]])

    def test_unsorted_input_is_sorted(self):
        s = SparseRows.from_rows(np.array([5, 2]),
                                 np.array([[1.0], [2.0]], dtype=np.float32),
                                 n_rows=6)
        assert list(s.indices) == [2, 5]

    def test_empty_input(self):
        s = SparseRows.from_rows(np.array([], dtype=np.int64),
                                 np.empty((0, 3), dtype=np.float32), n_rows=6)
        assert s.nnz_rows == 0

    def test_agrees_bitwise_with_reference_scatter(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 20, size=200)
        vals = rng.normal(size=(200, 4)).astype(np.float32)
        ref_idx, ref_vals = scatter_add_rows(idx, vals)
        got = SparseRows.from_rows(idx, vals, n_rows=20)
        np.testing.assert_array_equal(ref_idx, got.indices)
        np.testing.assert_array_equal(ref_vals.view(np.uint32),
                                      got.values.view(np.uint32))


class TestOperations:
    def test_wire_bytes(self):
        s = make([1, 3], [[1.0, 2.0], [3.0, 4.0]])
        assert s.nbytes_wire == 2 * (4 + 2 * 4)

    def test_select(self):
        s = make([1, 3, 7], [[1.0], [2.0], [3.0]])
        kept = s.select(np.array([True, False, True]))
        assert list(kept.indices) == [1, 7]

    def test_select_wrong_shape_rejected(self):
        s = make([1, 3], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            s.select(np.array([True]))

    def test_scale(self):
        s = make([0], [[2.0, 4.0]])
        np.testing.assert_allclose(s.scale(0.5).values, [[1.0, 2.0]])

    def test_scale_does_not_mutate(self):
        s = make([0], [[2.0]])
        s.scale(0.5)
        np.testing.assert_allclose(s.values, [[2.0]])


class TestCombine:
    def test_disjoint_rows_concatenate(self):
        a = make([1], [[1.0]])
        b = make([3], [[2.0]])
        c = combine_sparse([a, b])
        assert list(c.indices) == [1, 3]

    def test_overlapping_rows_sum(self):
        a = make([1, 2], [[1.0], [10.0]])
        b = make([2, 5], [[5.0], [7.0]])
        c = combine_sparse([a, b])
        np.testing.assert_allclose(c.to_dense()[:6, 0],
                                   [0, 1, 15, 0, 0, 7])

    def test_empty_parts(self):
        a = make([], np.empty((0, 2), dtype=np.float32))
        c = combine_sparse([a, a])
        assert c.nnz_rows == 0

    def test_no_parts_rejected(self):
        with pytest.raises(ValueError):
            combine_sparse([])

    def test_shape_mismatch_rejected(self):
        a = make([1], [[1.0]], n_rows=10)
        b = make([1], [[1.0]], n_rows=20)
        with pytest.raises(ValueError):
            combine_sparse([a, b])

    def test_agrees_bitwise_with_reference_scatter(self):
        rng = np.random.default_rng(1)
        parts = []
        for _ in range(4):
            idx = np.sort(rng.choice(10, size=5, replace=False))
            vals = rng.normal(size=(5, 3)).astype(np.float32)
            parts.append(SparseRows(indices=idx, values=vals, n_rows=10))
        ref_idx, ref_vals = scatter_add_rows(
            np.concatenate([p.indices for p in parts]),
            np.concatenate([p.values for p in parts]))
        got = combine_sparse(parts)
        np.testing.assert_array_equal(ref_idx, got.indices)
        np.testing.assert_array_equal(ref_vals.view(np.uint32),
                                      got.values.view(np.uint32))


def assert_combine_is_reference_scatter(parts):
    """``combine_sparse`` == the input-order scatter-add, bit for bit."""
    before = [p.values.copy() for p in parts]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 2 * max
        ref_idx, ref_vals = scatter_add_rows(
            np.concatenate([p.indices for p in parts]),
            np.concatenate([p.values for p in parts]))
        got = combine_sparse(parts)
    np.testing.assert_array_equal(ref_idx, got.indices)
    assert got.values.dtype == np.float32
    np.testing.assert_array_equal(ref_vals.view(np.uint32),
                                  got.values.view(np.uint32))
    for p, kept in zip(parts, before):  # inputs are shared, never consumed
        np.testing.assert_array_equal(p.values.view(np.uint32),
                                      kept.view(np.uint32))
        assert not np.shares_memory(p.values, got.values)


#: Values whose float32 sums depend on order and on how a zero is signed.
AWKWARD = [0.0, -0.0, 1.0, -1.0, 1e-45, 3.4e38, -3.4e38, 16777216.0,
           float("inf"), float("-inf"), float("nan")]


@st.composite
def awkward_parts(draw, n_rows=9, dim=3):
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        idx = draw(st.lists(st.integers(0, n_rows - 1), unique=True,
                            max_size=n_rows))
        values = draw(hnp.arrays(
            np.float32, (len(idx), dim),
            elements=st.one_of(st.sampled_from(AWKWARD),
                               st.floats(-100, 100, width=32))))
        parts.append(SparseRows(np.array(sorted(idx), dtype=np.int64),
                                values, n_rows))
    return parts


class TestCombineReplaysScatterAdd:
    @given(awkward_parts())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_under_awkward_values(self, parts):
        assert_combine_is_reference_scatter(parts)

    def test_lone_negative_zero_becomes_positive(self):
        a = make([4], [[-0.0, 2.0]])
        out = combine_sparse([a])
        assert not np.signbit(out.values[0, 0])
        assert_combine_is_reference_scatter([a])

    def test_negative_zeros_only_stay_negative_when_all_are(self):
        a = make([1, 2], [[-0.0], [-0.0]])
        b = make([2, 3], [[-0.0], [0.0]])
        assert_combine_is_reference_scatter([a, b])

    def test_one_part(self):
        rng = np.random.default_rng(3)
        a = make([0, 3, 9], rng.normal(size=(3, 4)))
        assert_combine_is_reference_scatter([a])

    def test_identical_index_sets(self):
        rng = np.random.default_rng(4)
        parts = [make([2, 5, 7], rng.normal(size=(3, 4))) for _ in range(6)]
        assert_combine_is_reference_scatter(parts)

    def test_disjoint_index_sets(self):
        rng = np.random.default_rng(5)
        parts = [make([1, 8], rng.normal(size=(2, 4))),
                 make([0, 9], rng.normal(size=(2, 4))),
                 make([4], rng.normal(size=(1, 4)))]
        assert_combine_is_reference_scatter(parts)

    def test_empty_parts_among_full_ones(self):
        rng = np.random.default_rng(6)
        empty = make([], np.empty((0, 4), dtype=np.float32))
        full = make([3, 4], rng.normal(size=(2, 4)))
        assert_combine_is_reference_scatter([empty, full, empty, full])
        out = combine_sparse([empty, empty])
        assert out.nnz_rows == 0 and out.values.shape == (0, 4)
        assert out.indices.dtype == np.int64

    def test_sum_order_is_part_order(self):
        # (2^24 + 1) + 1 differs from (1 + 1) + 2^24 in float32.
        big, one = make([0], [[16777216.0]]), make([0], [[1.0]])
        forward = combine_sparse([big, one, one]).values[0, 0]
        backward = combine_sparse([one, one, big]).values[0, 0]
        assert forward == 16777216.0 and backward == 16777218.0


@st.composite
def sparse_rows(draw, n_rows=12, dim=3):
    nnz = draw(st.integers(0, n_rows))
    idx = draw(st.permutations(range(n_rows)))[:nnz]
    values = draw(hnp.arrays(np.float32, (nnz, dim),
                             elements=st.floats(-100, 100, width=32)))
    return SparseRows.from_rows(np.array(sorted(idx), dtype=np.int64),
                                values, n_rows=n_rows)


class TestProperties:
    @given(sparse_rows())
    @settings(max_examples=50, deadline=None)
    def test_dense_roundtrip(self, s):
        back = SparseRows.from_dense(s.to_dense())
        np.testing.assert_array_equal(back.to_dense(), s.to_dense())

    @given(st.lists(sparse_rows(), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_combine_matches_dense_sum(self, parts):
        combined = combine_sparse(parts)
        expected = sum(p.to_dense().astype(np.float64) for p in parts)
        np.testing.assert_allclose(combined.to_dense(), expected, atol=1e-3)

    @given(sparse_rows(), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_scale_linearity(self, s, factor):
        np.testing.assert_allclose(s.scale(factor).to_dense(),
                                   s.to_dense() * np.float32(factor),
                                   rtol=1e-5, atol=1e-5)

"""Unit tests for the error-feedback residual store."""

import tracemalloc

import numpy as np
import pytest

from repro.comm.sparse import SparseRows
from repro.compress.error_feedback import NodeResiduals, ResidualStore
from repro.compress.quantization import (
    dequantize,
    quantization_error,
    quantize_1bit,
)
from tests._fixtures import sparse_to_dense


def rows(indices, values, n_rows=10, dim=2):
    values = np.asarray(values, dtype=np.float32).reshape(len(indices), dim)
    return SparseRows(np.array(indices), values, n_rows)


class TestResidualStore:
    def test_starts_empty(self):
        store = ResidualStore(10, 2)
        assert store.nnz_rows == 0

    def test_inject_with_no_residual_is_identity(self):
        store = ResidualStore(10, 2)
        g = rows([1, 3], [[1, 2], [3, 4]])
        out = store.inject(g)
        np.testing.assert_array_equal(sparse_to_dense(out), sparse_to_dense(g))

    def test_store_then_inject_adds(self):
        store = ResidualStore(10, 2)
        store.store(rows([1], [[0.5, 0.5]]))
        assert store.nnz_rows == 1
        g = rows([1, 3], [[1, 2], [3, 4]])
        out = store.inject(g)
        np.testing.assert_allclose(sparse_to_dense(out)[1], [1.5, 2.5])
        np.testing.assert_allclose(sparse_to_dense(out)[3], [3, 4])

    def test_inject_includes_rows_not_in_gradient(self):
        """Residuals for rows absent from this batch still flow in."""
        store = ResidualStore(10, 2)
        store.store(rows([7], [[1.0, 1.0]]))
        g = rows([2], [[5.0, 5.0]])
        out = store.inject(g)
        assert set(out.indices.tolist()) == {2, 7}

    def test_store_replaces_previous_residuals(self):
        store = ResidualStore(10, 2)
        store.store(rows([1, 2], [[1, 1], [2, 2]]))
        store.store(rows([2], [[9, 9]]))
        g = rows([5], [[0, 0]])
        out = store.inject(g)
        # Row 1's residual was cleared by the second store.
        assert set(out.indices.tolist()) == {2, 5}
        np.testing.assert_allclose(sparse_to_dense(out)[2], [9, 9])

    def test_inject_result_does_not_alias_the_store(self):
        store = ResidualStore(10, 2)
        store.store(rows([1, 7], [[0.5, 0.5], [2.0, 2.0]]))
        out = store.inject(rows([1], [[1, 2]]))
        assert not np.shares_memory(out.values, store.values)
        out.values[:] = 99.0
        again = store.inject(rows([1], [[1, 2]]))
        np.testing.assert_allclose(sparse_to_dense(again)[[1, 7]],
                                   [[1.5, 2.5], [2.0, 2.0]])

    def test_clear(self):
        store = ResidualStore(10, 2)
        store.store(rows([4], [[1, 1]]))
        store.clear()
        assert store.nnz_rows == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ResidualStore(0, 2)
        store = ResidualStore(10, 2)
        with pytest.raises(ValueError):
            store.inject(rows([1], [[1, 1]], n_rows=20))
        with pytest.raises(ValueError):
            store.store(rows([1], [[1, 1]], n_rows=20))

    def test_store_refuses_a_foreign_width_naming_both_shapes(self):
        store = ResidualStore(10, 2)
        with pytest.raises(ValueError, match=r"\(10, 3\).*\(10, 2\) store"):
            store.store(rows([1, 4], [[1, 1, 1], [2, 2, 2]], dim=3))
        assert store.nnz_rows == 0

    def test_holds_its_rows_as_a_read_only_pair(self):
        store = ResidualStore(10, 2)
        assert store.rows.shape == (0,) and store.values.shape == (0, 2)
        store.store(rows([3, 7], [[1, 2], [3, 4]]))
        assert store.rows.tolist() == [3, 7]
        assert store.values.tolist() == [[1, 2], [3, 4]]
        assert store.nbytes == 2 * 8 + 2 * 2 * 4
        held_rows, held_values = store.rows, store.values
        for arr in held_rows, held_values:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        # A store swaps in a new pair; the old one keeps its bytes.
        store.store(rows([5], [[9, 9]]))
        store.clear()
        assert (store.nnz_rows, store.values.shape) == (0, (0, 2))
        assert held_rows.tolist() == [3, 7]
        assert held_values.tolist() == [[1, 2], [3, 4]]

    def test_memory_scales_with_stored_rows_not_n_rows(self):
        """A million-row store holding 1,000 rows costs those rows.  The
        one ``n_rows``-sized allocation left is ``combine_sparse``'s row
        tables inside ``inject`` (a bool mask and an intp slot map)."""
        n_rows, dim, k = 10 ** 6, 64, 1000
        rng = np.random.default_rng(0)
        picked = np.sort(rng.choice(n_rows, size=k, replace=False))
        residual = SparseRows(picked, rng.normal(size=(k, dim)), n_rows)
        grad = SparseRows(picked[::2], rng.normal(size=(k // 2, dim)), n_rows)
        tracemalloc.start()
        try:
            store = ResidualStore(n_rows, dim)
            store.store(residual)
            out = store.inject(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nnz_rows == k
        tables = n_rows * (np.dtype(bool).itemsize + np.dtype(np.intp).itemsize)
        assert peak - tables < 2 ** 20


class TestNodeResiduals:
    def test_unknown_node_names_it_and_the_held_ids(self):
        nodes = NodeResiduals([3, 1], 10, 2)
        g = rows([1], [[1, 1]])
        for call in (nodes.inject, nodes.store):
            with pytest.raises(ValueError,
                               match=r"node 2 .*held node ids: \[1, 3\]"):
                call(2, g)


class TestErrorFeedbackLoop:
    def test_compensates_quantization_bias_over_time(self):
        """Classic EF property: the *accumulated* applied signal tracks the
        accumulated true gradient even though each step is 1-bit."""
        rng = np.random.default_rng(0)
        store = ResidualStore(1, 8)
        true_grad = rng.normal(size=(1, 8)).astype(np.float32)
        applied = np.zeros(8)
        total_true = np.zeros(8)
        for _ in range(400):
            g = SparseRows(np.array([0]), true_grad.copy(), 1)
            injected = store.inject(g)
            q = quantize_1bit(injected, stat="max")
            store.store(quantization_error(injected, q))
            applied += dequantize(q).values[0]
            total_true += true_grad[0]
        # Direction and scale agree within a few quantization steps.
        scale = np.abs(total_true).max()
        np.testing.assert_allclose(applied / scale, total_true / scale,
                                   atol=0.05)

"""Unit + property tests for the scipy-free sparse kernels (repro.kg.spmat).

The load-bearing invariant: ``fold_rows`` must be **bitwise** equal to the
reference ``np.add.at`` scatter (``repro._reference.scatter_add_rows``) for
every index pattern — float32 addition
is non-associative, so this only holds if the fold replays the scatter's
exact input-order addition sequence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro._reference import scatter_add_rows
from repro.kg.spmat import FOLD_RANK_CUTOVER, build_fold_plan, fold_rows


class TestBuildFoldPlan:
    def test_groups_slots_by_row_in_input_order(self):
        plan = build_fold_plan(np.array([5, 2, 5, 2, 7]), n_rows=10)
        assert list(plan.rows) == [2, 5, 7]
        assert list(plan.indptr) == [0, 2, 4, 5]
        # Stable: within each row's segment, slots keep input order.
        assert list(plan.perm) == [1, 3, 0, 2, 4]
        assert plan.n_slots == 5 and plan.n_rows == 10

    def test_counts(self):
        plan = build_fold_plan(np.array([1, 1, 1, 4]), n_rows=5)
        assert list(plan.counts()) == [3, 1]

    def test_empty_indices(self):
        plan = build_fold_plan(np.array([], dtype=np.int64), n_rows=4)
        assert plan.nnz_rows == 0 and plan.n_slots == 0
        assert list(plan.indptr) == [0]

    def test_single_slot(self):
        plan = build_fold_plan(np.array([3]), n_rows=4)
        assert list(plan.rows) == [3] and list(plan.perm) == [0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_fold_plan(np.array([4]), n_rows=4)
        with pytest.raises(ValueError):
            build_fold_plan(np.array([-1]), n_rows=4)

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            build_fold_plan(np.zeros((2, 2), dtype=np.int64), n_rows=4)

    def test_bad_n_rows_rejected(self):
        with pytest.raises(ValueError):
            build_fold_plan(np.array([0]), n_rows=0)

    def test_perm_is_stable_sorting_permutation(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 50, size=400)
        plan = build_fold_plan(idx, n_rows=50)
        np.testing.assert_array_equal(plan.perm,
                                      np.argsort(idx, kind="stable"))


class TestFoldRows:
    def assert_bitwise_reference(self, idx, vals, n_rows, **kw):
        plan = build_fold_plan(idx, n_rows)
        uniq, expected = scatter_add_rows(idx, vals)
        got = fold_rows(plan, vals, **kw)
        np.testing.assert_array_equal(plan.rows, uniq)
        # view as uint32: bitwise equality, not tolerance.
        np.testing.assert_array_equal(got.view(np.uint32),
                                      expected.view(np.uint32))

    def test_duplicates_summed_bitwise(self):
        idx = np.array([2, 2, 5, 2, 5])
        vals = np.array([[0.1], [0.2], [0.3], [0.7], [1e-8]], dtype=np.float32)
        self.assert_bitwise_reference(idx, vals, 6)

    def test_negative_zero_normalised_like_scatter(self):
        """np.add.at computes 0.0 + (-0.0) = +0.0 for a row's first
        occurrence; the fold must reproduce that, not pass -0.0 through."""
        idx = np.array([1])
        vals = np.array([[-0.0]], dtype=np.float32)
        plan = build_fold_plan(idx, 3)
        out = fold_rows(plan, vals)
        assert out[0, 0] == 0.0
        assert not np.signbit(out[0, 0])

    def test_long_chain_past_cutover_bitwise(self):
        """A hub row repeated far beyond FOLD_RANK_CUTOVER exercises the
        add.at tail, which must continue each partial sum in order."""
        rng = np.random.default_rng(2)
        reps = 5 * FOLD_RANK_CUTOVER
        idx = np.concatenate([np.full(reps, 3), np.array([0, 7, 3, 0])])
        vals = rng.normal(size=(len(idx), 6)).astype(np.float32)
        self.assert_bitwise_reference(idx, vals, 9)

    def test_all_slots_same_row(self):
        rng = np.random.default_rng(3)
        idx = np.zeros(100, dtype=np.int64)
        vals = rng.normal(size=(100, 3)).astype(np.float32)
        self.assert_bitwise_reference(idx, vals, 1)

    def test_cutover_one_is_pure_scatter_tail(self):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 5, size=40)
        vals = rng.normal(size=(40, 2)).astype(np.float32)
        self.assert_bitwise_reference(idx, vals, 5, cutover=1)

    def test_empty_plan(self):
        plan = build_fold_plan(np.array([], dtype=np.int64), n_rows=4)
        out = fold_rows(plan, np.empty((0, 3), dtype=np.float32))
        assert out.shape == (0, 3)

    def test_slot_mismatch_rejected(self):
        plan = build_fold_plan(np.array([0, 1]), n_rows=4)
        with pytest.raises(ValueError):
            fold_rows(plan, np.zeros((3, 2), dtype=np.float32))

    def test_non_2d_values_rejected(self):
        plan = build_fold_plan(np.array([0]), n_rows=4)
        with pytest.raises(ValueError):
            fold_rows(plan, np.zeros(1, dtype=np.float32))

    def test_bad_cutover_rejected(self):
        plan = build_fold_plan(np.array([0]), n_rows=4)
        with pytest.raises(ValueError):
            fold_rows(plan, np.zeros((1, 2), dtype=np.float32), cutover=0)

    @given(
        idx=hnp.arrays(np.int64, st.integers(0, 120),
                       elements=st.integers(0, 14)),
        width=st.integers(1, 5),
        seed=st.integers(0, 2 ** 16),
        cutover=st.integers(1, 2 * FOLD_RANK_CUTOVER),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equals_scatter_reference(self, idx, width, seed, cutover):
        rng = np.random.default_rng(seed)
        # Adversarial magnitudes: mixing scales maximises rounding
        # sensitivity, so any addition-order deviation becomes visible.
        vals = (rng.normal(size=(len(idx), width))
                * 10.0 ** rng.integers(-6, 6, size=(len(idx), 1))
                ).astype(np.float32)
        plan = build_fold_plan(idx, 15)
        uniq, expected = scatter_add_rows(idx, vals)
        got = fold_rows(plan, vals, cutover=cutover)
        np.testing.assert_array_equal(plan.rows, uniq)
        np.testing.assert_array_equal(got.view(np.uint32),
                                      expected.view(np.uint32))

"""Unit + property tests for the scipy-free sparse kernels (repro.kg.spmat).

The load-bearing invariant: ``fold_rows`` must be **bitwise** equal to the
reference ``np.add.at`` scatter (``tests._reference.scatter_add_rows``) for
every index pattern — float32 addition
is non-associative, so this only holds if the fold replays the scatter's
exact input-order addition sequence.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kg.datasets import _zipf_weights
from repro.kg.spmat import FOLD_RANK_CUTOVER, build_fold_plan, fold_rows
from tests._reference import scatter_add_rows


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
        column sums, which must continue each partial sum in order."""
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


def zipf_draw(rng, n_values, exponent, size):
    return rng.choice(n_values, size=size, p=_zipf_weights(n_values, exponent))


def dense_relation_index():
    """A ``train_dense`` batch's relation index: 512 Zipf-drawn positives,
    each followed by its two negatives, so every count is a multiple of 3
    and the head relation alone is a chain of 200+."""
    positives = zipf_draw(np.random.default_rng(11), 1345, 1.05, 512)
    return np.concatenate([positives, np.repeat(positives, 2)]), 1345


def partitioned_relation_index():
    """Relation partition: a rank owns two relations and sees nothing
    else, one of them 610 times."""
    idx = np.repeat([7, 3], [610, 414])
    np.random.default_rng(12).shuffle(idx)
    return idx, 1345


def small_graph_entity_index():
    """Heads and tails of a batch on the 1,495-entity graph: ~700 rows,
    a couple of dozen of them past the rank cutover, the longest ~50."""
    return zipf_draw(np.random.default_rng(13), 900, 0.55, 2048), 1495


def dense_entity_index():
    """Heads and tails on the FB15K-cardinality graph: short chains only."""
    return np.random.default_rng(14).integers(0, 14_951, 3072), 14_951


#: index builder -> (slots, distinct rows at least / at most, longest chain
#: at least): the builders must keep producing the shapes they stand for.
MEASURED_SHAPES = {
    dense_relation_index: (1536, 150, 260, 200),
    partitioned_relation_index: (1024, 2, 2, 610),
    small_graph_entity_index: (2048, 650, 750, 40),
}


class TestMeasuredShapes:
    """The index shapes training actually folds, far from the Hypothesis
    envelope above (120 slots, 15 rows, width 5)."""

    @pytest.mark.parametrize("width", [64, 1])
    @pytest.mark.parametrize("build", MEASURED_SHAPES, ids=lambda f: f.__name__)
    def test_bitwise_equals_scatter_reference(self, build, width):
        idx, n_rows = build()
        slots, min_rows, max_rows, min_chain = MEASURED_SHAPES[build]
        counts = np.bincount(idx)
        assert len(idx) == slots
        assert min_rows <= np.count_nonzero(counts) <= max_rows
        assert counts.max() >= min_chain
        vals = np.random.default_rng(width).normal(
            size=(slots, width)).astype(np.float32)
        uniq, expected = scatter_add_rows(idx, vals)
        got = fold_rows(build_fold_plan(idx, n_rows), vals)
        np.testing.assert_array_equal(got.view(np.uint32),
                                      expected.view(np.uint32))

    @pytest.mark.parametrize("width", [64, 1])
    def test_special_values_inside_long_chain_tails(self, width):
        """-0.0, inf and NaN far past the rank cutover of three different
        long chains.  (One NaN source per chain: which payload survives
        ``NaN + NaN`` is the adder's choice, not the fold's.)"""
        idx, n_rows = dense_relation_index()
        counts = np.bincount(idx)
        zero_row, inf_row, nan_row = np.argsort(-counts, kind="stable")[:3]
        assert counts[nan_row] > 3 * FOLD_RANK_CUTOVER
        vals = np.random.default_rng(5).normal(
            size=(len(idx), width)).astype(np.float32)
        # A chain of nothing but -0.0 sums to +0.0: the first touch is
        # 0.0 + (-0.0), and +0.0 + (-0.0) stays +0.0 down the whole tail.
        vals[idx == zero_row, 0] = -0.0
        vals[np.flatnonzero(idx == inf_row)[2 * FOLD_RANK_CUTOVER], -1] = np.inf
        vals[np.flatnonzero(idx == nan_row)[-1], 0] = np.nan
        uniq, expected = scatter_add_rows(idx, vals)
        with np.errstate(invalid="ignore"):
            got = fold_rows(build_fold_plan(idx, n_rows), vals)
        np.testing.assert_array_equal(got.view(np.uint32),
                                      expected.view(np.uint32))
        folded = dict(zip(uniq.tolist(), got))
        assert folded[zero_row][0] == 0.0
        assert not np.signbit(folded[zero_row][0])
        assert folded[inf_row][-1] == np.inf
        assert np.isnan(folded[nan_row][0])

    @pytest.mark.parametrize("build, floor", [
        (dense_relation_index, 2.5), (dense_entity_index, 3.0)],
        ids=["relation", "entity"])
    def test_faster_than_the_scatter_on_both_training_indices(self, build,
                                                              floor):
        """In-process ratio, not a wall-clock floor: both sides run here,
        best of N, on the same arrays, with the plan prebuilt.  Measured
        6x on the hub-heavy relation index (1.8x while its long chains
        went through a per-element scatter) and 16x on the entity index."""
        idx, n_rows = build()
        vals = np.random.default_rng(6).normal(
            size=(len(idx), 64)).astype(np.float32)
        plan = build_fold_plan(idx, n_rows)

        def best_of(fn, repeats=25):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        fold = best_of(lambda: fold_rows(plan, vals))
        scatter = best_of(lambda: scatter_add_rows(idx, vals))
        assert scatter >= floor * fold, (scatter, fold)

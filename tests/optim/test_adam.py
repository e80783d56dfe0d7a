"""Unit tests for the sparse-row Adam optimiser."""

import numpy as np
import pytest

from repro.comm.sparse import SparseRows
from repro.models import ComplEx
from repro.optim.adam import ROW_BLOCK, Adam, AdamState


def dense_adam_reference(param, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook dense Adam, for comparison."""
    m = np.zeros_like(param, dtype=np.float64)
    v = np.zeros_like(param, dtype=np.float64)
    p = param.astype(np.float64)
    for t, g in enumerate(grads, start=1):
        g = g.astype(np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def all_rows(g):
    """A dense gradient as a :class:`SparseRows` carrying every row."""
    return SparseRows(np.arange(len(g)), g, len(g))


def state_bits(state, param):
    """Every array one update writes, as bytes."""
    return (param.tobytes(), state.m.tobytes(), state.v.tobytes(),
            state.steps.tobytes())


class TestAdamState:
    def test_matches_dense_reference_when_all_rows_touched(self):
        rng = np.random.default_rng(0)
        param = rng.normal(size=(5, 3)).astype(np.float32)
        grads = [rng.normal(size=(5, 3)).astype(np.float32) for _ in range(10)]
        expected = dense_adam_reference(param.copy(), grads, lr=0.01)

        state = AdamState((5, 3))
        p = param.copy()
        for g in grads:
            state.apply_sparse(p, all_rows(g), lr=0.01)
        np.testing.assert_allclose(p, expected, rtol=1e-4, atol=1e-6)

    def test_untouched_rows_unchanged(self):
        state = AdamState((5, 3))
        p = np.ones((5, 3), dtype=np.float32)
        grad = SparseRows(np.array([1, 3]),
                          np.ones((2, 3), dtype=np.float32), 5)
        state.apply_sparse(p, grad, lr=0.1)
        np.testing.assert_allclose(p[0], 1.0)
        np.testing.assert_allclose(p[2], 1.0)
        assert (p[1] != 1.0).all()

    def test_lazy_bias_correction_per_row(self):
        """A row first touched late gets step-1 bias correction, so its
        first update has the same magnitude as any other first update."""
        state = AdamState((2, 1))
        p = np.zeros((2, 1), dtype=np.float32)
        g0 = SparseRows(np.array([0]), np.array([[1.0]], np.float32), 2)
        for _ in range(5):
            state.apply_sparse(p, g0, lr=0.1)
        first_update_row0 = None
        p_before = p.copy()
        g1 = SparseRows(np.array([1]), np.array([[1.0]], np.float32), 2)
        state.apply_sparse(p, g1, lr=0.1)
        delta1 = abs(p[1, 0] - p_before[1, 0])
        # A fresh AdamState's first update magnitude:
        fresh = AdamState((1, 1))
        q = np.zeros((1, 1), dtype=np.float32)
        fresh.apply_sparse(q, SparseRows(np.array([0]),
                                         np.array([[1.0]], np.float32), 1),
                           lr=0.1)
        assert delta1 == pytest.approx(abs(q[0, 0]), rel=1e-5)

    def test_empty_gradient_is_noop(self):
        state = AdamState((3, 2))
        p = np.ones((3, 2), dtype=np.float32)
        empty = SparseRows(np.array([], dtype=np.int64),
                           np.empty((0, 2), np.float32), 3)
        state.apply_sparse(p, empty, lr=0.1)
        np.testing.assert_allclose(p, 1.0)

    def test_shape_mismatch_rejected(self):
        state = AdamState((3, 2))
        p = np.ones((3, 3), dtype=np.float32)
        grad = SparseRows(np.array([0]), np.ones((1, 3), np.float32), 3)
        with pytest.raises(ValueError):
            state.apply_sparse(p, grad, lr=0.1)

    def test_invalid_hyperparams_rejected(self):
        with pytest.raises(ValueError):
            AdamState((2, 2), beta1=1.0)
        with pytest.raises(ValueError):
            AdamState((2, 2), beta2=-0.1)
        with pytest.raises(ValueError):
            AdamState((2, 2), eps=0.0)

    def test_all_rows_advance_global_step_count(self):
        state = AdamState((4, 2))
        p = np.zeros((4, 2), dtype=np.float32)
        for _ in range(3):
            state.apply_sparse(p, all_rows(np.ones((4, 2), np.float32)),
                               lr=0.01)
        np.testing.assert_array_equal(state.steps, 3)

    def test_sparse_matches_dense_reference_bias_correction(self):
        """Lazy per-row bias correction equals the textbook global-step
        correction on the sequence of updates each row actually saw."""
        rng = np.random.default_rng(2)
        param = rng.normal(size=(3, 2)).astype(np.float32)
        # Row 2 only participates in every other update.
        row2_grads = []
        state = AdamState((3, 2))
        p = param.copy()
        for step in range(8):
            g = rng.normal(size=(3, 2)).astype(np.float32)
            if step % 2 == 0:
                idx = np.arange(3)
                row2_grads.append(g[2:3])
            else:
                idx = np.arange(2)
                g = g[:2]
            state.apply_sparse(p, SparseRows(idx, g, 3), lr=0.01)
        # Row 2's trajectory == a standalone dense Adam over its updates.
        expected = dense_adam_reference(param[2:3].copy(), row2_grads,
                                        lr=0.01)
        np.testing.assert_allclose(p[2:3], expected, rtol=1e-4, atol=1e-6)

    def test_converges_on_quadratic(self):
        """Minimise ||x - target||^2 row-wise."""
        target = np.array([[1.0, -2.0], [3.0, 0.5]], dtype=np.float32)
        x = np.zeros((2, 2), dtype=np.float32)
        state = AdamState((2, 2))
        for _ in range(800):
            g = 2 * (x - target)
            state.apply_sparse(x, all_rows(g), lr=0.05)
        np.testing.assert_allclose(x, target, atol=1e-2)


class TestFloat32Blocks:
    """The float32 update over ``ROW_BLOCK``-row blocks: how close it stays
    to the float64 textbook form, and the row-local behaviour the blocking
    relies on."""

    def test_tracks_float64_oracle_over_ten_thousand_steps(self):
        """Rows 0-2 take every one of 10,200 steps, so their own count runs
        to where ``1 - beta2**t`` is within 4e-5 of 1; rows 3-5 are first
        touched at step 10,000 and take their 200 steps, starting from the
        step-1 correction, in the same calls.  Both match the float64
        oracle over the steps each row saw to rtol 1e-4."""
        rng = np.random.default_rng(3)
        n, width, total, late = 6, 8, 10_200, 10_000
        param = rng.normal(size=(n, width)).astype(np.float32)
        grads = rng.normal(size=(total, n, width)).astype(np.float32)
        grads *= np.float32(0.1)
        state, p = AdamState((n, width)), param.copy()
        for step, g in enumerate(grads):
            rows = np.arange(n if step >= late else 3)
            state.apply_sparse(p, SparseRows(rows, g[rows], n), lr=1e-3)
        np.testing.assert_array_equal(state.steps, [total] * 3 + [200] * 3)
        np.testing.assert_allclose(
            p[:3], dense_adam_reference(param[:3], grads[:, :3], lr=1e-3),
            rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(
            p[3:], dense_adam_reference(param[3:], grads[late:, 3:],
                                        lr=1e-3),
            rtol=1e-4, atol=1e-6)

    def test_zero_gradient_row_leaves_fresh_parameter_unchanged(self):
        """A fresh row with an all-zero gradient has ``m = v = 0``, so its
        update is ``0 / eps_t``: the parameter keeps every bit while its
        step count still advances."""
        rng = np.random.default_rng(4)
        state = AdamState((4, 3))
        p = rng.normal(size=(4, 3)).astype(np.float32)
        p[2] = [-0.0, 0.0, 1.5]
        before = p.copy()
        g = rng.normal(size=(4, 3)).astype(np.float32)
        g[2] = 0.0
        state.apply_sparse(p, all_rows(g), lr=0.1)
        assert p[2].tobytes() == before[2].tobytes()
        assert not state.m[2].any() and not state.v[2].any()
        np.testing.assert_array_equal(state.steps, 1)
        assert (p[[0, 1, 3]] != before[[0, 1, 3]]).all()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_poisons_only_its_row(self, bad):
        rng = np.random.default_rng(5)
        n, width, poisoned = 3 * ROW_BLOCK, 4, ROW_BLOCK + 7
        param = rng.normal(size=(n, width)).astype(np.float32)
        g = rng.normal(size=(n, width)).astype(np.float32)
        g[poisoned, 1] = bad
        rows = np.arange(n)
        state, p = AdamState((n, width)), param.copy()
        state.apply_sparse(p, SparseRows(rows, g, n), lr=0.01)
        for arr in (p, state.m, state.v):
            assert not np.isfinite(arr[poisoned]).all()
        clean = rows != poisoned
        ref_state, q = AdamState((n, width)), param.copy()
        ref_state.apply_sparse(q, SparseRows(rows[clean], g[clean], n),
                               lr=0.01)
        for got, want in zip(state_bits(state, p), state_bits(ref_state, q)):
            got = np.frombuffer(got, np.uint8).reshape(n, -1)[clean]
            want = np.frombuffer(want, np.uint8).reshape(n, -1)[clean]
            np.testing.assert_array_equal(got, want)

    def test_row_update_independent_of_its_call_companions(self):
        """Blocking is safe only if a row's bits do not depend on which
        rows share its call or where its block starts: one call over four
        blocks and a bit equals the same rows split over random smaller
        calls, at every prior step count mix."""
        rng = np.random.default_rng(6)
        n, width = 4 * ROW_BLOCK + 37, 16
        param = rng.normal(size=(n, width)).astype(np.float32)
        together, p = AdamState((n, width)), param.copy()
        apart, q = AdamState((n, width)), param.copy()
        for _ in range(3):
            g = rng.normal(size=(n, width)).astype(np.float32)
            # Uneven per-row step counts: a random half of the rows first.
            half = np.flatnonzero(rng.random(n) < 0.5)
            for state, x in ((together, p), (apart, q)):
                state.apply_sparse(x, SparseRows(half, g[half], n), lr=0.01)
            together.apply_sparse(p, all_rows(g), lr=0.01)
            cuts = np.sort(rng.choice(np.arange(1, n), 9, replace=False))
            for rows in np.split(rng.permutation(n), cuts):
                rows = np.sort(rows)
                apart.apply_sparse(q, SparseRows(rows, g[rows], n), lr=0.01)
        assert state_bits(together, p) == state_bits(apart, q)


class TestAdamWrapper:
    def test_step_updates_both_matrices(self):
        m = ComplEx(6, 3, 2, seed=0)
        opt = Adam(m)
        e0 = m.entity_emb.copy()
        r0 = m.relation_emb.copy()
        eg = SparseRows(np.array([1]), np.ones((1, 4), np.float32), 6)
        rg = SparseRows(np.array([0]), np.ones((1, 4), np.float32), 3)
        opt.step(eg, rg, lr=0.01)
        assert not np.allclose(m.entity_emb[1], e0[1])
        assert not np.allclose(m.relation_emb[0], r0[0])
        np.testing.assert_allclose(m.entity_emb[0], e0[0])

    def test_nonpositive_lr_rejected(self):
        m = ComplEx(6, 3, 2, seed=0)
        opt = Adam(m)
        eg = SparseRows(np.array([], dtype=np.int64),
                        np.empty((0, 4), np.float32), 6)
        rg = SparseRows(np.array([], dtype=np.int64),
                        np.empty((0, 4), np.float32), 3)
        with pytest.raises(ValueError):
            opt.step(eg, rg, lr=0.0)

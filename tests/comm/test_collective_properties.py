"""Property-based tests for collective cost formulas and the sparse combine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import allgather_sparse
from repro.comm.faults import FaultPlan
from repro.comm.network import NetworkModel
from repro.comm.simulator import Cluster
from repro.comm.sparse import SparseRows
from tests._fixtures import sparse_to_dense


@given(st.integers(1, 32), st.integers(0, 1 << 22))
@settings(max_examples=60, deadline=None)
def test_allreduce_time_nonnegative_and_monotone_in_bytes(p, nbytes):
    net = NetworkModel(alpha=1e-6, beta=1e-9)
    t1 = net.allreduce_ring_time(nbytes, p)
    t2 = net.allreduce_ring_time(nbytes + 1024, p)
    assert t1 >= 0
    assert t2 >= t1


@given(st.integers(2, 32), st.integers(1, 1 << 20))
@settings(max_examples=60, deadline=None)
def test_allgather_volume_exceeds_allreduce_for_dense_blocks(p, block):
    """When every rank's block equals the full matrix (dense gradients),
    gathering must cost at least as much bandwidth as reducing."""
    net = NetworkModel(alpha=0.0, beta=1e-9)
    t_gather = net.allgatherv_ring_time([float(block)] * p, p)
    t_reduce = net.allreduce_ring_time(block, p)
    assert t_gather >= t_reduce - 1e-15


@given(st.integers(2, 16), st.floats(0.01, 1.0))
@settings(max_examples=60, deadline=None)
def test_sparsity_always_helps_allgather(p, fraction):
    """Shrinking every block shrinks the gather time."""
    net = NetworkModel(alpha=1e-6, beta=1e-9)
    full = 1 << 16
    t_full = net.allgatherv_ring_time([float(full)] * p, p)
    t_sparse = net.allgatherv_ring_time([full * fraction] * p, p)
    assert t_sparse <= t_full + 1e-15


@given(st.integers(2, 5), st.integers(4, 12), st.integers(1, 3),
       st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_allgather_sparse_equals_dense_sum(p, n_rows, dim, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(p):
        nnz = rng.integers(0, n_rows + 1)
        idx = np.sort(rng.choice(n_rows, size=nnz, replace=False))
        values = rng.normal(size=(nnz, dim)).astype(np.float32)
        parts.append(SparseRows(idx, values, n_rows))
    cluster = Cluster(p)
    combined = allgather_sparse(cluster, parts)
    expected = np.sum([sparse_to_dense(part).astype(np.float64)
                       for part in parts], axis=0)
    np.testing.assert_allclose(sparse_to_dense(combined), expected,
                               rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# Collective equivalence: the algorithm choice (and any injected faults)
# may change the charged time, never the delivered data.
# ---------------------------------------------------------------------------

_FAULT_CASES = (None, FaultPlan(drop_prob=0.3, corruption_prob=0.1,
                                alpha_jitter=0.2, seed=123))


@given(st.integers(2, 6), st.integers(4, 12), st.integers(1, 3),
       st.integers(0, 1000), st.sampled_from(_FAULT_CASES))
@settings(max_examples=40, deadline=None)
def test_allgather_ring_equals_bruck(p, n_rows, dim, seed, faults):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(p):
        nnz = rng.integers(0, n_rows + 1)
        idx = np.sort(rng.choice(n_rows, size=nnz, replace=False))
        parts.append(SparseRows(idx, rng.normal(size=(nnz, dim))
                                .astype(np.float32), n_rows))
    outs = {}
    for algo in ("ring", "bruck"):
        cluster = Cluster(p, faults=faults)
        outs[algo] = allgather_sparse(cluster, parts, algo=algo)
    np.testing.assert_array_equal(sparse_to_dense(outs["ring"]),
                                  sparse_to_dense(outs["bruck"]))
    np.testing.assert_array_equal(outs["ring"].indices,
                                  outs["bruck"].indices)

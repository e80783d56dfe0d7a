"""Unit tests for simulated collectives: cost charging, and the sparse
combine of the one collective that still moves data."""

import numpy as np
import pytest

from repro.comm.collectives import (
    allgather_sparse,
    allgatherv_bytes,
    allreduce_bytes,
)
from repro.comm.network import NetworkModel
from repro.comm.simulator import Cluster
from repro.comm.sparse import SparseRows


@pytest.fixture
def cluster():
    return Cluster(3, NetworkModel(alpha=1e-6, beta=1e-9))


class TestAllreduceBytes:
    def test_charges_without_data(self, cluster):
        t = allreduce_bytes(cluster, 1 << 20)
        assert t > 0
        assert cluster.stats.nbytes_total == 1 << 20

    def test_negative_rejected(self, cluster):
        with pytest.raises(ValueError):
            allreduce_bytes(cluster, -1)

    def test_matches_network_formula(self, cluster):
        t = allreduce_bytes(cluster, 4096, algo="ring")
        assert t == pytest.approx(
            cluster.network.allreduce_ring_time(4096, 3))

    def test_unknown_algo_rejected(self, cluster):
        with pytest.raises(ValueError):
            allreduce_bytes(cluster, 16, algo="tree")

    def test_single_rank_free(self):
        c = Cluster(1)
        assert allreduce_bytes(c, 1 << 20) == 0.0
        assert c.elapsed == 0.0


class TestAllgatherSparse:
    def test_combines_like_dense_sum(self, cluster):
        parts = [
            SparseRows(np.array([0, 2]), np.array([[1.0], [2.0]], np.float32), 5),
            SparseRows(np.array([2]), np.array([[3.0]], np.float32), 5),
            SparseRows(np.array([4]), np.array([[4.0]], np.float32), 5),
        ]
        out = allgather_sparse(cluster, parts)
        np.testing.assert_allclose(out.to_dense()[:, 0], [1, 0, 5, 0, 4])

    def test_bytes_are_sum_of_blocks(self, cluster):
        parts = [
            SparseRows(np.array([i]), np.array([[1.0]], np.float32), 5)
            for i in range(3)
        ]
        allgather_sparse(cluster, parts)
        assert cluster.stats.nbytes_total == 3 * (4 + 4)

    def test_bruck_same_data_cheaper_latency(self):
        lat = NetworkModel(alpha=1e-3, beta=1e-12)
        c_ring, c_bruck = Cluster(8, lat), Cluster(8, lat)
        parts = [SparseRows(np.array([i]), np.array([[1.0]], np.float32), 8)
                 for i in range(8)]
        allgather_sparse(c_ring, parts, algo="ring")
        allgather_sparse(c_bruck, parts, algo="bruck")
        assert c_bruck.elapsed < c_ring.elapsed

    def test_wrong_part_count_rejected(self, cluster):
        part = SparseRows(np.array([0]), np.array([[1.0]], np.float32), 5)
        with pytest.raises(ValueError):
            allgather_sparse(cluster, [part] * 2)


class TestAllgathervBytes:
    def test_block_count_must_match(self, cluster):
        with pytest.raises(ValueError):
            allgatherv_bytes(cluster, [10, 10])

    def test_negative_block_rejected(self, cluster):
        with pytest.raises(ValueError):
            allgatherv_bytes(cluster, [10, -1, 10])

    def test_unknown_algo_rejected(self, cluster):
        with pytest.raises(ValueError):
            allgatherv_bytes(cluster, [1, 1, 1], algo="hypercube")

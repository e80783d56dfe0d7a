"""Flat-vs-hierarchical crossover grid, in virtual time.

Where the two-level stack (:mod:`repro.comm.hierarchical`) starts beating
the flat inter-node ring, as a function of world size and the intra/inter
bandwidth ratio.  Every cell charges a ~1.9 MB dense entity gradient
(15k rows x dim 32) three ways:

* ``flat_dense`` — single-level ring allreduce, every hop on the slow link;
* ``hier_dense`` — intra reduce, inter ring over nodes, intra broadcast;
* ``hier_1bit``  — intra reduce at full precision, one 1-bit payload per
  node over the inter allgatherv, intra broadcast back (the exchange's
  compressed two-level path).
"""

import pytest

from repro.comm.hierarchical import (
    hier_allreduce_bytes,
    hier_inter_allgatherv_bytes,
    hier_intra_bcast_bytes,
    hier_intra_reduce_bytes,
)
from repro.comm.network import NetworkModel
from repro.comm.payload import dense_bytes, quantized_rows_bytes
from repro.comm.simulator import Cluster

RPN = 4
WORLDS = [2, 4, 8, 16, 32]
RATIOS = [1, 2, 4, 8, 16, 32]
#: The slow link every configuration shares (8 GB/s, 5 us).
INTER = NetworkModel(alpha=5e-6, beta=1.25e-10)
DENSE_NBYTES = dense_bytes(15_000, 32)
ONEBIT_NBYTES = quantized_rows_bytes(15_000, 32, bits=1)


def _cell(world: int, ratio: float) -> dict:
    """Charge the three exchange styles for one (world, ratio) cell."""
    net = NetworkModel(
        alpha=INTER.alpha, beta=INTER.beta, ranks_per_node=RPN,
        intra=NetworkModel(alpha=0.3e-6, beta=INTER.beta / ratio))
    cluster = Cluster(world, net)
    nodes = cluster.groups.n_nodes
    hier_1bit = hier_intra_reduce_bytes(cluster, DENSE_NBYTES)
    hier_1bit += hier_inter_allgatherv_bytes(cluster,
                                             [ONEBIT_NBYTES] * nodes)
    hier_1bit += hier_intra_bcast_bytes(cluster, ONEBIT_NBYTES * nodes)
    return {
        "flat_dense": INTER.allreduce_ring_time(DENSE_NBYTES, world),
        "hier_dense": hier_allreduce_bytes(Cluster(world, net),
                                           DENSE_NBYTES),
        "hier_1bit": hier_1bit,
    }


@pytest.fixture(scope="module")
def grid():
    return {(world, ratio): _cell(world, ratio)
            for world in WORLDS for ratio in RATIOS}


def test_flat_ring_wins_the_dense_exchange_at_ratio_one(grid):
    """An intra link no faster than the inter link only adds hops, so
    there is a crossover to locate."""
    for world in WORLDS:
        cell = grid[world, 1]
        assert cell["hier_dense"] > cell["flat_dense"], (world, cell)


def test_dense_crossover_by_ratio_eight_at_every_world(grid):
    for world in WORLDS:
        crossover = next((ratio for ratio in RATIOS
                          if grid[world, ratio]["hier_dense"]
                          < grid[world, ratio]["flat_dense"]), None)
        assert crossover is not None and crossover <= 8, (world, crossover)


def test_hier_1bit_beats_flat_dense_at_world_16(grid):
    """The headline: >= 1.5x at every ratio >= 8 (3.61x at the worst)."""
    worst = min(grid[16, ratio]["flat_dense"] / grid[16, ratio]["hier_1bit"]
                for ratio in RATIOS if ratio >= 8)
    assert worst >= 1.5, worst

"""Related-work comparators: the parameter-server training architecture.

The paper's introduction motivates synchronous collectives by the parameter
server's central-bandwidth bottleneck (Li et al., OSDI'14).  This module
implements that comparator on the same simulated substrate so the benchmark
suite can show the contrast quantitatively: per step, every worker *pulls*
the embedding rows its batch touches from the server shard owners and
*pushes* its gradient rows back; the servers' ingress/egress bandwidth is
the bottleneck term.

Convergence is identical to synchronous allreduce (the same gradients are
summed and applied); only the communication cost model differs — which is
exactly the comparison the paper makes qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.payload import sparse_rows_bytes
from .exchange import push_pull_time
from .strategy import StrategyConfig
from .trainer import DistributedTrainer, TrainConfig


@dataclass(frozen=True)
class ParameterServerTopology:
    """How many of the nodes act as servers (the rest are workers)."""

    n_servers: int = 1

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one server")


class ParameterServerTrainer(DistributedTrainer):
    """Synchronous parameter-server variant of the trainer.

    Reuses the entire local-compute pipeline; only the exchange's move
    stage differs — the pull/push cost model instead of an allgatherv (see
    :class:`~repro.training.exchange.GradientExchange`).  No compression
    strategy is on (classic PS pushes full-precision rows), matching the
    paper's framing of the PS design as the unoptimised alternative.
    """

    def __init__(self, store, n_nodes: int, config: TrainConfig | None = None,
                 network=None, topology: ParameterServerTopology | None = None,
                 negatives: int = 1):
        strategy = StrategyConfig(comm_mode="allgather",
                                  negatives_sampled=negatives,
                                  negatives_used=negatives)
        super().__init__(store, strategy, n_nodes, config=config,
                         network=network)
        self.topology = topology or ParameterServerTopology()
        if self.topology.n_servers >= n_nodes and n_nodes > 1:
            raise ValueError("servers must be fewer than total nodes")
        self.exchange.n_servers = self.topology.n_servers


def parameter_server_time_per_step(n_workers: int, n_servers: int,
                                   rows_per_worker: int, dim: int,
                                   network) -> float:
    """Closed-form PS step time (used by analytical benchmarks)."""
    if n_workers < 1 or n_servers < 1:
        raise ValueError("n_workers and n_servers must be >= 1")
    per_worker = sparse_rows_bytes(rows_per_worker, dim)
    return push_pull_time([per_worker] * n_workers, n_servers, network)


def allreduce_time_per_step(n_nodes: int, matrix_rows: int, dim: int,
                            network) -> float:
    """Closed-form ring-allreduce step time for the same matrix."""
    nbytes = matrix_rows * dim * 4
    return network.allreduce_ring_time(nbytes, n_nodes)

"""Closed-form step times: the parameter server against ring allreduce.

The paper's introduction motivates synchronous collectives by the parameter
server's central-bandwidth bottleneck (Li et al., OSDI'14).  These closed
forms price one step of each design on the same network model, so the
ablation benchmark can show the contrast quantitatively.
"""

from __future__ import annotations

from ..comm.payload import sparse_rows_bytes


def parameter_server_time_per_step(n_workers: int, n_servers: int,
                                   rows_per_worker: int, dim: int,
                                   network) -> float:
    """Parameter-server step time when every worker moves the same rows.

    Each worker pushes its gradient rows and pulls the same rows back after
    the servers applied the update.  The server tier must absorb every
    worker's traffic (ingress bytes over ``n_servers`` links): the
    bottleneck term.
    """
    if n_workers < 1 or n_servers < 1:
        raise ValueError("n_workers and n_servers must be >= 1")
    per_worker = sparse_rows_bytes(rows_per_worker, dim)
    total = 2 * per_worker * n_workers  # push + pull
    server_time = network.transfer_time(total / n_servers,
                                        n_messages=2 * n_workers)
    worker_time = network.transfer_time(2 * per_worker, n_messages=2)
    return max(server_time, worker_time)


def allreduce_time_per_step(n_nodes: int, matrix_rows: int, dim: int,
                            network) -> float:
    """Closed-form ring-allreduce step time for the same matrix."""
    nbytes = matrix_rows * dim * 4
    return network.allreduce_ring_time(nbytes, n_nodes)

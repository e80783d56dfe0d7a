"""Simulated distributed-communication substrate (the paper's Horovod/MPI)."""

from .collectives import (
    ALLGATHER_ALGOS,
    ALLREDUCE_ALGOS,
    allgather_sparse,
    allgatherv_bytes,
)
from .faults import (
    FAULT_POLICIES,
    CollectiveFaultError,
    CollectiveGaveUp,
    FaultInjector,
    FaultPlan,
    RankLossError,
)
from .hierarchical import hier_allreduce_bytes
from .network import DEFAULT_NETWORK, NetworkModel, NodeGroups
from .payload import (
    compression_ratio,
    dense_bytes,
    quantized_rows_bytes,
    sparse_rows_bytes,
)
from .simulator import HOPS, Cluster, CommRecord, CommStats
from .tracing import ClusterTracer, TraceEvent
from .sparse import SparseRows, combine_sparse

__all__ = [
    "ALLGATHER_ALGOS",
    "ALLREDUCE_ALGOS",
    "Cluster",
    "CollectiveFaultError",
    "CollectiveGaveUp",
    "CommRecord",
    "CommStats",
    "ClusterTracer",
    "FAULT_POLICIES",
    "FaultInjector",
    "FaultPlan",
    "HOPS",
    "NodeGroups",
    "RankLossError",
    "TraceEvent",
    "DEFAULT_NETWORK",
    "NetworkModel",
    "SparseRows",
    "allgather_sparse",
    "allgatherv_bytes",
    "combine_sparse",
    "compression_ratio",
    "dense_bytes",
    "hier_allreduce_bytes",
    "quantized_rows_bytes",
    "sparse_rows_bytes",
]

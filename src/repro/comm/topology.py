"""The network cost model lives in :mod:`repro.comm.network`."""

from .network import NetworkModel

# perf/workloads.py builds its two-level network through this name.
HierarchicalNetwork = NetworkModel

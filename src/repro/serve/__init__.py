"""Online serving layer: checkpoint-backed link-prediction queries.

The training stack ends at a checkpoint; this package starts there.  A
:class:`EmbeddingStore` loads a snapshot read-only, a :class:`QueryEngine`
answers ``score`` / ``topk_tails`` / ``topk_heads`` / ``nearest_entities``
queries through the block scorers and CSR known-fact filter the
evaluator uses, an exact :class:`LRUCache` absorbs skewed traffic, and
:class:`ServeStats` counts queries, routes and cache hits.
:class:`ZipfianTraffic` + :func:`replay` simulate the "millions of users"
workload for benchmarks and time it per window.  :class:`BinaryStore` (see
:mod:`repro.serve.binary`) adds the 1-bit memory tier: Hamming-space
candidate generation re-ranked by the full-precision scorers
(``QueryEngine(tier="binary")``).  :mod:`repro.serve.resilience` adds the
failure story: a seeded :class:`ServeFaultPlan` chaos injector
(``--serve-faults``), an SLO-aware degradation ladder
(:class:`ResilienceController`, dense -> binary -> cache-only -> shed,
typed :class:`ShedResponse` answers) and hot checkpoint reload
(``QueryEngine.reload``).  See ``docs/serving.md``.
"""

from .binary import (BinaryStore, binarize_model, export_binary,
                     load_sidecar, save_sidecar)
from .cache import LRUCache
from .engine import QueryEngine, TopKResult
from .resilience import (SERVE_STATES, SHED_REASONS, ResilienceController,
                         ServeFaultPlan, ShedResponse,
                         SidecarCorruptionError, SLOConfig)
from .stats import ServeStats
from .store import EmbeddingStore
from .traffic import BurstSpec, TrafficSpec, ZipfianTraffic, replay

__all__ = [
    "SERVE_STATES",
    "SHED_REASONS",
    "BinaryStore",
    "BurstSpec",
    "EmbeddingStore",
    "LRUCache",
    "QueryEngine",
    "ResilienceController",
    "SLOConfig",
    "ServeFaultPlan",
    "ServeStats",
    "ShedResponse",
    "SidecarCorruptionError",
    "TopKResult",
    "TrafficSpec",
    "ZipfianTraffic",
    "binarize_model",
    "export_binary",
    "load_sidecar",
    "replay",
    "save_sidecar",
]

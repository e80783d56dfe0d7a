"""Serve-side telemetry: query, route, cache and ladder counters.

Every query answered by the engine records its kind and whether the
result cache answered it; every binary-route row adds to ``by_tier``.
Nothing here reads the wall clock, so a snapshot is a function of the
store and the query stream — a caller that wants latency times its own
calls (:func:`repro.serve.replay` reports per-window percentiles).
``snapshot()`` folds everything into the flat dict the CLI and ``replay``
report.

Every snapshot carries the decision log (:mod:`repro.obs`): ladder moves,
breaker trips and reloads, byte-identical across runs of one ``(seed,
plan)``.  With a :class:`~repro.serve.resilience.ResilienceController`
attached, it also grows a ``resilience`` section: per-state query counts,
the shed taxonomy, counts over the log and virtual-latency percentiles
from the admission controller's queue model.
"""

from __future__ import annotations

from array import array
from collections import Counter

import numpy as np

#: Query kinds the engine reports.
KINDS = ("score", "topk_tails", "topk_heads", "nearest")


class ServeStats:
    """Accumulates per-query counters for one engine's lifetime."""

    def __init__(self) -> None:
        self.by_kind = {kind: 0 for kind in KINDS}
        self.cache_hits = 0
        self.cache_misses = 0
        #: Top-k rows scored per tiered route ("binary"), lifetime.
        self.by_tier: Counter = Counter()
        # Resilience telemetry: a controller fills it; by_state gates it.
        self.by_state: dict[str, int] = {}
        self.shed_by_reason: dict[str, int] = {}
        #: Every admitted query's virtual latency (ms), in arrival order.
        self.virtual_ms = array("d")
        #: The decision log: ladder, breaker and reload records, in order.
        self.decisions: list[dict] = []

    @property
    def n_queries(self) -> int:
        return sum(self.by_kind.values())

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def record(self, kind: str, cache_hit: bool | None) -> None:
        """One answered query: ``cache_hit=None`` means the query kind is
        not cacheable (plain ``score`` calls bypass the result cache)."""
        if kind not in self.by_kind:
            raise ValueError(f"unknown query kind {kind!r}; one of {KINDS}")
        self.by_kind[kind] += 1
        if cache_hit is True:
            self.cache_hits += 1
        elif cache_hit is False:
            self.cache_misses += 1

    # -- resilience --------------------------------------------------------

    def record_resilience(self, state: str, virtual_ms: float,
                          shed_reason: str | None = None) -> None:
        """One query as the ladder saw it: the state it was admitted
        under, its virtual latency (queue wait + service on the admission
        controller's clock), and — when it was shed — the taxonomy."""
        self.by_state[state] = self.by_state.get(state, 0) + 1
        self.virtual_ms.append(float(virtual_ms))
        if shed_reason is not None:
            self.shed_by_reason[shed_reason] = \
                self.shed_by_reason.get(shed_reason, 0) + 1

    def snapshot(self) -> dict:
        """Flat summary: query, route and cache counters, the decision log
        and — under resilience — the ladder's section."""
        n = self.n_queries
        out = {
            "n_queries": n,
            "by_kind": dict(self.by_kind),
            "by_tier": dict(sorted(self.by_tier.items())),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "decisions": list(self.decisions),
        }
        if self.by_state:
            shed_total = sum(self.shed_by_reason.values())
            virtual = np.frombuffer(self.virtual_ms, dtype=np.float64)
            vp50, vp99 = (np.percentile(virtual, (50.0, 99.0))
                          if virtual.size else (0.0, 0.0))
            out["resilience"] = {
                "by_state": dict(sorted(self.by_state.items())),
                "shed": dict(sorted(self.shed_by_reason.items())),
                "shed_total": shed_total,
                "shed_rate": shed_total / n if n else 0.0,
                "n_transitions": self._count("ladder"),
                "breaker_trips": self._count("breaker"),
                "reloads": self._count("reload"),
                "virtual_mean_ms": (float(virtual.mean()) if virtual.size
                                    else 0.0),
                "virtual_p50_ms": float(vp50),
                "virtual_p99_ms": float(vp99),
            }
        return out

    def _count(self, mechanism: str) -> int:
        return sum(d["mechanism"] == mechanism for d in self.decisions)

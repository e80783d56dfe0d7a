"""Serve-side telemetry: query counts, latency percentiles, cache hit rate.

Every query answered by the engine records one ``(kind, latency,
cache_hit)`` observation.  Latencies are kept in a compact ``array('d')``
(8 bytes per query) so percentiles are exact, not sketched; a long-lived
server passes ``window=N`` to bound each buffer to the most recent ``N``
observations (exact percentiles *within the window*), while counters and
summed-time totals always cover the whole lifetime.  ``snapshot()`` folds
everything into the flat dict the CLI and :func:`repro.serve.replay`
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

import numpy as np

#: Query kinds the engine reports.
KINDS = ("score", "topk_tails", "topk_heads", "nearest")


class ServeStats:
    """Accumulates per-query telemetry for one engine's lifetime.

    ``window=None`` (default) keeps every observation; ``window=N`` keeps
    the most recent ``N`` per buffer, trimming lazily at ``2N`` so the
    amortized append cost stays O(1).
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"stats window must be >= 1, got {window}")
        self.window = window
        self.by_kind = {kind: 0 for kind in KINDS}
        self.cache_hits = 0
        self.cache_misses = 0
        #: Lifetime summed in-engine seconds (windowing never loses it).
        self.total_seconds = 0.0
        self._latencies = array("d")
        self._latencies_by_kind = {kind: array("d") for kind in KINDS}
        # Tiered-path windows, keyed by tier name ("binary", ...): stage
        # latencies for the two stages of a tiered top-k, plus the per-query
        # recall proxy (overlap between the re-ranked answer and the pure
        # Hamming-ordered answer).  Populated only when a tiered engine
        # serves; every derived rate below is 0.0 on an empty window.
        # ``by_tier`` is the lifetime count beside those windows.
        self.by_tier: dict[str, int] = {}
        self._tier_candidate_s: dict[str, array] = {}
        self._tier_rerank_s: dict[str, array] = {}
        self._tier_agreement: dict[str, array] = {}
        # Resilience telemetry: a controller fills it; by_state gates it.
        self.by_state: dict[str, int] = {}
        self.shed_by_reason: dict[str, int] = {}
        self._virtual_ms = array("d")
        #: The decision log: ladder, breaker and reload records, in order.
        self.decisions: list[dict] = []

    @property
    def n_queries(self) -> int:
        return sum(self.by_kind.values())

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def _append(self, buffer: array, value: float) -> None:
        buffer.append(float(value))
        if self.window is not None and len(buffer) > 2 * self.window:
            del buffer[:-self.window]

    def _view(self, buffer: array) -> np.ndarray:
        values = np.frombuffer(buffer, dtype=np.float64)
        if self.window is not None and len(values) > self.window:
            return values[-self.window:]
        return values

    def record(self, kind: str, seconds: float, cache_hit: bool | None) -> None:
        """One answered query: ``cache_hit=None`` means the query kind is
        not cacheable (plain ``score`` calls bypass the result cache)."""
        if kind not in self.by_kind:
            raise ValueError(f"unknown query kind {kind!r}; one of {KINDS}")
        self.by_kind[kind] += 1
        self.total_seconds += float(seconds)
        self._append(self._latencies, seconds)
        self._append(self._latencies_by_kind[kind], seconds)
        if cache_hit is True:
            self.cache_hits += 1
        elif cache_hit is False:
            self.cache_misses += 1

    def record_tier(self, tier: str, candidate_seconds: float,
                    rerank_seconds: float, agreement: float) -> None:
        """One tiered top-k query: stage-1 (candidate generation) and
        stage-2 (re-rank) latencies, plus the recall proxy ``agreement``
        (fraction of the final top-k that the candidate stage alone would
        have ranked in its own top-k; 1.0 means re-ranking changed
        nothing)."""
        self.by_tier[tier] = self.by_tier.get(tier, 0) + 1
        for window, value in ((self._tier_candidate_s, candidate_seconds),
                              (self._tier_rerank_s, rerank_seconds),
                              (self._tier_agreement, agreement)):
            self._append(window.setdefault(tier, array("d")), value)

    # -- resilience --------------------------------------------------------

    def record_resilience(self, state: str, virtual_ms: float,
                          shed_reason: str | None = None) -> None:
        """One query as the ladder saw it: the state it was admitted
        under, its virtual latency (queue wait + service on the admission
        controller's clock), and — when it was shed — the taxonomy."""
        self.by_state[state] = self.by_state.get(state, 0) + 1
        self._append(self._virtual_ms, virtual_ms)
        if shed_reason is not None:
            self.shed_by_reason[shed_reason] = \
                self.shed_by_reason.get(shed_reason, 0) + 1

    def snapshot(self) -> dict:
        """Flat summary: counts, p50/p99/mean latency, service rate, cache.

        ``queries_per_sec`` is the *service* rate — queries over summed
        in-engine latency — which excludes whatever the caller did between
        queries; a traffic benchmark measuring wall-clock throughput should
        prefer its own end-to-end timer.  Percentiles are exact over the
        configured window; counts, ``busy_seconds`` and the derived rates
        always cover the engine's whole lifetime.
        """
        total = self.total_seconds
        n = self.n_queries
        out = {
            "n_queries": n,
            "by_kind": dict(self.by_kind),
            "mean_ms": (total / n) * 1e3 if n else 0.0,
            "busy_seconds": total,
            "queries_per_sec": n / total if total > 0 else 0.0,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "stats_window": self.window,
        }
        out.update(_percentiles_ms(self._view(self._latencies)))
        by_kind_latency = {
            kind: _percentiles_ms(self._view(window))
            for kind, window in self._latencies_by_kind.items()
            if len(window)}
        if by_kind_latency:
            out["by_kind_latency"] = by_kind_latency
        # Link-prediction-only percentiles: the latency surface the memory
        # tiers actually differ on ('score' and 'nearest' take the same
        # code path in every tier, and the full-scan neighbor queries
        # would otherwise own the global tail).
        linkpred = np.concatenate([
            self._view(self._latencies_by_kind[kind])
            for kind in ("topk_tails", "topk_heads")])
        out.update({f"topk_{k}": v
                    for k, v in _percentiles_ms(linkpred).items()})
        tiers = {}
        for tier in sorted(self._tier_candidate_s):
            cand = self._view(self._tier_candidate_s[tier])
            rer = self._view(self._tier_rerank_s[tier])
            agree = self._view(self._tier_agreement[tier])
            entry = {
                "n_queries": self.by_tier[tier],
                "mean_agreement": _mean(agree),
                "candidate_mean_ms": _mean(cand) * 1e3,
                "rerank_mean_ms": _mean(rer) * 1e3,
            }
            entry.update({f"candidate_{k}": v
                          for k, v in _percentiles_ms(cand).items()})
            entry.update({f"rerank_{k}": v
                          for k, v in _percentiles_ms(rer).items()})
            tiers[tier] = entry
        if tiers:
            out["tiers"] = tiers
        out["decisions"] = list(self.decisions)
        if self.by_state:
            shed_total = sum(self.shed_by_reason.values())
            # Virtual latencies come off the admission controller's clock
            # already in milliseconds — no seconds-to-ms scaling here.
            virtual = self._view(self._virtual_ms)
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
                "virtual_mean_ms": _mean(virtual),
                "virtual_p50_ms": float(vp50),
                "virtual_p99_ms": float(vp99),
            }
        return out

    def _count(self, mechanism: str) -> int:
        return sum(d["mechanism"] == mechanism for d in self.decisions)


def _mean(window) -> float:
    values = np.asarray(window, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def _percentiles_ms(window) -> dict:
    """Exact p50 and p99 of ``window`` in milliseconds, keyed ``p50_ms``."""
    values = np.asarray(window, dtype=np.float64)
    if not values.size:
        return {"p50_ms": 0.0, "p99_ms": 0.0}
    p50, p99 = np.percentile(values, (50.0, 99.0))
    return {"p50_ms": float(p50) * 1e3, "p99_ms": float(p99) * 1e3}

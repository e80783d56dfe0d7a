"""Seeded Zipfian traffic generator for serving benchmarks.

Real link-prediction traffic is skewed twice over: a few head entities
(popular people, places, products) and a few relations account for most
queries.  :class:`ZipfianTraffic` models both with rank-frequency power
laws — entity ``i``'s draw probability is proportional to
``1 / (i + 1) ** exponent`` over a seeded permutation of the id space (so
"popular" ids are scattered across the vocabulary, not clustered at 0) —
and mixes query kinds with configurable fractions.

Everything is driven by one ``numpy`` generator seeded at construction:
the same ``(spec, seed)`` always replays the identical query stream, which
is what lets the benchmark's cache-hit-rate and latency numbers be
compared across commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    probs = ranks ** -exponent
    return probs / probs.sum()


@dataclass(frozen=True)
class BurstSpec:
    """One overload phase: arrivals ``[start, start+length)`` land
    ``factor`` times faster than steady state.

    The traffic generator reads bursts to inflate its micro-batch windows
    (more offered queries per unit of virtual time) and the admission
    controller reads the *same* spec to compress its virtual interarrival
    gap — so offered load and modeled load agree by construction.
    ``factor`` may be below 1.0 to model a lull.
    """

    #: First arrival index inside the burst.
    start: int
    #: Number of arrivals the burst covers.
    length: int
    #: Arrival-rate multiplier (>1 overload, <1 lull).
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"burst start must be >= 0, got {self.start}")
        if self.length < 1:
            raise ValueError(f"burst length must be >= 1, got {self.length}")
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise ValueError(
                f"burst factor must be finite and > 0, got {self.factor}")

    @property
    def stop(self) -> int:
        return self.start + self.length


def validate_bursts(bursts: tuple) -> tuple:
    """Sorted, non-overlapping bursts or a ValueError naming the clash."""
    ordered = tuple(sorted(bursts, key=lambda b: b.start))
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.start < prev.stop:
            raise ValueError(
                f"bursts overlap: [{prev.start}, {prev.stop}) and "
                f"[{nxt.start}, {nxt.stop})")
    return ordered


def burst_factor_at(bursts: tuple, index: int) -> float:
    """The arrival-rate multiplier at arrival ``index`` (1.0 outside)."""
    for burst in bursts:
        if burst.start <= index < burst.stop:
            return burst.factor
    return 1.0


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one synthetic workload."""

    #: Rank-frequency skew over entities (0 = uniform; web-ish traffic ~1).
    entity_exponent: float = 1.0
    #: Rank-frequency skew over relations.
    relation_exponent: float = 0.8
    #: Query-kind mix; the four fractions must sum to exactly 1.
    tail_fraction: float = 0.70
    head_fraction: float = 0.20
    score_fraction: float = 0.08
    nearest_fraction: float = 0.02

    def __post_init__(self) -> None:
        fractions = {"tail_fraction": self.tail_fraction,
                     "head_fraction": self.head_fraction,
                     "score_fraction": self.score_fraction,
                     "nearest_fraction": self.nearest_fraction}
        negative = {k: v for k, v in fractions.items() if v < 0}
        if negative:
            raise ValueError(
                f"query-kind fractions must be >= 0, got {negative}")
        total = sum(fractions.values())
        if abs(total - 1.0) > 1e-6:
            # Validated here, with the fields named, instead of surfacing
            # later as an opaque "probabilities do not sum to 1" from
            # rng.choice deep inside generate().
            raise ValueError(
                f"query-kind fractions must sum to 1.0 "
                f"(tail_fraction + head_fraction + score_fraction + "
                f"nearest_fraction), got {total!r} from {fractions}")
        if self.entity_exponent < 0 or self.relation_exponent < 0:
            raise ValueError("zipf exponents must be >= 0")


#: One generated query: (kind, anchor entity, relation, other entity).
#: ``relation`` is -1 for `nearest` queries; ``other`` is the scored tail
#: for `score` queries and -1 otherwise.
QUERY_DTYPE = np.dtype([("kind", np.int8), ("anchor", np.int64),
                        ("relation", np.int64), ("other", np.int64)])

KIND_TAILS, KIND_HEADS, KIND_SCORE, KIND_NEAREST = 0, 1, 2, 3


class ZipfianTraffic:
    """Replayable skewed query stream over one vocabulary."""

    def __init__(self, n_entities: int, n_relations: int,
                 spec: TrafficSpec | None = None, seed: int = 0,
                 bursts: tuple = ()):
        if n_entities < 1 or n_relations < 1:
            raise ValueError("need at least one entity and one relation")
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.spec = spec or TrafficSpec()
        self.seed = seed
        #: Overload phases (:class:`BurstSpec`); :meth:`batches` inflates
        #: its windows inside each phase so a burst arrives as a burst.
        self.bursts = validate_bursts(tuple(bursts))
        self._emitted = 0
        # Salted stream: serving traffic never aliases a training stream
        # derived from the same user seed.
        self._rng = np.random.default_rng((0x5E12FE, seed))
        # Popularity rank -> id maps: a fixed seeded shuffle so hot ids are
        # spread over the vocabulary.
        self._entity_ids = self._rng.permutation(n_entities)
        self._relation_ids = self._rng.permutation(n_relations)
        self._entity_probs = _zipf_probs(n_entities,
                                         self.spec.entity_exponent)
        self._relation_probs = _zipf_probs(n_relations,
                                           self.spec.relation_exponent)

    def _draw_entities(self, n: int) -> np.ndarray:
        ranks = self._rng.choice(self.n_entities, size=n,
                                 p=self._entity_probs)
        return self._entity_ids[ranks]

    def _draw_relations(self, n: int) -> np.ndarray:
        ranks = self._rng.choice(self.n_relations, size=n,
                                 p=self._relation_probs)
        return self._relation_ids[ranks]

    def generate(self, n_queries: int) -> np.ndarray:
        """The next ``n_queries`` as a structured array (QUERY_DTYPE).

        Successive calls continue the stream; re-seed (a fresh instance)
        to replay from the start.
        """
        if n_queries < 0:
            raise ValueError(f"n_queries must be >= 0, got {n_queries}")
        spec = self.spec
        # Exact-sum normalization: the spec validated the fractions to
        # within eps; rng.choice demands they sum to 1.0 to the last ulp.
        probs = np.array([spec.tail_fraction, spec.head_fraction,
                          spec.score_fraction, spec.nearest_fraction],
                         dtype=np.float64)
        kinds = self._rng.choice(
            4, size=n_queries, p=probs / probs.sum()).astype(np.int8)
        out = np.zeros(n_queries, dtype=QUERY_DTYPE)
        out["kind"] = kinds
        out["anchor"] = self._draw_entities(n_queries)
        out["relation"] = np.where(kinds == KIND_NEAREST, -1,
                                   self._draw_relations(n_queries))
        out["other"] = np.where(kinds == KIND_SCORE,
                                self._draw_entities(n_queries), -1)
        self._emitted += n_queries
        return out

    def batches(self, n_queries: int, batch_size: int):
        """Yield the stream in micro-batch windows of ``batch_size``.

        During a :class:`BurstSpec` phase the window is inflated by the
        burst factor (queries arrive faster, so a fixed polling interval
        collects more of them) — the deterministic serve-side analogue of
        an overload.  Outside bursts the windows are exactly
        ``batch_size``, so a burst-free stream batches identically to the
        pre-burst generator.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        remaining = n_queries
        while remaining > 0:
            factor = burst_factor_at(self.bursts, self._emitted)
            take = min(remaining, max(1, int(round(batch_size * factor))))
            yield self.generate(take)
            remaining -= take


def replay(engine, traffic: ZipfianTraffic, n_queries: int,
           batch_size: int = 64, topk: int = 10,
           filtered: bool | None = None) -> dict:
    """Drive ``engine`` with ``n_queries`` from ``traffic``; return telemetry.

    Top-k queries inside one window are dispatched through
    :meth:`~repro.serve.engine.QueryEngine.topk_batch` (the micro-batcher);
    ``score`` and ``nearest`` queries go through their direct calls.  The
    returned snapshot adds end-to-end wall-clock throughput on top of the
    engine's own service-rate telemetry.

    Error accounting: one bad query must not kill a million-query replay.
    Per-query exceptions are caught and counted (``errors``), with the
    first one's detail kept (``first_error``: query, kind, exception
    class, message).  A failing micro-batch is retried query-by-query so
    the blame lands on the actual offender and its window-mates are still
    served.
    """
    import time

    start = time.perf_counter()
    served = 0
    errors = 0
    first_error = None

    def note_error(exc, kind, query):
        nonlocal errors, first_error
        errors += 1
        if first_error is None:
            first_error = {"kind": kind, "query": query,
                           "error": type(exc).__name__,
                           "detail": str(exc)}

    for window in traffic.batches(n_queries, batch_size):
        topk_queries = []
        for q in window:
            kind = int(q["kind"])
            if kind == KIND_TAILS:
                topk_queries.append((int(q["anchor"]), int(q["relation"]),
                                     True))
            elif kind == KIND_HEADS:
                topk_queries.append((int(q["anchor"]), int(q["relation"]),
                                     False))
            elif kind == KIND_SCORE:
                triple = (int(q["anchor"]), int(q["relation"]),
                          int(q["other"]))
                try:
                    engine.score(*triple)
                except Exception as exc:
                    note_error(exc, "score", list(triple))
            else:
                try:
                    engine.nearest_entities(int(q["anchor"]), k=topk)
                except Exception as exc:
                    note_error(exc, "nearest", [int(q["anchor"])])
        if topk_queries:
            try:
                engine.topk_batch(topk_queries, k=topk, filtered=filtered,
                                  tail_side=None)
            except Exception:
                # Re-dispatch one by one: the batch fails as a unit, so
                # attribute the error to the query that owns it and keep
                # serving its window-mates.
                for anchor, rel, side in topk_queries:
                    try:
                        engine.topk_batch([(anchor, rel, side)], k=topk,
                                          filtered=filtered, tail_side=None)
                    except Exception as exc:
                        note_error(
                            exc, "topk_tails" if side else "topk_heads",
                            [anchor, rel])
        served += len(window)
    elapsed = time.perf_counter() - start
    snap = engine.snapshot()
    snap.update(wall_seconds=elapsed,
                wall_queries_per_sec=served / elapsed if elapsed > 0 else 0.0,
                batch_size=batch_size, topk=topk,
                errors=errors, first_error=first_error)
    return snap

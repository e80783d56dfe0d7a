"""Batched, cached link-prediction query engine.

The engine answers four query shapes against a frozen
:class:`~repro.serve.store.EmbeddingStore`:

``score(h, r, t)``
    Plausibility of one (or a batch of) explicit triple(s).
``topk_tails(h, r, k)`` / ``topk_heads(t, r, k)``
    The k most plausible completions of a partial triple, scored through
    the *same* ``score_all_tails`` / ``score_all_heads`` block calls
    filtered evaluation uses, with known facts excluded by scattering the
    CSR :class:`~repro.kg.triples.FilterIndex` — the serve-time twin of
    eval's filtered protocol (minus the gold-entity exemption: a live
    query has no gold entity).
``nearest_entities(e, k)``
    Embedding-space neighbors under L2 or cosine geometry, with complex
    models' ``[real | imag]`` half layout paired per coordinate through
    :meth:`~repro.models.base.KGEModel.entity_components`.

Link-prediction queries run in one of two **memory tiers**:

``tier="dense"`` (default)
    Every candidate is scored in full precision, one
    :meth:`~repro.models.base.KGEModel.query_vector` contraction with the
    entity matrix — the exact filtered-evaluation path.
``tier="binary"``
    Two stages.  Stage 1 scores every entity from the 1-bit
    :class:`~repro.serve.binary.BinaryStore` alone: the model's
    full-precision :meth:`~repro.models.base.KGEModel.query_vector` is
    folded into a 256-entry lookup table per code byte, one gather per
    stored byte gives the exact ``q . sign(t)`` (32x less state touched
    than dense scoring), weighted by each candidate's stored scale,
    keeping the best ``rerank_k``.  Stage 2 re-ranks *only that pool*
    with the same query vector contracted in full precision.  Both
    stages run once per window, over every binary-route miss of it
    stacked into one block.  Known
    facts are pushed behind every unknown candidate in stage 1 and
    NaN-masked in stage 2, so filtering semantics match the dense tier.
    When ``rerank_k >= n_entities`` the pool is the complete id-ordered
    entity set and stage 2 routes through the *same* dense block-scoring
    code — results are bitwise identical to ``tier="dense"`` (scores,
    tie-breaks, filtering) by construction.

Two serving mechanisms sit on top of raw scoring:

* an exact-LRU result cache keyed on every input that shapes the answer
  ``(direction, anchor, relation, k, filtered)`` — skewed traffic makes
  even a small cache absorb most of the load;
* micro-batching: :meth:`topk_batch` groups the cache-missing queries
  per ``(relation, direction)``, deduplicating repeated anchors.  On the
  dense tier each group is **one** block scoring call, so a burst of
  queries against a hot relation costs one matrix pass.  On the binary
  tier the whole window is one stage-1 scan and one re-rank per
  direction, whatever its relations: uniform traffic makes nearly every
  group a singleton, and a stacked scan reads each code byte once per
  window instead of once per query.  Every kernel there works
  row by row, so a partial-pool answer is byte-identical to its query
  asked alone.

Two resilience mechanisms sit on top of those (both opt-in; a plain
engine behaves exactly as before):

* an SLO-aware **degradation ladder**
  (:class:`~repro.serve.resilience.ResilienceController`): every query is
  admitted through a deterministic virtual-queue model whose backlog
  walks the engine dense -> binary -> cache-only -> shed and back, with a
  circuit breaker that trips the binary rung to dense when the 1-bit
  sidecar fails its checksum at query time.  Shed queries return a typed
  :class:`~repro.serve.resilience.ShedResponse` instead of a result.
* **hot reload** (:meth:`QueryEngine.reload`): atomically swap in a new
  checkpoint — the replacement store (embeddings + binary sidecar +
  filter index) is fully built and validated *before* a single install
  step replaces the old one, the result cache is invalidated, and the
  breaker re-arms; any validation failure rolls back to the old store,
  which never stopped serving.

Determinism contract: every ranking is
:func:`~repro.select.best_first` (*descending score, ascending
entity id*) and every stage-1 pool its set form
:func:`~repro.select.best_set`, the scores returned are the bytes the
scoring blocks produced, and a cache hit returns the identical immutable
result object a cold miss computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..eval.ranking import scatter_known_nan
from ..select import best_first, best_set, check_take
from ..training import checkpoint as ckpt
from .binary import check_geometry
from .cache import LRUCache
from .resilience import (ResilienceController, ServeFaultPlan, ShedResponse,
                         SidecarCorruptionError, SLOConfig)
from .stats import ServeStats
from .store import EmbeddingStore

METRICS = ("l2", "cosine")
TIERS = ("dense", "binary")


@dataclass(frozen=True)
class TopKResult:
    """One answered top-k query.

    ``scores`` are raw model scores for link-prediction queries (higher is
    better), distances for ``metric="l2"`` neighbor queries (lower is
    better, returned ascending) and similarities for ``metric="cosine"``
    (higher is better, returned descending).
    """

    entities: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.entities.setflags(write=False)
        self.scores.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entities)


def _topk_row(row: np.ndarray, k: int) -> TopKResult:
    """Top-k of one score row; NaN entries (filtered-out candidates)
    never appear."""
    order = best_first(row, k)
    return TopKResult(entities=order, scores=row[order])


def _agreement(entities: np.ndarray, pool: np.ndarray,
               approx: np.ndarray) -> float:
    """Recall proxy: fraction of the final top-k the candidate stage alone
    would have returned (the same number of its best approximate scores).
    1.0 means re-ranking changed nothing; vacuously 1.0 for an empty
    answer."""
    kk = len(entities)
    if kk == 0:
        return 1.0
    stage1 = pool[best_set(approx, kk)]
    return len(set(entities.tolist()).intersection(stage1.tolist())) / kk


class QueryEngine:
    """Serving facade over one :class:`EmbeddingStore`."""

    def __init__(self, store: EmbeddingStore, cache_capacity: int = 4096,
                 tier: str = "dense",
                 rerank_k: int = 1024,
                 faults: ServeFaultPlan | None = None,
                 slo: SLOConfig | None = None,
                 resilience: bool | None = None,
                 stats_window: int | None = None):
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; one of {TIERS}")
        rerank_k = check_take("rerank_k", rerank_k)
        if tier == "binary":
            if store.binary is None:
                raise ValueError(
                    "tier='binary' needs a binarized store; export a "
                    "sidecar with `repro export-binary` and load with "
                    "with_binary=True, or build the store via "
                    "EmbeddingStore.from_model(..., with_binary=True)")
            check_geometry(store.binary, store)
        self.store = store
        self.cache = LRUCache(cache_capacity)
        self.stats = ServeStats(window=stats_window)
        self.tier = tier
        self.rerank_k = rerank_k
        # Cached results never cross tiers: a binary-tier answer at small
        # rerank_k is not the dense answer, so the key says which path —
        # and at which pool size — produced it.
        self._tier_key = ("dense" if tier == "dense"
                          else ("binary", self.rerank_k))
        # Resilience is opt-in: a fault plan or SLO implies it, or pass
        # resilience=True for ladder-only (null-plan) admission control.
        enabled = resilience if resilience is not None \
            else (faults is not None or slo is not None)
        self.slo = (slo or SLOConfig()) if enabled else None
        self.resilience = ResilienceController(
            self.slo, faults, binary_available=store.binary is not None,
            stats=self.stats) if enabled else None

    # -- filtering ---------------------------------------------------------

    def _resolve_filtered(self, filtered: bool | None) -> bool:
        if filtered is None:
            return self.store.filter_index is not None
        if filtered and self.store.filter_index is None:
            raise ValueError(
                "filtered queries need a filter index; build the store "
                "with a dataset (EmbeddingStore.from_checkpoint(..., "
                "dataset=...)) or pass filtered=False")
        return filtered

    # -- score -------------------------------------------------------------

    def score(self, h, r, t):
        """Model score(s) of explicit triples; scalar in, scalar out.

        Under resilience, a batch of triples is one admission (one
        arrival on the virtual clock), and a degraded ladder answers a
        :class:`ShedResponse` — ``score`` has no cache, so every state
        past ``binary`` sheds it.  ``h``, ``r`` and ``t`` must be equally
        long and every id in range; a bad batch raises ``ValueError``
        before it is admitted.
        """
        scalar = np.ndim(h) == 0
        h, r, t = np.atleast_1d(h, r, t)
        if not len(h) == len(r) == len(t):
            raise ValueError(f"score needs equally long h, r, t; got "
                             f"lengths {len(h)}, {len(r)}, {len(t)}")
        self._check_ids(np.concatenate([h, t]), r)
        start = time.perf_counter()
        admission = None
        if self.resilience is not None:
            admission = self.resilience.admit("score")
            if admission.state in ("cache_only", "shed"):
                reason = ("overload" if admission.state == "shed"
                          else "cache_only_miss")
                return self._shed("score", reason, admission, start)
            if admission.scorer_fail:
                return self._shed("score", "scorer_failure", admission,
                                  start)
        scores = self.store.model.score(h, r, t)
        self.stats.record("score", time.perf_counter() - start,
                          cache_hit=None)
        if admission is not None:
            self._complete(admission, self.slo.score_ms)
        return float(scores[0]) if scalar else scores

    # -- top-k link prediction ---------------------------------------------

    def topk_tails(self, h: int, r: int, k: int = 10,
                   filtered: bool | None = None) -> TopKResult:
        """The k best tails of ``(h, r, ?)``."""
        return self.topk_batch([(h, r)], k=k, filtered=filtered,
                               tail_side=True)[0]

    def topk_heads(self, t: int, r: int, k: int = 10,
                   filtered: bool | None = None) -> TopKResult:
        """The k best heads of ``(?, r, t)``."""
        return self.topk_batch([(t, r)], k=k, filtered=filtered,
                               tail_side=False)[0]

    def topk_batch(self, queries, k: int = 10,
                   filtered: bool | None = None,
                   tail_side: bool | None = True) -> list[TopKResult]:
        """Answer many ``(anchor, relation)`` queries, coalesced.

        ``queries`` is a sequence of ``(anchor, relation)`` pairs (with
        ``tail_side`` fixing the direction) or ``(anchor, relation,
        tail_side)`` triples (``tail_side=None`` here).  Every id is
        checked before the first query is admitted, so a rejected batch
        leaves no trace.  Cache hits are answered immediately; the misses
        are grouped per ``(relation, direction)`` and repeated anchors
        deduplicated.  Each dense group is scored in one block call; the
        binary groups are answered together, one stage-1 scan for the
        whole batch (:meth:`_window_topk_binary`).  Results come back in
        query order.

        Latency accounting: a dense group's scoring time is split evenly
        across the queries it answered, the binary groups' time across
        all of theirs, so percentiles reflect per-query service cost, not
        burst size.

        Under resilience the misses group per ``(relation, direction,
        route)`` — the ladder may send some queries of a batch through
        the binary tier and shed others — and each query's answer can be
        a :class:`ShedResponse` instead of a :class:`TopKResult`.
        """
        k = check_take("k", k)
        filt = self._resolve_filtered(filtered)
        parsed = []
        for query in queries:
            anchor, rel, side = (query if tail_side is None
                                 else (*query, tail_side))
            parsed.append((int(anchor), int(rel), bool(side)))
        self._check_ids([a for a, _, _ in parsed], [r for _, r, _ in parsed])
        results: list = [None] * len(parsed)
        groups: dict[tuple[int, bool, str], list] = {}

        for i, (anchor, rel, side) in enumerate(parsed):
            start = time.perf_counter()
            kind = "topk_tails" if side else "topk_heads"
            admission = None
            if self.resilience is not None:
                admission = self.resilience.admit(kind)
                if admission.state == "shed":
                    results[i] = self._shed(kind, "overload", admission,
                                            start)
                    continue
            route = self._route(admission.state if admission else None)
            key = (self._key_for(route), "tails" if side else "heads",
                   anchor, rel, k, filt)
            hit = self.cache.get(key)
            if hit is not None:
                results[i] = hit
                self.stats.record(kind, time.perf_counter() - start,
                                  cache_hit=True)
                if admission is not None:
                    self._complete(admission, self.slo.cache_ms)
            elif admission is not None and admission.state == "cache_only":
                results[i] = self._shed(kind, "cache_only_miss", admission,
                                        start)
            elif admission is not None and admission.scorer_fail:
                results[i] = self._shed(kind, "scorer_failure", admission,
                                        start)
            else:
                if admission is not None:
                    # Virtual cost is charged at admission (the route and
                    # its modeled cost are known now), keeping the queue
                    # strictly arrival-ordered: grouped scoring must not
                    # smear a window's service to the window boundary.
                    self._complete(admission, self.slo.service_ms(route))
                groups.setdefault((rel, side, route), []).append((i, anchor))

        pending = []
        for (rel, side, route), members in groups.items():
            # np.unique's sorted ids and inverse: block rows stay id-ordered.
            unique = sorted({a for _, a in members})
            slot = {a: u for u, a in enumerate(unique)}
            inverse = [slot[a] for _, a in members]
            unique = np.array(unique, dtype=np.int64)
            if route == "binary" and not self._sidecar_trusted():
                route = "dense"
            pending.append((rel, side, route, members, unique, inverse))

        binary = [(unique, rel, side)
                  for rel, side, route, _, unique, _ in pending
                  if route == "binary"]
        if binary:
            start = time.perf_counter()
            answered = iter(self._window_topk_binary(binary, k, filt))
            binary_share = (time.perf_counter() - start) / sum(
                len(members) for _, _, route, members, _, _ in pending
                if route == "binary")
        for rel, side, route, members, unique, inverse in pending:
            if route == "binary":
                scored, share = next(answered), binary_share
            else:
                start = time.perf_counter()
                scored = self._group_topk_dense(unique, rel, side, k, filt)
                share = (time.perf_counter() - start) / len(members)
            kind = "topk_tails" if side else "topk_heads"
            for (i, anchor), u in zip(members, inverse):
                result = scored[u]
                results[i] = result
                key = (self._key_for(route), "tails" if side else "heads",
                       anchor, rel, k, filt)
                self.cache.put(key, result)
                self.stats.record(kind, share, cache_hit=False)
        return results

    def _sidecar_trusted(self) -> bool:
        """The circuit breaker's check, once per binary group: a sidecar
        that fails its checksum trips the breaker, and the group that saw
        it is answered dense."""
        if self.resilience is None:
            return True
        try:
            self.resilience.check_sidecar()
        except (SidecarCorruptionError, ckpt.CheckpointChecksumError) as exc:
            self.resilience.trip_binary(str(exc))
            return False
        return True

    def _group_topk_dense(self, anchors: np.ndarray, rel: int,
                          tail_side: bool, k: int,
                          filtered: bool) -> list[TopKResult]:
        """One block scoring call for every anchor sharing a relation."""
        model = self.store.model
        rels = np.full(len(anchors), rel, dtype=np.int64)
        if tail_side:
            scores = model.score_all_tails(anchors, rels)
        else:
            scores = model.score_all_heads(rels, anchors)
        if filtered:
            scores, _ = scatter_known_nan(scores, self.store.filter_index,
                                          anchors, rels, tail_side=tail_side)
        return [_topk_row(scores[i], k) for i in range(len(anchors))]

    def _window_topk_binary(self, blocks, k: int,
                            filtered: bool) -> list[list[TopKResult]]:
        """Hamming candidate generation, then full-precision re-rank, for
        every binary group of one window at once.

        ``blocks`` holds one ``(unique anchors, relation, tail_side)`` per
        group; the answers come back per block, in anchor order.  The
        groups' queries stack into one block of rows: per direction one
        ``query_vector`` call and one filter lookup, one stage-1 scan of
        the packed codes for all rows, and per direction one
        ``score_candidates`` re-rank.  Every kernel on the way works row
        by row, so on a partial pool each answer is byte-identical to its
        query asked alone; a complete pool re-ranks group by group through
        the dense tier's block calls.
        """
        model, binary = self.store.model, self.store.binary
        n = self.store.n_entities
        anchors = np.concatenate([a for a, _, _ in blocks])
        rels = np.concatenate([np.full(len(a), rel, dtype=np.int64)
                               for a, rel, _ in blocks])
        tails = np.concatenate([np.full(len(a), side)
                                for a, _, side in blocks])
        sides = [(side, rows) for side in (True, False)
                 if len(rows := np.flatnonzero(tails == side))]
        m = len(anchors)

        # Stage 1: rank every entity by the scale-weighted per-byte LUT
        # score of the query vectors, keep the best rerank_k.
        t0 = time.perf_counter()
        vectors = np.empty((m, binary.width), dtype=np.float32)
        known_rows, known_cols = [], []
        for side, rows in sides:
            vectors[rows] = model.query_vector(anchors[rows], rels[rows],
                                               tail_side=side)
            if filtered:
                index = self.store.filter_index
                hit, cols, _ = (
                    index.known_tails(anchors[rows], rels[rows]) if side
                    else index.known_heads(rels[rows], anchors[rows]))
                known_rows.append(rows[hit])
                known_cols.append(cols)
        masked = ((np.concatenate(known_rows), np.concatenate(known_cols))
                  if filtered else None)
        pools, approx = binary.candidate_pools(vectors, self.rerank_k,
                                               masked=masked)
        candidate_s = time.perf_counter() - t0

        # Stage 2: full-precision re-rank of the pool only.
        t1 = time.perf_counter()
        if pools.shape[1] >= n:
            # Complete pool: the dense path *is* the re-rank — same block
            # calls per group, same NaN scatter, same tie-breaks, so the
            # result is bitwise identical to tier="dense".
            results = [result for a, rel, side in blocks
                       for result in self._group_topk_dense(a, rel, side, k,
                                                            filtered)]
        else:
            scores = np.empty(pools.shape, dtype=np.float32)
            for side, rows in sides:
                scores[rows] = model.score_candidates(
                    anchors[rows], rels[rows], pools[rows], tail_side=side)
            if filtered and len(masked[0]):
                # A partial pool only admits known facts once unknowns run
                # out; whichever slipped in are NaN-masked exactly like
                # the dense tier's scatter.
                known = np.zeros((m, n), dtype=bool)
                known[masked] = True
                scores[np.take_along_axis(known, pools, axis=1)] = np.nan
            results = []
            for pool, row in zip(pools, scores):
                # Pools are ascending-sorted, so ties break toward the
                # smaller entity id — the dense tier's contract.
                local = _topk_row(row, k)
                results.append(TopKResult(entities=pool[local.entities],
                                          scores=local.scores))
        rerank_s = time.perf_counter() - t1

        for result, pool, row in zip(results, pools, approx):
            self.stats.record_tier("binary", candidate_s / m, rerank_s / m,
                                   _agreement(result.entities, pool, row))
        bounds = np.cumsum([len(a) for a, _, _ in blocks])
        return [results[lo:hi] for lo, hi in zip([0, *bounds[:-1]], bounds)]

    # -- nearest neighbors ---------------------------------------------------

    def nearest_entities(self, e: int, k: int = 10, metric: str = "l2",
                         exclude_self: bool = True) -> TopKResult:
        """Embedding-space neighbors of entity ``e``.

        ``metric="l2"`` returns ascending Euclidean distances over the
        entity's full geometric coordinates; ``metric="cosine"`` returns
        descending cosine similarities.  A complex-valued model (ComplEx)
        stores ``[real | imag]`` halves — components are paired per
        complex coordinate via ``entity_components()``, never by reshaping
        the raw row (which would marry the real part of one coordinate to
        the imaginary part of another).  Ties break toward the smaller
        entity id, so an entity is always its own nearest neighbor when
        ``exclude_self=False``; a non-finite row is not a candidate.
        """
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; one of {METRICS}")
        k = check_take("k", k)
        e = int(e)
        self._check_ids([e], [])
        start = time.perf_counter()
        admission = None
        if self.resilience is not None:
            admission = self.resilience.admit("nearest")
            if admission.state == "shed":
                return self._shed("nearest", "overload", admission, start)
        key = ("nearest", e, metric, k, exclude_self)
        hit = self.cache.get(key)
        if hit is not None:
            self.stats.record("nearest", time.perf_counter() - start,
                              cache_hit=True)
            if admission is not None:
                self._complete(admission, self.slo.cache_ms)
            return hit
        if admission is not None and admission.state == "cache_only":
            return self._shed("nearest", "cache_only_miss", admission,
                              start)
        if admission is not None and admission.scorer_fail:
            return self._shed("nearest", "scorer_failure", admission, start)

        re, im = self.store.model.entity_components()
        if metric == "l2":
            diff = re - re[e]
            sq = np.einsum("ij,ij->i", diff, diff)
            if im is not None:
                diff_im = im - im[e]
                sq = sq + np.einsum("ij,ij->i", diff_im, diff_im)
            values = np.sqrt(sq)
            ranking = -values  # nearest first: best_first descends
        else:
            dots = re @ re[e]
            self_sq = re[e] @ re[e]
            norms_sq = np.einsum("ij,ij->i", re, re)
            if im is not None:
                dots = dots + im @ im[e]
                self_sq = self_sq + im[e] @ im[e]
                norms_sq = norms_sq + np.einsum("ij,ij->i", im, im)
            denom = np.sqrt(norms_sq) * np.sqrt(self_sq)
            values = dots / np.maximum(denom, 1e-12)
            ranking = values
        if exclude_self:
            # NaN is "not a candidate", exactly like a non-finite row.
            ranking = ranking.copy()
            ranking[e] = np.nan
        order = best_first(ranking, k)
        result = TopKResult(entities=order, scores=values[order])
        self.cache.put(key, result)
        self.stats.record("nearest", time.perf_counter() - start,
                          cache_hit=False)
        if admission is not None:
            self._complete(admission, self.slo.nearest_ms)
        return result

    # -- resilience ----------------------------------------------------------

    def _route(self, state: str | None) -> str:
        """The scoring route for one admitted query.

        Ladder state ``binary`` forces the 1-bit route; otherwise the
        engine's configured tier applies — downgraded to dense when the
        circuit breaker removed the binary rung (or the store simply has
        no sidecar).
        """
        binary_ok = self.store.binary is not None and (
            self.resilience is None or self.resilience.binary_available)
        if state == "binary" and binary_ok:
            return "binary"
        if self.tier == "binary" and binary_ok:
            return "binary"
        return "dense"

    def _key_for(self, route: str):
        return "dense" if route == "dense" else ("binary", self.rerank_k)

    def _shed(self, kind: str, reason: str, admission, start: float):
        """Refuse one query: typed response, taxonomy counted, virtual
        shed cost charged (shedding is cheap, not free)."""
        response = ShedResponse(kind=kind, reason=reason,
                                state=admission.state,
                                query_index=admission.index)
        self.stats.record(kind, time.perf_counter() - start, cache_hit=None)
        virtual = self.resilience.complete(admission, self.slo.shed_ms)
        self.stats.record_resilience(admission.state, virtual,
                                     shed_reason=reason)
        return response

    def _complete(self, admission, service_ms: float) -> None:
        """Charge one served query's virtual cost (plus any injected
        latency spike) and record its ladder-side telemetry."""
        virtual = self.resilience.complete(
            admission, service_ms + admission.spike_ms)
        self.stats.record_resilience(admission.state, virtual)

    # -- hot reload ----------------------------------------------------------

    def reload(self, checkpoint, model_name: str | None = None,
               dataset=None, with_binary: bool | None = None) -> dict:
        """Atomically swap the served snapshot for ``checkpoint``.

        ``checkpoint`` is a checkpoint path (resolved exactly like
        :meth:`EmbeddingStore.from_checkpoint`) or an already-built
        :class:`EmbeddingStore`.  The replacement — embeddings, binary
        sidecar, filter index — is **fully constructed and validated
        before the old store is touched**; any failure (corrupt arrays,
        checksum mismatch, wrong architecture, missing sidecar for a
        binary-tier engine, vocabulary drift under a grafted filter)
        raises and leaves the old store serving, cache intact.  On
        success, one install step swaps the store, invalidates the LRU
        cache (stale ``(tier, rerank_k)``-keyed answers must not survive
        the swap) and re-arms the circuit breaker.

        Defaults follow the running engine: same architecture, same
        binary-tier requirement; with no ``dataset``, the old filter
        index is grafted onto the new store when the entity vocabulary
        matches (and refused loudly when it does not).

        Reloading the very snapshot already served (same manifest digest)
        is a no-op — cache kept warm — so a reload poller is idempotent.
        Returns a summary dict (``swapped``, epochs, cache entries
        dropped).
        """
        old = self.store
        if isinstance(checkpoint, EmbeddingStore):
            new = checkpoint
        else:
            if with_binary is None:
                with_binary = self.tier == "binary" or old.binary is not None
            name = model_name or old.model_name or "complex"
            path = ckpt.resolve_checkpoint_dir(checkpoint)
            if ckpt.manifest_digest(path) == old.manifest_digest:
                return {"swapped": False, "reason": "same manifest digest",
                        "checkpoint": str(path), "epoch": old.epoch}
            new = EmbeddingStore.from_checkpoint(
                path, model_name=name, dataset=dataset,
                with_binary=with_binary)
        # -- validate the replacement against this engine's contract ------
        if self.tier == "binary" and new.binary is None:
            raise ValueError(
                "reload onto a store without a binary sidecar, but this "
                "engine serves tier='binary'; export a sidecar first or "
                "reload with with_binary=True")
        if new.binary is not None:
            check_geometry(new.binary, new)
        if new.filter_index is None and old.filter_index is not None:
            if new.n_entities != old.n_entities:
                raise ValueError(
                    f"cannot graft the old filter index: new checkpoint "
                    f"embeds {new.n_entities} entities, old store "
                    f"{old.n_entities}; pass dataset= to rebuild it")
            new.filter_index = old.filter_index
        # -- install: a single swap step after full validation -------------
        self.store = new
        dropped = self.cache.invalidate()
        if self.resilience is not None:
            self.resilience.arm_binary(new.binary is not None)
        self.stats.record_reload(old.epoch, new.epoch)
        return {"swapped": True, "old_epoch": old.epoch,
                "new_epoch": new.epoch,
                "checkpoint": new.checkpoint_path,
                "cache_entries_dropped": dropped}

    # -- misc ----------------------------------------------------------------

    def _check_ids(self, entities, rels) -> None:
        """Raise a ``ValueError`` naming the first entity id, then the
        first relation id, that is out of range."""
        for ids, n, what in ((entities, self.store.n_entities, "entity"),
                             (rels, self.store.n_relations, "relation")):
            ids = np.asarray(ids)
            bad = ids[(ids < 0) | (ids >= n)]
            if len(bad):
                raise ValueError(f"{what} id {bad[0]} outside [0, {n})")

    def snapshot(self) -> dict:
        """Telemetry summary: stats plus live cache counters."""
        out = self.stats.snapshot()
        out.update(cache_size=len(self.cache),
                   cache_capacity=self.cache.capacity,
                   cache_evictions=self.cache.evictions,
                   cache_invalidations=self.cache.invalidations)
        return out

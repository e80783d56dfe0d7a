"""The five workloads: inputs from a seed, set-up, and the timed window.

Everything here drives ``repro`` through its public API only.  Training
is a fixed amount of work (fixed epochs, no early stop, modelled compute
time); serving is a closed loop with one client that issues the next
16-query window when the previous one returned, over windows generated
from the seed before timing starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.comm.payload import dense_bytes
from repro.comm.topology import HierarchicalNetwork
from repro.kg.datasets import generate_latent_kg, make_fb15k_like
from repro.serve import (EmbeddingStore, QueryEngine, ShedResponse,
                         TrafficSpec, ZipfianTraffic)
from repro.serve import binary as serve_binary
from repro.serve.traffic import KIND_HEADS, KIND_SCORE, KIND_TAILS
from repro.training import checkpoint as ckpt
from repro.training.strategy import baseline_allreduce, drs_1bit_rp_ss
from repro.training.trainer import DistributedTrainer, TrainConfig

#: Nominal length of one timed window; ``units`` below are sized for it on
#: a 2-core machine with BLAS pinned to one thread.
RUN_SECONDS = 10
DEFAULT_SEED = 20220829
WINDOW = 16
TOPK = 10
HIER_NETWORK = "rpn=2,intra=0.3e-6:2e-11,inter=5e-6:1.25e-10"
#: Answers checked against a brute-force ranking, and queries compared
#: between the binary and the dense tier.
CHECKED_ANSWERS = 100
RECALL_QUERIES = 200


@dataclass(frozen=True)
class Workload:
    """One named set of inputs; ``units`` are epochs or query windows."""

    name: str
    family: str
    why: str
    graph: str
    units: int
    #: Fewest units that still exercise what the workload exists for.
    min_units: int
    ranks: int = 4
    full_method: bool = False
    hier_network: bool = False
    checkpoints: bool = False
    base_lr: float = 1e-3
    ss_warmup_epochs: int = -1
    binary_tier: bool = False
    entity_exponent: float = 1.0
    relation_exponent: float = 0.8
    reloads: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(
        "train_dense", "train",
        "dense allreduce baseline: score/grad, fold and Adam do the work; "
        "compress is never called, so a compression change must not move it",
        graph="G15k", units=15, min_units=2),
    Workload(
        "train_full", "train",
        "the paper's full method (DRS+1-bit+RP+SS, error feedback, hier "
        "network, checkpoint every epoch): compress, comm and checkpoint "
        "do most of their work here",
        graph="G15k", units=6, min_units=6, ranks=8, full_method=True,
        hier_network=True, checkpoints=True),
    Workload(
        "train_converge", "train",
        "same method on a small learnable graph: per-call overhead bound, "
        "and the only workload whose test MRR means something",
        graph="G1k", units=20, min_units=2, full_method=True,
        hier_network=True, base_lr=5e-3, ss_warmup_epochs=6),
    Workload(
        "serve_hot", "serve",
        "skewed read-only traffic on the dense tier: the cache answers "
        "most queries; binary tier, ladder and reload are bypassed",
        graph="G15k", units=1800, min_units=20,
        entity_exponent=1.6, relation_exponent=1.4),
    Workload(
        "serve_cold_reload", "serve",
        "uniform traffic on the binary tier with admission control and "
        "five snapshot swaps: stage-1 scan and re-rank do the work and "
        "writes sit beside reads",
        graph="G15k", units=600, min_units=20, binary_tier=True,
        entity_exponent=0.0, relation_exponent=0.8, reloads=5),
)}


def scaled_units(workload: Workload, seconds: float, smoke: bool) -> int:
    """Fixed work for a run: ``units`` scaled to the requested length."""
    if smoke:
        return 2 if workload.family == "train" else 500 // WINDOW
    return max(workload.min_units,
               round(workload.units * seconds / RUN_SECONDS))


def build_graph(kind: str, seed: int, smoke: bool):
    if smoke:
        return generate_latent_kg(300, 24, 2400, seed=seed)
    if kind == "G15k":
        # FB15K cardinality; not learnable in budget, throughput only.
        return generate_latent_kg(14951, 1345, 60000, seed=seed)
    return make_fb15k_like(scale=0.1, seed=seed)


@dataclass
class Outcome:
    """What one timed window produced."""

    wall_s: float
    #: Steps or queries completed, attempted and failed.
    ops: int
    attempted: int
    failed: int
    #: Caller-visible latency of each step or window.
    op_seconds: np.ndarray
    #: Mean loss of the last epoch of the workload's training run.
    final_loss: float
    #: Values that must repeat exactly for a fixed seed (``facts`` and more).
    exact: dict = field(default_factory=dict)
    #: Per-layer metrics read from the run's own results.
    facts: dict = field(default_factory=dict)
    #: (query, answer) pairs kept for the output check.
    answers: list = field(default_factory=list)
    #: The ``TrainResult`` of a timed training run.
    train_result: object = None


# -- training -----------------------------------------------------------------


def _trainer(workload: Workload, store, seed: int, epochs: int,
             ckpt_dir: Path | None) -> DistributedTrainer:
    if workload.full_method:
        strategy = replace(drs_1bit_rp_ss(5), error_feedback=True,
                           collective="auto", drs_probe_interval=2)
    else:
        strategy = baseline_allreduce(2)
    config = TrainConfig(
        dim=32, batch_size=512, eval_max_queries=200, seed=seed,
        max_epochs=epochs, lr_patience=epochs, base_lr=workload.base_lr,
        ss_warmup_epochs=workload.ss_warmup_epochs,
        compute_time_mode="modeled",
        checkpoint_dir=str(ckpt_dir) if ckpt_dir else None,
        checkpoint_every=1 if ckpt_dir else 0)
    network = (HierarchicalNetwork.parse(HIER_NETWORK)
               if workload.hier_network else None)
    return DistributedTrainer(store, strategy, workload.ranks, config=config,
                              network=network)


def setup_train(workload: Workload, seed: int, units: int, smoke: bool,
                workdir: Path) -> DistributedTrainer:
    """Graph, one untimed warm-up epoch on a throw-away trainer (builds
    the lazy ``FilterIndex``, initialises BLAS), then the real trainer."""
    store = build_graph(workload.graph, seed, smoke)
    _trainer(workload, store, seed, 1,
             workdir / "warm" if workload.checkpoints else None).run()
    return _trainer(workload, store, seed, units,
                    workdir / "ckpt" if workload.checkpoints else None)


def run_train(trainer: DistributedTrainer, recorder=None) -> Outcome:
    """Time one ``DistributedTrainer.run()`` call, everything included.

    Step latency is the gap between consecutive step starts, stamped at
    rank 0's ``compute_step`` call, so the validation and checkpoint work
    at an epoch boundary lands in the gap of the step before it.
    """
    if recorder is not None:
        recorder.trace_id = None
    stamps: list[float] = []
    lead = trainer.workers[0]
    compute_step = lead.compute_step

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return compute_step(*args, **kwargs)

    lead.compute_step = stamped
    start = time.perf_counter()
    try:
        result = trainer.run()
    finally:
        del lead.compute_step
    end = time.perf_counter()

    steps = result.allreduce_steps + result.hier_steps + result.allgather_steps
    attempted = trainer.config.max_epochs * trainer.steps_per_epoch
    by_hop = {hop: v[1] for hop, v in result.comm_by_hop.items()}
    strategy = trainer.strategy
    exchanged = dense_bytes(trainer.store.n_entities,
                            trainer.model.entity_emb.shape[1])
    if not strategy.relation_partition:
        exchanged += dense_bytes(trainer.store.n_relations,
                                 trainer.model.relation_emb.shape[1])
    switch = result.drs_switch_epoch
    probes = sum(1 for log in result.logs
                 if log.comm_mode != result.logs[0].comm_mode
                 and (not switch or log.epoch <= switch))
    facts = {
        "compress.wire_ratio": result.bytes_total / (steps * exchanged),
        "comm.bytes_per_step": result.bytes_total / steps,
        "comm.bytes_intra": by_hop.get("intra", 0),
        "comm.bytes_inter": by_hop.get("inter", 0),
        "comm.sim_comm_s": sum(log.comm_time for log in result.logs),
        "comm.retries": result.comm_retries,
        "comm.fallbacks": result.comm_fallbacks,
        "training.sim_train_s": result.total_time,
        "training.drs_switch_epoch": switch,
        "training.drs_probes": probes,
        "training.steps_allreduce": result.allreduce_steps,
        "training.steps_hier": result.hier_steps,
        "training.steps_allgather": result.allgather_steps,
        "eval.test_mrr": result.test_mrr,
    }
    return Outcome(
        wall_s=end - start, ops=steps, attempted=attempted,
        failed=attempted - steps + result.comm_fallbacks,
        op_seconds=np.diff(np.array(stamps + [end])),
        final_loss=result.logs[-1].loss,
        exact=dict(facts, final_loss=result.logs[-1].loss), facts=facts,
        train_result=result)


# -- serving ------------------------------------------------------------------


@dataclass
class ServeState:
    engine: QueryEngine
    #: Per window: (top-k queries, score triples, nearest-neighbour ids).
    windows: list
    #: Window index -> checkpoint the engine reloads before that window.
    reload_at: dict
    #: Last-epoch loss of the set-up training run behind the snapshots.
    final_loss: float


def _engine(workload: Workload, served: EmbeddingStore) -> QueryEngine:
    if workload.binary_tier:
        # Ladder on with a null fault plan: admission control is on the
        # path, and on this traffic it never sheds.
        return QueryEngine(served, tier="binary", rerank_k=1200,
                           cache_capacity=4096, resilience=True)
    return QueryEngine(served, cache_capacity=4096)


def _windows(workload: Workload, store, n_windows: int, seed: int) -> list:
    spec = TrafficSpec(entity_exponent=workload.entity_exponent,
                       relation_exponent=workload.relation_exponent)
    traffic = ZipfianTraffic(store.n_entities, store.n_relations, spec=spec,
                             seed=seed)
    out = []
    for batch in traffic.batches(n_windows * WINDOW, WINDOW):
        topk, score, nearest = [], [], []
        for kind, anchor, relation, other in batch.tolist():
            if kind == KIND_TAILS:
                topk.append((anchor, relation, True))
            elif kind == KIND_HEADS:
                topk.append((anchor, relation, False))
            elif kind == KIND_SCORE:
                score.append((anchor, relation, other))
            else:
                nearest.append(anchor)
        out.append((topk, score, nearest))
    return out


def setup_serve(workload: Workload, seed: int, units: int, smoke: bool,
                workdir: Path) -> ServeState:
    """Train two epochs -> checkpoint both -> export the binary sidecars
    -> load the newest snapshot -> 50 untimed warm-up windows on a
    throw-away engine -> the real engine and its pre-generated windows."""
    store = build_graph(workload.graph, seed, smoke)
    ckpt_dir = workdir / "ckpt"
    config = TrainConfig(dim=32, batch_size=512, eval_max_queries=200,
                         seed=seed, max_epochs=2, lr_patience=2,
                         checkpoint_dir=str(ckpt_dir), checkpoint_every=1)
    result = DistributedTrainer(store, baseline_allreduce(2), 4,
                                config=config).run()
    snapshots = [path for _, path in ckpt.list_checkpoints(ckpt_dir)]
    for path in snapshots:
        # Through the module, so an installed span sees the call.
        serve_binary.export_binary(path, model_name="complex")
    served = EmbeddingStore.from_checkpoint(
        snapshots[-1], model_name="complex", dataset=store, with_binary=True)

    # The warm-up stream has its own seed, so it fills no cache entry the
    # timed stream relies on.
    warm = ServeState(_engine(workload, served),
                      _windows(workload, store, min(50, units), seed + 1),
                      {}, result.logs[-1].loss)
    run_serve(warm)

    # The engine starts on the epoch-2 snapshot; reloads alternate epoch-1,
    # epoch-2, ... so each call sees a new manifest digest and really swaps.
    reload_at = {round(units * (k + 1) / (workload.reloads + 0.5)):
                 snapshots[k % 2] for k in range(workload.reloads)}
    return ServeState(_engine(workload, served),
                      _windows(workload, store, units, seed), reload_at,
                      result.logs[-1].loss)


def run_serve(state: ServeState, recorder=None) -> Outcome:
    """Replay every window through the engine, one after the other."""
    engine, reload_at = state.engine, state.reload_at
    latencies = np.empty(len(state.windows))
    answers: list = []
    sent = failed = swaps = 0
    clock = time.perf_counter
    start = clock()
    for i, (topk, score, nearest) in enumerate(state.windows):
        if recorder is not None:
            recorder.trace_id = i
        began = clock()
        if i in reload_at:
            swaps += engine.reload(reload_at[i])["swapped"]
        replies = []
        try:
            for triple in score:
                replies.append(engine.score(*triple))
            for entity in nearest:
                replies.append(engine.nearest_entities(entity, k=TOPK))
            if topk:
                ranked = engine.topk_batch(topk, k=TOPK, tail_side=None)
                replies.extend(ranked)
                if len(answers) < CHECKED_ANSWERS:
                    answers.extend(zip(topk, ranked))
        except Exception as exc:  # the replay must outlive one bad query
            print(f"window {i} raised {type(exc).__name__}: {exc}")
            failed += len(topk) + len(score) + len(nearest) - len(replies)
        failed += sum(isinstance(r, ShedResponse) for r in replies)
        sent += len(topk) + len(score) + len(nearest)
        latencies[i] = clock() - began
    wall = clock() - start

    snap = engine.snapshot()
    resilience = snap.get("resilience", {})
    facts = {
        "serve.cache_hit_ratio": snap["cache_hit_rate"],
        "serve.cache_evictions": snap["cache_evictions"],
        "serve.shed": resilience.get("shed_total", 0),
        "serve.transitions": resilience.get("n_transitions", 0),
    }
    exact = dict(facts, cache_hits=snap["cache_hits"],
                 cache_misses=snap["cache_misses"], reloads=swaps,
                 cache_invalidations=snap["cache_invalidations"])
    return Outcome(
        wall_s=wall, ops=sent - failed, attempted=sent, failed=failed,
        op_seconds=latencies, final_loss=state.final_loss,
        exact=exact, facts=facts, answers=answers[:CHECKED_ANSWERS])


def binary_recall_at_10(state: ServeState) -> float:
    """Top-10 overlap of the binary tier with the dense tier on the first
    ``RECALL_QUERIES`` top-k queries of the stream (caches off)."""
    served = state.engine.store
    queries = [q for topk, _, _ in state.windows for q in topk]
    queries = queries[:RECALL_QUERIES]
    dense = QueryEngine(served, cache_capacity=0).topk_batch(
        queries, k=TOPK, tail_side=None)
    binary = QueryEngine(served, tier="binary", rerank_k=1200,
                         cache_capacity=0).topk_batch(
        queries, k=TOPK, tail_side=None)
    return float(np.mean([
        len(np.intersect1d(d.entities, b.entities)) / max(len(d.entities), 1)
        for d, b in zip(dense, binary)]))


def brute_force_mismatches(state: ServeState, answers: list) -> int:
    """How many recorded top-k answers differ from ranking every entity
    with the block scorers and dropping the known facts by hand."""
    served = state.engine.store
    model, index = served.model, served.filter_index
    bad = 0
    for (anchor, relation, tail_side), answer in answers:
        a = np.array([anchor])
        r = np.array([relation])
        if tail_side:
            scores = model.score_all_tails(a, r)[0].copy()
            _, known, _ = index.known_tails(a, r)
        else:
            scores = model.score_all_heads(r, a)[0].copy()
            _, known, _ = index.known_heads(r, a)
        scores[known] = np.nan
        best = np.sort(scores[~np.isnan(scores)])[::-1][:TOPK]
        # Same scores in the same order, and each returned entity really
        # has its score: together, the same ids wherever scores differ.
        if not (len(answer.scores) == len(best)
                and np.allclose(answer.scores, best, rtol=1e-5, atol=1e-6)
                and np.allclose(scores[answer.entities], answer.scores,
                                rtol=1e-5, atol=1e-6)):
            bad += 1
    return bad

"""Which public callables are traced, and the per-layer metrics they give.

A layer is a package under ``src/repro``.  Every target feeds one
self-time bucket; ``<bucket>_s`` is that bucket's self time summed over the
timed window (``SETUP_BUCKETS`` also count the traced set-up, because the
work they time happens there).  Counts are taken at the same boundaries,
from the arguments and results the wrapped callables exchange.
"""

from __future__ import annotations

import statistics

from spans import END, START, TARGET, Recorder, Target

# -- work counts taken at the span boundaries --------------------------------


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_scored(counters, args, kwargs, result) -> None:
    _add(counters, "models.score_examples", len(result))


def _count_adam_rows(counters, args, kwargs, result) -> None:
    _add(counters, "optim.adam_rows", args[2].nnz_rows)


def _count_selected(counters, args, kwargs, result) -> None:
    _add(counters, "compress.rows_in", result[1].rows_in)
    _add(counters, "compress.rows_kept", result[1].rows_kept)


def _count_ranked(counters, args, kwargs, result) -> None:
    # One ranked triple is a head sweep and a tail sweep.
    _add(counters, "eval.queries", 2 * result.n_queries)


def _count_checkpoint_bytes(counters, args, kwargs, result) -> None:
    _add(counters, "training.ckpt_bytes",
         sum(f.stat().st_size for f in result.iterdir()))


def _count_export(counters, args, kwargs, result) -> None:
    _add(counters, "serve.binary_bytes", result[1]["binary_bytes"])
    _add(counters, "serve.dense_bytes", result[1]["dense_bytes"])


def _count_reload(counters, args, kwargs, result) -> None:
    _add(counters, "serve.reloads", int(result["swapped"]))
    _add(counters, "serve.cache_dropped",
         result.get("cache_entries_dropped", 0))


# -- trace ids: (epoch, step) while training ----------------------------------


def _epoch_started(recorder: Recorder, args, kwargs) -> None:
    if args[0].rank == 0:
        epoch = recorder.trace_id[0] if recorder.trace_id else 0
        recorder.trace_id = (epoch + 1, 0)


def _step_started(recorder: Recorder, args, kwargs) -> None:
    if args[0].rank == 0:
        recorder.trace_id = (recorder.trace_id[0], args[2])


_NEGATIVE = "repro.kg.negative"
_MODEL = "repro.models.base:KGEModel"
_QUANT = "repro.compress.quantization"
_EF = "repro.compress.error_feedback"
_COLL = "repro.comm.collectives"
_HIER = "repro.comm.hierarchical"
_WORKER = "repro.training.worker:Worker"
_CKPT = "repro.training.checkpoint"
_ENGINE = "repro.serve.engine:QueryEngine"
_CACHE = "repro.serve.cache:LRUCache"
_ADMIT = "repro.serve.resilience:ResilienceController"

TARGETS = [
    Target(_NEGATIVE, "corrupt_batch", "kg.negative"),
    Target(_NEGATIVE, "select_hardest", "kg.negative"),
    Target(_NEGATIVE, "select_all", "kg.negative"),
    Target(_NEGATIVE, "mask_known_candidates", "kg.negative"),
    Target("repro.kg.triples:TripleStore", "is_known", "kg.is_known"),
    Target("repro.kg.spmat", "build_fold_plan", "kg.fold_plan"),
    Target("repro.kg.spmat", "fold_rows", "kg.fold_rows"),
    Target("repro.kg.partition", "make_partition", "kg.partition"),
    Target(_MODEL, "score", "models.score", after=_count_scored),
    Target(_MODEL, "batch_gradients", "models.grad"),
    Target(_MODEL, "score_all_tails", "models.block"),
    Target(_MODEL, "score_all_heads", "models.block"),
    Target(_MODEL, "score_candidates", "models.candidates"),
    Target("repro.optim.adam:AdamState", "apply_sparse", "optim.adam",
           after=_count_adam_rows),
    Target("repro.compress.selection", "select", "compress.select",
           after=_count_selected),
    Target(_QUANT, "quantize", "compress.quantize"),
    Target(_QUANT, "quantization_error", "compress.quantize"),
    Target(_QUANT, "dequantize", "compress.dequantize"),
    Target(_EF + ":ResidualStore", "inject", "compress.ef"),
    Target(_EF + ":ResidualStore", "store", "compress.ef"),
    Target(_EF + ":ResidualStore", "clear", "compress.ef"),
    Target(_EF + ":NodeResiduals", "inject", "compress.ef"),
    Target(_EF + ":NodeResiduals", "store", "compress.ef"),
    Target("repro.comm.sparse", "combine_sparse", "comm.combine"),
    Target(_COLL, "allreduce_bytes", "comm.collective"),
    Target(_COLL, "allgatherv_bytes", "comm.collective"),
    Target(_COLL, "allgather_sparse", "comm.collective"),
    Target(_HIER, "hier_allreduce_bytes", "comm.collective"),
    Target(_HIER, "hier_intra_reduce_bytes", "comm.collective"),
    Target(_HIER, "hier_inter_ring_bytes", "comm.collective"),
    Target(_HIER, "hier_intra_gather_bytes", "comm.collective"),
    Target(_HIER, "hier_inter_allgatherv_bytes", "comm.collective"),
    Target(_HIER, "hier_intra_bcast_bytes", "comm.collective"),
    Target(_WORKER, "start_epoch", "training.compute_step",
           before=_epoch_started),
    Target(_WORKER, "compute_step", "training.compute_step",
           before=_step_started),
    Target("repro.training.trainer:DistributedTrainer", "run",
           "training.glue"),
    Target(_CKPT, "capture_state", "training.ckpt_capture"),
    Target(_CKPT, "write_checkpoint", "training.ckpt_write",
           after=_count_checkpoint_bytes),
    Target(_CKPT, "prune_checkpoints", "training.ckpt_write"),
    Target("repro.eval.ranking", "evaluate_ranking", "eval.rank",
           after=_count_ranked),
    Target("repro.eval.ranking", "scatter_known_nan", "eval.filter"),
    Target("repro.eval.classification", "evaluate_classification",
           "eval.classify"),
    Target("repro.serve.store:EmbeddingStore", "from_checkpoint",
           "serve.load"),
    Target("repro.serve.binary", "export_binary", "serve.export",
           after=_count_export),
    Target(_CACHE, "get", "serve.cache_get"),
    Target(_CACHE, "put", "serve.cache_put"),
    Target(_ENGINE, "topk_batch", "serve.engine"),
    Target(_ENGINE, "score", "serve.engine"),
    Target(_ENGINE, "nearest_entities", "serve.engine"),
    # Validation and install are the writer's share of a snapshot swap.
    Target(_ENGINE, "reload", "serve.load", after=_count_reload),
    Target("repro.serve.binary:BinaryStore", "candidate_pools",
           "serve.stage1"),
    Target(_ADMIT, "admit", "serve.admit"),
    Target(_ADMIT, "complete", "serve.admit"),
]

#: Buckets whose work sits in set-up, so the traced set-up counts too.
SETUP_BUCKETS = ("kg.partition", "serve.export", "serve.load")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("kg.negative_s", "s", "lower"),
    ("kg.negative_calls", "count", "lower"),
    ("kg.is_known_s", "s", "lower"),
    ("kg.fold_plan_s", "s", "lower"),
    ("kg.fold_rows_s", "s", "lower"),
    ("kg.fold_rows_calls", "count", "lower"),
    ("kg.partition_s", "s", "lower"),
    ("models.score_s", "s", "lower"),
    ("models.score_examples", "count", "lower"),
    ("models.grad_s", "s", "lower"),
    ("models.block_s", "s", "lower"),
    ("models.block_calls", "count", "lower"),
    ("models.candidates_s", "s", "lower"),
    ("optim.adam_s", "s", "lower"),
    ("optim.adam_rows", "count", "lower"),
    ("compress.select_s", "s", "lower"),
    ("compress.select_keep_ratio", "ratio", "lower"),
    ("compress.quantize_s", "s", "lower"),
    ("compress.dequantize_s", "s", "lower"),
    ("compress.quantize_calls", "count", "lower"),
    ("compress.ef_s", "s", "lower"),
    ("compress.wire_ratio", "ratio", "lower"),
    ("comm.combine_s", "s", "lower"),
    ("comm.combine_calls", "count", "lower"),
    ("comm.collective_s", "s", "lower"),
    ("comm.collective_calls", "count", "lower"),
    ("comm.bytes_per_step", "B", "lower"),
    ("comm.bytes_intra", "B", "lower"),
    ("comm.bytes_inter", "B", "lower"),
    ("comm.sim_comm_s", "sim_s", "lower"),
    ("comm.retries", "count", "lower"),
    ("comm.fallbacks", "count", "lower"),
    ("training.compute_step_s", "s", "lower"),
    ("training.glue_s", "s", "lower"),
    ("training.ckpt_capture_s", "s", "lower"),
    ("training.ckpt_write_s", "s", "lower"),
    ("training.ckpt_bytes", "B", "lower"),
    ("training.sim_train_s", "sim_s", "lower"),
    ("training.drs_switch_epoch", "epoch", "lower"),
    ("training.drs_probes", "count", "lower"),
    ("training.steps_allreduce", "count", "lower"),
    ("training.steps_hier", "count", "lower"),
    ("training.steps_allgather", "count", "higher"),
    ("eval.rank_s", "s", "lower"),
    ("eval.queries_per_s", "1/s", "higher"),
    ("eval.classify_s", "s", "lower"),
    ("eval.filter_s", "s", "lower"),
    ("eval.test_mrr", "mrr", "higher"),
    ("serve.load_s", "s", "lower"),
    ("serve.export_s", "s", "lower"),
    ("serve.binary_bytes_ratio", "ratio", "lower"),
    ("serve.cache_get_s", "s", "lower"),
    ("serve.cache_put_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.window_p50_ms", "ms", "lower"),
    ("serve.window_p99_ms", "ms", "lower"),
    ("serve.window_samples", "count", "higher"),
    ("serve.topk_call_p50_ms", "ms", "lower"),
    ("serve.score_call_p50_ms", "ms", "lower"),
    ("serve.nearest_call_p50_ms", "ms", "lower"),
    ("serve.engine_s", "s", "lower"),
    ("serve.stage1_s", "s", "lower"),
    ("serve.stage1_calls", "count", "lower"),
    ("serve.binary_recall_at_10", "ratio", "higher"),
    ("serve.admit_s", "s", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.transitions", "count", "lower"),
    ("serve.reload_p50_ms", "ms", "lower"),
    ("serve.reloads", "count", "lower"),
    ("serve.cache_dropped", "count", "lower"),
    ("trace.driver_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def layer_metrics(recorder: Recorder, run_facts: dict,
                  overhead_ratio: float) -> tuple[dict, float]:
    """Every ``PER_LAYER`` value of one traced run, and the coverage.

    ``run_facts`` are the values read from the run's own results
    (``TrainResult``, ``engine.snapshot()``), keyed by metric name.
    Coverage is the share of the timed window's wall time accounted for
    by the reported ``_s`` metrics; anything under 1 is a traced bucket
    that no metric reports.
    """
    spans = recorder.spans
    selfs = recorder.self_times()
    roots = recorder.roots()
    by_root = {spans[i][TARGET].bucket: i for i in set(roots)}
    run_root, setup_root = by_root["root.run"], by_root.get("root.setup")

    run_self: dict[str, float] = {}
    setup_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    wall: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for i, span in enumerate(spans):
        bucket = span[TARGET].bucket
        if roots[i] == setup_root:
            setup_self[bucket] = setup_self.get(bucket, 0.0) + selfs[i]
        elif roots[i] == run_root:
            run_self[bucket] = run_self.get(bucket, 0.0) + selfs[i]
            calls[bucket] = calls.get(bucket, 0) + 1
            length = span[END] - span[START]
            wall[bucket] = wall.get(bucket, 0.0) + length
            durations.setdefault(span[TARGET].name, []).append(length)

    def p50_ms(method: str) -> float:
        values = durations.get(f"repro.serve.engine.QueryEngine.{method}")
        return statistics.median(values) * 1e3 if values else 0.0

    counters = recorder.root_counters["run"]
    exported = recorder.root_counters.get("setup", {})
    out: dict = {}
    for name, unit, _ in PER_LAYER:
        out[name] = 0
        if unit == "s":
            bucket = name[:-len("_s")]
            out[name] = run_self.get(bucket, 0.0)
            if bucket in SETUP_BUCKETS:
                out[name] += setup_self.get(bucket, 0.0)
        elif name.endswith("_calls"):
            out[name] = calls.get(name[:-len("_calls")], 0)
    out.update(run_facts)
    out["trace.driver_s"] = run_self.get("root.run", 0.0)
    out["models.score_examples"] = counters.get("models.score_examples", 0)
    out["optim.adam_rows"] = counters.get("optim.adam_rows", 0)
    rows_in = counters.get("compress.rows_in", 0)
    out["compress.select_keep_ratio"] = (
        counters.get("compress.rows_kept", 0) / rows_in if rows_in else 0.0)
    out["training.ckpt_bytes"] = counters.get("training.ckpt_bytes", 0)
    rank_wall = wall.get("eval.rank", 0.0)
    out["eval.queries_per_s"] = (
        counters.get("eval.queries", 0) / rank_wall if rank_wall else 0.0)
    dense_bytes = exported.get("serve.dense_bytes", 0)
    out["serve.binary_bytes_ratio"] = (
        exported.get("serve.binary_bytes", 0) / dense_bytes
        if dense_bytes else 0.0)
    out["serve.topk_call_p50_ms"] = p50_ms("topk_batch")
    out["serve.score_call_p50_ms"] = p50_ms("score")
    out["serve.nearest_call_p50_ms"] = p50_ms("nearest_entities")
    out["serve.reload_p50_ms"] = p50_ms("reload")
    out["serve.reloads"] = counters.get("serve.reloads", 0)
    out["serve.cache_dropped"] = counters.get("serve.cache_dropped", 0)
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.spans"] = len(spans)

    reported = {name[:-len("_s")] for name, unit, _ in PER_LAYER
                if unit == "s"}
    reported.add("root.run")
    covered = sum(v for bucket, v in run_self.items() if bucket in reported)
    root_wall = spans[run_root][END] - spans[run_root][START]
    return out, covered / root_wall

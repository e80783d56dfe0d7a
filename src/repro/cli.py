"""Command-line interface: train one configuration and print the summary.

Examples
--------

Train the paper's full method on a simulated 4-node cluster::

    python -m repro --dataset fb15k --scale 0.02 --strategy DRS+1-bit+RP+SS \
        --nodes 4 --dim 16 --max-epochs 60

Compare against the baseline::

    python -m repro --dataset fb15k --scale 0.02 --strategy allreduce --nodes 4

Run a chaos scenario (one 3x straggler, 5% message drop, dense fallback)::

    python -m repro --strategy DRS+1-bit+RP+SS --nodes 4 \
        --faults "straggler=2:3.0,drop=0.05,policy=fallback-dense"

Train over a two-level topology (4 ranks per node, slow inter-node link)
with the hierarchical compression-aware collective stack::

    python -m repro --strategy DRS+1-bit+RP+SS --nodes 8 \
        --net "rpn=4,inter=5e-6:1.25e-10" --collective hier

Let the cost model pick per probe among flat ring, hierarchical and
allgather::

    python -m repro --strategy DRS+1-bit+RP+SS --nodes 8 \
        --net "rpn=4" --collective auto

Checkpoint every 5 epochs, then resume bitwise-exactly after a crash::

    python -m repro --strategy DRS+1-bit+RP+SS --nodes 4 \
        --checkpoint-dir ckpts --checkpoint-every 5
    python -m repro --strategy DRS+1-bit+RP+SS --nodes 4 --resume ckpts

Kill rank 2 at epoch 3 and recover automatically on the survivors::

    python -m repro --strategy DRS+1-bit+RP+SS --nodes 4 \
        --faults "rankloss=2:3" --elastic --max-restarts 2

Serve a trained checkpoint — answer top-10 tail queries and replay a
Zipfian traffic simulation against it::

    python -m repro serve --checkpoint ckpts --topk 10 --query 12,3
    python -m repro serve --checkpoint ckpts --simulate 100000

Export the 1-bit sidecar and serve from the binary memory tier (Hamming
candidate generation + full-precision re-rank of the best 512)::

    python -m repro export-binary --checkpoint ckpts
    python -m repro serve --checkpoint ckpts --tier binary --rerank-k 512 \
        --query 12,3

Chaos-test the serving layer — an overload burst plus latency spikes
under the SLO degradation ladder — and hot-reload a fresher checkpoint
halfway through the replay without dropping the engine::

    python -m repro serve --checkpoint ckpts --simulate 100000 \
        --serve-faults "burst=20000:30000:8,spike=0.02,spike_ms=25"
    python -m repro serve --checkpoint ckpts --simulate 100000 \
        --reload ckpts

Exit codes: 0 success, 2 bad checkpoint resume/serve/export or bad query,
3 training killed by an unrecovered collective fault or rank loss.
"""

from __future__ import annotations

import argparse
import json
import sys

import dataclasses

from .bench.calibration import BENCH_NETWORK
from .comm.faults import CollectiveFaultError, FaultPlan, RankLossError
from .comm.topology import HierarchicalNetwork
from .config import DEFAULT_SEED
from .kg.datasets import load_store, make_fb15k_like, make_fb250k_like
from .training.checkpoint import CheckpointError
from .training.elastic import ElasticSupervisor
from .training.strategy import COLLECTIVES, PRESETS
from .training.trainer import DistributedTrainer, TrainConfig

DATASETS = {"fb15k": make_fb15k_like, "fb250k": make_fb250k_like}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic Strategies for High "
                    "Performance Training of Knowledge Graph Embeddings' "
                    "(ICPP 2022)")
    parser.add_argument("--dataset", choices=sorted(DATASETS), default="fb15k",
                        help="synthetic dataset family (default: fb15k)")
    parser.add_argument("--dataset-file", metavar="PATH",
                        help="load a dataset saved with repro.kg.save_store "
                             "instead of generating one")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="dataset scale factor in (0, 1] (default: 0.02)")
    parser.add_argument("--strategy", choices=sorted(PRESETS),
                        default="allreduce",
                        help="strategy preset, Table 5 vocabulary")
    parser.add_argument("--nodes", type=int, default=1,
                        help="simulated cluster size (default: 1)")
    parser.add_argument("--negatives", type=int, default=None,
                        help="negatives per positive (preset default if "
                             "omitted)")
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--lr", type=float, default=2.5e-3)
    parser.add_argument("--max-epochs", type=int, default=60)
    parser.add_argument("--patience", type=int, default=6)
    parser.add_argument("--warmup", type=int, default=12)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--eval-chunk-entities", type=int, default=None,
                        metavar="N",
                        help="score at most N candidate entities at a time "
                             "during evaluation (bounds peak memory; "
                             "default: unchunked)")
    parser.add_argument("--faults", metavar="SPEC",
                        help="chaos scenario, e.g. 'drop=0.05,corrupt=0.01,"
                             "jitter=0.2,straggler=2:3.0,policy=fallback-dense'"
                             " (see repro.comm.faults.FaultPlan.parse)")
    parser.add_argument("--net", metavar="SPEC",
                        help="two-level network topology, e.g. "
                             "'rpn=4,intra=0.3e-6:2e-11,inter=5e-6:1.25e-10' "
                             "(see repro.comm.topology.HierarchicalNetwork"
                             ".parse; default: the flat benchmark network)")
    parser.add_argument("--collective", choices=sorted(COLLECTIVES),
                        default="flat",
                        help="dense collective stack: 'flat' single-level "
                             "ring, 'hier' two-level intra/inter with "
                             "hop-boundary re-quantization, 'auto' cost-model "
                             "choice (three-way DRS probe when dynamic; "
                             "default: flat)")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="write versioned checkpoints under DIR and "
                             "flush the last completed epoch if a fail-fast "
                             "fault kills the run")
    parser.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                        help="with --checkpoint-dir: checkpoint every N "
                             "completed epochs (default: 1)")
    parser.add_argument("--checkpoint-keep", type=int, default=2, metavar="N",
                        help="keep only the newest N routine checkpoints, "
                             "pruning older ones; failure snapshots are "
                             "always kept (0 = keep all; default: 2)")
    parser.add_argument("--elastic", action="store_true",
                        help="run under the elastic supervisor: recover "
                             "from rankloss fault events by rolling back "
                             "to the last completed epoch and continuing "
                             "on the survivors")
    parser.add_argument("--max-restarts", type=int, default=1, metavar="N",
                        help="with --elastic: rank losses to survive before "
                             "giving up (default: 1)")
    parser.add_argument("--allow-regrow", action="store_true",
                        help="with --elastic: re-admit a recovered rank at "
                             "the next epoch boundary instead of finishing "
                             "on the shrunk world")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume bitwise-exactly from a checkpoint "
                             "directory (or the newest checkpoint under "
                             "PATH); all settings except --max-epochs "
                             "and the checkpoint flags must match the "
                             "interrupted run")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of text")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    from .models import MODEL_REGISTRY
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve link-prediction queries from a training "
                    "checkpoint (read-only load; no world reconstruction)")
    parser.add_argument("--checkpoint", required=True, metavar="DIR",
                        help="checkpoint directory, or a parent directory "
                             "(the newest checkpoint under it is served)")
    parser.add_argument("--model", choices=sorted(MODEL_REGISTRY),
                        default="complex",
                        help="architecture that wrote the checkpoint "
                             "(default: complex)")
    parser.add_argument("--dataset", choices=sorted(DATASETS),
                        default="fb15k",
                        help="dataset family for the known-fact filter "
                             "(must match the training run)")
    parser.add_argument("--dataset-file", metavar="PATH",
                        help="load the filter dataset from a saved store")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--no-filter", action="store_true",
                        help="serve raw top-k without excluding known "
                             "facts (skips loading the dataset)")
    parser.add_argument("--topk", type=int, default=10)
    parser.add_argument("--cache-capacity", type=int, default=4096,
                        metavar="N",
                        help="LRU result-cache entries (0 disables; "
                             "default: 4096)")
    parser.add_argument("--chunk-entities", type=int, default=None,
                        metavar="N",
                        help="score at most N candidates at a time "
                             "(bounds peak memory)")
    parser.add_argument("--tier", choices=("dense", "binary"),
                        default="dense",
                        help="memory tier: 'dense' scores every candidate "
                             "in full precision, 'binary' generates "
                             "candidates by Hamming distance over the 1-bit "
                             "sidecar (`repro export-binary`) and re-ranks "
                             "only the best --rerank-k (default: dense)")
    parser.add_argument("--rerank-k", type=int, default=1024, metavar="K",
                        help="with --tier binary: candidate pool size the "
                             "full-precision re-rank scores; K >= the "
                             "entity count reproduces the dense tier "
                             "bitwise (default: 1024)")
    parser.add_argument("--query", action="append", default=[],
                        metavar="H,R", help="answer top-k tails of (H, R); "
                                            "repeatable")
    parser.add_argument("--query-heads", action="append", default=[],
                        metavar="T,R", help="answer top-k heads of (?, R, T)")
    parser.add_argument("--nearest", action="append", default=[],
                        metavar="E", help="answer k nearest neighbors of "
                                          "entity E (L2)")
    parser.add_argument("--simulate", type=int, default=0, metavar="N",
                        help="replay N Zipfian queries and report serving "
                             "telemetry")
    parser.add_argument("--zipf", type=float, default=1.0,
                        help="entity rank-frequency exponent of the "
                             "simulated traffic (default: 1.0)")
    parser.add_argument("--batch-size", type=int, default=64, metavar="N",
                        help="micro-batch window of the traffic replay "
                             "(default: 64)")
    parser.add_argument("--traffic-seed", type=int, default=0)
    parser.add_argument("--serve-faults", metavar="SPEC",
                        help="serve-side chaos scenario, e.g. 'spike=0.05,"
                             "spike_ms=25,fail=0.01,burst=1000:2000:8,"
                             "sidecar_corrupt=500' (see repro.serve."
                             "resilience.ServeFaultPlan.parse); enables "
                             "the SLO degradation ladder")
    parser.add_argument("--resilience", action="store_true",
                        help="enable the SLO admission controller and "
                             "degradation ladder even without --serve-faults")
    parser.add_argument("--slo-deadline-ms", type=float, default=10.0,
                        metavar="MS",
                        help="virtual p99 deadline driving the degradation "
                             "ladder's backlog thresholds (default: 10)")
    parser.add_argument("--stats-window", type=int, default=None, metavar="N",
                        help="bound latency telemetry to the most recent N "
                             "observations per window (exact percentiles "
                             "within the window); --simulate defaults to "
                             "8192, direct queries to unbounded")
    parser.add_argument("--reload", metavar="DIR",
                        help="with --simulate: hot-reload this checkpoint "
                             "halfway through the replay (the kill-and-keep-"
                             "serving demo); a failed reload keeps serving "
                             "the old snapshot")
    parser.add_argument("--json", action="store_true",
                        help="emit query answers and telemetry as JSON")
    return parser


def build_export_binary_parser() -> argparse.ArgumentParser:
    from .models import MODEL_REGISTRY
    parser = argparse.ArgumentParser(
        prog="repro export-binary",
        description="Binarize a trained checkpoint's entity matrix into a "
                    "checksummed binary.npz sidecar (1 bit per dimension + "
                    "one float32 scale per row) for the serving layer's "
                    "binary memory tier")
    parser.add_argument("--checkpoint", required=True, metavar="DIR",
                        help="checkpoint directory, or a parent directory "
                             "(the newest checkpoint under it is exported)")
    parser.add_argument("--model", choices=sorted(MODEL_REGISTRY),
                        default="complex",
                        help="architecture that wrote the checkpoint "
                             "(default: complex)")
    parser.add_argument("--stat", choices=("avg", "max"), default="avg",
                        help="per-row scale statistic (default: avg)")
    parser.add_argument("--json", action="store_true",
                        help="emit the export summary as JSON")
    return parser


def export_binary_main(argv: list[str]) -> int:
    from .serve import export_binary
    from .training.checkpoint import CheckpointError

    args = build_export_binary_parser().parse_args(argv)
    try:
        _, summary = export_binary(args.checkpoint, model_name=args.model,
                                   stat=args.stat)
    except (CheckpointError, ValueError) as exc:
        print(f"error: cannot export {args.checkpoint}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        for key, value in summary.items():
            if key == "memory_reduction":
                value = f"{value:.1f}x"
            print(f"{key:>18}: {value}")
    return 0


def _parse_id_pair(text: str, what: str) -> tuple[int, int]:
    try:
        first, second = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected two integers "
                         f"like '12,3'") from None
    return first, second


def serve_main(argv: list[str]) -> int:
    from .bench.harness import print_serve_table
    from .serve import EmbeddingStore, QueryEngine, ServeFaultPlan, \
        SLOConfig, TrafficSpec, ZipfianTraffic, replay
    from .training.checkpoint import CheckpointError

    args = build_serve_parser().parse_args(argv)

    dataset = None
    if not args.no_filter:
        if args.dataset_file:
            dataset = load_store(args.dataset_file)
        else:
            dataset = DATASETS[args.dataset](scale=args.scale,
                                             seed=args.seed)
    try:
        serve_faults = (ServeFaultPlan.parse(args.serve_faults)
                        if args.serve_faults else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resilience = args.resilience or serve_faults is not None
    slo = SLOConfig(deadline_ms=args.slo_deadline_ms) if resilience else None
    # A long replay should not grow telemetry without bound; direct query
    # mode keeps every observation.
    stats_window = args.stats_window
    if stats_window is None and args.simulate > 0:
        stats_window = 8192
    try:
        store = EmbeddingStore.from_checkpoint(
            args.checkpoint, model_name=args.model, dataset=dataset,
            with_binary=args.tier == "binary")
        engine = QueryEngine(store, cache_capacity=args.cache_capacity,
                             chunk_entities=args.chunk_entities,
                             tier=args.tier, rerank_k=args.rerank_k,
                             faults=serve_faults, slo=slo,
                             resilience=resilience or None,
                             stats_window=stats_window)
    except (CheckpointError, ValueError) as exc:
        print(f"error: cannot serve {args.checkpoint}: {exc}",
              file=sys.stderr)
        return 2
    out: dict = {"store": store.summary(), "answers": []}
    if not args.json:
        print(f"serving : {store.summary()}")
        if serve_faults is not None:
            print(f"faults  : {serve_faults.describe()}")

    try:
        queries = ([("tails", *_parse_id_pair(q, "--query"))
                    for q in args.query]
                   + [("heads", *_parse_id_pair(q, "--query-heads"))
                      for q in args.query_heads]
                   + [("nearest", int(e), -1) for e in args.nearest])
        for kind, a, r in queries:
            if kind == "tails":
                res = engine.topk_tails(a, r, k=args.topk)
                label = f"top-{args.topk} tails of ({a}, {r}, ?)"
            elif kind == "heads":
                res = engine.topk_heads(a, r, k=args.topk)
                label = f"top-{args.topk} heads of (?, {r}, {a})"
            else:
                res = engine.nearest_entities(a, k=args.topk)
                label = f"{args.topk} nearest neighbors of entity {a}"
            if not hasattr(res, "entities"):
                # Resilience shed the query (typed ShedResponse).
                answer = {"query": label, "shed": res.reason,
                          "state": res.state}
                out["answers"].append(answer)
                if not args.json:
                    print(f"\n{label}: shed ({res.reason}, "
                          f"state={res.state})")
                continue
            answer = {"query": label,
                      "entities": [int(e) for e in res.entities],
                      "scores": [float(s) for s in res.scores]}
            out["answers"].append(answer)
            if not args.json:
                print(f"\n{label}:")
                for entity, value in zip(answer["entities"],
                                         answer["scores"]):
                    print(f"  {entity:>8}  {value:.6f}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.simulate > 0:
        traffic = ZipfianTraffic(
            store.n_entities, store.n_relations,
            spec=TrafficSpec(entity_exponent=args.zipf),
            seed=args.traffic_seed,
            bursts=serve_faults.bursts if serve_faults else ())
        if args.reload:
            # Kill-and-keep-serving demo: replay half the traffic, swap
            # the checkpoint under live load, replay the rest.  A failed
            # reload is reported but never stops serving.
            first_half = args.simulate // 2
            replay(engine, traffic, first_half,
                   batch_size=args.batch_size, topk=args.topk)
            try:
                reload_info = engine.reload(args.reload, dataset=dataset)
            except (CheckpointError, ValueError) as exc:
                reload_info = {"swapped": False, "error": str(exc)}
            out["reload"] = reload_info
            if not args.json:
                print(f"reload  : {reload_info}")
            snapshot = replay(engine, traffic, args.simulate - first_half,
                              batch_size=args.batch_size, topk=args.topk)
        else:
            snapshot = replay(engine, traffic, args.simulate,
                              batch_size=args.batch_size, topk=args.topk)
        out["telemetry"] = snapshot
        if not args.json:
            print_serve_table(
                f"serve traffic ({args.simulate} Zipfian queries)",
                [snapshot])
            res = snapshot.get("resilience")
            if res is not None:
                print(f"ladder  : state={engine.resilience.state} "
                      f"by_state={res['by_state']} shed={res['shed']} "
                      f"transitions={res['n_transitions']} "
                      f"breaker_trips={res['breaker_trips']} "
                      f"reloads={res['reloads']}")
            if snapshot.get("errors"):
                print(f"errors  : {snapshot['errors']} "
                      f"(first: {snapshot['first_error']})")
    if args.json:
        json.dump(out, sys.stdout, indent=2)
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "export-binary":
        return export_binary_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.dataset_file:
        store = load_store(args.dataset_file)
    else:
        store = DATASETS[args.dataset](scale=args.scale, seed=args.seed)

    maker = PRESETS[args.strategy]
    strategy = maker(args.negatives) if args.negatives is not None else maker()
    if args.collective != "flat":
        strategy = dataclasses.replace(strategy, collective=args.collective)

    try:
        network = (HierarchicalNetwork.parse(args.net) if args.net
                   else BENCH_NETWORK)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = TrainConfig(dim=args.dim, batch_size=args.batch_size,
                         base_lr=args.lr, max_epochs=args.max_epochs,
                         lr_patience=args.patience,
                         lr_warmup_epochs=args.warmup, seed=args.seed,
                         eval_chunk_entities=args.eval_chunk_entities,
                         time_scale=2.0e5,
                         checkpoint_dir=args.checkpoint_dir,
                         checkpoint_every=(args.checkpoint_every
                                           if args.checkpoint_dir else 0),
                         checkpoint_keep=args.checkpoint_keep)

    try:
        faults = FaultPlan.parse(args.faults) if args.faults else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.json:
        print(f"dataset : {store.summary()}")
        print(f"strategy: {args.strategy} on {args.nodes} simulated node(s)")
        if args.net:
            print(f"network : {network.describe()} "
                  f"(collective={strategy.collective})")
        if faults is not None:
            print(f"faults  : {faults.describe()}")
        if args.elastic:
            print(f"elastic : max_restarts={args.max_restarts} "
                  f"regrow={'on' if args.allow_regrow else 'off'}")

    if args.elastic:
        supervisor = ElasticSupervisor(
            store, strategy, args.nodes, config=config,
            network=network, faults=faults,
            max_restarts=args.max_restarts,
            allow_regrow=args.allow_regrow)
        runner = supervisor.run
    else:
        trainer = DistributedTrainer(store, strategy, args.nodes,
                                     config=config, network=network,
                                     faults=faults)
        if args.resume:
            try:
                resumed_epoch = trainer.restore(args.resume)
            except CheckpointError as exc:
                print(f"error: cannot resume from {args.resume}: {exc}",
                      file=sys.stderr)
                return 2
            if not args.json:
                print(f"resume  : epoch {resumed_epoch} ({args.resume})")
        runner = trainer.run
    try:
        result = runner()
    except RankLossError as exc:
        print(f"error: rank loss killed training "
              f"(rank={exc.rank}, epoch={exc.epoch}): {exc}",
              file=sys.stderr)
        return 3
    except CollectiveFaultError as exc:
        print(f"error: collective fault killed training "
              f"(collective={exc.op}, rank={exc.rank}, epoch={exc.epoch}): "
              f"{exc}", file=sys.stderr)
        return 3

    if args.elastic and not args.json:
        for event in result.recovery_log:
            print(f"recovery: {event['action']} rank {event['rank']} at "
                  f"epoch {event['epoch']} -> world {event['world_after']}, "
                  f"resume epoch {event['resume_epoch']}")

    row = result.summary_row()
    row.update(converged=result.converged,
               bytes_communicated=result.bytes_total,
               allreduce_fraction=round(result.allreduce_fraction, 3),
               eval_seconds=round(result.eval_seconds, 3),
               eval_queries_per_sec=round(result.eval_queries_per_sec, 1))
    if strategy.collective != "flat":
        row.update(hier_steps=result.hier_steps,
                   comm_by_hop={hop: [v[0], v[1], round(v[2], 6), v[3]]
                                for hop, v in result.comm_by_hop.items()})
    if faults is not None:
        row.update(comm_retries=result.comm_retries,
                   comm_fallbacks=result.comm_fallbacks,
                   straggler_skew=round(result.straggler_skew, 4),
                   drs_switch_epoch=result.drs_switch_epoch)
    if args.elastic:
        row.update(restarts=result.restarts,
                   world_lineage=result.world_lineage,
                   recovery_hours=result.recovery_time / 3600.0,
                   recovery_log=result.recovery_log)
    if args.json:
        json.dump(row, sys.stdout, indent=2)
        print()
    else:
        print()
        for key, value in row.items():
            print(f"{key:>20}: {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

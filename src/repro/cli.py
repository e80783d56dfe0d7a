"""Command-line interface: train, serve and export.

``python -m repro ...`` trains one configuration and prints its summary,
``python -m repro serve ...`` answers link-prediction queries from a
checkpoint, and ``python -m repro export-binary ...`` writes a checkpoint's
1-bit sidecar.  Each command's parser is assembled from argparse parents
for the options commands share — dataset (``--dataset``,
``--dataset-file``, ``--scale``, ``--seed``), snapshot (``--checkpoint``,
``--model``) and output (``--json``) — plus its own.  ``--dataset-file``
takes a ``repro.kg.save_store`` file or an OpenKE directory.  README.md
tours the flags; for example::

    python -m repro --strategy DRS+1-bit+RP+SS --nodes 4 --max-epochs 60 \
        --checkpoint-dir ckpts --checkpoint-every 5
    python -m repro --strategy DRS+1-bit+RP+SS --nodes 4 --resume ckpts
    python -m repro --dataset-file FB15K/ --strategy allreduce --nodes 4
    python -m repro --strategy DRS+1-bit+RP+SS --nodes 8 \
        --net "rpn=4,inter=5e-6:1.25e-10" --collective hier \
        --faults "rankloss=2:3" --elastic --max-restarts 2
    python -m repro export-binary --checkpoint ckpts
    python -m repro serve --checkpoint ckpts --tier binary --rerank-k 512 \
        --query 12,3 --simulate 100000 --reload ckpts

Exit codes: 0 success; 2 bad input — a flag, dataset, checkpoint or query
the command refuses, reported as one ``error: ...`` line before training
starts; 3 training killed by an unrecovered collective fault or rank loss.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .bench.calibration import BENCH_NETWORK
from .bench.harness import print_serve_table
from .comm.faults import CollectiveFaultError, FaultPlan, RankLossError
from .comm.network import NetworkModel
from .config import DEFAULT_SEED
from .kg.datasets import load_store, make_fb15k_like, make_fb250k_like
from .kg.io import load_openke_dir
from .kg.triples import TripleStore
from .models import MODEL_REGISTRY
from .serve import (EmbeddingStore, QueryEngine, ServeFaultPlan, SLOConfig,
                    TrafficSpec, ZipfianTraffic, export_binary, replay)
from .training.checkpoint import CheckpointError
from .training.elastic import ElasticSupervisor
from .training.strategy import COLLECTIVES, PRESETS
from .training.trainer import DistributedTrainer, TrainConfig

DATASETS = {"fb15k": make_fb15k_like, "fb250k": make_fb250k_like}


# -- options shared by several commands (argparse parents) -----------------

def _dataset_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--dataset", choices=sorted(DATASETS), default="fb15k",
                        help="synthetic dataset family; serving filters "
                             "known facts with it, so it must match the "
                             "training run (default: fb15k)")
    parent.add_argument("--dataset-file", metavar="PATH",
                        help="load the dataset from a file saved with "
                             "repro.kg.save_store, or from an OpenKE "
                             "directory (entity2id.txt, relation2id.txt, "
                             "train2id.txt, valid2id.txt, test2id.txt), "
                             "instead of generating one")
    parent.add_argument("--scale", type=float, default=0.02,
                        help="dataset scale factor in (0, 1] (default: 0.02)")
    parent.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parent


def _snapshot_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--checkpoint", required=True, metavar="DIR",
                        help="checkpoint directory, or a parent directory "
                             "(the newest checkpoint under it is used)")
    parent.add_argument("--model", choices=sorted(MODEL_REGISTRY),
                        default="complex",
                        help="architecture that wrote the checkpoint "
                             "(default: complex)")
    return parent


def _output_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of text")
    return parent


# -- per-command parsers ---------------------------------------------------

def _train_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic Strategies for High "
                    "Performance Training of Knowledge Graph Embeddings' "
                    "(ICPP 2022)",
        parents=[_dataset_options(), _output_options()])
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
    parser.add_argument("--faults", metavar="SPEC",
                        help="chaos scenario, e.g. 'drop=0.05,corrupt=0.01,"
                             "jitter=0.2,straggler=2:3.0,policy=fallback-dense'"
                             " (see repro.comm.faults.FaultPlan.parse)")
    parser.add_argument("--net", metavar="SPEC",
                        help="network topology, e.g. "
                             "'rpn=4,intra=0.3e-6:2e-11,inter=5e-6:1.25e-10' "
                             "(rpn=1 is flat; see repro.comm.network."
                             "NetworkModel.parse; default: the flat "
                             "benchmark network)")
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
                             "interrupted run; not with --elastic")
    return parser


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve link-prediction queries from a training "
                    "checkpoint (read-only load; no world reconstruction)",
        parents=[_snapshot_options(), _dataset_options(), _output_options()])
    parser.add_argument("--no-filter", action="store_true",
                        help="serve raw top-k without excluding known "
                             "facts (skips loading the dataset)")
    parser.add_argument("--topk", type=int, default=10)
    parser.add_argument("--cache-capacity", type=int, default=4096,
                        metavar="N",
                        help="LRU result-cache entries (0 disables; "
                             "default: 4096)")
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
    return parser


def _export_binary_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro export-binary",
        description="Binarize a trained checkpoint's entity matrix into a "
                    "checksummed binary.npz sidecar (1 bit per dimension + "
                    "one float32 scale per row) for the serving layer's "
                    "binary memory tier",
        parents=[_snapshot_options(), _output_options()])
    parser.add_argument("--stat", choices=("avg", "max"), default="avg",
                        help="per-row scale statistic (default: avg)")
    return parser


# -- bad input -------------------------------------------------------------

class _Refused(Exception):
    """Bad input, worded for the user: ``main`` prints it and exits 2."""


@contextlib.contextmanager
def _refusing(context: str = ""):
    """Re-raise bad input met inside — a ``ValueError``, ``OSError`` or
    ``CheckpointError`` — as :class:`_Refused`, prefixed by ``context``."""
    try:
        yield
    except (ValueError, OSError, CheckpointError) as exc:
        raise _Refused(f"{context}{exc}") from exc


def _load_dataset(args: argparse.Namespace) -> TripleStore:
    """The store ``--dataset-file`` names — a ``save_store`` file or an
    OpenKE directory — else the synthetic ``--dataset`` family."""
    if args.dataset_file is None:
        return DATASETS[args.dataset](scale=args.scale, seed=args.seed)
    if os.path.isdir(args.dataset_file):
        return load_openke_dir(args.dataset_file)
    return load_store(args.dataset_file)


def _parse_id_pair(text: str, what: str) -> tuple[int, int]:
    try:
        first, second = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected two integers "
                         f"like '12,3'") from None
    return first, second


# -- commands --------------------------------------------------------------

def _train(args: argparse.Namespace) -> None:
    with _refusing():
        if args.elastic and args.resume:
            raise ValueError("--resume cannot be combined with --elastic: "
                             "the elastic supervisor always starts from "
                             "epoch 0")
        store = _load_dataset(args)
        maker = PRESETS[args.strategy]
        strategy = (maker(args.negatives) if args.negatives is not None
                    else maker())
        if args.collective != "flat":
            strategy = dataclasses.replace(strategy,
                                           collective=args.collective)
        network = (NetworkModel.parse(args.net) if args.net
                   else BENCH_NETWORK)
        config = TrainConfig(dim=args.dim, batch_size=args.batch_size,
                             base_lr=args.lr, max_epochs=args.max_epochs,
                             lr_patience=args.patience,
                             lr_warmup_epochs=args.warmup, seed=args.seed,
                             time_scale=2.0e5,
                             checkpoint_dir=args.checkpoint_dir,
                             checkpoint_every=(args.checkpoint_every
                                               if args.checkpoint_dir else 0),
                             checkpoint_keep=args.checkpoint_keep)
        faults = FaultPlan.parse(args.faults) if args.faults else None
        if args.elastic:
            job = ElasticSupervisor(
                store, strategy, args.nodes, config=config,
                network=network, faults=faults,
                max_restarts=args.max_restarts,
                allow_regrow=args.allow_regrow)
        else:
            job = DistributedTrainer(store, strategy, args.nodes,
                                     config=config, network=network,
                                     faults=faults)
    if args.resume:
        with _refusing(f"cannot resume from {args.resume}: "):
            resumed_epoch = job.restore(args.resume)

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
        if args.resume:
            print(f"resume  : epoch {resumed_epoch} ({args.resume})")

    # The training run: anything but a collective fault raised from here
    # on is a bug, not bad input, and propagates.
    result = job.run()

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


@_refusing()
def _serve(args: argparse.Namespace) -> None:
    dataset = None if args.no_filter else _load_dataset(args)
    serve_faults = (ServeFaultPlan.parse(args.serve_faults)
                    if args.serve_faults else None)
    resilience = args.resilience or serve_faults is not None
    slo = SLOConfig(deadline_ms=args.slo_deadline_ms) if resilience else None
    # A long replay should not grow telemetry without bound; direct query
    # mode keeps every observation.
    stats_window = args.stats_window
    if stats_window is None and args.simulate > 0:
        stats_window = 8192
    with _refusing(f"cannot serve {args.checkpoint}: "):
        store = EmbeddingStore.from_checkpoint(
            args.checkpoint, model_name=args.model, dataset=dataset,
            with_binary=args.tier == "binary")
        engine = QueryEngine(store, cache_capacity=args.cache_capacity,
                             tier=args.tier, rerank_k=args.rerank_k,
                             faults=serve_faults, slo=slo,
                             resilience=resilience or None,
                             stats_window=stats_window)
    out: dict = {"store": store.summary(), "answers": []}
    if not args.json:
        print(f"serving : {store.summary()}")
        if serve_faults is not None:
            print(f"faults  : {serve_faults.describe()}")

    queries = ([("tails", *_parse_id_pair(q, "--query")) for q in args.query]
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
                print(f"\n{label}: shed ({res.reason}, state={res.state})")
            continue
        answer = {"query": label,
                  "entities": [int(e) for e in res.entities],
                  "scores": [float(s) for s in res.scores]}
        out["answers"].append(answer)
        if not args.json:
            print(f"\n{label}:")
            for entity, value in zip(answer["entities"], answer["scores"]):
                print(f"  {entity:>8}  {value:.6f}")

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


def _export_binary(args: argparse.Namespace) -> None:
    with _refusing(f"cannot export {args.checkpoint}: "):
        _, summary = export_binary(args.checkpoint, model_name=args.model,
                                   stat=args.stat)
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        for key, value in summary.items():
            if key == "memory_reduction":
                value = f"{value:.1f}x"
            print(f"{key:>18}: {value}")


#: Each command's parser builder and runner; ``train`` is the bare
#: ``python -m repro ...`` form.
COMMANDS = {
    "train": (_train_parser, _train),
    "serve": (_serve_parser, _serve),
    "export-binary": (_export_binary_parser, _export_binary),
}


def build_parser(command: str = "train") -> argparse.ArgumentParser:
    """The argument parser of one of :data:`COMMANDS`."""
    return COMMANDS[command][0]()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = "train"
    if argv and argv[0] in COMMANDS.keys() - {"train"}:
        command = argv.pop(0)
    build, run = COMMANDS[command]
    args = build().parse_args(argv)
    try:
        run(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CollectiveFaultError as exc:  # RankLossError included
        where = f"rank={exc.rank}, epoch={exc.epoch}"
        if isinstance(exc, RankLossError):
            what = f"rank loss killed training ({where})"
        else:
            what = (f"collective fault killed training "
                    f"(collective={exc.op}, {where})")
        print(f"error: {what}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Experiment harness: run strategy sweeps and print paper-style tables.

Every benchmark file builds on these helpers so each table/figure is a small
declarative description: dataset, strategies, node counts.  Datasets and
training runs are cached per-process keyed by their full parameterisation,
because several figures share workloads (e.g. Table 1 and Figures 1a/8 use
the same baseline runs).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..comm.faults import FaultPlan
from ..comm.network import NetworkModel
from ..kg.datasets import make_fb15k_like, make_fb250k_like
from ..kg.triples import TripleStore
from ..training.elastic import ElasticSupervisor
from ..training.strategy import StrategyConfig
from ..training.trainer import DistributedTrainer, TrainConfig
from ..training.metrics import TrainResult
from .calibration import BENCH_NETWORK, active_profile, train_config

_STORE_CACHE: dict = {}
_RUN_CACHE: dict = {}


def bench_store(which: str, scale: float | None = None,
                seed: int | None = None) -> TripleStore:
    """Cached dataset for the active profile (``which`` in fb15k/fb250k)."""
    profile = active_profile()
    if which == "fb15k":
        scale = scale if scale is not None else profile.fb15k_scale
        maker = make_fb15k_like
    elif which == "fb250k":
        scale = scale if scale is not None else profile.fb250k_scale
        maker = make_fb250k_like
    else:
        raise ValueError(f"unknown dataset {which!r}; use 'fb15k' or 'fb250k'")
    key = (which, scale, seed)
    if key not in _STORE_CACHE:
        kwargs = {} if seed is None else {"seed": seed}
        _STORE_CACHE[key] = maker(scale=scale, **kwargs)
    return _STORE_CACHE[key]


def run_once(store: TripleStore, strategy: StrategyConfig, n_nodes: int,
             config: TrainConfig | None = None,
             network: NetworkModel | None = None,
             faults: FaultPlan | None = None,
             elastic: bool = False, max_restarts: int = 1,
             allow_regrow: bool = False) -> TrainResult:
    """Train one configuration, memoised on its full parameterisation.

    With ``elastic``, the run goes through the
    :class:`~repro.training.elastic.ElasticSupervisor` so planned rank
    losses are recovered instead of fatal (the recovery overhead lands in
    ``TrainResult.recovery_time``).
    """
    config = config or train_config(active_profile())
    network = network or BENCH_NETWORK
    key = (id(store), strategy, n_nodes, tuple(sorted(vars(config).items())),
           network, faults, elastic, max_restarts, allow_regrow)
    if key not in _RUN_CACHE:
        if elastic:
            _RUN_CACHE[key] = ElasticSupervisor(
                store, strategy, n_nodes, config=config, network=network,
                faults=faults, max_restarts=max_restarts,
                allow_regrow=allow_regrow).run()
        else:
            _RUN_CACHE[key] = DistributedTrainer(
                store, strategy, n_nodes, config=config, network=network,
                faults=faults).run()
    return _RUN_CACHE[key]


def sweep(store: TripleStore, strategies: dict[str, StrategyConfig],
          node_counts: list[int],
          config: TrainConfig | None = None,
          faults: FaultPlan | None = None) -> dict[str, list[TrainResult]]:
    """Run every (strategy, node-count) cell; return results per strategy."""
    return {
        name: [run_once(store, strat, p, config=config, faults=faults)
               for p in node_counts]
        for name, strat in strategies.items()
    }


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_table(title: str, header: list[str], rows: list[list],
                widths: list[int] | None = None) -> None:
    """Aligned plain-text table (what the benchmark stdout shows)."""
    widths = widths or [max(len(str(h)), 10) for h in header]
    line = "  ".join(f"{h:>{w}}" for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        cells = []
        for value, w in zip(row, widths):
            if isinstance(value, float):
                if value != 0.0 and abs(value) < 5e-3:
                    cells.append(f"{value:>{w}.2e}")
                else:
                    cells.append(f"{value:>{w}.3f}")
            else:
                cells.append(f"{str(value):>{w}}")
        print("  ".join(cells))


def print_baseline_table(title: str, results_ar: list[TrainResult],
                         results_ag: list[TrainResult],
                         paper_ar, paper_ag) -> None:
    """Tables 1/2 format: measured next to the paper's numbers."""
    header = ["nodes", "TT(h)", "N", "TCA", "MRR",
              "paper TT", "paper N", "paper TCA", "paper MRR"]
    for label, results, paper in (("all-reduce", results_ar, paper_ar),
                                  ("all-gather", results_ag, paper_ag)):
        rows = []
        for res, ref in zip(results, paper):
            rows.append([res.n_nodes, res.total_hours, res.epochs,
                         res.test_tca, res.test_mrr,
                         ref.tt_hours, ref.epochs, ref.tca, ref.mrr])
        print_table(f"{title} [{label}]", header, rows)


def print_series(title: str, x_label: str, xs: list,
                 series: dict[str, list[float]]) -> None:
    """Figure format: one x column plus one column per curve."""
    header = [x_label] + list(series)
    rows = [[x] + [series[name][i] for name in series]
            for i, x in enumerate(xs)]
    print_table(title, header, rows)


def hop_breakdown(result: TrainResult) -> str:
    """Compact per-hop comm-time split, e.g. ``intra:0.8s inter:1.2s``.

    Hierarchical runs split their charges across the intra/inter hops
    (see ``repro.comm.simulator.CommStats.by_hop``); flat runs collapse
    to the single ``flat`` hop.  Empty stats render as ``-``.
    """
    parts = []
    for hop in ("flat", "intra", "inter"):
        entry = result.comm_by_hop.get(hop)
        if entry and entry[0] > 0:
            parts.append(f"{hop}:{entry[2]:.2g}s")
    return " ".join(parts) if parts else "-"


def fault_summary_row(result: TrainResult) -> dict:
    """Chaos-relevant columns of one run: retries, skew, DRS switch epoch."""
    return {
        "method": result.strategy_label,
        "nodes": result.n_nodes,
        "retries": result.comm_retries,
        "fallbacks": result.comm_fallbacks,
        "straggler_skew": round(result.straggler_skew, 4),
        "drs_switch_epoch": result.drs_switch_epoch,
        "comm_by_hop": hop_breakdown(result),
    }


def serve_summary_row(snapshot: dict) -> dict:
    """Serving-telemetry columns of one traffic replay snapshot.

    ``snapshot`` is what :func:`repro.serve.replay` (or
    ``QueryEngine.snapshot``) returns; wall-clock throughput falls back to
    the engine's service rate when the replay wrapper was not used.
    """
    return {
        "queries": snapshot.get("n_queries", 0),
        "p50_ms": round(snapshot.get("p50_ms", 0.0), 4),
        "p99_ms": round(snapshot.get("p99_ms", 0.0), 4),
        "queries_per_sec": round(
            snapshot.get("wall_queries_per_sec",
                         snapshot.get("queries_per_sec", 0.0)), 1),
        "cache_hit_rate": round(snapshot.get("cache_hit_rate", 0.0), 4),
        "evictions": snapshot.get("cache_evictions", 0),
    }


def print_serve_table(title: str, snapshots: list[dict]) -> None:
    """Serving report: latency percentiles, throughput, cache behavior."""
    header = ["queries", "p50(ms)", "p99(ms)", "q/s", "hit rate",
              "evictions"]
    rows = []
    for snap in snapshots:
        row = serve_summary_row(snap)
        rows.append([row["queries"], row["p50_ms"], row["p99_ms"],
                     row["queries_per_sec"], row["cache_hit_rate"],
                     row["evictions"]])
    print_table(title, header, rows,
                widths=[9, 9, 9, 11, 9, 10])


def print_fault_table(title: str, results: list[TrainResult]) -> None:
    """Chaos report: one row per run, fault telemetry next to outcome."""
    header = ["method", "nodes", "retries", "fallbacks", "skew",
              "DRS switch", "comm by hop", "TT(h)", "MRR"]
    rows = []
    for res in results:
        row = fault_summary_row(res)
        rows.append([row["method"], row["nodes"], row["retries"],
                     row["fallbacks"], row["straggler_skew"],
                     row["drs_switch_epoch"], row["comm_by_hop"],
                     res.total_hours, res.test_mrr])
    hop_w = max([len("comm by hop")] +
                [len(r[6]) for r in rows]) + 2
    print_table(title, header, rows,
                widths=[max(len(r.strategy_label) for r in results) + 2,
                        5, 8, 9, 8, 10, hop_w, 10, 10])


# ---------------------------------------------------------------------------
# Shape checks (the qualitative claims benchmarks assert)
# ---------------------------------------------------------------------------

def trend_slope(values) -> float:
    """Least-squares slope of a series against its index."""
    values = np.asarray(list(values), dtype=np.float64)
    if len(values) < 2:
        return 0.0
    x = np.arange(len(values), dtype=np.float64)
    return float(np.polyfit(x, values, 1)[0])


def reduction(baseline: float, improved: float) -> float:
    """Fractional reduction of ``improved`` relative to ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 1.0 - improved / baseline

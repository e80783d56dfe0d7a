"""Experiment harness: run strategy sweeps and print paper-style tables.

Every benchmark file builds on these helpers so each table/figure is a small
declarative description: dataset, strategies, node counts.  Datasets and
training runs are cached per-process keyed by their full parameterisation,
because several figures share workloads (e.g. Table 1 and Figures 1a/8 use
the same baseline runs).  Every table goes through :func:`print_table`,
which prints it as Markdown and records it for the results file.
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from ..comm.faults import FaultPlan
from ..kg.datasets import make_fb15k_like, make_fb250k_like
from ..kg.triples import TripleStore
from ..training.strategy import StrategyConfig
from ..training.trainer import DistributedTrainer, TrainConfig
from ..training.metrics import TrainResult
from .calibration import BENCH_NETWORK, active_profile, train_config

_STORE_CACHE: dict = {}
_RUN_CACHE: dict = {}

#: Every table :func:`print_table` printed since the list was last cleared,
#: as ``{"title", "header", "rows"}`` with cells already formatted.
RECORDED: list[dict] = []


def bench_store(which: str, scale: float | None = None) -> TripleStore:
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
    if (which, scale) not in _STORE_CACHE:
        _STORE_CACHE[which, scale] = maker(scale=scale)
    return _STORE_CACHE[which, scale]


def run_once(store: TripleStore, strategy: StrategyConfig, n_nodes: int,
             config: TrainConfig | None = None,
             faults: FaultPlan | None = None) -> TrainResult:
    """Train one configuration on the bench network, memoised on its full
    parameterisation."""
    config = config or train_config(active_profile())
    key = (id(store), strategy, n_nodes, tuple(sorted(vars(config).items())),
           faults)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = DistributedTrainer(
            store, strategy, n_nodes, config=config, network=BENCH_NETWORK,
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
# Printing and recording
# ---------------------------------------------------------------------------

def format_cell(value) -> str:
    """The one cell format: ``.2e`` for small non-zero floats, else ``.3f``."""
    if isinstance(value, numbers.Real) and \
            not isinstance(value, numbers.Integral):
        if value != 0 and abs(value) < 5e-3:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def markdown_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A GitHub-flavoured Markdown table."""
    if not header:
        raise ValueError("header must not be empty")
    lines = ["| " + " | ".join(str(h) for h in header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} != header width {len(header)}")
        lines.append("| " + " | ".join(format_cell(v) for v in row) + " |")
    return "\n".join(lines)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print a Markdown table under its title and append it, with the same
    formatted cells, to ``RECORDED`` (what the results file keeps)."""
    cells = [[format_cell(v) for v in row] for row in rows]
    RECORDED.append({"title": title, "header": [str(h) for h in header],
                     "rows": cells})
    print(f"\n{title}\n\n{markdown_table(header, cells)}")


def print_baseline_table(title: str, results_ar: list[TrainResult],
                         results_ag: list[TrainResult],
                         paper_ar, paper_ag) -> None:
    """Tables 1/2 format: measured next to the paper's numbers."""
    header = ["nodes", "TT(h)", "N", "TCA", "MRR",
              "paper TT", "paper N", "paper TCA", "paper MRR"]
    for label, results, paper in (("all-reduce", results_ar, paper_ar),
                                  ("all-gather", results_ag, paper_ag)):
        print_table(f"{title} [{label}]", header,
                    [[res.n_nodes, res.total_hours, res.epochs, res.test_tca,
                      res.test_mrr, ref.tt_hours, ref.epochs, ref.tca,
                      ref.mrr] for res, ref in zip(results, paper)])


def print_series(title: str, x_label: str, xs: list,
                 series: dict[str, list[float]]) -> None:
    """Figure format: one x column plus one column per curve."""
    print_table(title, [x_label] + list(series),
                [[x] + [series[name][i] for name in series]
                 for i, x in enumerate(xs)])


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


def print_serve_table(title: str, snapshots: list[dict]) -> None:
    """Serving report of :func:`repro.serve.replay` snapshots (wall-clock
    q/s, else the engine's service rate): latency, throughput, cache."""
    print_table(title, ["queries", "p50(ms)", "p99(ms)", "q/s", "hit rate",
                        "evictions"],
                [[snap.get("n_queries", 0), snap.get("p50_ms", 0.0),
                  snap.get("p99_ms", 0.0),
                  snap.get("wall_queries_per_sec",
                           snap.get("queries_per_sec", 0.0)),
                  snap.get("cache_hit_rate", 0.0),
                  snap.get("cache_evictions", 0)] for snap in snapshots])


def print_fault_table(title: str, results: list[TrainResult]) -> None:
    """Chaos report: one row per run, fault telemetry next to outcome."""
    print_table(title, ["method", "nodes", "retries", "fallbacks", "skew",
                        "DRS switch", "comm by hop", "TT(h)", "MRR"],
                [[r.strategy_label, r.n_nodes, r.comm_retries,
                  r.comm_fallbacks, round(r.straggler_skew, 4),
                  r.drs_switch_epoch, hop_breakdown(r), r.total_hours,
                  r.test_mrr] for r in results])


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

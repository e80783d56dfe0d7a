"""Benchmark harness, calibration, and the paper's reference numbers."""

from . import paper, report
from .calibration import (
    BENCH_NETWORK,
    FULL,
    PROFILES,
    QUICK,
    BenchProfile,
    active_profile,
    train_config,
)
from .harness import (
    bench_store,
    fault_summary_row,
    hop_breakdown,
    print_baseline_table,
    print_fault_table,
    print_serve_table,
    print_series,
    print_table,
    reduction,
    run_once,
    serve_summary_row,
    sweep,
    trend_slope,
)

__all__ = [
    "BENCH_NETWORK",
    "BenchProfile",
    "FULL",
    "PROFILES",
    "QUICK",
    "active_profile",
    "bench_store",
    "fault_summary_row",
    "hop_breakdown",
    "paper",
    "report",
    "print_baseline_table",
    "print_fault_table",
    "print_serve_table",
    "print_series",
    "print_table",
    "reduction",
    "run_once",
    "serve_summary_row",
    "sweep",
    "train_config",
    "trend_slope",
]

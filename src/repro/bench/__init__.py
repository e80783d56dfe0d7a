"""Benchmark harness, calibration, and the paper's reference numbers."""

from . import paper
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
    hop_breakdown,
    markdown_table,
    print_baseline_table,
    print_fault_table,
    print_serve_table,
    print_series,
    print_table,
    run_once,
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
    "hop_breakdown",
    "markdown_table",
    "paper",
    "print_baseline_table",
    "print_fault_table",
    "print_serve_table",
    "print_series",
    "print_table",
    "run_once",
    "sweep",
    "train_config",
    "trend_slope",
]

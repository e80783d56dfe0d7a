"""Figure 2 — non-zero gradient rows decrease as training progresses.

The motivation for the dynamic allreduce/allgather switch: as the model
fits, more and more entity rows have (numerically) zero gradients, so the
sparse allgather payload keeps shrinking while the dense allreduce payload
stays constant.
"""

import numpy as np

from repro import baseline_allgather
from repro.bench import (
    bench_store,
    print_series,
    print_table,
    run_once,
    train_config,
    trend_slope,
)
from repro.bench.calibration import active_profile

from conftest import run_once_benchmarked


def _run():
    # A long single-node run so the sparsity dynamics have time to develop.
    cfg = train_config(active_profile(), max_epochs=90, lr_patience=30,
                       lr_warmup_epochs=10)
    return run_once(bench_store("fb250k"), baseline_allgather(negatives=1),
                    1, config=cfg)


def test_fig2_nonzero_rows(benchmark):
    result = run_once_benchmarked(benchmark, _run)
    rows = result.series("nonzero_entity_rows")
    epochs = list(range(1, len(rows) + 1))
    stride = max(1, len(rows) // 12)
    early = float(np.mean(rows[: len(rows) // 4]))
    late = float(np.mean(rows[-len(rows) // 4:]))
    print_series("Fig 2: non-zero gradient rows over training", "epoch",
                 epochs[::stride], {"nonzero rows": rows[::stride]})
    print_table("Fig 2: mean non-zero rows, first vs last quarter of epochs",
                ["early mean", "late mean"], [[early, late]])

    # Shape: the count trends down over training.
    assert trend_slope(rows) < 0, "non-zero rows did not decrease"
    # And the late-training average sits clearly below the early one.
    assert late < early

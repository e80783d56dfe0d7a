"""Figure 3 — comparing gradient-row selection thresholds.

(a) TCA convergence for the 'average' threshold, 'average x 0.1' threshold,
and Bernoulli random selection; (b) the sparsity each policy introduces.

Claims: random selection's accuracy curve overlaps the dense baseline while
still dropping a useful fraction of rows; the hard 'average' threshold
drops too much and hurts accuracy.
"""

from dataclasses import replace

import numpy as np

from repro import StrategyConfig
from repro.bench import bench_store, print_table, sweep

from conftest import run_once_benchmarked

NODES = 2


def _run():
    store = bench_store("fb15k")
    base = StrategyConfig(comm_mode="allgather", negatives_sampled=10,
                          negatives_used=10)
    strategies = {
        "dense": base,
        "random": replace(base, selection="random"),
        "average": replace(base, selection="average"),
        "average_x0.1": replace(base, selection="average_x0.1"),
    }
    return sweep(store, strategies, [NODES])


def test_fig3_selection_thresholds(benchmark):
    results = run_once_benchmarked(benchmark, _run)
    rows = []
    for name, (res,) in results.items():
        sparsity = float(np.mean(res.series("selection_sparsity")))
        rows.append([name, res.test_tca, res.test_mrr, sparsity,
                     res.bytes_total / 1e6])
    print_table("Fig 3: selection thresholds (FB15K, 2 nodes)",
                ["policy", "TCA", "MRR", "sparsity", "MB sent"], rows)

    dense = results["dense"][0]
    random_sel = results["random"][0]
    average = results["average"][0]

    # (a) random selection tracks the dense run's accuracy closely.
    assert abs(random_sel.test_tca - dense.test_tca) < 4.0
    assert abs(random_sel.test_mrr - dense.test_mrr) < 0.08
    # (b) it still introduces real sparsity (communication savings).
    rand_sparsity = float(np.mean(random_sel.series("selection_sparsity")))
    assert rand_sparsity > 0.05
    # The hard 'average' threshold is much more aggressive than random
    # selection (the paper's reason for rejecting it).
    avg_sparsity = float(np.mean(average.series("selection_sparsity")))
    assert avg_sparsity > rand_sparsity

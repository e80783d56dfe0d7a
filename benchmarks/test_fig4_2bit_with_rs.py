"""Figure 4 — 2-bit quantization with and without random selection.

Claim: adding random selection on top of the 2-bit TernGrad-style
quantizer does not hurt accuracy (their convergence curves overlap on
FB15K), while the combination sends fewer bytes.
"""

from dataclasses import replace

import numpy as np

from repro import StrategyConfig
from repro.bench import bench_store, print_table, sweep

from conftest import run_once_benchmarked

NODES = 2


def _run():
    base = StrategyConfig(comm_mode="allgather", quantization_bits=2,
                          negatives_sampled=10, negatives_used=10)
    strategies = {
        "2-bit": base,
        "2-bit + RS": replace(base, selection="random"),
    }
    return sweep(bench_store("fb15k"), strategies, [NODES])


def test_fig4_2bit_with_random_selection(benchmark):
    results = run_once_benchmarked(benchmark, _run)
    q2 = results["2-bit"][0]
    q2rs = results["2-bit + RS"][0]
    # Convergence-curve overlap, as in the figure: compare validation MRR
    # trajectories over the common prefix.
    a = np.array(q2.series("val_mrr"))
    b = np.array(q2rs.series("val_mrr"))
    n = min(len(a), len(b))
    gap = float(np.abs(a[:n] - b[:n]).mean())
    rows = []
    for name, (res,) in results.items():
        rows.append([name, res.test_tca, res.test_mrr, res.epochs,
                     res.bytes_total / 1e6])
    print_table("Fig 4: 2-bit quantization +- random selection "
                "(FB15K, 2 nodes)",
                ["method", "TCA", "MRR", "epochs", "MB sent"], rows)
    print_table("Fig 4: mean |val MRR gap| over the common epochs",
                ["epochs", "mean gap"], [[n, gap]])

    # Accuracy unaffected by adding selection (curves overlap in the paper).
    assert abs(q2rs.test_tca - q2.test_tca) < 4.0
    assert abs(q2rs.test_mrr - q2.test_mrr) < 0.08
    # Selection reduces the communicated volume.
    assert q2rs.bytes_total < q2.bytes_total
    # Both still converge to a useful model.
    assert q2.test_mrr > 0.35 and q2rs.test_mrr > 0.35
    assert gap < 0.08

"""Section 5.3 headline numbers — average improvements of the full method.

Paper: "on an average, we obtain a 44.95% reduction in the total training
time and 17.5% increase in MRR in the case of the FB250K dataset and a
65.2% reduction in total training time and 17.7% increase in MRR in the
case of the FB15K dataset."

We recompute both averages over the same node grids (reusing the cached
Figure 8/9 sweeps) and assert the improvements point the same way.
"""

import numpy as np

from repro import (
    baseline_allgather,
    baseline_allreduce,
    drs_1bit_rp_ss,
    rs_1bit_rp_ss,
)
from repro.bench import bench_store, paper, print_table, sweep

from conftest import FB15K_NODES, FB250K_NODES, run_once_benchmarked


def _run():
    fb15k = sweep(bench_store("fb15k"),
                  {"allreduce": baseline_allreduce(negatives=10),
                   "allgather": baseline_allgather(negatives=10),
                   "full": rs_1bit_rp_ss(negatives_sampled=10)},
                  FB15K_NODES)
    fb250k = sweep(bench_store("fb250k"),
                   {"allreduce": baseline_allreduce(negatives=1),
                    "allgather": baseline_allgather(negatives=1),
                    "full": drs_1bit_rp_ss(negatives_sampled=5)},
                   FB250K_NODES)
    return fb15k, fb250k


def _averages(runs):
    """Mean time reduction and MRR gain of 'full' vs the better baseline."""
    tt_red, mrr_gain = [], []
    for i, full in enumerate(runs["full"]):
        base_tt = min(runs["allreduce"][i].total_hours,
                      runs["allgather"][i].total_hours)
        base_mrr = max(runs["allreduce"][i].test_mrr,
                       runs["allgather"][i].test_mrr)
        tt_red.append(1 - full.total_hours / base_tt)
        mrr_gain.append(full.test_mrr / base_mrr - 1)
    return float(np.mean(tt_red)), float(np.mean(mrr_gain))


def test_summary_improvements(benchmark):
    fb15k, fb250k = run_once_benchmarked(benchmark, _run)
    red15, gain15 = _averages(fb15k)
    red250, gain250 = _averages(fb250k)

    print_table("Section 5.3 summary: full method vs best baseline",
                ["dataset", "TT reduction", "paper", "MRR gain", "paper"],
                [["FB15K", red15, paper.FB15K_FULL_METHOD_TT_REDUCTION,
                  gain15, paper.FB15K_FULL_METHOD_MRR_GAIN],
                 ["FB250K", red250, paper.FB250K_FULL_METHOD_TT_REDUCTION,
                  gain250, paper.FB250K_FULL_METHOD_MRR_GAIN]])

    # Direction: meaningful average time reduction on both datasets.
    assert red15 > 0.15, f"FB15K time reduction too small: {red15:.1%}"
    assert red250 > 0.10, f"FB250K time reduction too small: {red250:.1%}"
    # Direction: MRR does not regress on average.
    assert gain15 > -0.03
    assert gain250 > -0.03

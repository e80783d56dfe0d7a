"""Figure 9 — all methods on FB250K: total time, epochs, MRR vs nodes.

Methods: allreduce, allgather (baselines), DRS, DRS+1-bit,
DRS+1-bit+RP+SS (ratio 1:5).  Claims: every optimised method beats the
baselines in time; epochs grow with node count; DRS / DRS+1-bit lose some
MRR at high p, which relation partition + sample selection recover; after
quantization the fraction of allreduce steps drops (~60% in the paper's
Section 4.3).
"""

import numpy as np

from repro import (
    baseline_allgather,
    baseline_allreduce,
    drs,
    drs_1bit,
    drs_1bit_rp_ss,
)
from repro.bench import bench_store, paper, print_series, print_table, \
    sweep, trend_slope

from conftest import FB250K_NODES, run_once_benchmarked


def _run():
    strategies = {
        "allreduce": baseline_allreduce(negatives=1),
        "allgather": baseline_allgather(negatives=1),
        "DRS": drs(negatives=1),
        "DRS+1-bit": drs_1bit(negatives=1),
        "DRS+1-bit+RP+SS": drs_1bit_rp_ss(negatives_sampled=5),
    }
    return sweep(bench_store("fb250k"), strategies, FB250K_NODES)


def test_fig9_fb250k_methods(benchmark):
    results = run_once_benchmarked(benchmark, _run)
    print_series("Fig 9a: total time (h) on FB250K", "nodes", FB250K_NODES,
                 {name: [r.total_hours for r in runs]
                  for name, runs in results.items()})
    print_series("Fig 9b: epochs", "nodes", FB250K_NODES,
                 {name: [float(r.epochs) for r in runs]
                  for name, runs in results.items()})
    print_series("Fig 9c: MRR", "nodes", FB250K_NODES,
                 {name: [r.test_mrr for r in runs]
                  for name, runs in results.items()})

    ar = results["allreduce"]
    ag = results["allgather"]
    full = results["DRS+1-bit+RP+SS"]

    # The full method beats both baselines at every node count.
    for f, a, g in zip(full, ar, ag):
        assert f.total_hours < a.total_hours * 1.05, \
            f"full method slower than allreduce at p={f.n_nodes}"
        assert f.total_hours < g.total_hours * 1.05, \
            f"full method slower than allgather at p={f.n_nodes}"

    # Epochs grow with node count for the baselines (effective batch).
    assert trend_slope([r.epochs for r in ar]) > 0

    # MRR: full method >= baseline everywhere (paper: +13-21%); the
    # quantized method without RP+SS may dip below baseline at high p.
    for f, a in zip(full, ar):
        assert f.test_mrr >= a.test_mrr - 0.03


def test_fig9_allreduce_fraction(benchmark):
    """Section 4.3: quantization shifts DRS decisively toward allgather."""
    results = run_once_benchmarked(benchmark, _run)
    quant = results["DRS+1-bit"]
    frac_drs = np.mean([r.allreduce_fraction for r in results["DRS"][1:]])
    frac_q = np.mean([r.allreduce_fraction for r in quant[1:]])
    drop = 1 - frac_q / frac_drs if frac_drs > 0 else 0.0
    print_table("Section 4.3: DRS allreduce fraction, p >= 2",
                ["DRS", "DRS+1-bit", "drop", "paper drop"],
                [[frac_drs, frac_q, drop,
                  paper.QUANT_ALLREDUCE_FRACTION_DROP]])
    assert frac_q <= frac_drs + 1e-9


def test_fig9_16_node_cut(benchmark):
    """Abstract headline: at the largest node count the full method cuts
    total time substantially (paper: 11.5h -> 6h on 16 nodes)."""
    results = run_once_benchmarked(benchmark, _run)
    ar = results["allreduce"]
    full = results["DRS+1-bit+RP+SS"]
    cut = 1 - full[-1].total_hours / ar[-1].total_hours
    print_table(f"Abstract: time cut vs allreduce at p={FB250K_NODES[-1]}",
                ["measured", "paper"],
                [[cut, 1 - paper.FB250K_16N_FULL_METHOD_HOURS
                  / paper.FB250K_16N_BASELINE_HOURS]])
    assert cut > 0.15

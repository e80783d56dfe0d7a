"""Figure 5 — 1-bit vs 2-bit quantization (both with random selection).

Claims on FB15K over p = 1..8: (a) 1-bit total training time is lower
(half the payload bits); (b) MRR is essentially the same for both, which is
why the paper adopts the 1-bit sign*max scheme.
"""

from repro import rs_1bit
from repro.bench import bench_store, print_series, sweep
from repro.training.strategy import StrategyConfig

from conftest import FB15K_NODES, run_once_benchmarked


def _rs_2bit(negatives: int = 10) -> StrategyConfig:
    return StrategyConfig(comm_mode="allgather", selection="random",
                          quantization_bits=2,
                          negatives_sampled=negatives,
                          negatives_used=negatives)


def _run():
    return sweep(bench_store("fb15k"),
                 {"1-bit": rs_1bit(negatives=10),
                  "2-bit": _rs_2bit(negatives=10)},
                 FB15K_NODES)


def test_fig5_1bit_vs_2bit(benchmark):
    results = run_once_benchmarked(benchmark, _run)
    print_series("Fig 5a: total time (h), RS + quantization on FB15K",
                 "nodes", FB15K_NODES,
                 {name: [r.total_hours for r in runs]
                  for name, runs in results.items()})
    print_series("Fig 5b: MRR", "nodes", FB15K_NODES,
                 {name: [r.test_mrr for r in runs]
                  for name, runs in results.items()})
    print_series("Fig 5: MB sent", "nodes", FB15K_NODES,
                 {name: [r.bytes_total / 1e6 for r in runs]
                  for name, runs in results.items()})

    one_bit, two_bit = results["1-bit"], results["2-bit"]
    # (a) 1-bit communicates fewer bytes at every node count (the paper's
    # time advantage; epoch-count noise can mask small time deltas).
    for r1, r2 in zip(one_bit[1:], two_bit[1:]):
        assert r1.bytes_total < r2.bytes_total, \
            f"1-bit sent more than 2-bit at p={r1.n_nodes}"
    # and is not slower overall on the largest configuration.
    assert one_bit[-1].total_hours <= two_bit[-1].total_hours * 1.10
    # (b) MRR equivalent on average across node counts (single-seed runs
    # at one node count can wobble by ~0.1; the paper's figure compares
    # the curves as a whole).
    import numpy as np
    mean_gap = abs(float(np.mean([r.test_mrr for r in one_bit]))
                   - float(np.mean([r.test_mrr for r in two_bit])))
    assert mean_gap < 0.08, f"mean MRR diverged: {mean_gap:.3f}"
    for r1, r2 in zip(one_bit, two_bit):
        assert abs(r1.test_mrr - r2.test_mrr) < 0.2, \
            f"MRR collapsed at p={r1.n_nodes}"

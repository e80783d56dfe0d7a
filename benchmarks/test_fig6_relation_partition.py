"""Figure 6 — the effect of relation partition.

(a) TCA convergence with and without relation partition on FB15K, both on
top of random selection + 1-bit quantization: RP keeps the relation
gradients full-precision and local, so convergence under quantization
improves.  (b) epoch time with and without RP on FB250K: the saving grows
with the node count (relation-gradient communication is eliminated).
"""

from dataclasses import replace

import numpy as np

from repro import rs_1bit
from repro.bench import bench_store, print_series, sweep

from conftest import FB250K_NODES, run_once_benchmarked

FB15K_NODES_6A = 4


def _run():
    with_rp = replace(rs_1bit(negatives=10), relation_partition=True)
    fb15k = sweep(bench_store("fb15k"),
                  {"without partition": rs_1bit(negatives=10),
                   "with partition": with_rp},
                  [FB15K_NODES_6A])
    with_rp_250 = replace(rs_1bit(negatives=1), relation_partition=True)
    fb250k = sweep(bench_store("fb250k"),
                   {"without partition": rs_1bit(negatives=1),
                    "with partition": with_rp_250},
                   FB250K_NODES)
    return fb15k, fb250k


def test_fig6a_relation_partition_convergence(benchmark):
    fb15k, _ = run_once_benchmarked(benchmark, _run)

    # (a) convergence comparison on FB15K.
    without = fb15k["without partition"][0]
    with_rp = fb15k["with partition"][0]
    n = min(without.epochs, with_rp.epochs)
    stride = max(1, n // 10)
    print_series(f"Fig 6a: TCA proxy (val MRR) vs epoch "
                 f"(FB15K, {FB15K_NODES_6A} nodes)",
                 "epoch", list(range(1, n + 1))[::stride],
                 {"without partition": without.series("val_mrr")[:n][::stride],
                  "with partition": with_rp.series("val_mrr")[:n][::stride]})
    # RP's full-precision relation gradients must not hurt final quality.
    assert with_rp.test_mrr >= without.test_mrr - 0.05
    assert with_rp.test_tca >= without.test_tca - 3.0
    # Late-training validation quality with RP matches or beats without.
    late_without = float(np.mean(without.series("val_mrr")[-5:]))
    late_with = float(np.mean(with_rp.series("val_mrr")[-5:]))
    assert late_with >= late_without - 0.05


def test_fig6b_relation_partition_traffic(benchmark):
    _, fb250k = run_once_benchmarked(benchmark, _run)

    # (b) epoch-time comparison on FB250K.
    def mean_epoch(r):
        return float(np.mean(r.series("epoch_time")))

    et_without = [mean_epoch(r) for r in fb250k["without partition"]]
    et_with = [mean_epoch(r) for r in fb250k["with partition"]]
    print_series("Fig 6b: epoch time (s) on FB250K", "nodes", FB250K_NODES,
                 {"without partition": et_without,
                  "with partition": et_with})
    # RP sends strictly fewer bytes at every multi-node count.
    for r_without, r_with in zip(fb250k["without partition"][1:],
                                 fb250k["with partition"][1:]):
        assert r_with.bytes_total < r_without.bytes_total, \
            f"RP did not reduce traffic at p={r_with.n_nodes}"

"""Figure 1 — the four baseline curves.

(a) total time vs nodes on FB15K, (b) total time vs nodes on FB250K,
(c) epochs vs nodes on FB250K, (d) epoch time vs nodes on FB250K.

Claims: FB15K's allreduce dominates; FB250K's allgather wins at small p
with a crossover as p grows; epoch count *increases* with p (larger
effective batch needs more epochs); epoch time falls with p but saturates
for allgather (its volume grows with p).
"""

import numpy as np

from repro import baseline_allgather, baseline_allreduce
from repro.bench import bench_store, print_series, sweep, trend_slope

from conftest import FB15K_NODES, FB250K_NODES, run_once_benchmarked


def _run():
    fb15k = sweep(bench_store("fb15k"),
                  {"allreduce": baseline_allreduce(negatives=10),
                   "allgather": baseline_allgather(negatives=10)},
                  FB15K_NODES)
    fb250k = sweep(bench_store("fb250k"),
                   {"allreduce": baseline_allreduce(negatives=1),
                    "allgather": baseline_allgather(negatives=1)},
                   FB250K_NODES)
    return fb15k, fb250k


def _mean_epoch_time(result):
    return float(np.mean(result.series("epoch_time")))


def test_fig1a_fb15k_allreduce_dominates(benchmark):
    fb15k, _ = run_once_benchmarked(benchmark, _run)
    print_series("Fig 1a: total time (h) on FB15K", "nodes", FB15K_NODES,
                 {name: [r.total_hours for r in runs]
                  for name, runs in fb15k.items()})

    # (a) FB15K: allreduce no slower than allgather once p >= 4.
    for res_ar, res_ag in zip(fb15k["allreduce"][2:], fb15k["allgather"][2:]):
        assert res_ar.total_hours <= res_ag.total_hours * 1.001


def test_fig1b_fb250k_crossover(benchmark):
    _, fb250k = run_once_benchmarked(benchmark, _run)
    et_ar = [_mean_epoch_time(r) for r in fb250k["allreduce"]]
    et_ag = [_mean_epoch_time(r) for r in fb250k["allgather"]]
    print_series("Fig 1b: total time (h) on FB250K", "nodes", FB250K_NODES,
                 {name: [r.total_hours for r in runs]
                  for name, runs in fb250k.items()})

    # (b)/(d) crossover: allgather's epoch time advantage at p=2 disappears
    # by the largest node count.
    assert et_ag[1] <= et_ar[1] * 1.05
    assert et_ag[-1] >= et_ar[-1]


def test_fig1c_epochs_grow_with_p(benchmark):
    _, fb250k = run_once_benchmarked(benchmark, _run)
    print_series("Fig 1c: epochs on FB250K", "nodes", FB250K_NODES,
                 {name: [float(r.epochs) for r in runs]
                  for name, runs in fb250k.items()})

    # (c) FB250K: epochs to converge trend upward with node count.
    epochs = [r.epochs for r in fb250k["allreduce"]]
    assert trend_slope(epochs) > 0, f"epochs did not grow with p: {epochs}"


def test_fig1d_epoch_time_scaling(benchmark):
    _, fb250k = run_once_benchmarked(benchmark, _run)
    print_series("Fig 1d: epoch time (s, simulated) on FB250K", "nodes",
                 FB250K_NODES,
                 {name: [_mean_epoch_time(r) for r in runs]
                  for name, runs in fb250k.items()})

    # (d) epoch time falls with p for both, but allgather falls slower
    # (its communication grows with p): compare the p=1 -> p=max ratios.
    et_ar = [_mean_epoch_time(r) for r in fb250k["allreduce"]]
    et_ag = [_mean_epoch_time(r) for r in fb250k["allgather"]]
    assert et_ar[-1] < et_ar[0] and et_ag[-1] < et_ag[0]
    assert et_ar[0] / et_ar[-1] > et_ag[0] / et_ag[-1], \
        "allreduce should scale epoch time better than allgather"

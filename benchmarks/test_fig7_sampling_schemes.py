"""Figure 7 / Table 4 context — "1 out of n" vs "n out of n" sampling.

Claims on FB15K (2 nodes, with 1-bit quantization, as in Table 4):
(a) 1-of-n converges at least as well as n-of-n; (b) 1-of-n total time is
far below n-of-n (no extra backward passes); (c) MRR improves with n but
saturates; (d) epochs to converge decrease as n grows.
"""

import numpy as np

from repro import StrategyConfig
from repro.bench import bench_store, print_series, print_table, \
    sweep, trend_slope

from conftest import run_once_benchmarked

NODES = 2
SAMPLED = (1, 5, 10, 20)


def _one_of(n: int) -> StrategyConfig:
    return StrategyConfig(comm_mode="allgather", selection="random",
                          quantization_bits=1, sample_selection=n > 1,
                          negatives_sampled=n, negatives_used=1)


def _all_of(n: int) -> StrategyConfig:
    return StrategyConfig(comm_mode="allgather", selection="random",
                          quantization_bits=1,
                          negatives_sampled=n, negatives_used=n)


def _run():
    store = bench_store("fb15k")
    one = sweep(store, {f"1-of-{n}": _one_of(n) for n in SAMPLED}, [NODES])
    all_ = sweep(store, {f"{n}-of-{n}": _all_of(n) for n in SAMPLED[1:]},
                 [NODES])
    return one, all_


def test_fig7_sampling_schemes(benchmark):
    one, all_ = run_once_benchmarked(benchmark, _run)
    one_results = [one[f"1-of-{n}"][0] for n in SAMPLED]
    all_results = [all_[f"{n}-of-{n}"][0] for n in SAMPLED[1:]]
    mrrs = [r.test_mrr for r in one_results]
    epochs = [float(r.epochs) for r in one_results]

    print_series("Fig 7b: total time (h) vs n (FB15K, 2 nodes)", "n",
                 list(SAMPLED),
                 {"1 out of n": [r.total_hours for r in one_results],
                  "n out of n": [float("nan")] + [r.total_hours
                                                  for r in all_results]})
    print_series("Fig 7c: MRR vs n", "n", list(SAMPLED),
                 {"1 out of n": [r.test_mrr for r in one_results],
                  "n out of n": [float("nan")] + [r.test_mrr
                                                  for r in all_results]})
    print_series("Fig 7d: epochs vs n", "n", list(SAMPLED),
                 {"1 out of n": [float(r.epochs) for r in one_results],
                  "n out of n": [float("nan")] + [float(r.epochs)
                                                  for r in all_results]})
    print_table("Fig 7d: epoch-count trend of 1 out of n",
                ["slope (epochs per n step)", "bound"],
                [[trend_slope(epochs), max(epochs) * 0.02]])

    # (b) for the same n, 1-of-n is much cheaper than n-of-n.
    for r1, rn, n in zip(one_results[1:], all_results, SAMPLED[1:]):
        assert r1.total_hours < rn.total_hours, \
            f"1-of-{n} not cheaper than {n}-of-{n}"

    # (c) MRR improves from n=1 to larger n, then saturates: the gain from
    # the last step is smaller than the gain from the first.
    assert max(mrrs[1:]) > mrrs[0], "hard negatives never helped"
    first_gain = mrrs[1] - mrrs[0]
    last_gain = mrrs[-1] - mrrs[-2]
    assert last_gain < max(first_gain, 0.05) + 1e-9

    # (a) hardest-negative training reaches at least the quality of
    # training on all n candidates.
    best_one = max(r.test_mrr for r in one_results[1:])
    best_all = max(r.test_mrr for r in all_results)
    assert best_one >= best_all - 0.05

    # (d) epochs to converge trend down as n grows (paper Fig. 7d) —
    # allow noise but reject a clearly increasing trend.
    assert trend_slope(epochs) <= max(epochs) * 0.02

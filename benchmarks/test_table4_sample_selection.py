"""Table 4 — sample-selection ratios on FB15K with 1-bit quantization,
2 nodes.

Reprints the paper's seven rows (1-of-{1,5,10,20,30}, 5-of-5, 10-of-10)
with our measured values next to the reference numbers, and asserts the
relationships the paper draws from the table: time grows mildly with n for
1-of-n, n-of-n is drastically more expensive, and 1-of-n MRR beats 1-of-1.
"""

from repro import StrategyConfig
from repro.bench import bench_store, paper, print_table, run_once

from conftest import run_once_benchmarked

NODES = 2


def _strategy(used: int, sampled: int) -> StrategyConfig:
    return StrategyConfig(comm_mode="allgather", selection="random",
                          quantization_bits=1,
                          sample_selection=used < sampled,
                          negatives_sampled=sampled, negatives_used=used)


def _run():
    store = bench_store("fb15k")
    results = {}
    for row in paper.TABLE4:
        key = (row.used, row.sampled)
        results[key] = run_once(store, _strategy(*key), NODES)
    return results


def test_table4_sample_selection(benchmark):
    results = run_once_benchmarked(benchmark, _run)
    rows = []
    for ref in paper.TABLE4:
        res = results[(ref.used, ref.sampled)]
        rows.append([f"{ref.used} of {ref.sampled}", res.total_hours,
                     res.epochs, res.test_mrr, res.test_tca,
                     ref.tt_hours, ref.epochs, ref.mrr, ref.tca])
    print_table("Table 4: sample selection (FB15K, 2 nodes, 1-bit quant)",
                ["ratio", "TT(h)", "N", "MRR", "TCA",
                 "paper TT", "paper N", "paper MRR", "paper TCA"],
                rows)

    r_1of1 = results[(1, 1)]
    r_1of10 = results[(1, 10)]
    r_1of30 = results[(1, 30)]
    r_10of10 = results[(10, 10)]

    # n-of-n pays n backward passes: far more expensive than 1-of-n.
    assert r_10of10.total_hours > r_1of10.total_hours
    # Sampling more candidates costs some time (extra forwards)...
    assert r_1of30.total_hours > r_1of1.total_hours
    # ...but buys accuracy over the single uniform negative.
    assert max(r_1of10.test_mrr, r_1of30.test_mrr) > r_1of1.test_mrr

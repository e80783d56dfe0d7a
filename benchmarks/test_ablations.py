"""Ablations of design choices not covered by a numbered table/figure.

* collective algorithm (ring vs Bruck allgather, ring vs recursive-doubling
  allreduce) — affects the crossover point the DRS probe sees;
* 1-bit quantizer statistic (max vs avg vs split stats) — paper Section 4.3
  says max wins;
* lr scaling cap (min(4, p) vs uncapped linear) — paper Section 3.4 says
  uncapped scaling destabilises training past 4 nodes;
* error feedback around the 1-bit quantizer (cited extension);
* relation vs entity (PBG-style) partitioning balance;
* parameter-server comparator vs collectives (Section 1 motivation).
"""

from dataclasses import replace

import numpy as np

from repro import rs_1bit
from repro.bench import BENCH_NETWORK, bench_store, print_table, run_once, \
    sweep, train_config
from repro.bench.calibration import active_profile
from repro.compress.quantization import ONE_BIT_STATS
from repro.kg.partition import entity_partition, relation_partition
from repro.training.baselines import (
    allreduce_time_per_step,
    parameter_server_time_per_step,
)

from conftest import run_once_benchmarked

NODES = 4


def test_ablation_quantizer_statistic(benchmark):
    """Paper 4.3: sign * max(|v|) outperforms the other five statistics."""
    def _run():
        store = bench_store("fb15k")
        out = {}
        for stat in ONE_BIT_STATS:
            strat = replace(rs_1bit(negatives=10), quantization_stat=stat)
            out[stat] = run_once(store, strat, NODES)
        return out

    results = run_once_benchmarked(benchmark, _run)
    rows = [[stat, res.test_mrr, res.test_tca, res.epochs]
            for stat, res in results.items()]
    print_table("Ablation: 1-bit quantizer statistic (FB15K, 4 nodes)",
                ["stat", "MRR", "TCA", "epochs"], rows)
    mrrs = {stat: res.test_mrr for stat, res in results.items()}
    # max must be competitive with every alternative (paper's choice).
    assert mrrs["max"] >= max(mrrs.values()) - 0.05


def test_ablation_lr_scaling_cap(benchmark):
    """Paper 3.4: uncapped linear lr scaling is unstable past 4 nodes."""
    def _run():
        store = bench_store("fb15k")
        profile = active_profile()
        capped = train_config(profile)
        uncapped = train_config(profile, lr_scale_cap=16)
        return (run_once(store, rs_1bit(negatives=10), 8, config=capped),
                run_once(store, rs_1bit(negatives=10), 8, config=uncapped))

    capped, uncapped = run_once_benchmarked(benchmark, _run)
    print_table("Ablation: lr scaling cap at 8 nodes",
                ["rule", "MRR", "TCA", "epochs"],
                [["min(4, p)", capped.test_mrr, capped.test_tca,
                  capped.epochs],
                 ["linear (p)", uncapped.test_mrr, uncapped.test_tca,
                  uncapped.epochs]])
    # The cap never hurts, and usually helps (8x base lr is aggressive).
    assert capped.test_mrr >= uncapped.test_mrr - 0.02


def test_ablation_error_feedback(benchmark):
    """Karimireddy-style error feedback on top of 1-bit quantization.

    EF's convergence theory requires the compressor to be a *contraction*;
    ``sign(v) * mean(|v|)`` is one, but the paper's chosen
    ``sign(v) * max(|v|)`` overshoots every element to the row maximum, so
    its residuals grow instead of shrinking and EF **diverges**.  The
    ablation documents all four cells: with the max statistic EF collapses
    training outright, while with the contraction (avg) statistic it stays
    convergent (it helps at some scales, costs some accuracy at others) —
    consistent with why the paper, which uses max scaling, did not adopt
    EF.
    """
    def _run():
        store = bench_store("fb15k")
        out = {}
        for stat in ("max", "avg"):
            for ef in (False, True):
                strat = replace(rs_1bit(negatives=10),
                                quantization_stat=stat, error_feedback=ef)
                out[(stat, ef)] = run_once(store, strat, NODES)
        return out

    results = run_once_benchmarked(benchmark, _run)
    print_table("Ablation: error feedback x quantizer statistic "
                "(FB15K, 4 nodes)",
                ["variant", "MRR", "TCA", "epochs"],
                [[f"{stat}{'+EF' if ef else ''}", r.test_mrr, r.test_tca,
                  r.epochs] for (stat, ef), r in results.items()])
    # EF collapses training with the non-contraction max-scaled compressor
    # (residuals grow without bound)...
    assert results[("max", True)].test_mrr < \
        results[("max", False)].test_mrr - 0.3
    # ...while the contraction (avg) compressor stays convergent under EF
    # and far above the collapsed max+EF cell.
    assert results[("avg", True)].test_mrr > 0.3
    assert results[("avg", True)].test_mrr > \
        results[("max", True)].test_mrr + 0.2


def test_ablation_allgather_algorithm(benchmark):
    """Ring vs Bruck allgather: same bytes, different latency profile."""
    def _run():
        store = bench_store("fb250k")
        ring = rs_1bit(negatives=1)
        bruck = replace(ring, allgather_algo="bruck")
        return (run_once(store, ring, 8), run_once(store, bruck, 8))

    ring, bruck = run_once_benchmarked(benchmark, _run)
    print_table("Ablation: allgather algorithm (FB250K, 8 nodes)",
                ["algo", "TT (h)", "MB sent"],
                [["ring", ring.total_hours, ring.bytes_total / 1e6],
                 ["bruck", bruck.total_hours, bruck.bytes_total / 1e6]])
    # Identical volume; only the latency term differs.
    assert ring.bytes_total == bruck.bytes_total
    assert bruck.total_hours <= ring.total_hours * 1.01


def test_ablation_partition_balance(benchmark):
    """Relation partition balances load about as well as PBG-style entity
    bucketing while guaranteeing relation disjointness."""
    def _run():
        store = bench_store("fb250k")
        rel = relation_partition(store.train, 8)
        ent = entity_partition(store.train, 8,
                               rng=np.random.default_rng(0))
        return rel, ent

    rel, ent = run_once_benchmarked(benchmark, _run)
    print_table("Ablation: partition balance at 8 workers",
                ["scheme", "imbalance", "relations disjoint"],
                [["relation", rel.imbalance(), str(rel.relations_disjoint())],
                 ["entity (PBG)", ent.imbalance(),
                  str(ent.relations_disjoint())]])
    assert rel.relations_disjoint()
    assert not ent.relations_disjoint()
    # Zipf-heavy relations make perfect balance impossible; stay bounded.
    assert rel.imbalance() < 3.0


def test_ablation_parameter_server_cost(benchmark):
    """Section 1: the PS architecture's central bottleneck vs collectives."""
    def _run():
        rows, dim = 2000, 64
        ps1 = [parameter_server_time_per_step(p, 1, rows // p, dim,
                                              BENCH_NETWORK)
               for p in (2, 4, 8, 16)]
        ps4 = [parameter_server_time_per_step(p, 4, rows // p, dim,
                                              BENCH_NETWORK)
               for p in (8, 16)]
        ar = [allreduce_time_per_step(p, rows, dim, BENCH_NETWORK)
              for p in (2, 4, 8, 16)]
        return ps1, ps4, ar

    ps1, ps4, ar = run_once_benchmarked(benchmark, _run)
    print_table("Ablation: per-step comm time (s), PS vs ring allreduce",
                ["nodes", "PS (1 server)", "allreduce"],
                [[p, ps1[i], ar[i]] for i, p in enumerate((2, 4, 8, 16))])
    # Allreduce scales (bounded in p); the single server does not.
    assert ar[-1] < ps1[-1]
    assert ps1[-1] > ps1[0]
    # Multiple servers relieve but do not remove the bottleneck.
    assert ps4[-1] < ps1[-1]

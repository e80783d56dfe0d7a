"""Eval-throughput microbenchmark — the filtered-evaluation fast path.

Not a paper figure: this measures the reproduction's own evaluation
machinery at FB15K-scale entity counts.  A random ~15k-entity store is
ranked by the production ``rank_triples`` (CSR filter) and by the reference
filter kept in ``repro._reference``; production must produce
bitwise-identical ranks at >= 5x the reference throughput, with a filter
working set that depends on the number of known facts per query — not on
``batch * n_entities``.  Results land in ``BENCH_eval.json`` (path
overridable via ``REPRO_BENCH_EVAL_JSON``) so CI can archive them.
"""

import json
import os
import time

import numpy as np

from repro._reference import rank_triples_reference
from repro.eval.ranking import rank_triples
from repro.kg.triples import TripleSet, TripleStore
from repro.models import ComplEx

from conftest import run_once_benchmarked

# FB15K's published shape: 14,951 entities, 1,345 relations.  Relations
# are trimmed so the random store stays cheap to build; entity count is
# what the filter/naive asymmetry scales with.  One rank_triples batch
# holds every query, which is the only shape the reference ranks.
N_ENTITIES = 14_951
N_RELATIONS = 200
N_QUERIES = 512
SPEEDUP_FLOOR = 5.0


def _random_store(rng):
    def split(n):
        return TripleSet(heads=rng.integers(0, N_ENTITIES, n),
                         relations=rng.integers(0, N_RELATIONS, n),
                         tails=rng.integers(0, N_ENTITIES, n))
    return TripleStore(n_entities=N_ENTITIES, n_relations=N_RELATIONS,
                       train=split(45_000), valid=split(2_000),
                       test=split(N_QUERIES), name="eval-bench")


def _timed_ranks(model, store, ranker, repeats=3):
    """Best-of-``repeats`` timing: the minimum is the least noisy estimate
    of the implementation's cost on a shared, throttled CI machine."""
    elapsed = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ranks = ranker(model, store.test, store)
        elapsed = min(elapsed, time.perf_counter() - start)
    # head + tail replacement both count as queries.
    return ranks, 2 * N_QUERIES / elapsed, elapsed


def _filter_working_set_bytes(store):
    """Peak bytes each implementation touches to build one batch's mask."""
    b, n = N_QUERIES, N_ENTITIES
    # naive: repeat/tile three int64 columns then a bool known-matrix,
    # for every one of batch * n_entities candidates.
    naive = b * n * (3 * 8 + 1)
    # csr: the scatter coordinate lists, sized by known facts per query.
    index = store.filter_index
    rows, cols, _ = index.known_tails(store.test.heads, store.test.relations)
    csr = rows.nbytes + cols.nbytes
    return naive, csr, index.nbytes


def _run():
    rng = np.random.default_rng(0)
    store = _random_store(rng)
    model = ComplEx(N_ENTITIES, N_RELATIONS, 16, seed=1)
    store.filter_index  # build outside the timed region, as the trainer does
    # Untimed full-size warm-up: the first pass through each path pays
    # one-off BLAS setup and allocator page-fault costs that would
    # otherwise be billed to whichever implementation runs first.
    for ranker in (rank_triples, rank_triples_reference):
        ranker(model, store.test, store)
    csr_ranks, csr_qps, csr_s = _timed_ranks(model, store, rank_triples)
    naive_ranks, naive_qps, naive_s = _timed_ranks(model, store,
                                                   rank_triples_reference)
    return store, csr_ranks, naive_ranks, csr_qps, naive_qps, csr_s, naive_s


def test_eval_throughput(benchmark):
    (store, csr_ranks, naive_ranks, csr_qps, naive_qps,
     csr_s, naive_s) = run_once_benchmarked(benchmark, _run)

    # The fast path is an optimisation, not a different metric.
    for a, b in zip(csr_ranks, naive_ranks):
        np.testing.assert_array_equal(a, b)

    speedup = csr_qps / naive_qps
    naive_bytes, csr_bytes, index_bytes = _filter_working_set_bytes(store)

    report = {
        "n_entities": N_ENTITIES,
        "n_relations": N_RELATIONS,
        "n_queries": 2 * N_QUERIES,
        "queries_per_sec": {"csr": round(csr_qps, 1),
                            "naive": round(naive_qps, 1)},
        "eval_seconds": {"csr": round(csr_s, 4), "naive": round(naive_s, 4)},
        "speedup": round(speedup, 2),
        "peak_filter_bytes": {"naive": naive_bytes, "csr": csr_bytes},
        "filter_index_bytes": index_bytes,
    }
    path = os.environ.get("REPRO_BENCH_EVAL_JSON", "BENCH_eval.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\n=== eval throughput (written to {path}) ===")
    print(json.dumps(report, indent=2))

    assert speedup >= SPEEDUP_FLOOR
    # The CSR working set tracks known facts per query, not batch * E.
    assert csr_bytes < naive_bytes / 100

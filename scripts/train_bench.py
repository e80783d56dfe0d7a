#!/usr/bin/env python
"""Training hot-path benchmark: CSR gradient fold vs reference scatter-add.

Captures a *real* batch's gradient blocks on a synthetic FB15K-scale graph
and measures the accumulation kernel against the oracle kept in
``repro._reference``, on **both** indices a training step folds — the
entity index (heads + tails: many rows, short chains) and the relation
index (Zipf-skewed: few rows, one chain of hundreds):

* ``accum_ms`` / ``accum_speedup`` — ``SparseRows.from_rows`` (plan build +
  fold) vs ``scatter_add_rows`` (``np.unique`` + ``np.add.at``) on the
  entity index; ``accum_ms_relation`` / ``accum_speedup_relation`` the same
  on the relation index,
* ``fold_ms_prebuilt_plan`` (``..._relation``) — ``fold_rows`` alone,
* ``bitwise_equal`` — the load-bearing invariant: on both indices the fold
  must produce the reference's rows and sums bit for bit.

End-to-end training throughput is ``train_dense/work_per_s`` in
``BENCHMARK.json`` (``python perf/run.py``), not this script.

Telemetry lands in ``BENCH_train.json``.  The script exits non-zero when
the bitwise check fails or a speedup floor is missed (``fb15k`` profile:
accumulation >= 3x on the entity index and >= 2.5x on the relation index;
``smoke`` only sanity-checks), so CI catches both a broken fold and a
performance regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro._reference import scatter_add_rows
from repro.comm.sparse import SparseRows
from repro.kg.datasets import _zipf_weights, make_tiny_kg
from repro.kg.negative import corrupt_batch, select_all
from repro.kg.spmat import build_fold_plan, fold_rows
from repro.kg.triples import TripleSet, TripleStore
from repro.models import ComplEx
from repro.training.strategy import StrategyConfig
from repro.training.worker import Worker

#: FB15K's published cardinalities (paper Section 3.3); the training split
#: is trimmed so one benchmark epoch stays in seconds, not minutes.
FB15K_PROFILE = dict(n_entities=14_951, n_relations=1_345, n_train=45_000,
                     dim=32, batch=512, min_accum_speedup=3.0,
                     min_accum_speedup_relation=2.5)
#: CI sanity profile: asserts the kernel agrees bitwise with the reference,
#: without pretending tiny-graph timings are meaningful speedups.
SMOKE_PROFILE = dict(n_entities=300, n_relations=12, n_train=2_400,
                     dim=8, batch=128, min_accum_speedup=0.0,
                     min_accum_speedup_relation=0.0)


def build_store(profile: dict, seed: int) -> TripleStore:
    if profile is SMOKE_PROFILE:
        return make_tiny_kg(seed=seed, n_entities=profile["n_entities"],
                            n_relations=profile["n_relations"],
                            n_triples=profile["n_train"])
    rng = np.random.default_rng(seed)
    # The relation skew of ``generate_latent_kg`` (``relation_zipf``): it
    # decides how long the relation index's duplicate chains are.
    skew = _zipf_weights(profile["n_relations"], 1.05)

    def split(n):
        return TripleSet(heads=rng.integers(0, profile["n_entities"], n),
                         relations=rng.choice(profile["n_relations"], n,
                                              p=skew),
                         tails=rng.integers(0, profile["n_entities"], n))

    return TripleStore(n_entities=profile["n_entities"],
                       n_relations=profile["n_relations"],
                       train=split(profile["n_train"]), valid=split(1_000),
                       test=split(1_000), name="train-bench")


def capture_gradient_blocks(store: TripleStore, profile: dict, seed: int
                            ) -> dict[str, tuple[np.ndarray, np.ndarray, int]]:
    """A real batch's ``(indices, per-slot gradient rows, matrix height)``
    for each of the two folds a training step performs."""
    model = ComplEx(store.n_entities, store.n_relations, profile["dim"],
                    seed=seed)
    w = Worker(rank=0, shard=store.train, n_entities=store.n_entities,
               strategy=StrategyConfig(negatives_sampled=2, negatives_used=2),
               seed=seed)
    w.start_epoch()
    pos = w._batch_positives(0, profile["batch"])
    neg = corrupt_batch(pos, store.n_entities, k=2, rng=w.rng)
    nh, nr, nt = select_all(neg)
    h = np.concatenate([pos.heads, nh])
    r = np.concatenate([pos.relations, nr])
    t = np.concatenate([pos.tails, nt])
    rng = np.random.default_rng(seed)
    upstream = rng.normal(size=len(h)).astype(np.float32)
    g_h, g_r, g_t = model.score_grad(h, r, t, upstream)
    return {"entity": (np.concatenate([h, t]), np.concatenate([g_h, g_t]),
                       store.n_entities),
            "relation": (r, g_r, store.n_relations)}


def measure(idx: np.ndarray, vals: np.ndarray, n_rows: int,
            reps: int) -> dict:
    """Bitwise check and best-of-``reps`` timings of one fold."""
    ref_rows, ref_sums = scatter_add_rows(idx, vals)
    folded = SparseRows.from_rows(idx, vals, n_rows=n_rows)
    plan = build_fold_plan(idx, n_rows)
    csr_ms = time_best(
        lambda: SparseRows.from_rows(idx, vals, n_rows=n_rows), reps) * 1e3
    reference_ms = time_best(lambda: scatter_add_rows(idx, vals), reps) * 1e3
    return {
        "bitwise_equal": bool(
            np.array_equal(ref_rows, folded.indices)
            and np.array_equal(ref_sums.view(np.uint32),
                               folded.values.view(np.uint32))),
        "accum_ms": {"csr": csr_ms, "reference": reference_ms},
        "fold_ms": time_best(lambda: fold_rows(plan, vals), reps) * 1e3,
        "speedup": reference_ms / csr_ms,
    }


def time_best(fn, reps: int) -> float:
    fn()  # warmup
    return min(_timed(fn) for _ in range(reps))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("fb15k", "smoke"),
                        default="fb15k")
    parser.add_argument("--accum-reps", type=int, default=100,
                        help="microbenchmark repetitions (default: 100)")
    parser.add_argument("--seed", type=int, default=20220829)
    parser.add_argument("--out", default="BENCH_train.json", metavar="PATH")
    args = parser.parse_args(argv)

    profile = FB15K_PROFILE if args.profile == "fb15k" else SMOKE_PROFILE
    store = build_store(profile, args.seed)
    print(f"dataset : {store.summary()}")

    folds = {name: measure(*block, reps=args.accum_reps)
             for name, block in capture_gradient_blocks(
                 store, profile, args.seed).items()}
    for name, fold in folds.items():
        ms = fold["accum_ms"]
        print(f"{name:<8}: bitwise {fold['bitwise_equal']}, csr "
              f"{ms['csr']:.3f} ms, reference {ms['reference']:.3f} ms -> "
              f"{fold['speedup']:.2f}x (prebuilt-plan fold "
              f"{ms['reference'] / fold['fold_ms']:.2f}x)")
    entity, relation = folds["entity"], folds["relation"]
    bitwise_equal = entity["bitwise_equal"] and relation["bitwise_equal"]

    payload = {
        "profile": args.profile,
        "n_entities": store.n_entities,
        "n_relations": store.n_relations,
        "dim": profile["dim"],
        "batch_size": profile["batch"],
        "accum_ms": entity["accum_ms"],
        "accum_ms_relation": relation["accum_ms"],
        "fold_ms_prebuilt_plan": entity["fold_ms"],
        "fold_ms_prebuilt_plan_relation": relation["fold_ms"],
        "accum_speedup": entity["speedup"],
        "accum_speedup_relation": relation["speedup"],
        "bitwise_equal": bitwise_equal,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True)
                              + "\n")
    print(f"report  : {args.out}")

    bad = []
    if not bitwise_equal:
        bad.append("fold and reference scatter-add diverged bitwise")
    for key, floor_key in (("accum_speedup", "min_accum_speedup"),
                           ("accum_speedup_relation",
                            "min_accum_speedup_relation")):
        if payload[key] < profile[floor_key]:
            bad.append(f"{key}={payload[key]:.2f}x "
                       f"< {profile[floor_key]}x floor")
    if bad:
        print("FAIL: " + "; ".join(bad), file=sys.stderr)
        return 1
    print(f"OK: accum {payload['accum_speedup']:.2f}x entity, "
          f"{payload['accum_speedup_relation']:.2f}x relation, bitwise equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())

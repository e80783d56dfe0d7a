#!/usr/bin/env python
"""CI gate: elastic rank-loss recovery is deterministic and complete.

Trains the paper's full strategy (DRS+1-bit+RP+SS, 4 simulated nodes) under
the elastic supervisor with a seeded fault plan that permanently kills
rank 2 at epoch 3.  The run must:

1. complete on the 3 survivors (world lineage 4 -> 3, one restart);
2. be bitwise deterministic — a second invocation produces identical
   embeddings, optimizer state, epoch logs and decision log;
3. produce a decision log (the ``elastic`` shrink record, plus any DRS
   decision) matching the pinned golden
   (``tests/golden/elastic-recovery.json``; regenerate with ``--update``).

Any mismatch exits non-zero and prints the offending fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ElasticSupervisor, FaultPlan, TrainConfig
from repro.kg.datasets import make_tiny_kg
from repro.training.strategy import drs_1bit_rp_ss

GOLDEN = (Path(__file__).resolve().parent.parent
          / "tests" / "golden" / "elastic-recovery.json")

FAULTS = FaultPlan(seed=99, rank_loss=((2, 3),))


def run(store, epochs):
    cfg = TrainConfig(dim=8, batch_size=128, max_epochs=epochs,
                      lr_patience=6, eval_max_queries=30, seed=20220829)
    supervisor = ElasticSupervisor(store, drs_1bit_rp_ss(), 4, config=cfg,
                                   faults=FAULTS, max_restarts=2)
    result = supervisor.run()
    return supervisor, result


def diff(first, second) -> list[str]:
    bad = []

    def check(field, a, b):
        if a != b:
            bad.append(f"{field}: first={a!r} second={b!r}")

    sup_a, res_a = first
    sup_b, res_b = second
    check("decisions", json.dumps(res_a.decisions),
          json.dumps(res_b.decisions))
    check("world_lineage", res_a.world_lineage, res_b.world_lineage)
    check("restarts", res_a.restarts, res_b.restarts)
    check("epochs", res_a.epochs, res_b.epochs)
    check("logs", res_a.logs, res_b.logs)
    check("total_time", res_a.total_time, res_b.total_time)
    check("recovery_time", res_a.recovery_time, res_b.recovery_time)
    check("final_val_mrr", res_a.final_val_mrr, res_b.final_val_mrr)
    check("test_mrr", res_a.test_mrr, res_b.test_mrr)
    check("bytes_total", res_a.bytes_total, res_b.bytes_total)
    check("entity_emb",
          sup_a.trainer.model.entity_emb.tobytes(),
          sup_b.trainer.model.entity_emb.tobytes())
    check("relation_emb",
          sup_a.trainer.model.relation_emb.tobytes(),
          sup_b.trainer.model.relation_emb.tobytes())
    for name in ("entity_state", "relation_state"):
        sa = getattr(sup_a.trainer.optimizer, name)
        sb = getattr(sup_b.trainer.optimizer, name)
        for part in ("m", "v", "steps"):
            check(f"adam.{name}.{part}",
                  getattr(sa, part).tobytes(), getattr(sb, part).tobytes())
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=6,
                        help="epoch budget (default: 6)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden decision log and exit")
    args = parser.parse_args(argv)

    store = make_tiny_kg()

    print(f"[1/3] elastic run: {args.epochs} epochs, {FAULTS.describe()}")
    first = run(store, args.epochs)
    supervisor, result = first

    log = result.decisions
    if args.update:
        GOLDEN.write_text(json.dumps(log, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0

    failures: list[str] = []
    if result.restarts != 1:
        failures.append(f"expected exactly 1 restart, got {result.restarts}")
    if result.world_lineage != [4, 3]:
        failures.append(f"expected lineage [4, 3], got {result.world_lineage}")
    if result.epochs != args.epochs:
        failures.append(
            f"run did not complete: {result.epochs}/{args.epochs} epochs")

    print("[2/3] repeat run: checking bitwise determinism")
    second = run(store, args.epochs)
    failures += diff(first, second)

    print(f"[3/3] decision log vs golden ({GOLDEN.name})")
    if not GOLDEN.is_file():
        failures.append(f"golden {GOLDEN} missing; run with --update")
    else:
        golden = json.loads(GOLDEN.read_text())
        if golden != log:
            failures.append(
                f"decision log diverged from golden:\n"
                f"  golden: {json.dumps(golden, sort_keys=True)}\n"
                f"  actual: {json.dumps(log, sort_keys=True)}")

    if failures:
        print(f"\nFAIL ({len(failures)} problem(s)):")
        for line in failures:
            print("  " + (line if len(line) < 400 else line[:400] + " ..."))
        return 1
    print(f"\nOK: rank 2 killed at epoch 3, recovered onto 3 survivors, "
          f"run completed {result.epochs} epochs deterministically "
          f"(final test MRR {result.test_mrr:.6f}, "
          f"recovery overhead {result.recovery_time:.3f}s simulated).")
    return 0


if __name__ == "__main__":
    sys.exit(main())

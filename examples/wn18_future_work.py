#!/usr/bin/env python
"""Future work: other models and other datasets.

The paper's conclusion proposes exploring the strategies "with other KGE
models on different datasets".  This example runs the full method on a
WN18-like graph (WordNet regime: only 18 relations, ~4 triples per entity
— the opposite of Freebase) with three different models, showing that the
strategy stack is model- and dataset-agnostic, and that relation partition
hits its natural limit when relations barely outnumber workers.

Run:  python examples/wn18_future_work.py
"""

from repro import StrategyConfig, TrainConfig, train
from repro.bench import BENCH_NETWORK
from repro.kg import make_wn18_like


def main() -> None:
    store = make_wn18_like(scale=0.02)
    print(f"dataset: {store.summary()}\n")

    config = TrainConfig(dim=16, batch_size=256, base_lr=5e-3, max_epochs=50,
                         lr_patience=6, lr_warmup_epochs=10,
                         eval_max_queries=100, time_scale=2.0e5)

    # 16 workers and 18 relations: relation partition still possible, but
    # only just (19 workers would raise).
    full = StrategyConfig(comm_mode="dynamic", selection="random",
                          quantization_bits=1, relation_partition=True,
                          sample_selection=True, negatives_sampled=5,
                          negatives_used=1)

    header = f"{'model':>10} {'TT (h)':>8} {'epochs':>7} {'MRR':>6} {'TCA':>6}"
    print(header)
    print("-" * len(header))
    for model_name in ("complex", "distmult", "rotate"):
        result = train(store, full, 8,
                       config=TrainConfig(**{**vars(config),
                                             "model_name": model_name}),
                       network=BENCH_NETWORK)
        print(f"{model_name:>10} {result.total_hours:>8.2f} "
              f"{result.epochs:>7d} {result.test_mrr:>6.3f} "
              f"{result.test_tca:>6.1f}")

    print("\nAll three models run the identical strategy stack — the "
          "paper's\nobservation that every strategy except sample "
          "selection is model-agnostic\n(and SS only needs a scoring "
          "function) holds by construction here.")


if __name__ == "__main__":
    main()

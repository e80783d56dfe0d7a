"""Calibration of the simulated substrate to the paper's regime.

The paper's experiments ran on full FB15K/FB250K on a Cray XC40; ours run on
graphs scaled down ~25-400x.  To keep the *ratios* that drive every
qualitative result (communication/computation balance, allgather/allreduce
crossover point, quantization payoff), the network parameters here are
chosen for the scaled regime:

* ``alpha`` is small (0.5 us) so that, as in the paper's bandwidth-bound
  regime, the byte-volume term dominates even for our small matrices;
* ``beta`` and ``node_flops`` are set so that at 1 node an epoch is
  compute-bound while at 16 nodes communication is the bottleneck — the
  balance the paper's Figure 1d exhibits;
* ``TIME_SCALE`` maps simulated seconds to reported "hours" so baseline
  magnitudes land near the paper's tables (a cosmetic constant: it
  multiplies every configuration identically and cannot change any
  comparison).

Bench profiles
--------------

``quick`` (default) finishes the full suite in 18-23 minutes on a 2-core
box (1,065-1,138 s of test calls, led by Figure 9 at 204 s, Figure 1 at
168-213 s and Figure 6 at 128-142 s); ``full`` uses larger graphs and
paper-faithful patience.  Select with ``REPRO_BENCH_PROFILE``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..comm.network import NetworkModel
from ..training.trainer import TrainConfig

#: Network model used by every benchmark (see module docstring).
BENCH_NETWORK = NetworkModel(alpha=0.5e-6, beta=1.0 / 8.0e9, node_flops=5.0e10)


@dataclass(frozen=True)
class BenchProfile:
    """Sizes and budgets for one benchmark fidelity level."""

    name: str
    fb15k_scale: float
    fb250k_scale: float
    dim: int
    batch_size: int
    max_epochs: int
    lr_patience: int
    lr_warmup_epochs: int
    #: Uniform-negative curriculum length before hardest-negative selection
    #: activates (hard negatives from epoch 1 can trap low-lr runs).
    ss_warmup_epochs: int
    eval_max_queries: int
    #: Simulated-seconds -> reported-hours multiplier (cosmetic, see above).
    time_scale: float
    base_lr: float = 2.5e-3


QUICK = BenchProfile(
    name="quick",
    fb15k_scale=0.02,
    fb250k_scale=0.0025,
    dim=16,
    batch_size=256,
    max_epochs=90,
    lr_patience=6,
    lr_warmup_epochs=15,
    ss_warmup_epochs=25,
    eval_max_queries=100,
    time_scale=2.0e5,
)

FULL = BenchProfile(
    name="full",
    fb15k_scale=0.05,
    fb250k_scale=0.005,
    dim=32,
    batch_size=512,
    max_epochs=200,
    lr_patience=12,
    lr_warmup_epochs=25,
    ss_warmup_epochs=40,
    eval_max_queries=200,
    time_scale=5.0e4,
)

PROFILES = {"quick": QUICK, "full": FULL}


def active_profile() -> BenchProfile:
    """The profile selected by ``REPRO_BENCH_PROFILE`` (default quick)."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_BENCH_PROFILE={name!r} unknown; "
            f"choose from {sorted(PROFILES)}"
        ) from None


def train_config(profile: BenchProfile, **overrides) -> TrainConfig:
    """Build the TrainConfig a benchmark should use under ``profile``."""
    kwargs = dict(
        dim=profile.dim,
        batch_size=profile.batch_size,
        base_lr=profile.base_lr,
        max_epochs=profile.max_epochs,
        lr_patience=profile.lr_patience,
        lr_warmup_epochs=profile.lr_warmup_epochs,
        ss_warmup_epochs=profile.ss_warmup_epochs,
        eval_max_queries=profile.eval_max_queries,
        time_scale=profile.time_scale,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)

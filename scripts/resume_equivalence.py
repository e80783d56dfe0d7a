#!/usr/bin/env python
"""CI gate: kill-and-resume must be bitwise identical to a straight run.

Trains the paper's full strategy (DRS+1-bit+RP+SS) with error feedback and
``collective="auto"`` on 4 simulated ranks, two per node, under an injected
fault plan for ``--epochs`` epochs straight through, then re-runs the same
configuration but "crashes" it at the midpoint — training only to epoch
``epochs // 2`` with checkpointing on — and resumes a fresh trainer from
the newest checkpoint.  Error feedback on the two-level network is what
puts rank *and* node residual stores into the checkpoint; with a DRS probe
every third epoch the default kill point (epoch 3 of 6) is an allgather
probe, so both kinds are dirty in the snapshot (other ``--epochs`` catch the
node stores at least), and the script refuses to pass on a snapshot that
carries no residual row at all.  Every deterministic output (epoch logs,
simulated clock, bytes on the wire, retries, final embeddings, optimizer
moments, every residual store's ``(rows, values)`` bytes) is diffed; any
mismatch exits non-zero and prints the offending fields.  The bytes each
restored residual store holds in memory are printed too.

Both runs checkpoint every epoch — the straight run into ``<out>/straight``,
the interrupted run and its resumption into ``<out>/resumed`` — and every
epoch both directories hold must have byte-equal ``manifest.json`` and
``state.npz`` files: a snapshot is a pure function of (seed, plan), with
no wall clock in it.  Last, the resumed directory is served: it loads
through ``EmbeddingStore.from_checkpoint``, whose entity matrix must be the
resumed trainer's and whose ``manifest_digest`` must be the SHA-256 of the
newest manifest file.  That manifest's ``model`` must be the trainer's
``model_name``, and serving the snapshot as any other registered model
must raise ``ValueError``.

The checkpoint directories are left in place (default: ``resume-ckpt/``)
so CI can upload them as an artifact for post-mortem inspection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DistributedTrainer, FaultPlan, TrainConfig, latest_checkpoint
from repro.comm.network import NetworkModel
from repro.kg.datasets import make_tiny_kg
from repro.models import MODEL_REGISTRY
from repro.serve import EmbeddingStore
from repro.training.checkpoint import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    list_checkpoints,
)
from repro.training.strategy import drs_1bit_rp_ss

FAULTS = FaultPlan(seed=99, drop_prob=0.02, compute_slowdown=((1, 2.0),),
                   policy="fallback-dense")
STRATEGY = replace(drs_1bit_rp_ss(), error_feedback=True, collective="auto",
                   drs_probe_interval=3)
NETWORK = NetworkModel.parse(
    "rpn=2,intra=0.3e-6:2e-11,inter=5e-6:1.25e-10")


def build_trainer(store, max_epochs, checkpoint_dir):
    """A trainer that checkpoints every epoch and keeps every checkpoint."""
    cfg = TrainConfig(dim=8, batch_size=128, max_epochs=max_epochs,
                      lr_patience=6, eval_max_queries=30, seed=20220829,
                      checkpoint_dir=str(checkpoint_dir), checkpoint_every=1,
                      checkpoint_keep=0)
    return DistributedTrainer(store, STRATEGY, 4, config=cfg,
                              network=NETWORK, faults=FAULTS)


def residual_stores(trainer) -> dict:
    """Every error-feedback store of a trainer, rank and node level."""
    return {key: s for key, _, s in trainer.exchange.residual_stores()}


def diff(straight, resumed) -> list[str]:
    bad = []

    def check(field, a, b):
        if a != b:
            bad.append(f"{field}: straight={a!r} resumed={b!r}")

    a, b = straight.result, resumed.result
    check("epochs", a.epochs, b.epochs)
    check("logs", a.logs, b.logs)
    check("total_time", a.total_time, b.total_time)
    check("final_val_mrr", a.final_val_mrr, b.final_val_mrr)
    check("test_mrr", a.test_mrr, b.test_mrr)
    check("test_hits10", a.test_hits10, b.test_hits10)
    check("test_tca", a.test_tca, b.test_tca)
    check("bytes_total", a.bytes_total, b.bytes_total)
    check("comm_retries", a.comm_retries, b.comm_retries)
    check("comm_fallbacks", a.comm_fallbacks, b.comm_fallbacks)
    check("drs_switch_epoch", a.drs_switch_epoch, b.drs_switch_epoch)
    check("eval_queries", a.eval_queries, b.eval_queries)
    check("entity_emb",
          straight.model.entity_emb.tobytes(),
          resumed.model.entity_emb.tobytes())
    check("relation_emb",
          straight.model.relation_emb.tobytes(),
          resumed.model.relation_emb.tobytes())
    for name in ("entity_state", "relation_state"):
        sa = getattr(straight.optimizer, name)
        sb = getattr(resumed.optimizer, name)
        for part in ("m", "v", "steps"):
            check(f"adam.{name}.{part}",
                  getattr(sa, part).tobytes(), getattr(sb, part).tobytes())
    ra, rb = residual_stores(straight), residual_stores(resumed)
    check("residual stores", sorted(ra), sorted(rb))
    for name in sorted(set(ra) & set(rb)):
        check(f"residual.{name}.rows",
              ra[name].rows.tobytes(), rb[name].rows.tobytes())
        check(f"residual.{name}.values",
              (ra[name].values.shape, ra[name].values.tobytes()),
              (rb[name].values.shape, rb[name].values.tobytes()))
    return bad


def diff_files(straight_dir: Path, resumed_dir: Path) -> list[str]:
    """Byte-compare the snapshot files of every epoch both directories
    hold, printing one line per file."""
    straight = {path.name: path for _, path in list_checkpoints(straight_dir)}
    resumed = {path.name: path for _, path in list_checkpoints(resumed_dir)}
    shared = sorted(set(straight) & set(resumed))
    bad = [] if shared else ["the two runs share no checkpointed epoch"]
    for epoch in shared:
        for name in (MANIFEST_NAME, ARRAYS_NAME):
            equal = ((straight[epoch] / name).read_bytes()
                     == (resumed[epoch] / name).read_bytes())
            print(f"      {epoch}/{name}: {'EQUAL' if equal else 'DIFFER'}")
            if not equal:
                bad.append(f"{epoch}/{name} differs between the straight "
                           f"and the resumed run")
    return bad


def check_model_name(ckpt_dir: Path, recorded: str, trained: str
                     ) -> list[str]:
    """The manifest names the model that wrote it, and serving the snapshot
    as any other registered model is refused with ``ValueError``."""
    bad = []
    if recorded != trained:
        bad.append(f"manifest model {recorded!r} is not the trainer's "
                   f"model_name {trained!r}")
    for other in sorted(set(MODEL_REGISTRY) - {trained}):
        try:
            EmbeddingStore.from_checkpoint(ckpt_dir, model_name=other)
        except ValueError as exc:
            print(f"      served as {other!r}: refused ({exc})")
        else:
            bad.append(f"serving the {trained!r} snapshot as {other!r} "
                       f"was not refused")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=6,
                        help="straight-run epoch budget (default: 6)")
    parser.add_argument("--out", default="resume-ckpt", metavar="DIR",
                        help="checkpoint root (straight/ and resumed/), kept "
                        "for artifact upload")
    args = parser.parse_args(argv)
    kill_at = args.epochs // 2
    straight_dir = Path(args.out, "straight")
    resumed_dir = Path(args.out, "resumed")

    store = make_tiny_kg()

    print(f"[1/3] straight run: {args.epochs} epochs under "
          f"{FAULTS.describe()}, checkpoints -> {straight_dir}/")
    straight = build_trainer(store, args.epochs, straight_dir)
    straight.run()

    print(f"[2/3] interrupted run: killed after epoch {kill_at}, "
          f"checkpoints -> {resumed_dir}/")
    interrupted = build_trainer(store, kill_at, resumed_dir)
    interrupted.run()

    newest = latest_checkpoint(resumed_dir)
    print(f"[3/3] resuming fresh trainer from {newest}")
    resumed = build_trainer(store, args.epochs, resumed_dir)
    resumed.restore(newest)
    restored = {name: s.nnz_rows
                for name, s in residual_stores(resumed).items() if s.nnz_rows}
    print(f"      residual rows restored: {restored}")
    resident = {name: s.nbytes for name, s in residual_stores(resumed).items()}
    print(f"      residual bytes resident: {resident}")
    resumed.run()

    bad = diff(straight, resumed)
    if not restored:
        bad.append(f"the epoch-{kill_at} snapshot restored no residual row; "
                   f"the run no longer exercises error-feedback state")
    bad += diff_files(straight_dir, resumed_dir)
    served = EmbeddingStore.from_checkpoint(
        resumed_dir, model_name=resumed.config.model_name)
    print(f"      served {served.checkpoint_path}: epoch {served.epoch}, "
          f"manifest sha256 {served.manifest_digest[:12]}...")
    if (served.model.entity_emb.tobytes()
            != resumed.model.entity_emb.tobytes()):
        bad.append("served entity matrix differs from the resumed trainer's")
    newest = latest_checkpoint(resumed_dir)
    manifest_bytes = (newest / MANIFEST_NAME).read_bytes()
    newest_digest = hashlib.sha256(manifest_bytes).hexdigest()
    if served.manifest_digest != newest_digest:
        bad.append(f"served manifest_digest {served.manifest_digest[:12]}... "
                   f"is not the newest manifest's {newest_digest[:12]}...")
    bad += check_model_name(resumed_dir, json.loads(manifest_bytes)["model"],
                            resumed.config.model_name)
    if bad:
        print(f"\nFAIL: resume diverged from the straight run "
              f"({len(bad)} field(s)):")
        for line in bad:
            # embeddings diff as raw bytes; don't dump megabytes to the log
            print("  " + (line if len(line) < 200 else line[:200] + " ..."))
        return 1
    print(f"\nOK: resume at epoch {kill_at} is bitwise identical to the "
          f"straight {args.epochs}-epoch run "
          f"(final test MRR {straight.result.test_mrr:.6f}, "
          f"{straight.result.bytes_total} bytes communicated).")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end determinism regression.

The fault layer added RNG plumbing around the cluster and collectives; this
guards that none of it leaks into existing fault-free paths: two runs with
the same ``TrainConfig.seed`` must produce *identical* epoch logs and
metrics, and a null fault plan must be indistinguishable from no plan.

The second half covers the checkpoint subsystem's core contract: a run
interrupted at epoch *k* and resumed from its checkpoint is **bitwise
identical** to an uninterrupted run — same logs, same counters, same
embedding bytes — across strategy combos, fault plans, and (via Hypothesis)
randomly drawn seeds and interruption points.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DistributedTrainer, FaultPlan, TrainConfig, train
from repro.kg.datasets import make_tiny_kg
from repro.training import (
    drs_1bit_rp_ss,
    latest_checkpoint,
    load_checkpoint,
    rs_1bit,
)
from repro.training.strategy import baseline_allreduce


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg()


def config(**overrides):
    defaults = dict(dim=8, batch_size=128, max_epochs=4, lr_patience=6,
                    eval_max_queries=30, seed=1234)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def assert_identical(a, b):
    assert a.logs == b.logs, "epoch logs diverged between identical runs"
    assert a.total_time == b.total_time
    assert a.final_val_mrr == b.final_val_mrr
    assert a.test_mrr == b.test_mrr
    assert a.test_hits10 == b.test_hits10
    assert a.test_tca == b.test_tca
    assert a.bytes_total == b.bytes_total
    assert a.comm_retries == b.comm_retries
    assert a.straggler_skew == b.straggler_skew


@pytest.mark.parametrize("strategy_maker,n_nodes", [
    (baseline_allreduce, 1),
    (baseline_allreduce, 4),
    (rs_1bit, 3),
    (drs_1bit_rp_ss, 4),
])
def test_same_seed_identical_runs(store, strategy_maker, n_nodes):
    cfg = config()
    a = train(store, strategy_maker(), n_nodes, config=cfg)
    b = train(store, strategy_maker(), n_nodes, config=cfg)
    assert_identical(a, b)


def test_null_fault_plan_is_byte_identical_to_none(store):
    cfg = config()
    bare = train(store, baseline_allreduce(), 4, config=cfg)
    nulled = train(store, baseline_allreduce(), 4, config=cfg,
                   faults=FaultPlan(seed=777))
    assert_identical(bare, nulled)
    assert nulled.comm_retries == 0
    assert nulled.comm_fallbacks == 0


def test_different_train_seeds_differ(store):
    """Sanity check the comparison has teeth: a different training seed
    must actually change the trajectory."""
    a = train(store, baseline_allreduce(), 2, config=config(seed=1))
    b = train(store, baseline_allreduce(), 2, config=config(seed=2))
    assert a.series("loss") != b.series("loss")


# ---------------------------------------------------------------------------
# Checkpoint/resume bitwise equivalence
# ---------------------------------------------------------------------------

def _drs_probe2():
    return replace(drs_1bit_rp_ss(), drs_probe_interval=2)


def _rs_1bit_ef():
    return replace(rs_1bit(), error_feedback=True)


#: label -> (strategy maker, nodes, fault plan)
RESUME_COMBOS = {
    "drs+faults": (
        drs_1bit_rp_ss, 4,
        FaultPlan(seed=99, drop_prob=0.02, compute_slowdown=((1, 2.0),),
                  policy="fallback-dense")),
    "drs-switch-epoch": (_drs_probe2, 4, None),
    "rs-ef+jitter": (
        _rs_1bit_ef, 2,
        FaultPlan(seed=5, alpha_jitter=0.2, compute_slowdown=((0, 1.5),),
                  policy="fallback-dense")),
}


def _straight_and_resumed(store, maker, n_nodes, faults, ckpt_root, *,
                          seed=1234, kill_at=3, total=6):
    """Run uninterrupted vs. killed-at-``kill_at``-then-resumed."""
    cfg = dict(dim=8, batch_size=128, lr_patience=6, eval_max_queries=30,
               seed=seed)
    straight = DistributedTrainer(store, maker(), n_nodes,
                                  config=TrainConfig(max_epochs=total, **cfg),
                                  faults=faults)
    straight.run()

    # The "crash": train only to kill_at, checkpointing as we go ...
    interrupted = DistributedTrainer(
        store, maker(), n_nodes,
        config=TrainConfig(max_epochs=kill_at, checkpoint_dir=str(ckpt_root),
                           checkpoint_every=1, **cfg),
        faults=faults)
    interrupted.run()
    # ... then a brand-new process picks up the newest checkpoint.
    resumed = DistributedTrainer(store, maker(), n_nodes,
                                 config=TrainConfig(max_epochs=total, **cfg),
                                 faults=faults)
    assert resumed.restore(latest_checkpoint(ckpt_root)) == kill_at
    resumed.run()
    return straight, resumed


@pytest.mark.parametrize("label", sorted(RESUME_COMBOS))
def test_resume_is_bitwise_identical(store, tmp_path, label):
    maker, n_nodes, faults = RESUME_COMBOS[label]
    straight, resumed = _straight_and_resumed(store, maker, n_nodes, faults,
                                              tmp_path)
    assert_identical(straight.result, resumed.result)
    assert straight.result.drs_switch_epoch == resumed.result.drs_switch_epoch
    assert straight.result.comm_fallbacks == resumed.result.comm_fallbacks
    assert straight.result.eval_queries == resumed.result.eval_queries
    assert (straight.model.entity_emb.tobytes()
            == resumed.model.entity_emb.tobytes())
    assert (straight.model.relation_emb.tobytes()
            == resumed.model.relation_emb.tobytes())


def test_checkpoints_are_a_function_of_seed_and_plan(store, tmp_path):
    """Two runs of one (seed, plan) write byte-identical checkpoint
    directories — manifests included, so no wall clock is snapshotted."""
    strategy = replace(drs_1bit_rp_ss(), error_feedback=True,
                       drs_probe_interval=2)
    faults = FaultPlan(seed=5, drop_prob=0.05, compute_slowdown=((1, 2.0),),
                       policy="fallback-dense")
    files = []
    for run in ("first", "second"):
        root = tmp_path / run
        DistributedTrainer(store, strategy, 4, faults=faults, config=config(
            checkpoint_dir=str(root), checkpoint_every=1,
            checkpoint_keep=0)).run()
        files.append({path.relative_to(root): path.read_bytes()
                      for path in sorted(root.rglob("*")) if path.is_file()})
    assert len(files[0]) == 2 * 4
    assert files[0] == files[1]


def test_resumed_eval_rate_is_the_resuming_process_rate(store, tmp_path):
    """``eval_queries`` counts the whole lineage; the rate divides only the
    queries the resumed process ran by the seconds it spent."""
    straight, resumed = _straight_and_resumed(store, drs_1bit_rp_ss, 4, None,
                                              tmp_path)
    carried = load_checkpoint(latest_checkpoint(tmp_path)).scalars[
        "eval_timer"]["queries"]
    result = resumed.result
    assert result.eval_queries == straight.result.eval_queries > carried > 0
    assert result.eval_queries_per_sec == pytest.approx(
        (result.eval_queries - carried) / result.eval_seconds)


def test_resume_crosses_the_drs_switch(store, tmp_path):
    """Killing *before* the DRS probe epoch and resuming must reproduce the
    same switch decision at the same epoch."""
    straight, resumed = _straight_and_resumed(store, _drs_probe2, 4, None,
                                              tmp_path, kill_at=1, total=6)
    assert straight.result.drs_switch_epoch is not None
    assert straight.result.drs_switch_epoch > 1
    assert resumed.result.drs_switch_epoch == straight.result.drs_switch_epoch
    assert_identical(straight.result, resumed.result)


@settings(max_examples=5)
@given(seed=st.integers(0, 2**20), kill_at=st.integers(1, 5),
       which=st.sampled_from(sorted(RESUME_COMBOS)),
       drop=st.sampled_from([0.0, 0.05]))
def test_resume_equivalence_property(seed, kill_at, which, drop):
    """Property form: for random seeds, interruption points, strategies and
    fault intensities, resume-at-k == uninterrupted, bit for bit."""
    store = make_tiny_kg()
    maker, n_nodes, _ = RESUME_COMBOS[which]
    faults = FaultPlan(seed=seed + 1, drop_prob=drop,
                       policy="fallback-dense") if drop else None
    with tempfile.TemporaryDirectory() as tmp:
        straight, resumed = _straight_and_resumed(
            store, maker, n_nodes, faults, Path(tmp),
            seed=seed, kill_at=kill_at, total=6)
    assert_identical(straight.result, resumed.result)
    assert (straight.model.entity_emb.tobytes()
            == resumed.model.entity_emb.tobytes())


@settings(max_examples=5)
@given(seed=st.integers(0, 2**20), epochs=st.integers(1, 3))
def test_save_load_save_byte_identity_property(seed, epochs):
    """Property form of the format guarantee: re-serialising a loaded
    checkpoint reproduces the original files byte for byte."""
    from repro.training.checkpoint import (
        ARRAYS_NAME, MANIFEST_NAME, load_checkpoint, write_checkpoint)
    store = make_tiny_kg()
    trainer = DistributedTrainer(
        store, drs_1bit_rp_ss(), 3,
        config=TrainConfig(dim=8, batch_size=128, max_epochs=epochs,
                           eval_max_queries=20, seed=seed))
    trainer.run()
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first"
        trainer.save_checkpoint(first)
        second = write_checkpoint(load_checkpoint(first), Path(tmp) / "second")
        for name in (MANIFEST_NAME, ARRAYS_NAME):
            assert (second / name).read_bytes() == (first / name).read_bytes()

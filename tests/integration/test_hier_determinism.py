"""Determinism and bitwise contracts of the hierarchical collective stack.

Three guarantees ride on this file:

1. With compression off, training over the two-level stack
   (``collective="hier"``) produces **bitwise identical** embeddings to the
   flat ring — the hierarchy only changes what the clocks charge.
2. The compressed hierarchical path (hop-boundary re-quantization plus
   per-node error feedback) is deterministic: same seed, same fault plan →
   same run, including through checkpoint/resume and elastic recovery.
3. The three-way DRS choice is a pure function of (seed, probe
   measurements): replaying the same measurements commits the same switch.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DistributedTrainer, FaultPlan, TrainConfig, train
from repro.comm.network import NetworkModel
from repro.compress.error_feedback import NodeResiduals
from repro.kg.datasets import make_tiny_kg
from repro.obs import Decision
from repro.training import drs_1bit_rp_ss, latest_checkpoint, rs_1bit
from repro.training.elastic import ElasticSupervisor
from repro.training.exchange import DrsState, GradientExchange
from repro.training.strategy import baseline_allreduce

from .test_determinism import assert_identical


@pytest.fixture(scope="module")
def store():
    return make_tiny_kg()


NET = NetworkModel(alpha=5e-6, beta=1.25e-10, ranks_per_node=2,
                   intra=NetworkModel(alpha=1e-7, beta=1e-11))
#: An on-node link slower than the between-node one: the two-level path's
#: full-precision intra gather then loses to the flat allgather probe, so
#: DRS commits away from the node residuals.
SLOW_INTRA = NetworkModel(alpha=5e-6, beta=1.25e-10, ranks_per_node=2,
                          intra=NetworkModel(alpha=5e-6, beta=1e-8))


def config(**overrides):
    defaults = dict(dim=8, batch_size=128, max_epochs=4, lr_patience=6,
                    eval_max_queries=30, seed=1234)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def _hier(maker, **overrides):
    return replace(maker(), collective="hier", **overrides)


class TestDenseBitwiseContract:
    def test_hier_dense_equals_flat_embeddings(self, store):
        """Quantization off: flat and hierarchical runs must agree bit for
        bit on the learned embeddings (and the whole trajectory)."""
        cfg = config()
        flat = DistributedTrainer(store, baseline_allreduce(), 4,
                                  config=cfg, network=NET)
        flat.run()
        hier = DistributedTrainer(store, _hier(baseline_allreduce), 4,
                                  config=cfg, network=NET)
        hier.run()
        assert (flat.model.entity_emb.tobytes()
                == hier.model.entity_emb.tobytes())
        assert (flat.model.relation_emb.tobytes()
                == hier.model.relation_emb.tobytes())
        assert flat.result.series("loss") == hier.result.series("loss")
        assert flat.result.series("val_mrr") == hier.result.series("val_mrr")

    def test_hier_dense_counts_hier_steps(self, store):
        trainer = DistributedTrainer(store, _hier(baseline_allreduce), 4,
                                     config=config(), network=NET)
        result = trainer.run()
        assert result.hier_steps > 0
        assert result.allreduce_steps == 0
        assert "intra" in result.comm_by_hop
        assert "inter" in result.comm_by_hop

    def test_flat_collective_never_charges_hier_hops(self, store):
        trainer = DistributedTrainer(store, baseline_allreduce(), 4,
                                     config=config(), network=NET)
        result = trainer.run()
        assert result.hier_steps == 0
        assert set(result.comm_by_hop) <= {"flat"}


class TestCompressedHierDeterminism:
    def test_same_seed_identical_runs(self, store):
        cfg = config()
        maker = lambda: _hier(drs_1bit_rp_ss)
        a = train(store, maker(), 4, config=cfg, network=NET)
        b = train(store, maker(), 4, config=cfg, network=NET)
        assert_identical(a, b)
        assert a.comm_by_hop == b.comm_by_hop

    def test_same_seed_identical_under_faults(self, store):
        cfg = config()
        plan = FaultPlan(seed=99, drop_prob=0.05, alpha_jitter=0.2,
                         policy="fallback-dense")
        maker = lambda: _hier(rs_1bit, error_feedback=True)
        a = train(store, maker(), 4, config=cfg, network=NET, faults=plan)
        b = train(store, maker(), 4, config=cfg, network=NET, faults=plan)
        assert_identical(a, b)

    def test_checkpoint_resume_bitwise(self, store, tmp_path):
        """Kill at epoch 3, resume: the compressed hierarchical path (and
        its per-node residual state) restores bit for bit."""
        cfg = dict(dim=8, batch_size=128, lr_patience=6, eval_max_queries=30,
                   seed=1234)
        maker = lambda: _hier(rs_1bit, error_feedback=True)
        straight = DistributedTrainer(
            store, maker(), 4, network=NET,
            config=TrainConfig(max_epochs=6, **cfg))
        straight.run()
        interrupted = DistributedTrainer(
            store, maker(), 4, network=NET,
            config=TrainConfig(max_epochs=3, checkpoint_dir=str(tmp_path),
                               checkpoint_every=1, **cfg))
        interrupted.run()
        resumed = DistributedTrainer(
            store, maker(), 4, network=NET,
            config=TrainConfig(max_epochs=6, **cfg))
        assert resumed.restore(latest_checkpoint(tmp_path)) == 3
        resumed.run()
        assert_identical(straight.result, resumed.result)
        assert (straight.model.entity_emb.tobytes()
                == resumed.model.entity_emb.tobytes())
        assert (straight.model.relation_emb.tobytes()
                == resumed.model.relation_emb.tobytes())

    def test_drs_commit_retires_node_residuals(self, store, monkeypatch):
        """After DRS commits to allgather nothing injects or stores a node
        residual again, and every node store is empty from the commit
        epoch on, so no later snapshot carries them."""
        events = []

        def spy(cls, name, after=None):
            real = getattr(cls, name)

            def call(self, *args):
                out = real(self, *args)
                events.append(after(self) if after else name)
                return out
            monkeypatch.setattr(cls, name, call)

        spy(NodeResiduals, "inject")
        spy(NodeResiduals, "store")
        spy(GradientExchange, "observe", after=lambda ex: (
            ex.drs.switched,
            sum(res.nnz_rows for key, _, res in ex.residual_stores()
                if "/hier_" in key)))
        result = train(store, _hier(drs_1bit_rp_ss, error_feedback=True,
                                    drs_probe_interval=2),
                       4, config=config(max_epochs=6), network=SLOW_INTRA)
        assert result.drs_switch_epoch == 2
        epochs = [i for i, e in enumerate(events) if isinstance(e, tuple)]
        commit = next(i for i in epochs if events[i][0])
        assert {"inject", "store"} <= set(events[:commit])
        assert events[epochs[0]][1] > 0
        assert all(isinstance(e, tuple) and e[1] == 0
                   for e in events[commit:])

    def test_elastic_recovery_bitwise(self, store):
        """Rank loss mid-run over hierarchical paths: two supervised runs
        with the same (seed, fault plan) recover identically, and node
        groups rebuild over the survivors' original placement."""
        cfg = config(max_epochs=5)
        plan = FaultPlan(seed=7, rank_loss=((2, 2),))
        maker = lambda: _hier(drs_1bit_rp_ss)
        runs = [ElasticSupervisor(store, maker(), 4, config=cfg, network=NET,
                                  faults=plan).run() for _ in range(2)]
        a, b = runs
        assert a.restarts == b.restarts == 1
        assert a.world_lineage == b.world_lineage == [4, 3]
        assert_identical(a, b)
        assert a.comm_by_hop == b.comm_by_hop


# ---------------------------------------------------------------------------
# Three-way DRS determinism
# ---------------------------------------------------------------------------

class TestThreeWayDrs:
    def test_probe_epochs_cycle_challengers(self):
        drs = DrsState(default_mode="hierarchical",
                       probe_modes=("allgather", "allreduce"))
        assert drs.mode_for_epoch(1, 2) == "hierarchical"
        assert drs.mode_for_epoch(2, 2) == "allgather"
        drs.observe(2, "allgather", 1.0)
        assert drs.mode_for_epoch(4, 2) == "allreduce"

    def test_commit_waits_for_all_challengers(self):
        drs = DrsState(default_mode="hierarchical",
                       probe_modes=("allgather", "allreduce"))
        assert drs.observe(1, "hierarchical", 10.0) is None
        assert drs.observe(2, "allgather", 1.0) is None
        assert not drs.switched
        decision = drs.observe(4, "allreduce", 2.0)
        assert drs.switched
        assert drs.current == "allgather"
        assert decision == Decision(
            "drs.probe", 4, "allgather", "hierarchical",
            {"incumbent_comm": 10.0,
             "probe_comms": {"allgather": 1.0, "allreduce": 2.0}})
        assert drs.observe(5, "allgather", 0.1) is None

    def test_incumbent_keeps_seat_when_cheapest(self):
        drs = DrsState(default_mode="hierarchical",
                       probe_modes=("allgather", "allreduce"))
        drs.observe(1, "hierarchical", 0.5)
        drs.observe(2, "allgather", 1.0)
        decision = drs.observe(4, "allreduce", 2.0)
        assert not drs.switched
        assert (decision.choice, decision.alternative) == ("hierarchical",
                                                          "allgather")
        assert drs.mode_for_epoch(1, 2) == "hierarchical"

    def test_single_challenger_reduces_to_paper_rule(self):
        legacy = DrsState()
        legacy.observe(1, "allreduce", 2.0)
        legacy.observe(2, "allgather", 1.0)
        assert legacy.switched and legacy.current == "allgather"

    def test_probe_equal_to_incumbent_keeps_incumbent(self):
        """The paper switches only "if it is faster": a probe whose comm
        time ties the incumbent's keeps the incumbent, a strictly lower
        one commits."""
        tie = DrsState()
        tie.observe(1, "allreduce", 2.0)
        tie.observe(2, "allgather", 2.0)
        assert not tie.switched and tie.current == "allreduce"
        tie.observe(3, "allreduce", 2.0)
        tie.observe(4, "allgather", 2.0 - 2.0 ** -51)
        assert tie.switched and tie.current == "allgather"

    def test_ties_break_toward_earlier_challenger(self):
        drs = DrsState(default_mode="hierarchical",
                       probe_modes=("allgather", "allreduce"))
        drs.observe(1, "hierarchical", 10.0)
        drs.observe(2, "allgather", 1.0)
        drs.observe(4, "allreduce", 1.0)
        assert drs.current == "allgather"

    @given(st.integers(0, 2**16),
           st.lists(st.floats(0.01, 100.0), min_size=3, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_choice_is_pure_function_of_measurements(self, seed, times):
        """Replaying the same probe measurements commits the same switch:
        no hidden state, no RNG in the decision."""
        rounds = [("hierarchical", "allgather", "allreduce")[i % 3]
                  for i in range(len(times))]
        states = []
        for _ in range(2):
            drs = DrsState(default_mode="hierarchical",
                           probe_modes=("allgather", "allreduce"))
            log = [drs.observe(epoch, mode, t) for epoch, (mode, t)
                   in enumerate(zip(rounds, times), 1)]
            states.append((drs.switched, drs.current, drs.probes,
                           dict(drs.probe_comms), log))
        assert states[0] == states[1]

    def test_auto_runs_are_deterministic(self, store):
        """End to end: two ``collective="auto"`` runs with the same seed
        make the same per-probe choices and the same trajectory."""
        cfg = config(max_epochs=5)
        maker = lambda: replace(drs_1bit_rp_ss(), collective="auto",
                                drs_probe_interval=2)
        a = train(store, maker(), 4, config=cfg, network=NET)
        b = train(store, maker(), 4, config=cfg, network=NET)
        assert_identical(a, b)
        assert a.drs_switch_epoch == b.drs_switch_epoch
        assert ([log.comm_mode for log in a.logs]
                == [log.comm_mode for log in b.logs])

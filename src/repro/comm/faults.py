"""Seeded fault injection and heterogeneity for the simulated cluster.

The paper's dynamic strategies are justified by *changing runtime
conditions*, but a perfectly homogeneous, loss-free simulation never
exercises them.  This module adds the missing degrees of freedom:

* **stragglers** — per-rank compute-slowdown multipliers, applied to every
  :meth:`Cluster.advance_compute` charge (heterogeneous nodes);
* **jitter** — stochastic multiplicative noise on the latency (alpha) and
  bandwidth (beta) components of every collective's modeled time;
* **message drops / payload corruption** — each point-to-point message in a
  collective is independently lost (or delivered corrupted and rejected by
  its checksum) with a configured probability, triggering a
  retry-with-exponential-backoff whose cost is charged to the virtual
  clocks.

Faults never change *delivered data*: a dropped or corrupted message is
retransmitted until it arrives intact, so collectives stay bitwise exact
and only the charged time (and retry counters) differ.  What CAN change
behaviour is the degradation policy when a transfer exceeds
``max_retries``:

* ``"retry"`` — keep retrying (the transfer always completes eventually);
* ``"fallback-dense"`` — abort the collective (:class:`CollectiveGaveUp`);
  the trainer falls back to a reliable dense allreduce for that step;
* ``"fail-fast"`` — raise :class:`CollectiveFaultError` to the caller.

Determinism
-----------

Every collective call draws from its own substream seeded by
``(plan.seed, call_index)``, and every retry round draws a full
``n_messages`` uniform vector regardless of how many messages are still
outstanding.  Two consequences the property tests rely on:

* the same :class:`FaultPlan` seed yields an identical fault trajectory
  (and therefore an identical :class:`~repro.training.metrics.TrainResult`)
  run-to-run;
* retry counts are *pathwise monotone* in the drop probability: raising
  ``drop_prob`` with the seed held fixed can only fail a superset of the
  messages that already failed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..spec import Key, build, each, parse_spec
from .network import NetworkModel

FAULT_POLICIES = ("retry", "fallback-dense", "fail-fast")

#: Hard ceiling on retransmission rounds under the unbounded ``retry``
#: policy — a backstop against a mis-parameterised near-one failure
#: probability, far above anything a sane plan reaches.
_MAX_RETRY_ROUNDS = 10_000


class CollectiveFaultError(RuntimeError):
    """A collective exceeded its retry budget under the fail-fast policy.

    Carries structured context for diagnostics: ``op`` (the collective's
    label), plus ``rank`` / ``epoch`` when the raising layer knows them
    (the trainer annotates ``epoch`` on the way out).
    """

    op: str | None = None
    rank: int | None = None
    epoch: int | None = None


class RankLossError(CollectiveFaultError):
    """A rank was permanently lost (a ``rank_loss`` fault-plan event).

    Unlike transient drops — which are retried until delivered — a rank
    loss removes the member for good: the synchronous world cannot make
    progress and the run must either abort or recover onto the survivors
    (see :class:`repro.training.elastic.ElasticSupervisor`).

    Attributes
    ----------
    rank:
        The *global* rank id that died (stable across membership changes).
    local_rank:
        Its position in the current world at the time of death.
    epoch:
        The epoch whose start detected the loss.
    """

    def __init__(self, rank: int, epoch: int, local_rank: int | None = None):
        super().__init__(
            f"rank {rank} was permanently lost at epoch {epoch}; the "
            f"synchronous world cannot continue — rerun under the elastic "
            f"supervisor (--elastic) to shrink onto the survivors")
        self.op = "rank_loss"
        self.rank = rank
        self.local_rank = local_rank
        self.epoch = epoch


class CollectiveGaveUp(RuntimeError):
    """Internal signal: a collective exceeded its retry budget under the
    ``fallback-dense`` policy.  Carries the time already charged for the
    failed attempts so the caller can account for it."""

    def __init__(self, op: str, time_charged: float, retries: int):
        super().__init__(
            f"collective {op!r} gave up after {retries} retries "
            f"(policy=fallback-dense)")
        self.op = op
        self.time_charged = time_charged
        self.retries = retries


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded description of a chaos scenario.

    The plan is immutable and hashable so it can key run caches (see
    :func:`repro.bench.harness.run_once`).  All randomness derives from
    ``seed``; a plan with every knob at its default injects nothing and is
    guaranteed byte-identical to running without a plan at all.

    Attributes
    ----------
    seed:
        Root seed for the fault RNG (independent of the training seed).
    compute_slowdown:
        ``((rank, multiplier), ...)`` pairs; each listed rank's compute
        time is multiplied by ``multiplier`` (3.0 = a 3x straggler).
    alpha_jitter / beta_jitter:
        Log-normal sigma applied multiplicatively to the latency /
        bandwidth component of each collective's time (0 = off).
    drop_prob:
        Probability an individual message is lost and must be resent.
    corruption_prob:
        Probability an individual message arrives corrupted; the checksum
        rejects it and it is resent (counted separately from drops).
    max_retries:
        Retransmission rounds before the degradation policy engages
        (ignored by the ``retry`` policy, which never gives up).
    backoff_base / backoff_factor:
        Exponential backoff: round ``k`` adds ``base * factor**(k-1)``
        seconds on top of the retransmission time.
    policy:
        ``"retry"``, ``"fallback-dense"`` or ``"fail-fast"`` (see module
        docstring).
    rank_loss:
        ``((rank, epoch), ...)`` permanent-death events: *global* rank
        ``rank`` dies at the start of epoch ``epoch``.  Distinct from
        transient drops — the member never comes back on its own, so the
        run raises :class:`RankLossError` unless an elastic supervisor
        recovers it.  A rank absent from the current world (already dead)
        cannot die again, so recovered runs never re-fire a past event.
    """

    seed: int = 0
    compute_slowdown: tuple[tuple[int, float], ...] = ()
    alpha_jitter: float = 0.0
    beta_jitter: float = 0.0
    drop_prob: float = 0.0
    corruption_prob: float = 0.0
    max_retries: int = 8
    backoff_base: float = 1.0e-4
    backoff_factor: float = 2.0
    policy: str = "retry"
    rank_loss: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in FAULT_POLICIES:
            raise ValueError(
                f"policy must be one of {FAULT_POLICIES}, got {self.policy!r}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {self.drop_prob}")
        if not 0.0 <= self.corruption_prob < 1.0:
            raise ValueError(
                f"corruption_prob must be in [0, 1), got {self.corruption_prob}")
        if self.drop_prob + self.corruption_prob >= 1.0:
            raise ValueError(
                "drop_prob + corruption_prob must be < 1 "
                f"(got {self.drop_prob + self.corruption_prob})")
        if self.alpha_jitter < 0 or self.beta_jitter < 0:
            raise ValueError("jitter sigmas must be >= 0")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError(
                "backoff_base must be >= 0 and backoff_factor >= 1")
        seen: set[int] = set()
        for entry in self.compute_slowdown:
            if len(entry) != 2:
                raise ValueError(
                    f"compute_slowdown entries must be (rank, factor), got {entry!r}")
            rank, factor = entry
            if rank < 0:
                raise ValueError(f"straggler rank must be >= 0, got {rank}")
            if rank in seen:
                raise ValueError(f"duplicate straggler rank {rank}")
            if factor <= 0:
                raise ValueError(
                    f"straggler factor must be > 0, got {factor} for rank {rank}")
            seen.add(rank)
        seen_losses: set[tuple[int, int]] = set()
        for entry in self.rank_loss:
            if len(entry) != 2:
                raise ValueError(
                    f"rank_loss entries must be (rank, epoch), got {entry!r}")
            rank, epoch = entry
            if rank < 0:
                raise ValueError(f"rank_loss rank must be >= 0, got {rank}")
            if epoch < 1:
                raise ValueError(
                    f"rank_loss epoch must be >= 1, got {epoch} for rank {rank}")
            if (rank, epoch) in seen_losses:
                raise ValueError(
                    f"duplicate rank_loss event (rank {rank}, epoch {epoch})")
            seen_losses.add((rank, epoch))
        for name, value in (
                ("alpha_jitter", self.alpha_jitter),
                ("beta_jitter", self.beta_jitter),
                ("backoff_base", self.backoff_base),
                ("backoff_factor", self.backoff_factor),
                *((f"straggler factor of rank {rank}", factor)
                  for rank, factor in self.compute_slowdown)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def is_null(self) -> bool:
        """True if this plan perturbs nothing (byte-identical to no plan)."""
        return (self.drop_prob == 0.0 and self.corruption_prob == 0.0
                and self.alpha_jitter == 0.0 and self.beta_jitter == 0.0
                and not self.rank_loss
                and all(factor == 1.0 for _, factor in self.compute_slowdown))

    @classmethod
    def with_stragglers(cls, factors: dict[int, float], **kwargs) -> "FaultPlan":
        """Build a plan from a ``{rank: multiplier}`` straggler map."""
        slowdown = tuple(sorted(factors.items()))
        return cls(compute_slowdown=slowdown, **kwargs)

    #: The ``--faults`` keys (grammar: :mod:`repro.spec`); ``straggler``
    #: and ``rankloss`` may repeat, everything else at most once.
    _KEYS = {
        "seed": Key(int), "drop": Key(float), "corrupt": Key(float),
        "jitter": Key(float), "alpha_jitter": Key(float),
        "beta_jitter": Key(float),
        "straggler": Key(each(int, float), "rank:factor", repeat=True),
        "rankloss": Key(each(int, int), "rank:epoch", repeat=True),
        "retries": Key(int), "backoff": Key(float), "policy": Key(str),
    }
    #: Spec key -> dataclass field (``jitter`` sets both sigmas).
    _FIELDS = {"seed": "seed", "drop": "drop_prob",
               "corrupt": "corruption_prob", "alpha_jitter": "alpha_jitter",
               "beta_jitter": "beta_jitter", "retries": "max_retries",
               "backoff": "backoff_base", "policy": "policy"}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the CLI's ``--faults`` mini-language.

        Comma-separated ``key=value`` entries (grammar and strictness:
        :mod:`repro.spec`); ``straggler`` and ``rankloss`` may repeat::

            drop=0.05,corrupt=0.01,jitter=0.2,straggler=2:3.0,\
rankloss=2:3,policy=fallback-dense

        Keys: ``seed``, ``drop``, ``corrupt``, ``jitter`` (sets both
        sigmas), ``alpha_jitter``, ``beta_jitter``, ``straggler`` (as
        ``rank:factor``), ``rankloss`` (as ``rank:epoch``, a permanent
        death), ``retries``, ``backoff``, ``policy``.
        """
        entries = parse_spec(
            "--faults", spec, cls._KEYS,
            aliases={"jitter": ("alpha_jitter", "beta_jitter")},
            duplicate_hint="only straggler/rankloss repeat")
        kwargs = {field: entries[key] for key, field in cls._FIELDS.items()
                  if key in entries}
        if "jitter" in entries:
            kwargs["alpha_jitter"] = kwargs["beta_jitter"] = entries["jitter"]
        if "straggler" in entries:
            kwargs["compute_slowdown"] = tuple(sorted(entries["straggler"]))
        if "rankloss" in entries:
            kwargs["rank_loss"] = tuple(sorted(entries["rankloss"]))
        return build("--faults", spec, cls, **kwargs)

    def describe(self) -> str:
        """One-line human summary for CLI / bench output."""
        parts = []
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob:g}")
        if self.corruption_prob:
            parts.append(f"corrupt={self.corruption_prob:g}")
        if self.alpha_jitter or self.beta_jitter:
            parts.append(
                f"jitter=({self.alpha_jitter:g},{self.beta_jitter:g})")
        for rank, factor in self.compute_slowdown:
            if factor != 1.0:
                parts.append(f"straggler[{rank}]={factor:g}x")
        for rank, epoch in self.rank_loss:
            parts.append(f"rankloss[{rank}]@{epoch}")
        parts.append(f"policy={self.policy}")
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


@dataclass
class FaultCounters:
    """Aggregate tallies of what the injector actually did."""

    drops: int = 0
    corruptions: int = 0
    retries: int = 0
    giveups: int = 0


class FaultInjector:
    """Runtime state of a :class:`FaultPlan` attached to one cluster.

    The cluster consults :meth:`compute_scale` on every compute charge and
    every collective consults :meth:`collective_time` before charging its
    record.  All randomness is drawn from per-collective substreams (see
    module docstring) so fault trajectories are reproducible and retry
    counts are monotone in the drop probability.
    """

    def __init__(self, plan: FaultPlan, n_ranks: int,
                 global_ranks: tuple[int, ...] | None = None):
        if global_ranks is None:
            # Identity world: plan ranks are local ranks, so out-of-range
            # straggler entries are a configuration error.
            for rank, _ in plan.compute_slowdown:
                if rank >= n_ranks:
                    raise ValueError(
                        f"straggler rank {rank} out of range [0, {n_ranks})")
            global_ranks = tuple(range(n_ranks))
        elif len(global_ranks) != n_ranks:
            raise ValueError(
                f"global_ranks must name {n_ranks} members, "
                f"got {len(global_ranks)}")
        elif len(set(global_ranks)) != n_ranks:
            raise ValueError(f"global_ranks has duplicates: {global_ranks}")
        self.plan = plan
        self.n_ranks = n_ranks
        #: Local rank -> original-world rank id.  Plan entries (stragglers,
        #: rank-loss events) always name *global* ranks, so they follow a
        #: member through elastic shrink/regrow renumbering; entries naming
        #: absent ranks lie dormant.
        self.global_ranks = tuple(int(g) for g in global_ranks)
        slowdown = dict(plan.compute_slowdown)
        self.scales = np.array(
            [slowdown.get(g, 1.0) for g in self.global_ranks],
            dtype=np.float64)
        self._losses = set(plan.rank_loss)
        self.counters = FaultCounters()
        #: Collectives perturbed so far: call ``n`` draws from substream
        #: ``(plan.seed, n)``, so a checkpoint carries this counter.
        self.calls = 0
        self._reliable_depth = 0

    # -- heterogeneity ---------------------------------------------------

    def compute_scale(self, rank: int) -> float:
        """Straggler multiplier for one rank's compute time."""
        return float(self.scales[rank])

    # -- permanent rank loss ---------------------------------------------

    def lost_ranks(self, epoch: int) -> list[int]:
        """Local ranks whose member permanently dies at ``epoch``.

        Events are matched on (global rank, exact epoch), so a member
        removed by a previous recovery cannot re-fire its event, and a
        rolled-back epoch replayed without the dead member is clean.
        """
        return [local for local, g in enumerate(self.global_ranks)
                if (g, int(epoch)) in self._losses]

    # -- reliability override -------------------------------------------

    @contextmanager
    def reliable(self):
        """Context in which collectives never give up (retry until done).

        Used by the exchange's ``fallback-dense`` path so the fallback
        allreduce itself cannot abort recursively.  Faults (drops, jitter)
        still cost time inside the context.
        """
        self._reliable_depth += 1
        try:
            yield self
        finally:
            self._reliable_depth -= 1

    # -- collective perturbation ----------------------------------------

    def collective_time(self, op: str, base_time: float, n_messages: int,
                        network: NetworkModel) -> tuple[float, int]:
        """Perturb one collective's modeled time; return ``(time, retries)``.

        Raises :class:`CollectiveGaveUp` / :class:`CollectiveFaultError`
        when the retry budget is exhausted under the corresponding policy.
        """
        plan = self.plan
        rng = np.random.default_rng((plan.seed, self.calls))
        self.calls += 1
        if n_messages <= 0 or base_time <= 0.0:
            return base_time, 0

        time = base_time
        if plan.alpha_jitter or plan.beta_jitter:
            latency_part, bandwidth_part = network.split_time(
                base_time, n_messages)
            factor_a = (rng.lognormal(0.0, plan.alpha_jitter)
                        if plan.alpha_jitter else 1.0)
            factor_b = (rng.lognormal(0.0, plan.beta_jitter)
                        if plan.beta_jitter else 1.0)
            time = latency_part * factor_a + bandwidth_part * factor_b

        p_fail = plan.drop_prob + plan.corruption_prob
        if p_fail == 0.0:
            return time, 0

        # Round 0: which of the n messages fail on first transmission.
        # Every round draws a full-size vector (see module docstring:
        # this is what makes retry counts monotone in drop_prob).
        draws = rng.random(n_messages)
        self.counters.drops += int((draws < plan.drop_prob).sum())
        self.counters.corruptions += int(
            ((draws >= plan.drop_prob) & (draws < p_fail)).sum())
        outstanding = int((draws < p_fail).sum())

        message_time = time / n_messages
        retries = 0
        round_no = 0
        while outstanding > 0:
            round_no += 1
            if round_no > plan.max_retries and self._reliable_depth == 0:
                if plan.policy == "fail-fast":
                    self.counters.giveups += 1
                    self.counters.retries += retries
                    err = CollectiveFaultError(
                        f"collective {op!r} still has {outstanding} "
                        f"undelivered message(s) after "
                        f"{plan.max_retries} retries "
                        f"(drop_prob={plan.drop_prob}, "
                        f"corruption_prob={plan.corruption_prob}, "
                        f"policy=fail-fast)")
                    err.op = op
                    raise err
                if plan.policy == "fallback-dense":
                    self.counters.giveups += 1
                    self.counters.retries += retries
                    raise CollectiveGaveUp(op, time, retries)
            if round_no > _MAX_RETRY_ROUNDS:
                err = CollectiveFaultError(
                    f"collective {op!r} exceeded {_MAX_RETRY_ROUNDS} "
                    f"retry rounds; failure probability {p_fail} is "
                    f"pathologically high")
                err.op = op
                raise err
            time += (outstanding * message_time
                     + plan.backoff_base * plan.backoff_factor ** (round_no - 1))
            retries += outstanding
            draws = rng.random(n_messages)
            failed = draws[:outstanding] < p_fail
            self.counters.drops += int(
                (draws[:outstanding] < plan.drop_prob).sum())
            self.counters.corruptions += int(
                ((draws[:outstanding] >= plan.drop_prob) & failed).sum())
            outstanding = int(failed.sum())

        self.counters.retries += retries
        return time, retries

"""Serve-side resilience: fault injection, SLO ladder, admission control.

The training stack earned its failure story across PRs 1-4 (seeded fault
plans, bitwise resume, elastic recovery); this module gives the serving
stack the same treatment.  Three pieces:

* :class:`ServeFaultPlan` — a declarative, seeded chaos scenario for the
  *query* path, parsed from the CLI's ``--serve-faults`` mini-language in
  the same strict style as :class:`repro.comm.faults.FaultPlan`: latency
  spikes, simulated scorer failures, overload bursts
  (:class:`~repro.serve.traffic.BurstSpec` phases the traffic generator
  interleaves), and a one-shot binary-sidecar corruption surfaced at
  query time.
* :class:`ResilienceController` — an SLO-aware admission controller and
  degradation ladder.  Load is modeled by a **virtual** single-server
  queue: each admitted query advances an arrival clock by the plan's
  (burst-compressed) interarrival gap, each served query charges a
  per-route virtual service cost against a server-busy clock, and the
  backlog between the two drives deterministic state transitions

      dense -> binary -> cache_only -> shed

  with hysteresis on the way back up.  Because the queue runs on virtual
  milliseconds — never ``time.perf_counter()`` — the full trajectory
  (states, transition indices, shed decisions) is a pure function of
  ``(seed, plan)``: two replays of the same plan produce byte-identical
  transition logs, which is what lets the chaos tests gate on it.
* :class:`ShedResponse` — the explicit degraded answer.  A shed query is
  not an exception: the engine returns a typed response carrying the
  taxonomy (``overload``, ``cache_only_miss``, ``scorer_failure``) so
  callers can distinguish "the model said no" from "the server said not
  now".

The circuit breaker: a sidecar checksum failure on the binary path
(injected by the plan, or a real
:class:`~repro.training.checkpoint.CheckpointChecksumError`) permanently
removes the binary rung — queries fall back to dense — until a
successful :meth:`~repro.serve.engine.QueryEngine.reload` re-arms it
with a freshly validated sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..spec import Key, build, parse_spec
from .traffic import BurstSpec, burst_factor_at, validate_bursts

#: Ladder states, shallowest (full service) to deepest (no service).
SERVE_STATES = ("dense", "binary", "cache_only", "shed")

#: Why a query was shed (the taxonomy carried by :class:`ShedResponse`).
SHED_REASONS = ("overload", "cache_only_miss", "scorer_failure")

_DEPTH = {state: i for i, state in enumerate(SERVE_STATES)}

#: One rung shallower, for the hysteresis-gated recovery walk.
_RECOVER = {"shed": "cache_only", "cache_only": "binary", "binary": "dense"}


class SidecarCorruptionError(RuntimeError):
    """The 1-bit sidecar failed its checksum at query time.

    Raised by the injector when the plan schedules a corruption, and
    treated identically to a real
    :class:`~repro.training.checkpoint.CheckpointChecksumError` caught on
    the binary scoring path: the circuit breaker trips the binary rung
    back to dense until a reload re-validates the sidecar.
    """


@dataclass(frozen=True)
class ShedResponse:
    """A query the ladder refused to score fully.

    ``reason`` is one of :data:`SHED_REASONS`; ``state`` is the ladder
    state that made the call; ``query_index`` is the admission index (the
    position in the engine's arrival order), so a replay can line sheds
    up against the transition log.
    """

    kind: str
    reason: str
    state: str
    query_index: int

    def __post_init__(self) -> None:
        if self.reason not in SHED_REASONS:
            raise ValueError(f"unknown shed reason {self.reason!r}; one of "
                             f"{SHED_REASONS}")


@dataclass(frozen=True)
class SLOConfig:
    """The service-level objective and the virtual cost model behind it.

    All values are virtual milliseconds.  ``deadline_ms`` is the p99
    target; the ladder's entry thresholds are expressed as backlog
    multiples of it (enter binary when the virtual backlog exceeds one
    deadline, cache-only at three, shed at eight), and recovery steps one
    rung shallower only once the backlog falls under ``hysteresis`` times
    the current rung's entry threshold — so a backlog oscillating around
    a threshold cannot flap the state.

    The per-route service costs are a deliberately simple model — dense
    scoring costs more than binary candidate generation, a cache hit is
    nearly free — chosen so that fault-free traffic at the default
    interarrival gap is a stable queue (mean service < interarrival) and
    never degrades.
    """

    deadline_ms: float = 10.0
    #: Virtual gap between arrivals at burst factor 1.
    interarrival_ms: float = 1.0
    #: Virtual service cost per route / query kind.
    dense_ms: float = 0.8
    binary_ms: float = 0.25
    cache_ms: float = 0.05
    score_ms: float = 0.1
    nearest_ms: float = 0.8
    shed_ms: float = 0.01
    #: Recovery threshold as a fraction of the rung's entry backlog.
    hysteresis: float = 0.5

    def __post_init__(self) -> None:
        costs = (self.deadline_ms, self.interarrival_ms, self.dense_ms,
                 self.binary_ms, self.cache_ms, self.score_ms,
                 self.nearest_ms, self.shed_ms)
        if any(c <= 0 for c in costs):
            raise ValueError(f"SLO times must be > 0, got {self}")
        if not 0.0 < self.hysteresis < 1.0:
            raise ValueError(
                f"hysteresis must be in (0, 1), got {self.hysteresis}")

    @property
    def binary_enter_ms(self) -> float:
        return self.deadline_ms

    @property
    def cache_only_enter_ms(self) -> float:
        return 3.0 * self.deadline_ms

    @property
    def shed_enter_ms(self) -> float:
        return 8.0 * self.deadline_ms

    def enter_ms(self, state: str) -> float:
        """Backlog at which the ladder enters ``state`` (0 for dense)."""
        return {"dense": 0.0, "binary": self.binary_enter_ms,
                "cache_only": self.cache_only_enter_ms,
                "shed": self.shed_enter_ms}[state]

    def service_ms(self, route: str) -> float:
        """Virtual cost of serving one query through ``route``."""
        return {"dense": self.dense_ms, "binary": self.binary_ms,
                "cache": self.cache_ms, "score": self.score_ms,
                "nearest": self.nearest_ms, "shed": self.shed_ms}[route]


@dataclass(frozen=True)
class ServeFaultPlan:
    """Declarative, seeded chaos scenario for the serving path.

    Parsed from the CLI's ``--serve-faults`` mini-language (see
    :meth:`parse`).  ``is_null`` plans inject nothing — handy as an
    explicit "resilience on, chaos off" baseline.
    """

    #: Seed for the injector's own stream (salted; independent of traffic).
    seed: int = 0
    #: Per-query probability of a latency spike of ``spike_ms``.
    spike_prob: float = 0.0
    #: Virtual milliseconds one spike adds to the query's service cost.
    spike_ms: float = 25.0
    #: Per-query probability of a simulated scorer failure (query shed
    #: with reason ``scorer_failure``).
    fail_prob: float = 0.0
    #: Arrival index after which the binary sidecar fails its checksum
    #: (one-shot; -1 disables).
    sidecar_corrupt_at: int = -1
    #: Overload phases; the traffic generator and the admission clock
    #: both read these, so offered load and modeled load agree.
    bursts: tuple[BurstSpec, ...] = ()

    #: The ``--serve-faults`` keys (grammar: :mod:`repro.spec`); ``burst``
    #: may repeat, everything else at most once.
    _KEYS = {
        "seed": Key(int), "spike": Key(float), "spike_ms": Key(float),
        "fail": Key(float), "sidecar_corrupt": Key(int),
        "burst": Key(lambda start, length, factor: BurstSpec(
            int(start), int(length), float(factor)),
            "start:length:factor", repeat=True),
    }
    #: Spec key -> dataclass field.
    _FIELDS = {"seed": "seed", "spike": "spike_prob", "spike_ms": "spike_ms",
               "fail": "fail_prob", "sidecar_corrupt": "sidecar_corrupt_at"}

    def __post_init__(self) -> None:
        if not math.isfinite(self.spike_ms):
            raise ValueError(f"spike_ms must be finite, got {self.spike_ms}")
        for name, prob in (("spike", self.spike_prob),
                           ("fail", self.fail_prob)):
            if not 0.0 <= prob < 1.0:
                raise ValueError(
                    f"{name} probability must be in [0, 1), got {prob}")
        if self.spike_ms < 0:
            raise ValueError(f"spike_ms must be >= 0, got {self.spike_ms}")
        if self.sidecar_corrupt_at < -1:
            raise ValueError(f"sidecar_corrupt index must be >= -1 "
                             f"(-1 disables), got {self.sidecar_corrupt_at}")
        object.__setattr__(self, "bursts",
                           validate_bursts(tuple(self.bursts)))

    @classmethod
    def parse(cls, spec: str) -> "ServeFaultPlan":
        """Parse the CLI's ``--serve-faults`` mini-language.

        Comma-separated ``key=value`` entries (grammar and strictness:
        :mod:`repro.spec`); ``burst`` may repeat::

            spike=0.05,spike_ms=25,fail=0.01,burst=1000:2000:8,\\
sidecar_corrupt=500,seed=7

        Keys: ``seed``, ``spike`` (probability), ``spike_ms``, ``fail``
        (probability), ``sidecar_corrupt`` (arrival index, one-shot),
        ``burst`` (as ``start:length:factor``, an overload phase).
        """
        entries = parse_spec("--serve-faults", spec, cls._KEYS,
                             duplicate_hint="only burst repeats")
        kwargs = {field: entries[key] for key, field in cls._FIELDS.items()
                  if key in entries}
        if "burst" in entries:
            kwargs["bursts"] = tuple(entries["burst"])
        return build("--serve-faults", spec, cls, **kwargs)

    @property
    def is_null(self) -> bool:
        """True when this plan injects nothing at all."""
        return (self.spike_prob == 0.0 and self.fail_prob == 0.0
                and self.sidecar_corrupt_at < 0 and not self.bursts)

    def describe(self) -> str:
        """Human-readable one-liner for logs and CLI output."""
        if self.is_null:
            return "no serve faults"
        parts = []
        if self.spike_prob:
            parts.append(f"spikes p={self.spike_prob:g} "
                         f"(+{self.spike_ms:g}ms)")
        if self.fail_prob:
            parts.append(f"scorer failures p={self.fail_prob:g}")
        if self.sidecar_corrupt_at >= 0:
            parts.append(f"sidecar corruption at query "
                         f"{self.sidecar_corrupt_at}")
        for b in self.bursts:
            parts.append(f"burst x{b.factor:g} at [{b.start}, "
                         f"{b.start + b.length})")
        return "; ".join(parts) + f" (seed={self.seed})"


@dataclass
class Admission:
    """The controller's verdict on one arriving query.

    ``state`` is the ladder state the query was admitted under;
    ``arrived_ms`` its position on the virtual arrival clock;
    ``spike_ms`` / ``scorer_fail`` the injector's draws for it.  The
    engine hands the admission back to :meth:`ResilienceController.complete`
    with the route's service cost once the query is answered.
    """

    index: int
    state: str
    arrived_ms: float
    spike_ms: float = 0.0
    scorer_fail: bool = False


class ResilienceController:
    """Deterministic admission controller + degradation ladder.

    The virtual queue: arrivals advance ``clock_ms`` by the plan's
    (burst-compressed) interarrival gap; completions advance ``free_ms``
    (when the server frees up) by the route's virtual service cost.  The
    backlog ``max(0, free_ms - clock_ms)`` — how long a new arrival would
    wait — picks the ladder state.  Degradation jumps straight to the
    deepest rung whose threshold the backlog exceeds (overload is
    urgent); recovery walks back one rung per arrival, and only once the
    backlog has fallen under ``hysteresis`` x the current rung's entry
    threshold.  Everything is integer-indexed and virtual-clocked, so the
    trajectory is a pure function of ``(plan.seed, plan)``.
    """

    def __init__(self, slo: SLOConfig, plan: ServeFaultPlan | None = None,
                 binary_available: bool = False, stats=None):
        self.slo = slo
        self.plan = plan
        self.binary_available = bool(binary_available)
        self.stats = stats
        self.state = "dense"
        self.arrivals = 0
        self.clock_ms = 0.0
        self.free_ms = 0.0
        self.last_backlog_ms = 0.0
        self.breaker_tripped = False
        self._sidecar_fired = False
        # Salted stream: serve-fault draws never alias the traffic stream
        # or a training fault stream derived from the same user seed.
        seed = plan.seed if plan is not None else 0
        self._rng = np.random.default_rng((0x5E12FA, seed))
        self._draws = (plan is not None
                       and (plan.spike_prob > 0 or plan.fail_prob > 0))

    # -- admission ---------------------------------------------------------

    def admit(self, kind: str) -> Admission:
        """Admit the next arriving query; decide its ladder state.

        Draws the injector's per-query faults *unconditionally of state*
        (a shed query consumes the same randomness as a served one), so
        the fault trajectory is aligned with arrival order alone.
        """
        index = self.arrivals
        self.arrivals = index + 1
        factor = 1.0
        if self.plan is not None and self.plan.bursts:
            factor = burst_factor_at(self.plan.bursts, index)
        self.clock_ms += self.slo.interarrival_ms / factor
        backlog = max(0.0, self.free_ms - self.clock_ms)
        self.last_backlog_ms = backlog
        self._transition(index, backlog)
        spike_ms = 0.0
        scorer_fail = False
        if self._draws:
            u = self._rng.random(2)
            if u[0] < self.plan.spike_prob:
                spike_ms = self.plan.spike_ms
            if u[1] < self.plan.fail_prob:
                scorer_fail = True
        return Admission(index=index, state=self.state,
                         arrived_ms=self.clock_ms, spike_ms=spike_ms,
                         scorer_fail=scorer_fail)

    def complete(self, admission: Admission, service_ms: float) -> float:
        """Charge a served (or shed) query's virtual cost; return its
        virtual latency (queue wait + service) in milliseconds."""
        start = max(admission.arrived_ms, self.free_ms)
        self.free_ms = start + service_ms
        return self.free_ms - admission.arrived_ms

    # -- ladder ------------------------------------------------------------

    def _target_state(self, backlog: float) -> str:
        if backlog > self.slo.shed_enter_ms:
            return "shed"
        if backlog > self.slo.cache_only_enter_ms:
            return "cache_only"
        if backlog > self.slo.binary_enter_ms and self.binary_available:
            return "binary"
        return "dense"

    def _transition(self, index: int, backlog: float) -> None:
        current = self.state
        target = self._target_state(backlog)
        if _DEPTH[target] > _DEPTH[current]:
            self._move(index, target, backlog, "backlog")
        elif _DEPTH[target] < _DEPTH[current]:
            exit_ms = self.slo.hysteresis * self.slo.enter_ms(current)
            if backlog <= exit_ms:
                shallower = _RECOVER[current]
                if shallower == "binary" and not self.binary_available:
                    shallower = "dense"
                self._move(index, shallower, backlog, "recovered")

    def _move(self, index: int, state: str, backlog: float,
              reason: str) -> None:
        if self.stats is not None:
            self.stats.record_transition(index, self.state, state,
                                         backlog, reason)
        self.state = state

    # -- circuit breaker ---------------------------------------------------

    def check_sidecar(self) -> None:
        """Raise the plan's scheduled sidecar corruption, once.

        Called by the engine immediately before a binary-tier scoring
        pass; after the one-shot fires (and the breaker trips) the
        sidecar is considered gone until :meth:`arm_binary` re-validates
        it on reload.
        """
        plan = self.plan
        if (plan is None or plan.sidecar_corrupt_at < 0
                or self._sidecar_fired):
            return
        if self.arrivals > plan.sidecar_corrupt_at:
            self._sidecar_fired = True
            raise SidecarCorruptionError(
                f"injected binary-sidecar checksum failure (plan schedules "
                f"sidecar_corrupt={plan.sidecar_corrupt_at}, now at "
                f"arrival {self.arrivals - 1})")

    def trip_binary(self, detail: str) -> None:
        """Remove the binary rung: sidecar can no longer be trusted."""
        self.breaker_tripped = True
        self.binary_available = False
        if self.stats is not None:
            self.stats.record_breaker(self.arrivals - 1, detail)
        if self.state == "binary":
            self._move(self.arrivals - 1, "dense", self.last_backlog_ms,
                       "breaker")

    def arm_binary(self, available: bool) -> None:
        """Re-arm (or drop) the binary rung after a store swap.

        A successful reload re-validated the sidecar, so the breaker
        resets; a reload onto a store without a sidecar leaves the rung
        out of the ladder.
        """
        self.breaker_tripped = False
        self.binary_available = bool(available)

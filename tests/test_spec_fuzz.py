"""Seeded fuzzer over the three ``key=value`` flags.

Valid ``--net``, ``--faults`` and ``--serve-faults`` specs are damaged one
way at a time: a seeded single-bit flip, an inserted or deleted separator
(``,`` ``=`` ``:``), a number replaced by ``nan``, ``inf`` or ``-inf``, a
number's sign flipped, and a number's exponent pushed out of the float
range (``e999``, ``e-999``, ``e400``, ``e-400``).  For every damaged spec:

* ``parse`` returns a model or plan, or raises a :class:`ValueError` whose
  message names the flag — no other exception escapes;
* an accepted ``--net`` spec prices a finite ``allreduce_ring_time``,
  ``allgatherv_ring_time`` and ``compute_time`` at p in {1, 2, 8}.
"""

import math
import re

import numpy as np
import pytest

from repro.comm.faults import FaultPlan
from repro.comm.network import NetworkModel
from repro.serve.resilience import ServeFaultPlan

SEED = 1234
MUTANTS_PER_SPEC = 150
NBYTES = 1 << 20
FLOPS = 1e9

FLAGS = {
    "--net": (NetworkModel, [
        "rpn=4,intra=0.3e-6:2e-11,inter=5e-6:1.25e-10",
        "rpn=2,inter_alpha=8e-6,inter_beta=1.25e-10,flops=5e10",
        "rpn=1,inter=5e-6:1.25e-10,flops=2.5e10",
        "intra_alpha=1e-7,intra_beta=3e-11,rpn=3",
    ]),
    "--faults": (FaultPlan, [
        "drop=0.05,corrupt=0.01,jitter=0.2,straggler=2:3.0,"
        "policy=fallback-dense,seed=7",
        "alpha_jitter=0.1,beta_jitter=0.3,retries=3,backoff=1e-4",
        "rankloss=2:3,straggler=1:1.5,straggler=3:2.0",
    ]),
    "--serve-faults": (ServeFaultPlan, [
        "spike=0.05,spike_ms=25,fail=0.01,burst=1000:2000:8,"
        "sidecar_corrupt=500,seed=7",
        "burst=10:20:0.5,burst=40:5:3.0,spike_ms=2.5e1",
    ]),
}

NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
OUT_OF_RANGE = ("e999", "e-999", "e400", "e-400")


def mutate(spec: str, rng) -> str:
    """One seeded damage of ``spec``."""
    kind = int(rng.integers(0, 6))
    numbers = list(NUMBER.finditer(spec))
    if kind >= 3 and numbers:
        match = numbers[int(rng.integers(0, len(numbers)))]
        text = match.group()
        if kind == 3:
            text = ("nan", "inf", "-inf")[int(rng.integers(0, 3))]
        elif kind == 4:
            text = text[1:] if text[0] in "+-" else "-" + text
        else:
            mantissa = re.split("[eE]", text)[0]
            text = mantissa + OUT_OF_RANGE[int(rng.integers(0, 4))]
        return spec[:match.start()] + text + spec[match.end():]
    at = int(rng.integers(0, len(spec)))
    if kind == 0:
        return (spec[:at] + chr(ord(spec[at]) ^ 1 << int(rng.integers(0, 8)))
                + spec[at + 1:])
    if kind == 1:
        return spec[:at] + ",=:"[int(rng.integers(0, 3))] + spec[at:]
    return spec[:at] + spec[at + 1:]


def mutants(flag: str):
    rng = np.random.default_rng([SEED, len(flag)])
    for spec in FLAGS[flag][1]:
        for _ in range(MUTANTS_PER_SPEC):
            yield mutate(spec, rng)


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_valid_specs_parse(flag):
    cls, specs = FLAGS[flag]
    for spec in specs:
        cls.parse(spec)


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_only_value_errors_naming_the_flag_escape(flag):
    cls, _ = FLAGS[flag]
    refused = 0
    for spec in mutants(flag):
        try:
            cls.parse(spec)
        except ValueError as exc:
            refused += 1
            assert flag in str(exc), (spec, str(exc))
    assert refused > 0


def test_accepted_networks_price_finite_times():
    accepted = 0
    for spec in mutants("--net"):
        try:
            net = NetworkModel.parse(spec)
        except ValueError:
            continue
        accepted += 1
        for p in (1, 2, 8):
            times = (net.allreduce_ring_time(NBYTES, p),
                     net.allgatherv_ring_time([4096.0 * (i + 1)
                                               for i in range(p)], p),
                     net.compute_time(FLOPS))
            assert all(math.isfinite(t) for t in times), (spec, p, times)
    assert accepted > 0


@pytest.mark.parametrize("cls, flag, spec, field", [
    (NetworkModel, "--net", "rpn=2,inter=nan:1.25e-10", "alpha"),
    (NetworkModel, "--net", "intra_beta=inf", "beta"),
    (NetworkModel, "--net", "flops=inf", "node_flops"),
    (FaultPlan, "--faults", "jitter=nan", "alpha_jitter"),
    (FaultPlan, "--faults", "backoff=inf", "backoff_base"),
    (FaultPlan, "--faults", "straggler=1:nan", "straggler factor"),
    (ServeFaultPlan, "--serve-faults", "spike_ms=inf", "spike_ms"),
    (ServeFaultPlan, "--serve-faults", "burst=1:2:nan", "burst factor"),
])
def test_non_finite_value_refused_naming_flag_and_field(cls, flag, spec,
                                                        field):
    with pytest.raises(ValueError) as info:
        cls.parse(spec)
    message = str(info.value)
    assert flag in message and field in message
    assert "nan" in message or "inf" in message

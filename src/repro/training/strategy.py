"""Strategy configuration — which of the paper's five optimizations are on.

The paper's method names (Table 5) map to presets:

========================  =====================================================
Name                      Configuration
========================  =====================================================
``allreduce``             dense allreduce every step (baseline)
``allgather``             sparse-row allgather every step (baseline)
``RS``                    allgather + random gradient-row selection
``DRS``                   dynamic allreduce/allgather probe + random selection
``RS+1-bit``              RS + 1-bit quantization (sign * max|v|)
``DRS+1-bit``             DRS + 1-bit quantization
``RS+1-bit+RP+SS``        + relation partition + hardest-negative selection
``DRS+1-bit+RP+SS``       the paper's full method
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import PAPER_DRS_PROBE_INTERVAL

COMM_MODES = ("allreduce", "allgather", "dynamic")
SELECTION_POLICIES = ("none", "random", "average", "average_x0.1")
#: Dense-collective stack: ``flat`` = single-level ring over all ranks,
#: ``hier`` = two-level intra-node / inter-node stack
#: (:mod:`repro.comm.hierarchical`), ``auto`` = pick per run (static
#: networks) or per probe (DRS) from the alpha-beta cost model.
COLLECTIVES = ("flat", "hier", "auto")


@dataclass(frozen=True)
class StrategyConfig:
    """Which strategies are active, with their hyper-parameters.

    Attributes
    ----------
    comm_mode:
        ``allreduce`` (dense), ``allgather`` (sparse rows), or ``dynamic``
        (the paper's DRS probe, Section 4.1).
    selection:
        Gradient-row selection policy (Section 4.2).  Any policy other than
        ``none`` implies the sparse allgather wire format, so it only takes
        effect on allgather steps.
    quantization_bits:
        0 (off), 1, or 2 (Section 4.3).  Quantized payloads travel by
        allgather; allreduce steps remain full precision (bit codes cannot
        be summed by the reduction), which is why quantization shifts the
        DRS decision toward allgather.
    quantization_stat:
        Statistic for the 1-bit scheme (paper compares six; ``max`` wins).
    relation_partition:
        Partition triples by relation (Section 4.4): relation gradients are
        applied locally at full precision, never communicated.
    sample_selection:
        Hardest-negative selection (Section 4.5): draw
        ``negatives_sampled`` candidates, train on ``negatives_used``.
    negatives_sampled:
        ``n`` in the paper's "m out of n".
    negatives_used:
        ``m`` in "m out of n" (must be <= sampled).  Without sample
        selection the trainer uses all sampled negatives.
    error_feedback:
        Accumulate quantization error locally and re-inject next step
        (extension; the paper cites but does not adopt it).
    drs_probe_interval:
        Probe allgather every k-th epoch (k = 10 in the paper).  DRS needs
        k >= 2: at k = 1 every epoch is a probe, no epoch measures the
        incumbent, and the first probe commits unopposed.  A probe commits
        the switch only when its comm time is strictly below the
        incumbent's last one (the paper's "if it is faster").
    allgather_algo:
        Allgather algorithm (ablation knob); the dense allreduce is always
        the ring.
    collective:
        Dense-collective stack (extension): ``flat`` reproduces the paper's
        single-level ring; ``hier`` reduces intra-node first, sends one
        representative per node over the inter-node ring (re-quantized at
        the hop boundary when quantization is on), and broadcasts back;
        ``auto`` lets the alpha-beta cost model choose — statically for
        fixed comm modes, per probe for DRS (three-way choice among
        flat-ring, hierarchical, and allgather).
    """

    comm_mode: str = "allreduce"
    selection: str = "none"
    quantization_bits: int = 0
    quantization_stat: str = "max"
    relation_partition: bool = False
    sample_selection: bool = False
    negatives_sampled: int = 1
    negatives_used: int = 1
    error_feedback: bool = False
    drs_probe_interval: int = PAPER_DRS_PROBE_INTERVAL
    allgather_algo: str = "ring"
    collective: str = "flat"

    def __post_init__(self) -> None:
        if self.comm_mode not in COMM_MODES:
            raise ValueError(
                f"comm_mode must be one of {COMM_MODES}, got {self.comm_mode!r}")
        if self.selection not in SELECTION_POLICIES:
            raise ValueError(
                f"selection must be one of {SELECTION_POLICIES}, "
                f"got {self.selection!r}")
        if self.quantization_bits not in (0, 1, 2):
            raise ValueError(
                f"quantization_bits must be 0, 1 or 2, got {self.quantization_bits}")
        if self.negatives_sampled < 1:
            raise ValueError("negatives_sampled must be >= 1")
        if not 1 <= self.negatives_used <= self.negatives_sampled:
            raise ValueError(
                f"negatives_used must be in [1, {self.negatives_sampled}], "
                f"got {self.negatives_used}")
        if self.sample_selection and self.negatives_used >= self.negatives_sampled \
                and self.negatives_sampled > 1:
            raise ValueError(
                "sample selection with m == n > 1 is the 'n out of n' "
                "baseline; disable sample_selection instead")
        if self.drs_probe_interval < 1:
            raise ValueError("drs_probe_interval must be >= 1")
        if self.comm_mode == "dynamic" and self.drs_probe_interval < 2:
            raise ValueError(
                f"drs_probe_interval must be >= 2 with comm_mode='dynamic' "
                f"(every epoch would be a probe), got "
                f"{self.drs_probe_interval}")
        if self.collective not in COLLECTIVES:
            raise ValueError(
                f"collective must be one of {COLLECTIVES}, "
                f"got {self.collective!r}")

    def label(self) -> str:
        """Short display name in the paper's Table 5 vocabulary."""
        parts = []
        if self.comm_mode == "dynamic":
            parts.append("DRS" if self.selection == "random" else "dynamic")
        elif self.selection == "random":
            parts.append("RS")
        else:
            parts.append(self.comm_mode)
        if self.quantization_bits:
            parts.append(f"{self.quantization_bits}-bit")
        if self.relation_partition:
            parts.append("RP")
        if self.sample_selection:
            parts.append("SS")
        if self.error_feedback:
            parts.append("EF")
        if self.collective != "flat":
            parts.append("hier" if self.collective == "hier" else "hier-auto")
        return "+".join(parts)


# ---------------------------------------------------------------------------
# Presets (Table 5 vocabulary)
# ---------------------------------------------------------------------------

def baseline_allreduce(negatives: int = 1) -> StrategyConfig:
    """Dense-allreduce baseline with n-of-n uniform negatives."""
    return StrategyConfig(comm_mode="allreduce", negatives_sampled=negatives,
                          negatives_used=negatives)


def baseline_allgather(negatives: int = 1) -> StrategyConfig:
    """Sparse-allgather baseline."""
    return StrategyConfig(comm_mode="allgather", negatives_sampled=negatives,
                          negatives_used=negatives)


def rs(negatives: int = 1) -> StrategyConfig:
    """Random selection over the allgather path."""
    return StrategyConfig(comm_mode="allgather", selection="random",
                          negatives_sampled=negatives, negatives_used=negatives)


def drs(negatives: int = 1) -> StrategyConfig:
    """Dynamic allreduce/allgather + random selection."""
    return StrategyConfig(comm_mode="dynamic", selection="random",
                          negatives_sampled=negatives, negatives_used=negatives)


def rs_1bit(negatives: int = 1) -> StrategyConfig:
    """RS + 1-bit quantization."""
    return replace(rs(negatives), quantization_bits=1)


def drs_1bit(negatives: int = 1) -> StrategyConfig:
    """DRS + 1-bit quantization."""
    return replace(drs(negatives), quantization_bits=1)


def rs_1bit_rp_ss(negatives_sampled: int = 10) -> StrategyConfig:
    """RS + 1-bit + relation partition + 1-of-n sample selection."""
    return StrategyConfig(comm_mode="allgather", selection="random",
                          quantization_bits=1, relation_partition=True,
                          sample_selection=True,
                          negatives_sampled=negatives_sampled, negatives_used=1)


def drs_1bit_rp_ss(negatives_sampled: int = 5) -> StrategyConfig:
    """The paper's full method: DRS + 1-bit + RP + SS."""
    return StrategyConfig(comm_mode="dynamic", selection="random",
                          quantization_bits=1, relation_partition=True,
                          sample_selection=True,
                          negatives_sampled=negatives_sampled, negatives_used=1)


PRESETS = {
    "allreduce": baseline_allreduce,
    "allgather": baseline_allgather,
    "RS": rs,
    "DRS": drs,
    "RS+1-bit": rs_1bit,
    "DRS+1-bit": drs_1bit,
    "RS+1-bit+RP+SS": rs_1bit_rp_ss,
    "DRS+1-bit+RP+SS": drs_1bit_rp_ss,
}

"""Reference values the paper reports, printed next to the measured ones.

Absolute magnitudes belong to the authors' Cray XC40 + full Freebase-derived
datasets; the qualitative claims in :data:`CLAIMS` are what the benchmarks
assert.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperRow:
    """One row of a paper table: the four reported columns."""

    nodes: int
    tt_hours: float
    epochs: int
    tca: float
    mrr: float


# Table 1 — baseline on FB15K (10 negatives per positive).
TABLE1_ALLREDUCE = (
    PaperRow(1, 3.26, 301, 90.7, 0.59),
    PaperRow(2, 1.27, 257, 90.2, 0.57),
    PaperRow(4, 0.78, 300, 90.3, 0.58),
    PaperRow(8, 0.54, 381, 90.3, 0.58),
)
TABLE1_ALLGATHER = (
    PaperRow(1, 3.26, 301, 90.7, 0.59),
    PaperRow(2, 3.52, 358, 90.6, 0.59),
    PaperRow(4, 2.48, 349, 90.3, 0.58),
    PaperRow(8, 2.34, 314, 90.1, 0.56),
)

# Table 2 — baseline on FB250K (1 negative per positive).
TABLE2_ALLREDUCE = (
    PaperRow(1, 37.2, 250, 89.6, 0.28),
    PaperRow(2, 35.3, 252, 89.6, 0.28),
    PaperRow(4, 24.04, 302, 89.6, 0.28),
    PaperRow(8, 14.3, 323, 89.5, 0.29),
    PaperRow(16, 11.3, 379, 88.5, 0.28),
)
TABLE2_ALLGATHER = (
    PaperRow(1, 37.2, 250, 89.6, 0.28),
    PaperRow(2, 26.3, 283, 89.9, 0.28),
    PaperRow(4, 19.6, 298, 89.7, 0.28),
    PaperRow(8, 17.53, 339, 89.1, 0.28),
    PaperRow(16, 16.1, 386, 88.5, 0.28),
)


@dataclass(frozen=True)
class SampleSelectionRow:
    """One row of Table 4 (sample selection on FB15K, 2 nodes, 1-bit)."""

    used: int
    sampled: int
    tt_hours: float
    epochs: int
    mrr: float
    tca: float


TABLE4 = (
    SampleSelectionRow(1, 1, 0.41, 423, 0.523, 89.3),
    SampleSelectionRow(1, 5, 0.66, 240, 0.590, 90.53),
    SampleSelectionRow(1, 10, 0.775, 229, 0.610, 90.7),
    SampleSelectionRow(1, 20, 0.97, 210, 0.629, 90.74),
    SampleSelectionRow(1, 30, 1.06, 187, 0.630, 90.8),
    SampleSelectionRow(5, 5, 1.29, 390, 0.585, 90.5),
    SampleSelectionRow(10, 10, 2.1, 344, 0.592, 90.5),
)

# Table 3 — the worked relation-partition example (verbatim).
TABLE3_TRIPLES = ((1, 1, 2), (2, 1, 10), (3, 2, 5), (6, 3, 9), (7, 3, 8))
TABLE3_EXPECTED_SPLIT = ((0, 1), (2, 3, 4))  # triple indices per processor

# Headline claims (Section 5.3 and abstract).
FB250K_FULL_METHOD_TT_REDUCTION = 0.4495   # average vs baseline
FB250K_FULL_METHOD_MRR_GAIN = 0.175
FB15K_FULL_METHOD_TT_REDUCTION = 0.652
FB15K_FULL_METHOD_MRR_GAIN = 0.177
FB250K_16N_BASELINE_HOURS = 11.5           # abstract: 11.5h -> 6h on 16 nodes
FB250K_16N_FULL_METHOD_HOURS = 6.0
QUANT_ALLREDUCE_FRACTION_DROP = 0.6        # Section 4.3: ~60% fewer allreduces
# Section 5.1 (Figure 8): the full method's time cut on FB15K.
FB15K_1N_ALLREDUCE_TT_REDUCTION = 0.73     # vs allreduce at 1 node
FB15K_8N_ALLGATHER_TT_REDUCTION = 0.927    # vs allgather at 8 nodes

# The claims the benchmarks assert, as claim -> (statement, the test whose
# verdict decides it); EXPERIMENTS.md's claim table is rendered from this.
CLAIMS = {
    "T1": ("FB15K baseline: TT falls with p; allreduce wins at p >= 4",
           "test_table1_baseline_fb15k"),
    "T2": ("FB250K baseline: allreduce wins at the largest p; equal MRR",
           "test_table2_baseline_fb250k"),
    "T4": ("n-of-n costs more than 1-of-n; 1-of-n beats 1-of-1 in MRR",
           "test_table4_sample_selection"),
    "F1a": ("FB15K baseline: allreduce TT <= allgather at p >= 4",
            "test_fig1a_fb15k_allreduce_dominates"),
    "F1b": ("FB250K baseline: allgather wins small p, allreduce large p",
            "test_fig1b_fb250k_crossover"),
    "F1c": ("FB250K baseline: epochs grow with p",
            "test_fig1c_epochs_grow_with_p"),
    "F1d": ("FB250K epoch time falls with p, allgather's more slowly",
            "test_fig1d_epoch_time_scaling"),
    "F2": ("non-zero gradient rows decrease over training",
           "test_fig2_nonzero_rows"),
    "F3": ("random selection tracks dense; avg threshold over-prunes",
           "test_fig3_selection_thresholds"),
    "F4": ("2-bit accuracy unaffected by adding random selection",
           "test_fig4_2bit_with_random_selection"),
    "F5": ("1-bit cheaper than 2-bit, equal MRR", "test_fig5_1bit_vs_2bit"),
    "F6a": ("relation partition keeps convergence under quantization",
            "test_fig6a_relation_partition_convergence"),
    "F6b": ("relation partition sends fewer bytes at every p >= 2",
            "test_fig6b_relation_partition_traffic"),
    "F7": ("1-of-n beats n-of-n; MRR saturates, epochs fall with n",
           "test_fig7_sampling_schemes"),
    "F8": ("FB15K: RS+1-bit+RP+SS fastest with the best MRR",
           "test_fig8_fb15k_methods"),
    "F9": ("FB250K: DRS+1-bit+RP+SS fastest; MRR kept by RP+SS",
           "test_fig9_fb250k_methods"),
    "§4.3": ("quantization lowers DRS's allreduce fraction",
             "test_fig9_allreduce_fraction"),
    "§5.3": ("full method: average TT cut, MRR kept, both datasets",
             "test_summary_improvements"),
    "Abstract": ("FB250K, 16 nodes: full method cuts TT vs allreduce",
                 "test_fig9_16_node_cut"),
}

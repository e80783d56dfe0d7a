"""Knowledge-graph substrate: triples, synthetic datasets, partitioning."""

from .datasets import (
    generate_latent_kg,
    load_store,
    make_fb15k_like,
    make_fb250k_like,
    make_tiny_kg,
    save_store,
)
from .negative import (
    NegativeBatch,
    corrupt_batch,
    mask_known_candidates,
    select_all,
    select_hardest,
)
from .partition import (
    PARTITION_SCHEMES,
    Partition,
    entity_partition,
    make_partition,
    relation_partition,
    uniform_partition,
)
from .spmat import FoldPlan, build_fold_plan, fold_rows
from .triples import FilterIndex, TripleSet, TripleStore, encode_triples

__all__ = [
    "FilterIndex",
    "FoldPlan",
    "build_fold_plan",
    "fold_rows",
    "mask_known_candidates",
    "NegativeBatch",
    "Partition",
    "TripleSet",
    "TripleStore",
    "corrupt_batch",
    "encode_triples",
    "PARTITION_SCHEMES",
    "entity_partition",
    "generate_latent_kg",
    "load_store",
    "make_fb15k_like",
    "make_fb250k_like",
    "make_partition",
    "make_tiny_kg",
    "relation_partition",
    "save_store",
    "select_all",
    "select_hardest",
    "uniform_partition",
]

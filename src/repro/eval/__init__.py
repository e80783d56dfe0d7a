"""Evaluation: link-prediction ranking and triple classification."""

from .classification import (
    ClassificationResult,
    evaluate_classification,
    fit_thresholds,
)
from .ranking import RankingResult, evaluate_ranking, rank_triples, \
    scatter_known_nan

__all__ = [
    "ClassificationResult",
    "RankingResult",
    "evaluate_classification",
    "evaluate_ranking",
    "fit_thresholds",
    "rank_triples",
    "scatter_known_nan",
]

"""Chance-corrected alignment agreement between annotation sets."""

from .alignment import (
    Alignment,
    DegenerateText,
    EmptySide,
    GammaConfig,
    TooLarge,
    alignment_cost,
    best_alignment,
    expected_disorder,
    gamma_score,
    observed_disorder,
    oracle_best_alignment,
    recompute_cost,
)
from .dissimilarity import (
    DissimilarityConfig,
    categorical_dissimilarity,
    pair_cost_matrix,
    positional_dissimilarity,
    unit_dissimilarity,
)

__all__ = [
    "Alignment",
    "DegenerateText",
    "DissimilarityConfig",
    "EmptySide",
    "GammaConfig",
    "TooLarge",
    "alignment_cost",
    "best_alignment",
    "categorical_dissimilarity",
    "expected_disorder",
    "gamma_score",
    "observed_disorder",
    "oracle_best_alignment",
    "pair_cost_matrix",
    "positional_dissimilarity",
    "recompute_cost",
    "unit_dissimilarity",
]

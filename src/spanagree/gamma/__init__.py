"""Chance-corrected alignment agreement between annotation sets."""

from ..config import DissimilarityConfig, GammaConfig
from .alignment import (
    Alignment,
    alignment_cost,
    best_alignment,
    expected_disorder,
    gamma_score,
    observed_disorder,
    oracle_best_alignment,
)
from .dissimilarity import pair_cost_matrix

__all__ = [
    "Alignment",
    "DissimilarityConfig",
    "GammaConfig",
    "alignment_cost",
    "best_alignment",
    "expected_disorder",
    "gamma_score",
    "observed_disorder",
    "oracle_best_alignment",
    "pair_cost_matrix",
]

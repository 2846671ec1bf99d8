"""Dissimilarity between annotation units for alignment-based agreement.

A pair of units is compared on position (squared normalized offset
distance) and category (binary). The combined cost uses alpha/beta as
*relative* weights, normalized so that the default alpha = beta = 1 is
the identity and jointly rescaling (alpha, beta, delta_empty) rescales
every cost, including the unaligned-unit penalty, by the same factor.
That keeps the chance-corrected score invariant under rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..model import SpanAnnotation

# A unit as the alignment sees it: (start, end, category).
Unit = tuple[int, int, int]


@dataclass(frozen=True)
class DissimilarityConfig:
    """Weights for the combined unit dissimilarity.

    ``delta_empty`` is both the overall cost scale and the penalty paid
    for every unit left out of the alignment.
    """

    alpha: float = 1.0
    beta: float = 1.0
    delta_empty: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.delta_empty))):
            raise ValueError(
                f"dissimilarity weights must be finite, got alpha={self.alpha}, "
                f"beta={self.beta}, delta_empty={self.delta_empty}"
            )
        if self.alpha < 0 or self.beta < 0 or self.delta_empty < 0:
            raise ValueError("dissimilarity weights must be non-negative")
        if self.alpha + self.beta <= 0:
            raise ValueError("alpha + beta must be positive")


def positional_dissimilarity(
    u: SpanAnnotation, v: SpanAnnotation, cfg: DissimilarityConfig
) -> float:
    """Squared offset distance normalized by the combined span length."""
    d = (abs(u.start - v.start) + abs(u.end - v.end)) / (len(u) + len(v))
    return cfg.delta_empty * (d * d)


def categorical_dissimilarity(
    u: SpanAnnotation, v: SpanAnnotation, cfg: DissimilarityConfig
) -> float:
    """Binary category distance: 0 on match, delta_empty otherwise."""
    return 0.0 if u.category == v.category else cfg.delta_empty


def unit_dissimilarity(
    u: SpanAnnotation, v: SpanAnnotation, cfg: DissimilarityConfig
) -> float:
    """Weighted combination of positional and categorical dissimilarity."""
    scale = 2.0 / (cfg.alpha + cfg.beta)
    return scale * (
        cfg.alpha * positional_dissimilarity(u, v, cfg)
        + cfg.beta * categorical_dissimilarity(u, v, cfg)
    )


def pair_cost_matrix(
    left: Sequence[Unit],
    right: Sequence[Unit],
    cfg: DissimilarityConfig,
) -> list[list[float]]:
    """Unit dissimilarities for all pairs, as n rows of m costs.

    The same operations in the same order as unit_dissimilarity, so
    solver costs and per-pair recomputations agree exactly.
    """
    alpha, delta = cfg.alpha, cfg.delta_empty
    same, differ = cfg.beta * 0.0, cfg.beta * delta
    scale = 2.0 / (cfg.alpha + cfg.beta)
    rows = []
    for sl, el, cl in left:
        row = []
        for sr, er, cr in right:
            d = (abs(sl - sr) + abs(el - er)) / ((el - sl) + (er - sr))
            row.append(scale * (alpha * (delta * (d * d)) + (same if cl == cr else differ)))
        rows.append(row)
    return rows

"""Dissimilarity between annotation units for alignment-based agreement.

A pair of units is compared on position (squared normalized offset
distance) and category (binary). The combined cost uses alpha/beta as
*relative* weights, normalized so that the default alpha = beta = 1 is
the identity and jointly rescaling (alpha, beta, delta_empty) rescales
every cost, including the unaligned-unit penalty, by the same factor.
That keeps the chance-corrected score invariant under rescaling.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..config import DissimilarityConfig

# A unit as the alignment sees it: (start, end, category).
Unit = tuple[int, int, int]


def pair_costs(
    cfg: DissimilarityConfig,
) -> Callable[[Sequence[Unit], Sequence[Unit], float | None], list[tuple[int, int, float]]]:
    """The unit dissimilarity under cfg, with its constants hoisted.

    The returned function maps (left, right, limit) to the (i, j, cost)
    of every pair of ``left[i]`` and ``right[j]`` whose cost is below
    ``limit``, in row-major order, or of every pair when ``limit`` is
    None (a cost can overflow to inf, so no float keeps them all).

    The cost of a pair is
    ``scale * (alpha * delta_empty * d**2 + beta * [0 | delta_empty])``
    with ``scale = 2 / (alpha + beta)``, where ``d`` is the summed
    offset distance over the summed span length and the bracket is 0
    when the categories match and delta_empty otherwise.
    """
    alpha, delta = cfg.alpha, cfg.delta_empty
    same, differ = cfg.beta * 0.0, cfg.beta * delta
    scale = 2.0 / (cfg.alpha + cfg.beta)

    def costs(
        left: Sequence[Unit], right: Sequence[Unit], limit: float | None
    ) -> list[tuple[int, int, float]]:
        out = []
        for i, (sl, el, cl) in enumerate(left):
            for j, (sr, er, cr) in enumerate(right):
                d = (abs(sl - sr) + abs(el - er)) / ((el - sl) + (er - sr))
                cost = scale * (alpha * (delta * (d * d)) + (same if cl == cr else differ))
                if limit is None or cost < limit:
                    out.append((i, j, cost))
        return out

    return costs


def pair_cost_matrix(
    left: Sequence[Unit],
    right: Sequence[Unit],
    cfg: DissimilarityConfig,
) -> list[list[float]]:
    """Unit dissimilarities for all pairs, as n rows of m costs (see
    ``pair_costs`` for the formula)."""
    rows: list[list[float]] = [[] for _ in left]
    for i, _, cost in pair_costs(cfg)(left, right, None):
        rows[i].append(cost)
    return rows

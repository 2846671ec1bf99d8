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
import sys
from bisect import bisect_left, bisect_right
from typing import Callable, Sequence

from ..config import DissimilarityConfig

# A unit as the alignment sees it: (start, end, category).
Unit = tuple[int, int, int]

# Above this many pairs per call, a finite limit is met by scanning only
# the right units whose start lies in a window around each left unit's.
# Smaller calls keep the all-pairs loop: for a few units a side, sorting
# the right units costs more than the window saves.
WINDOW_MIN_PAIRS = 64

# Widens the window by far more than the few roundings of a cost near the
# limit, so no pair cheaper than the limit falls outside it.
_REACH_SLACK = 1.0 + 1e-9


def pair_costs(
    cfg: DissimilarityConfig,
) -> Callable[[Sequence[Unit], Sequence[Unit], float | None], list[tuple[int, int, float]]]:
    """The unit dissimilarity under cfg, with its constants hoisted.

    The returned function maps (left, right, limit) to the (i, j, cost)
    of every pair of ``left[i]`` and ``right[j]`` whose cost is below
    ``limit``, or of every pair when ``limit`` is None (a cost can
    overflow to inf, so no float keeps them all). Rows come in order of
    ``i``; the order of the ``j`` within a row is free.

    The cost of a pair is
    ``scale * (alpha * delta_empty * d**2 + beta * [0 | delta_empty])``
    with ``scale = 2 / (alpha + beta)``, where ``d`` is the summed
    offset distance over the summed span length and the bracket is 0
    when the categories match and delta_empty otherwise.

    A pair costs at least its positional term, so one below a finite
    limit has ``d < reach = sqrt(limit / (scale * alpha * delta_empty))``.
    Since ``|s - s'| + |e - e'| = d * (l + l')`` and
    ``|e - e'| >= |s - s'| - |l - l'|`` for spans of lengths l and l', its
    starts then lie less than ``(reach * (l + l') + |l - l'|) / 2`` apart,
    which for ``reach >= 1`` is largest at the longest right span. Above
    ``WINDOW_MIN_PAIRS`` pairs, each left unit is therefore compared only
    with the right units whose start lies that far from its own (two
    bisections of the sorted starts), with reach raised to at least 1 and
    widened by ``_REACH_SLACK``. Every pair outside the window costs at
    least the limit, so the emitted pairs are the all-pairs loop's. The
    window needs the costs near the limit to be normal floats, whose
    roundings the slack absorbs; weights that would make them subnormal
    keep the all-pairs loop, as do ``alpha * delta_empty == 0`` and an
    infinite limit.
    """
    alpha, delta = cfg.alpha, cfg.delta_empty
    same, differ = cfg.beta * 0.0, cfg.beta * delta
    scale = 2.0 / (cfg.alpha + cfg.beta)
    positional = scale * alpha * delta

    def costs(
        left: Sequence[Unit], right: Sequence[Unit], limit: float | None
    ) -> list[tuple[int, int, float]]:
        out = []
        if (
            limit is not None
            and len(left) * len(right) > WINDOW_MIN_PAIRS
            and limit < math.inf
            and min(limit / 2.0, limit / scale, positional) >= sys.float_info.min
        ):
            reach = max(1.0, math.sqrt(limit / positional)) * _REACH_SLACK
            ordered = sorted([(sr, er, cr, j) for j, (sr, er, cr) in enumerate(right)])
            starts = [sr for sr, _, _, _ in ordered]
            longest = max([er - sr for sr, er, _ in right])
            for i, (sl, el, cl) in enumerate(left):
                length = el - sl
                half = (reach * (length + longest) + abs(length - longest)) / 2.0
                lo = bisect_left(starts, sl - half)
                for sr, er, cr, j in ordered[lo : bisect_right(starts, sl + half, lo)]:
                    d = (abs(sl - sr) + abs(el - er)) / ((el - sl) + (er - sr))
                    cost = scale * (alpha * (delta * (d * d)) + (same if cl == cr else differ))
                    if cost < limit:
                        out.append((i, j, cost))
            return out
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

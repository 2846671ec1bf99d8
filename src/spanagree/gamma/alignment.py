"""Alignment-based chance-corrected agreement between two annotation sets.

The score builds the cheapest alignment between the sets (a min-cost
matching where every unit may also stay unaligned at a fixed penalty),
divides its cost by the average unit count to get the observed
disorder, and normalizes by the expected disorder of randomly
repositioned annotations. 1 means perfect agreement; the score is
unbounded below.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..model import ModelError, SpanAnnotation
from .dissimilarity import DissimilarityConfig, Unit, pair_cost_matrix, unit_dissimilarity
from .solver import solve_assignment

logger = logging.getLogger(__name__)

# Candidate-acceptance slack when reconstructing the optimal alignment
# structure; ties in practice are exact, this only absorbs fp noise.
_COST_RTOL = 1e-9

ORACLE_LIMIT = 6


class EmptySide(ValueError):
    """Alignment requires both annotation sets to be non-empty."""


class TooLarge(ValueError):
    """The exhaustive oracle only handles tiny instances."""


class DegenerateText(ValueError):
    """A span is longer than the text it should be repositioned in."""


@dataclass(frozen=True)
class GammaConfig:
    """Settings for the chance-corrected score: dissimilarity weights
    plus the resampling budget and seed for expected disorder."""

    dissimilarity: DissimilarityConfig = field(default_factory=DissimilarityConfig)
    n_samples: int = 30
    seed: int = 42

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass(frozen=True)
class Alignment:
    """A best alignment: matched index pairs, leftover units per side,
    and the total cost of the structure (pair costs plus one
    delta_empty penalty per unaligned unit)."""

    pairs: tuple[tuple[int, int], ...]
    unaligned_left: tuple[int, ...]
    unaligned_right: tuple[int, ...]
    disorder: float


def recompute_cost(
    alignment: Alignment,
    left: Sequence[SpanAnnotation],
    right: Sequence[SpanAnnotation],
    cfg: DissimilarityConfig,
) -> float:
    """Cost of an alignment's structure, recomputed from scratch."""
    total = 0.0
    for i, j in alignment.pairs:
        total += unit_dissimilarity(left[i], right[j], cfg)
    total += cfg.delta_empty * (len(alignment.unaligned_left) + len(alignment.unaligned_right))
    return total


def _build_alignment(
    pairs: Sequence[tuple[int, int]],
    unaligned_left: Sequence[int],
    unaligned_right: Sequence[int],
    pair: list[list[float]],
    penalty: float,
) -> Alignment:
    """Alignment whose disorder is summed like recompute_cost: the sorted
    pairs' costs, then one penalty per unaligned unit."""
    pairs = tuple(sorted(pairs))
    total = 0.0
    for i, j in pairs:
        total += pair[i][j]
    total += penalty * (len(unaligned_left) + len(unaligned_right))
    return Alignment(pairs, tuple(unaligned_left), tuple(unaligned_right), total)


def _padded_matrix(pair: list[list[float]], penalty: float) -> list[list[float]]:
    """Square matrix for the matching: real pairs top-left, one dummy
    partner per unit at ``penalty``, dummy-dummy free. ``pair`` has at
    least one row.

    Pair costs above 2 * penalty can never be chosen over leaving both
    units unaligned, so they are clamped to keep the matrix well
    conditioned; the optimum is unchanged.
    """
    n, m = len(pair), len(pair[0])
    big = penalty * (n + m) + 1.0
    clamp = 2.0 * penalty + 1.0
    mat = []
    for i, row in enumerate(pair):
        padded = [min(cost, clamp) for cost in row] + [big] * n
        padded[m + i] = penalty
        mat.append(padded)
    for j in range(m):
        padded = [big] * m + [0.0] * n
        padded[j] = penalty
        mat.append(padded)
    return mat


def _matching(pair: list[list[float]], penalty: float) -> tuple[float, list[tuple[int, int]]]:
    """Optimal partial matching cost and its matched pairs. ``pair`` has
    at least one row.

    Only a pair costing less than 2 * penalty can beat leaving both
    units unaligned, so the optimum splits into the connected
    components of those useful pairs: an isolated unit stays unaligned,
    a 1x1 component is matched directly and only larger components are
    solved. Among cost ties the matching may differ from a solve of the
    whole padded matrix; the total is summed in that solve's row order.
    """
    n, m = len(pair), len(pair[0])
    if m == 0:
        return penalty * n, []
    # Union-find over left units 0..n-1 and right units n..n+m-1.
    root = list(range(n + m))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    limit = 2.0 * penalty
    for i, row in enumerate(pair):
        for j, cost in enumerate(row):
            if cost < limit:
                root[find(i)] = find(n + j)
    components: dict[int, list[int]] = {}
    for x in range(n + m):
        components.setdefault(find(x), []).append(x)

    match: dict[int, int] = {}
    for nodes in components.values():
        if len(nodes) == 1:
            continue
        rows = [x for x in nodes if x < n]
        cols = [x - n for x in nodes if x >= n]
        if len(nodes) == 2:
            match[rows[0]] = cols[0]
            continue
        sub = [[pair[i][j] for j in cols] for i in rows]
        # solve_assignment keeps its ndarray argument: perfbench's traced
        # run reads the solved cells from ``cost.shape``.
        solution, _ = solve_assignment(np.array(_padded_matrix(sub, penalty)))
        match.update(
            (i, cols[solution[k]]) for k, i in enumerate(rows) if solution[k] < len(cols)
        )

    total = 0.0
    for i in range(n):
        total += pair[i][match[i]] if i in match else penalty
    matched = set(match.values())
    for j in range(m):
        if j not in matched:
            total += penalty
    return total, sorted(match.items())


def _as_units(annotations: Iterable[SpanAnnotation | Unit]) -> list[Unit]:
    """(start, end, category) triples; triples pass through, so a caller
    that has converted once can hand its units to the other entry points.
    Triples are held to the rules SpanAnnotation checks."""
    units = [u if isinstance(u, tuple) else (u.start, u.end, u.category) for u in annotations]
    for start, end, category in units:
        if not 0 <= start < end or category < 0:
            raise ModelError(
                f"unit must satisfy 0 <= start < end and category >= 0, "
                f"got ({start}, {end}, {category})"
            )
    return units


def alignment_cost(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    cfg: DissimilarityConfig,
) -> float:
    """Cost of the best alignment, without materializing its structure."""
    a, b = _as_units(left), _as_units(right)
    if not a or not b:
        raise EmptySide("both annotation sets must be non-empty")
    return _matching(pair_cost_matrix(a, b, cfg), cfg.delta_empty)[0]


def best_alignment(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    cfg: DissimilarityConfig,
) -> Alignment:
    """Minimum-cost alignment between two non-empty annotation sets.

    Among cost ties the lexicographically smallest sorted pair-index
    list is returned (with "no further pairs" ordered before any pair),
    which makes the structure deterministic and input-order independent.
    """
    a, b = _as_units(left), _as_units(right)
    if not a or not b:
        raise EmptySide("both annotation sets must be non-empty")
    pair = pair_cost_matrix(a, b, cfg)
    penalty = cfg.delta_empty
    c_star = _matching(pair, penalty)[0]
    tol = _COST_RTOL * max(1.0, abs(c_star))

    def sub(rows: list[int], cols: list[int]) -> list[list[float]]:
        return [[pair[i][j] for j in cols] for i in rows]

    rows = list(range(len(a)))
    cols = list(range(len(b)))
    chosen: list[tuple[int, int]] = []
    fixed = 0.0
    while True:
        # Leaving everything that remains unaligned is the lexicographic
        # minimum whenever it is still optimal.
        if fixed + penalty * (len(rows) + len(cols)) <= c_star + tol:
            break
        found = None
        for i in rows:
            rest_rows = [r for r in rows if r != i]
            for j in cols:
                rest_cols = [c for c in cols if c != j]
                # A list matrix without rows has no width: the leftover
                # columns each pay the penalty.
                rest = (
                    _matching(sub(rest_rows, rest_cols), penalty)[0]
                    if rest_rows
                    else penalty * len(rest_cols)
                )
                if fixed + pair[i][j] + rest <= c_star + tol:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            # fp safety net: adopt the solver's matching on the remainder
            if rows:
                _, sub_pairs = _matching(sub(rows, cols), penalty)
                chosen.extend((rows[si], cols[sj]) for si, sj in sub_pairs)
            matched_l = {i for i, _ in chosen}
            matched_r = {j for _, j in chosen}
            rows = [r for r in rows if r not in matched_l]
            cols = [c for c in cols if c not in matched_r]
            break
        chosen.append(found)
        rows.remove(found[0])
        cols.remove(found[1])
        fixed += pair[found[0]][found[1]]

    return _build_alignment(chosen, rows, cols, pair, penalty)


def oracle_best_alignment(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    cfg: DissimilarityConfig,
) -> Alignment:
    """Exhaustive-enumeration reference for best_alignment.

    Enumerates every partial injective pairing (at most 6 units per
    side), applying the same objective and tie rule.
    """
    a, b = _as_units(left), _as_units(right)
    if not a or not b:
        raise EmptySide("both annotation sets must be non-empty")
    if len(a) > ORACLE_LIMIT or len(b) > ORACLE_LIMIT:
        raise TooLarge(f"oracle handles at most {ORACLE_LIMIT} annotations per side")

    pair = pair_cost_matrix(a, b, cfg)
    penalty = cfg.delta_empty
    n, m = len(a), len(b)

    best_cost = [float("inf")]
    best_pairs: list[tuple[tuple[int, int], ...]] = [()]
    used = [False] * m
    stack: list[tuple[int, int]] = []

    def visit(i: int, cost: float) -> None:
        if i == n:
            total = cost + penalty * (m - sum(used))
            if best_cost[0] == float("inf"):
                best_cost[0] = total
                best_pairs[0] = tuple(stack)
                return
            tol = _COST_RTOL * max(1.0, abs(best_cost[0]))
            if total < best_cost[0] - tol or (
                abs(total - best_cost[0]) <= tol and tuple(stack) < best_pairs[0]
            ):
                best_cost[0] = total
                best_pairs[0] = tuple(stack)
            return
        visit(i + 1, cost + penalty)
        for j in range(m):
            if not used[j]:
                used[j] = True
                stack.append((i, j))
                visit(i + 1, cost + pair[i][j])
                stack.pop()
                used[j] = False

    visit(0, 0.0)
    pairs = best_pairs[0]
    matched_l = {i for i, _ in pairs}
    matched_r = {j for _, j in pairs}
    return _build_alignment(
        pairs,
        [i for i in range(n) if i not in matched_l],
        [j for j in range(m) if j not in matched_r],
        pair,
        penalty,
    )


def observed_disorder(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    cfg: DissimilarityConfig,
) -> float:
    """Best-alignment cost divided by the average unit count."""
    a, b = _as_units(left), _as_units(right)
    if not a or not b:
        raise EmptySide("both annotation sets must be non-empty")
    return alignment_cost(a, b, cfg) / ((len(a) + len(b)) / 2.0)


def _child_rng(seed: int, example_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{example_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _resample(units: Sequence[Unit], text_length: int, rng: random.Random) -> list[Unit]:
    """Random repositioning that keeps the side's span-length multiset
    and category multiset: categories are shuffled over the units, each
    start is redrawn uniformly over the positions where the span fits.
    Every unit must fit in the text."""
    categories = [category for _, _, category in units]
    rng.shuffle(categories)
    draw = rng.randrange
    out = []
    for (start, end, _), category in zip(units, categories):
        length = end - start
        new_start = draw(text_length - length + 1)
        out.append((new_start, new_start + length, category))
    return out


def expected_disorder(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    text_length: int,
    cfg: GammaConfig,
    example_id: str = "",
) -> float:
    """Mean disorder over seeded random repositionings of both sides.

    Deterministic given (inputs, cfg.seed, example_id); each example
    gets an independent child generator so parallel scoring order never
    changes results.
    """
    a, b = _as_units(left), _as_units(right)
    if not a or not b:
        raise EmptySide("both annotation sets must be non-empty")
    if text_length <= 0:
        raise DegenerateText("text_length must be positive")
    for start, end, _ in a + b:
        if end - start > text_length:
            raise DegenerateText(
                f"span of length {end - start} cannot fit in text of length {text_length}"
            )
    rng = _child_rng(cfg.seed, example_id)
    avg_count = (len(a) + len(b)) / 2.0
    total = 0.0
    for _ in range(cfg.n_samples):
        sample_a = _resample(a, text_length, rng)
        sample_b = _resample(b, text_length, rng)
        total += alignment_cost(sample_a, sample_b, cfg.dissimilarity) / avg_count
    return total / cfg.n_samples


def gamma_score(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    text_length: int,
    cfg: GammaConfig | None = None,
    example_id: str = "",
) -> float | None:
    """Chance-corrected agreement: 1 - observed/expected disorder.

    Returns None (skip) when either side is empty, since the score is
    undefined there, or in the degenerate case where the expected
    disorder is zero while the observed is not. Identical sets score
    exactly 1.0.
    """
    cfg = cfg or GammaConfig()
    a, b = _as_units(left), _as_units(right)
    if not a or not b:
        return None
    obs = observed_disorder(a, b, cfg.dissimilarity)
    if obs == 0.0:
        return 1.0
    exp = expected_disorder(a, b, text_length, cfg, example_id)
    if exp <= 0.0:
        logger.warning(
            "zero expected disorder for example %r; skipping gamma", example_id
        )
        return None
    return 1.0 - obs / exp

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
import random
from array import array
from typing import Iterable, Iterator, Sequence

from ..config import DissimilarityConfig, GammaConfig
from ..model import FrozenRecord, ModelError, SpanAnnotation
from .dissimilarity import Unit, pair_cost_matrix, pair_costs
from .solver import solve_assignment

# Candidate-acceptance slack when reconstructing the optimal alignment
# structure; ties in practice are exact, this only absorbs fp noise.
_COST_RTOL = 1e-9

ORACLE_LIMIT = 6


class Alignment(FrozenRecord):
    """A best alignment: matched index pairs, leftover units per side,
    and the total cost of the structure (pair costs plus one
    delta_empty penalty per unaligned unit)."""

    __slots__ = ("pairs", "unaligned_left", "unaligned_right", "disorder")

    def __init__(self, pairs: tuple[tuple[int, int], ...], unaligned_left: tuple[int, ...],
                 unaligned_right: tuple[int, ...], disorder: float):
        self._init(pairs, unaligned_left, unaligned_right, disorder)


def _build_alignment(
    pairs: Sequence[tuple[int, int]],
    unaligned_left: Sequence[int],
    unaligned_right: Sequence[int],
    pair: list[list[float]],
    penalty: float,
) -> Alignment:
    """Alignment whose disorder is summed in one fixed order: the sorted
    pairs' costs, then one penalty per unaligned unit."""
    pairs = tuple(sorted(pairs))
    total = 0.0
    for i, j in pairs:
        total += pair[i][j]
    total += penalty * (len(unaligned_left) + len(unaligned_right))
    return Alignment(pairs, tuple(unaligned_left), tuple(unaligned_right), total)


def _match(
    n: int, m: int, useful: list[tuple[int, int, float]], penalty: float
) -> tuple[float, dict[int, int]]:
    """Optimal partial matching of n left and m right units: its cost and
    the matched right unit of each matched left unit.

    ``useful`` holds the (i, j, cost) of the useful pairs, rows in order
    and in any order within a row: those costing less than 2 * penalty,
    the only pairs that can beat leaving both units unaligned. Without
    one every unit pays the penalty; a single one is matched. Otherwise
    the optimum splits into the connected components of the useful
    pairs: an isolated unit stays unaligned, a 1x1 component is matched
    directly and only larger components are solved. A component of r
    rows and c columns is solved as a square matrix of side max(r, c)
    whose useful pairs hold half their saving, ``0.5 * cost - penalty``,
    and whose other entries are 0 ("no pair"); halving keeps the entries
    finite where ``2 * penalty`` overflows. Among cost ties the matching
    may differ from a solve of the whole matrix. The total adds, in row
    order, each left unit's pair cost or penalty, then one penalty per
    unmatched right unit. The order within a row changes nothing:
    components are visited in order of their first node and list their
    nodes in index order, and totals are summed in row order.
    """
    total = 0.0
    if not useful:
        for _ in range(n + m):
            total += penalty
        return total, {}
    if len(useful) == 1:
        [(i0, j0, cost)] = useful
        for i in range(n):
            total += cost if i == i0 else penalty
        for _ in range(m - 1):
            total += penalty
        return total, {i0: j0}

    # Union-find over left units 0..n-1 and right units n..n+m-1.
    root = list(range(n + m))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    rows_of: dict[int, dict[int, float]] = {}
    for i, j, cost in useful:
        rows_of.setdefault(i, {})[j] = cost
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
        size = max(len(rows), len(cols))
        flat = array("d")
        for i in rows:
            row = rows_of[i]
            flat.extend([0.5 * row[j] - penalty if j in row else 0.0 for j in cols])
            flat.extend([0.0] * (size - len(cols)))
        flat.extend([0.0] * (size * (size - len(rows))))
        # A 2-D buffer rather than lists: perfbench's traced run reads the
        # solved cells from ``cost.shape``.
        solution, _ = solve_assignment(memoryview(flat).cast("B").cast("d", (size, size)))
        for k, i in enumerate(rows):
            c = solution[k]
            if c < len(cols) and cols[c] in rows_of[i]:
                match[i] = cols[c]

    for i in range(n):
        total += rows_of[i][match[i]] if i in match else penalty
    matched = set(match.values())
    for j in range(m):
        if j not in matched:
            total += penalty
    return total, match


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


def _both_units(
    left: Iterable[SpanAnnotation | Unit], right: Iterable[SpanAnnotation | Unit]
) -> tuple[list[Unit], list[Unit]]:
    """Both sides as units; neither may be empty."""
    a, b = _as_units(left), _as_units(right)
    if not a or not b:
        raise ModelError("both annotation sets must be non-empty")
    return a, b


def alignment_cost(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    cfg: DissimilarityConfig,
) -> float:
    """Cost of the best alignment, from the useful pairs only and without
    materializing its structure."""
    a, b = _both_units(left, right)
    penalty = cfg.delta_empty
    return _match(len(a), len(b), pair_costs(cfg)(a, b, 2.0 * penalty), penalty)[0]


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
    a, b = _both_units(left, right)
    pair = pair_cost_matrix(a, b, cfg)
    penalty = cfg.delta_empty
    costs = pair_costs(cfg)

    def solve(rows: list[int], cols: list[int]) -> tuple[float, dict[int, int]]:
        """``_match`` on the units ``a[rows]`` and ``b[cols]``; its
        matching holds positions in ``rows`` and ``cols``."""
        useful = costs([a[i] for i in rows], [b[j] for j in cols], 2.0 * penalty)
        return _match(len(rows), len(cols), useful, penalty)

    rows = list(range(len(a)))
    cols = list(range(len(b)))
    c_star = solve(rows, cols)[0]
    tol = _COST_RTOL * max(1.0, abs(c_star))
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
                rest = solve(rest_rows, [c for c in cols if c != j])[0]
                if fixed + pair[i][j] + rest <= c_star + tol:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            # fp safety net: adopt the solver's matching on the remainder
            chosen.extend((rows[si], cols[sj]) for si, sj in solve(rows, cols)[1].items())
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
    a, b = _both_units(left, right)
    if len(a) > ORACLE_LIMIT or len(b) > ORACLE_LIMIT:
        raise ModelError(f"oracle handles at most {ORACLE_LIMIT} annotations per side")

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
    a, b = _both_units(left, right)
    return alignment_cost(a, b, cfg) / ((len(a) + len(b)) / 2.0)


def _child_rng(seed: int, example_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{example_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _start_draws(units: list[Unit], text_length: int) -> list[tuple[int, int, int]]:
    """(span length, number of starts where it fits, bits per draw) per unit."""
    draws = []
    for start, end, _ in units:
        fits = text_length - (end - start) + 1
        draws.append((end - start, fits, fits.bit_length()))
    return draws


def _shuffle_swaps(n: int) -> list[tuple[int, int, int]]:
    """``random.shuffle``'s Fisher-Yates swaps of n items, last first:
    (i, i + 1, bits per draw), swapping position i with a draw below i + 1."""
    return [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]


def _resamples(
    a: list[Unit], b: list[Unit], text_length: int, rng: random.Random
) -> Iterator[tuple[list[Unit], list[Unit]]]:
    """Endless random repositionings of both sides, left drawn first.

    Each keeps a side's span-length multiset and category multiset: its
    categories are shuffled over its units, then each start is redrawn
    uniformly over the positions where the span fits. Every unit must
    fit in the text.

    The draws are ``rng.shuffle`` then ``rng.randrange`` per unit, made
    with ``rng.getrandbits`` as CPython makes them: a draw below n takes
    ``n.bit_length()`` bits and draws again while the result is >= n.
    """
    getrandbits = rng.getrandbits
    fits_a, fits_b = _start_draws(a, text_length), _start_draws(b, text_length)
    swaps_a, swaps_b = _shuffle_swaps(len(a)), _shuffle_swaps(len(b))
    categories_a = [category for _, _, category in a]
    categories_b = [category for _, _, category in b]
    while True:
        categories = categories_a[:]
        for i, below, bits in swaps_a:
            j = getrandbits(bits)
            while j >= below:
                j = getrandbits(bits)
            categories[i], categories[j] = categories[j], categories[i]
        left = []
        for (length, fits, bits), category in zip(fits_a, categories):
            start = getrandbits(bits)
            while start >= fits:
                start = getrandbits(bits)
            left.append((start, start + length, category))
        categories = categories_b[:]
        for i, below, bits in swaps_b:
            j = getrandbits(bits)
            while j >= below:
                j = getrandbits(bits)
            categories[i], categories[j] = categories[j], categories[i]
        right = []
        for (length, fits, bits), category in zip(fits_b, categories):
            start = getrandbits(bits)
            while start >= fits:
                start = getrandbits(bits)
            right.append((start, start + length, category))
        yield left, right


def expected_disorder(
    left: Iterable[SpanAnnotation | Unit],
    right: Iterable[SpanAnnotation | Unit],
    text_length: int,
    cfg: GammaConfig,
    example_id: str = "",
) -> float:
    """Mean disorder over cfg.n_samples seeded ``_resamples`` of both
    sides, each scored from its useful pairs only.

    Deterministic given (inputs, cfg.seed, example_id); each example
    gets an independent child generator so parallel scoring order never
    changes results.
    """
    a, b = _both_units(left, right)
    if text_length <= 0:
        raise ModelError("text_length must be positive")
    for start, end, _ in a + b:
        if end - start > text_length:
            raise ModelError(
                f"span of length {end - start} cannot fit in text of length {text_length}"
            )
    costs = pair_costs(cfg.dissimilarity)
    penalty = cfg.dissimilarity.delta_empty
    limit = 2.0 * penalty
    n, m = len(a), len(b)
    avg_count = (n + m) / 2.0
    total = 0.0
    samples = _resamples(a, b, text_length, _child_rng(cfg.seed, example_id))
    for _, (left, right) in zip(range(cfg.n_samples), samples):
        total += _match(n, m, costs(left, right, limit), penalty)[0] / avg_count
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
        # Imported here, so that a run that warns of nothing does not load it.
        import logging

        logging.getLogger(__name__).warning(
            "zero expected disorder for example %r; skipping gamma", example_id
        )
        return None
    return 1.0 - obs / exp

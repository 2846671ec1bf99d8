"""Every branch of gamma's useful-pair path, checked with ``==`` against
the reference in ``test_gamma_reference``.

Each alignment, observed or resampled, is matched from the pairs that
cost less than 2 * delta_empty. Above 64 pairs per call they are found
in a window of sorted starts, which the first test checks against the
all-pairs filter. With none every unit pays the penalty,
a single one is matched directly, and otherwise the pairs are split into
connected components, of which only those with 4 or more units reach
the solver. Each test records which of these branches its alignments
took, so that a test whose inputs stop forcing its branch fails instead
of passing vacuously. Where two optimal matchings tie, the two agree
only to rounding; the last test pins such a case.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from spanagree.gamma import DissimilarityConfig, GammaConfig, gamma_score, pair_cost_matrix
from spanagree.gamma import alignment
from spanagree.gamma.dissimilarity import WINDOW_MIN_PAIRS, pair_costs
from spanagree.model import SpanAnnotation

from conftest import random_spans
from test_gamma_reference import ref_gamma, ref_pair_cost_matrix


def S(start, end, category=0):
    return SpanAnnotation(start, end, category)


def _units(rng, text_len, n):
    """n random units, of lengths up to a bound drawn once for the side."""
    longest = rng.randint(1, text_len)
    units = []
    for _ in range(n):
        length = rng.randint(1, longest)
        start = rng.randint(0, text_len - length)
        units.append((start, start + length, rng.randint(0, 2)))
    return units


def _touching(rng, units, text_len):
    """Units that end where one of units starts or start where it ends:
    d is exactly 1 for such a pair, which puts its cost exactly on the
    limit when beta is 0 or the categories differ."""
    out = []
    for start, end, _ in units:
        length = rng.randint(1, 10)
        if rng.random() < 0.5 and end + length <= text_len:
            out.append((end, end + length, rng.randint(0, 2)))
        elif start >= length:
            out.append((start - length, start, rng.randint(0, 2)))
    return out


@pytest.mark.parametrize("alpha, beta, delta_empty", [
    (1.0, 1.0, 1.0),
    (3.0, 1.0, 0.75),
    (0.5, 1.5, 2.5),
    (0.0, 1.0, 0.6),
    (1.0, 0.0, 0.3),
    (1.0, 1.0, 0.0),
    (1.0, 1.0, 1e308),
])
def test_windowed_pairs_equal_the_all_pairs_filter(alpha, beta, delta_empty):
    costs = pair_costs(DissimilarityConfig(alpha, beta, delta_empty))
    limit = 2 * delta_empty
    rng = random.Random(f"{alpha}-{beta}-{delta_empty}")
    gated = set()
    on_limit = 0
    for _ in range(400):
        text_len = rng.randint(1, 120)
        left = _units(rng, text_len, rng.randint(1, 30))
        right = _units(rng, text_len, rng.randint(1, 30))
        right = (right + _touching(rng, left, text_len))[:30]
        every = costs(left, right, None)
        want = [(i, j, cost) for i, j, cost in every if cost < limit]
        got = costs(left, right, limit)
        assert sorted(got) == want
        rows = [i for i, _, _ in got]
        assert rows == sorted(rows)
        gated.add(len(left) * len(right) > WINDOW_MIN_PAIRS)
        on_limit += any(cost == limit for _, _, cost in every)
    assert gated == {False, True}
    assert on_limit


def traced_gamma(monkeypatch, left, right, text_length, cfg, example_id="x"):
    """gamma_score, checked ``==`` against ref_gamma, and one
    (useful pairs, solver calls) entry per alignment it matched."""
    seen = []
    solves = []
    match, solve = alignment._match, alignment.solve_assignment

    def counted_match(n, m, useful, penalty):
        before = len(solves)
        result = match(n, m, useful, penalty)
        seen.append((len(useful), len(solves) - before))
        return result

    def counted_solve(cost):
        solves.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(alignment, "_match", counted_match)
    monkeypatch.setattr(alignment, "solve_assignment", counted_solve)
    got = gamma_score(left, right, text_length, cfg, example_id)
    monkeypatch.undo()
    assert got == ref_gamma(left, right, text_length, cfg, example_id)
    return got, seen


def test_no_useful_pairs_pays_every_penalty(monkeypatch):
    # A category mismatch is useful only where the spans overlap, and the
    # resampled one-character spans never do: each resample pays six
    # penalties, whose sum differs from 6 * 0.1 in the last bit.
    cfg = GammaConfig(DissimilarityConfig(delta_empty=0.1), n_samples=8, seed=1)
    left = [S(0, 1, 0), S(100, 101, 0), S(200, 201, 0), S(300, 301, 0)]
    right = [S(0, 1, 1), S(500, 501, 1)]
    _, seen = traced_gamma(monkeypatch, left, right, 1000, cfg)
    assert seen == [(1, 0)] + [(0, 0)] * 8


def test_exactly_one_useful_pair_of_text_long_spans(monkeypatch):
    # One unit per side, each as long as the text: every resample draws
    # randrange(1) and puts both back at 0, one useful pair every time.
    cfg = GammaConfig(DissimilarityConfig(alpha=2.0, beta=0.5, delta_empty=0.7), n_samples=9)
    got, seen = traced_gamma(monkeypatch, [S(0, 12, 0)], [S(0, 12, 1)], 12, cfg)
    assert seen == [(1, 0)] * 10
    assert got == 0.0


def test_one_useful_pair_among_several_units(monkeypatch):
    cfg = GammaConfig(n_samples=30, seed=5)
    left = [S(0, 10, 0), S(40, 44, 1), S(70, 75, 2)]
    right = [S(1, 10, 0), S(90, 99, 1)]
    got, seen = traced_gamma(monkeypatch, left, right, 100, cfg)
    assert seen[0] == (1, 0)
    assert {useful for useful, _ in seen} >= {0, 1, 2}


@pytest.mark.parametrize("seed", range(3))
def test_one_unit_sides(monkeypatch, seed):
    rng = random.Random(70 + seed)
    counts = set()
    for index in range(40):
        text_len = rng.randint(1, 30)
        left = random_spans(rng, text_len, 1, k=2)
        right = random_spans(rng, text_len, rng.choice([1, 1, 3]), k=2)
        if rng.random() < 0.5:
            left, right = right, left
        cfg = GammaConfig(n_samples=rng.choice([1, 5]), seed=index)
        _, seen = traced_gamma(monkeypatch, left, right, text_len, cfg, f"{seed}-{index}")
        counts.update(useful for useful, _ in seen)
    assert counts >= {0, 1}


def test_two_unit_components_skip_the_solver(monkeypatch):
    # The observed alignment has two useful pairs far apart: two 1x1
    # components, matched without the solver.
    left, right = [S(0, 10, 0), S(50, 60, 1)], [S(1, 10, 0), S(50, 58, 1)]
    got, seen = traced_gamma(monkeypatch, left, right, 200, GammaConfig(n_samples=10))
    assert seen[0] == (2, 0)
    assert got is not None and got > 0.5


def test_three_unit_component_skips_the_solver(monkeypatch):
    # Two left units overlap the one right unit: a 2x1 component.
    left, right = [S(0, 10, 0), S(2, 12, 0)], [S(1, 11, 0)]
    _, seen = traced_gamma(monkeypatch, left, right, 30, GammaConfig(n_samples=10, seed=3))
    assert seen[0] == (2, 0)
    assert (2, 0) in seen[1:]
    assert not any(solves for _, solves in seen)


def test_overflowing_delta_empty(monkeypatch):
    # 2 * 1e308 is inf, so only a pair whose own cost overflows to inf (or
    # is nan) is not useful; pair_cost_matrix still holds such pairs.
    dissimilarity = DissimilarityConfig(delta_empty=1e308)
    left, right = [S(0, 10, 0), S(30, 40, 1)], [S(0, 10, 1), S(2, 12, 0)]
    with np.errstate(over="ignore"):
        matrix = pair_cost_matrix(
            [(s.start, s.end, s.category) for s in left],
            [(s.start, s.end, s.category) for s in right],
            dissimilarity,
        )
        assert matrix == ref_pair_cost_matrix(left, right, dissimilarity).tolist()
        assert matrix[1] == [math.inf, math.inf]

        # a 2x1 component, settled without the solver, and a solved 2x2 one
        cfg = GammaConfig(dissimilarity, n_samples=2)
        got, seen = traced_gamma(monkeypatch, [S(0, 10, 0), S(2, 12, 0)], [S(1, 11, 0)], 20, cfg)
        assert seen[0] == (2, 0)
        assert math.isfinite(got)
        both = [S(0, 10, 0), S(2, 12, 0)]
        got, seen = traced_gamma(monkeypatch, both, [S(1, 11, 0), S(3, 13, 0)], 20, cfg)
        assert seen[0] == (4, 1)
        assert math.isfinite(got)

        # 10 x 10 units, above the window's gate: an infinite limit keeps
        # the all-pairs loop, and every pair whose cost stays finite is useful
        left = [S(10 * k, 10 * k + 8, k % 3) for k in range(10)]
        right = [S(10 * k + 1, 10 * k + 9, k % 3) for k in range(10)]
        cfg = GammaConfig(dissimilarity, n_samples=2)
        big, big_seen = traced_gamma(monkeypatch, left, right, 120, cfg)

        # a resampled pair whose cost overflows drops out, and the two
        # penalties it leaves sum to inf
        cfg = GammaConfig(dissimilarity, n_samples=3, seed=3)
        got, seen = traced_gamma(monkeypatch, [S(0, 10, 0)], [S(0, 10, 1)], 40, cfg)
    assert big_seen[0][0] >= 10 and not math.isnan(big)
    assert seen[0] == (1, 0)
    assert (0, 0) in seen[1:]
    assert got == 1.0


@pytest.mark.parametrize("seed", range(2))
def test_zero_alpha(monkeypatch, seed):
    # Without the positional term a pair costs 0 (same category) or
    # exactly 2 * delta_empty: matching is by category alone.
    rng = random.Random(110 + seed)
    taken = set()
    for index in range(20):
        text_len = rng.randint(5, 60)
        left = random_spans(rng, text_len, rng.randint(1, 5), k=3)
        right = random_spans(rng, text_len, rng.randint(1, 5), k=3)
        cfg = GammaConfig(
            DissimilarityConfig(alpha=0.0, beta=rng.choice([0.5, 1.0]), delta_empty=0.6),
            n_samples=5,
            seed=index,
        )
        _, seen = traced_gamma(monkeypatch, left, right, text_len, cfg, f"a{seed}-{index}")
        taken.update(min(useful, 2) for useful, _ in seen)
    assert taken == {0, 1, 2}
    # 10 x 10 units, above the window's gate, which alpha 0 keeps shut
    for index in range(3):
        text_len = rng.randint(20, 60)
        left, right = random_spans(rng, text_len, 10, k=3), random_spans(rng, text_len, 10, k=3)
        cfg = GammaConfig(DissimilarityConfig(alpha=0.0, delta_empty=0.6), n_samples=3, seed=index)
        _, seen = traced_gamma(monkeypatch, left, right, text_len, cfg, f"b{seed}-{index}")
        assert seen[0][0] > 1


def test_tied_matchings_agree_with_the_reference_to_rounding():
    # ref_gamma solves each component as the old padded matrix. Where two
    # optimal matchings tie it can pick the other one, whose summed cost
    # equals gamma_score's only up to rounding. Here the observed
    # alignment ties: draw 458 of the loop of
    # test_gamma_equals_reference_under_any_weights run from
    # random.Random(1) with alpha 1, beta 0 and delta_empty 0.3.
    left = [S(8, 9, 0), S(12, 17, 3), S(9, 10, 3)]
    right = [S(8, 11, 0), S(12, 15, 3), S(10, 11, 3), S(0, 6, 2), S(10, 24, 0),
             S(6, 26, 3), S(1, 10, 1), S(0, 5, 3), S(11, 25, 1), S(8, 23, 1)]
    cfg = GammaConfig(DissimilarityConfig(alpha=1.0, beta=0.0, delta_empty=0.3),
                      n_samples=10, seed=75)
    got = gamma_score(left, right, 37, cfg, "x")
    want = ref_gamma(left, right, 37, cfg, "x")
    assert got == 0.1071917954928765
    assert want == 0.10719179549287661  # the tie this test pins
    assert math.isclose(got, want, rel_tol=1e-12)

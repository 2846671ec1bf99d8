"""gamma_score checked with ``==`` against a reference kept in this file.

The reference is the earlier implementation, which the list-based one
replaced: resamples are built as ``SpanAnnotation`` objects with
``random.randint``, and the pair costs and the padded matrix are numpy
arrays sliced with ``np.ix_``. Both do the same float operations in the
same order, so every score must agree to the last bit, under any
weights; a cost that reorders the arithmetic fails here even where the
golden values (default weights only) would not notice.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from spanagree.gamma import DissimilarityConfig, GammaConfig, gamma_score
from spanagree.gamma.solver import solve_assignment
from spanagree.model import SpanAnnotation


def ref_pair_cost_matrix(left, right, cfg):
    sl = np.array([a.start for a in left], dtype=np.float64)[:, None]
    el = np.array([a.end for a in left], dtype=np.float64)[:, None]
    cl = np.array([a.category for a in left], dtype=np.int64)[:, None]
    sr = np.array([a.start for a in right], dtype=np.float64)[None, :]
    er = np.array([a.end for a in right], dtype=np.float64)[None, :]
    cr = np.array([a.category for a in right], dtype=np.int64)[None, :]
    d = (np.abs(sl - sr) + np.abs(el - er)) / ((el - sl) + (er - sr))
    pos = cfg.delta_empty * (d * d)
    cat = np.where(cl == cr, 0.0, cfg.delta_empty)
    scale = 2.0 / (cfg.alpha + cfg.beta)
    return scale * (cfg.alpha * pos + cfg.beta * cat)


def ref_padded_matrix(pair, penalty):
    n, m = pair.shape
    size = n + m
    mat = np.full((size, size), penalty * size + 1.0, dtype=np.float64)
    mat[:n, :m] = np.minimum(pair, 2.0 * penalty + 1.0)
    for i in range(n):
        mat[i, m + i] = penalty
    for j in range(m):
        mat[n + j, j] = penalty
    mat[n:, m:] = 0.0
    return mat


def ref_matching_cost(pair, penalty):
    n, m = pair.shape
    costs = pair.tolist()
    root = list(range(n + m))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, row in enumerate(costs):
        for j, cost in enumerate(row):
            if cost < 2.0 * penalty:
                root[find(i)] = find(n + j)
    components = {}
    for x in range(n + m):
        components.setdefault(find(x), []).append(x)
    match = {}
    for nodes in components.values():
        rows = [x for x in nodes if x < n]
        cols = [x - n for x in nodes if x >= n]
        if len(nodes) == 2:
            match[rows[0]] = cols[0]
        elif len(nodes) > 2:
            sub, _ = solve_assignment(ref_padded_matrix(pair[np.ix_(rows, cols)], penalty))
            match.update((i, cols[sub[k]]) for k, i in enumerate(rows) if sub[k] < len(cols))
    total = 0.0
    for i in range(n):
        total += costs[i][match[i]] if i in match else penalty
    matched = set(match.values())
    for j in range(m):
        if j not in matched:
            total += penalty
    return total


def ref_cost(left, right, cfg):
    return ref_matching_cost(ref_pair_cost_matrix(left, right, cfg), cfg.delta_empty)


def ref_resample(spans, text_length, rng):
    categories = [s.category for s in spans]
    rng.shuffle(categories)
    out = []
    for s, category in zip(spans, categories):
        start = rng.randint(0, text_length - len(s))
        out.append(SpanAnnotation(start, start + len(s), category))
    return out


def ref_gamma(left, right, text_length, cfg, example_id):
    if not left or not right:
        return None
    avg_count = (len(left) + len(right)) / 2.0
    obs = ref_cost(left, right, cfg.dissimilarity) / avg_count
    if obs == 0.0:
        return 1.0
    digest = hashlib.sha256(f"{cfg.seed}:{example_id}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:16], "big"))
    total = 0.0
    for _ in range(cfg.n_samples):
        sample_left = ref_resample(left, text_length, rng)
        sample_right = ref_resample(right, text_length, rng)
        total += ref_cost(sample_left, sample_right, cfg.dissimilarity) / avg_count
    exp = total / cfg.n_samples
    return None if exp <= 0.0 else 1.0 - obs / exp


def _span(rng, text_len):
    length = rng.randint(1, min(30, text_len))
    start = rng.randint(0, text_len - length)
    return SpanAnnotation(start, start + length, rng.randint(0, 3))


def _near(rng, span, text_len):
    start = min(max(0, span.start + rng.randint(-2, 2)), text_len - 1)
    end = min(max(start + 1, span.end + rng.randint(-2, 2)), text_len)
    category = span.category if rng.random() < 0.7 else rng.randint(0, 3)
    return SpanAnnotation(start, end, category)


@pytest.mark.parametrize("seed", range(4))
def test_gamma_equals_reference_under_any_weights(seed):
    rng = random.Random(1000 + seed)
    for index in range(60):
        text_len = rng.randint(1, 150)
        left = [_span(rng, text_len) for _ in range(rng.randint(0, 12))]
        right = [_near(rng, s, text_len) for s in left if rng.random() < 0.6]
        right += [_span(rng, text_len) for _ in range(rng.randint(0, 12 - len(right)))]
        cfg = GammaConfig(
            dissimilarity=DissimilarityConfig(
                alpha=rng.choice([0.1, 0.7, 1.0, 3.0]),
                beta=rng.choice([0.0, 0.3, 1.0, 2.5]),
                delta_empty=rng.choice([0.0, 0.1, 0.6, 1.0, 7.0]),
            ),
            n_samples=rng.choice([1, 4, 10]),
            seed=rng.randrange(1000),
        )
        example_id = f"s{seed}-{index}"
        want = ref_gamma(left, right, text_len, cfg, example_id)
        assert gamma_score(left, right, text_len, cfg, example_id) == want, example_id

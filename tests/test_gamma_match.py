"""``_match`` against the union-find matcher it replaced, bit for bit.

``union_find_match`` is that matcher, kept as the reference: it joins
the units of every useful pair in a union-find over all n + m units and
sends every component of 3 or more units to the solver. ``_match``
builds its components while reading the pairs and settles a 3-unit
component without the solver, so the two must agree on the total's bits
and on the matching for every input.
"""

from __future__ import annotations

import random
from array import array

import pytest

from spanagree.gamma import alignment
from spanagree.gamma.solver import solve_assignment


def union_find_match(n, m, useful, penalty):
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

    root = list(range(n + m))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    rows_of = {}
    for i, j, cost in useful:
        rows_of.setdefault(i, {})[j] = cost
        root[find(i)] = find(n + j)
    components = {}
    for x in range(n + m):
        components.setdefault(find(x), []).append(x)

    match = {}
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


def assert_same(n, m, useful, penalty):
    want_total, want = union_find_match(n, m, useful, penalty)
    got_total, got = alignment._match(n, m, list(useful), penalty)
    assert (got_total.hex(), got) == (want_total.hex(), want), (n, m, useful, penalty)
    return got


def merges(n, useful):
    """How many pairs link two components that earlier pairs built."""
    label = {}
    count = 0
    for i, j, _ in useful:
        a, b = label.get(i), label.get(n + j)
        if a is not None and b is not None and a != b:
            count += 1
            label = {x: a if v == b else v for x, v in label.items()}
        else:
            label[i] = label[n + j] = a if a is not None else b if b is not None else (i, j)
    return count


def random_useful(rng, n, m, penalty):
    """Useful pairs, rows in order and shuffled within each row, of costs
    below 2 * penalty, often repeated."""
    limit = min(2.0 * penalty, 1.7e308)
    shared = [rng.uniform(0.0, limit) for _ in range(3)] + [0.0]
    density = rng.choice([0.1, 0.2, 0.35, 0.6])
    useful = []
    for i in range(n):
        row = []
        for j in range(m):
            if rng.random() < density:
                cost = rng.choice(shared) if rng.random() < 0.4 else rng.uniform(0.0, limit)
                row.append((i, j, cost if cost < 2.0 * penalty else 0.0))
        rng.shuffle(row)
        useful.extend(row)
    return useful


@pytest.mark.parametrize("seed", range(4))
def test_equals_the_union_find_matcher(seed):
    rng = random.Random(900 + seed)
    sizes = set()
    merged = 0
    for _ in range(5000):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        penalty = rng.choice([1.0, 0.5, 0.3, 2.5, 1e-300, 1e308])
        useful = random_useful(rng, n, m, penalty)
        assert_same(n, m, useful, penalty)
        merged += merges(n, useful) > 0
        sizes.add(min(len(useful), 2))
    assert sizes == {0, 1, 2}
    assert merged > 500


@pytest.mark.parametrize("penalty, c1, c2, first", [
    # Halved gains that tie while the costs differ: both are -1.0.
    (1.0, 2e-17, 1e-17, True),
    (1.0, 1e-17, 2e-17, True),
    (0.7, 0.25, 0.25, True),
    (0.7, 0.5, 0.25, False),
    # 2 * delta_empty overflows to inf; the halved gains stay finite.
    (1e308, 1.5e308, 1e308, False),
    (1e308, 1e308, 1.5e308, True),
])
def test_three_unit_components(penalty, c1, c2, first):
    if penalty == 1.0:
        assert c1 != c2 and 0.5 * c1 - penalty == 0.5 * c2 - penalty
    # one left unit with two right units, in both orders within its row
    for useful in ([(0, 0, c1), (0, 1, c2)], [(0, 1, c2), (0, 0, c1)]):
        assert assert_same(1, 2, useful, penalty) == {0: 0 if first else 1}
        moved = [(1, j + 1, cost) for _, j, cost in useful]
        assert assert_same(3, 4, moved, penalty) == {1: 1 if first else 2}
    # two left units with one right unit
    assert assert_same(2, 1, [(0, 0, c1), (1, 0, c2)], penalty) == {0 if first else 1: 0}
    assert assert_same(4, 3, [(1, 2, c1), (3, 2, c2)], penalty) == {1 if first else 3: 2}


def test_merged_components_reach_the_solver(monkeypatch):
    shapes = []
    solve = alignment.solve_assignment

    def recording(cost):
        shapes.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(alignment, "solve_assignment", recording)
    # (1, 0) joins the components of (0, 0) and (1, 1); (2, 1) joins (2, 2)'s to them.
    useful = [(0, 0, 0.1), (1, 1, 0.1), (1, 0, 0.2), (2, 2, 0.1), (2, 1, 0.3)]
    assert merges(3, useful) == 2
    assert assert_same(3, 3, useful, 1.0) == {0: 0, 1: 1, 2: 2}
    assert shapes == [(3, 3)]

"""Square assignment solver (shortest augmenting path)."""

from __future__ import annotations

from typing import Any


def solve_assignment(cost: Any) -> tuple[list[int], float]:
    """Minimum-cost perfect matching on a square cost matrix.

    ``cost`` is a square 2-D buffer with ``.shape`` and ``.tolist()``:
    a ``memoryview`` of doubles cast to (n, n), or a numpy array.

    Returns (cols, total) where cols[i] is the column assigned to row i
    and total sums the chosen costs in row order.
    O(n^3) Jonker-Volgenant style algorithm with dual potentials;
    requires finite costs. A 2x2 matrix is answered in closed form with
    the loop's own comparisons, so its cols, ties included, and its
    total are the loop's to the bit.
    """
    matrix = cost.tolist()
    n = len(matrix)
    if n == 0:
        return [], 0.0
    if n == 2:
        (a, b), (c, d) = matrix
        # Row 0 takes its cheaper column, column 0 on a tie. Row 1 takes
        # the other column unless it prefers the taken one by more than
        # row 0 loses by moving over.
        if a <= b:
            diagonal = not c <= d or not b - a < d - c
        else:
            diagonal = d < c and a - b < c - d
        return ([0, 1], 0.0 + a + d) if diagonal else ([1, 0], 0.0 + b + c)
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    # p[j] = row matched to column j, 1-based; column 0 is the virtual root
    p = [0] * (n + 1)
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = matrix[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    cols = [0] * n
    for j in range(1, n + 1):
        if p[j] != 0:
            cols[p[j] - 1] = j - 1
    total = 0.0
    for i in range(n):
        total += matrix[i][cols[i]]
    return cols, total

"""Wasserstein distances and moments for equal-weight particle ensembles.

``w2`` is the one exact W2 between two ensembles; it picks the method from
its inputs.  In one dimension the optimal coupling matches sorted order
against sorted order: with equal counts W2 is the RMS gap of the sorted
atoms (``w2_1d_positions``), with unequal counts the exact integral of the
squared gap of the two quantile functions over their merged breakpoints.
In higher dimension (small N, equal counts) the squared-cost linear
assignment problem is solved exactly by the shortest-augmenting-path
method of D. F. Crouse, "On implementing 2D rectangular assignment
algorithms", IEEE Trans. Aerospace and Electronic Systems 52(4), 2016 (the
method scipy's ``linear_sum_assignment`` implements), written here in
numpy so that no run imports ``scipy.optimize``.  The solve starts from
the row-minimum dual, which already matches every row whose cheapest
column no other row wants; consecutive snapshots of a run are mostly that
case.
"""
from __future__ import annotations

import numpy as np

from .errors import SizeLimitError
from .grids import dot

ASSIGNMENT_CAP = 512


def _pos(ens) -> np.ndarray:
    pos = np.asarray(getattr(ens, "positions", ens), dtype=float)
    return pos[:, None] if pos.ndim == 1 else pos


def w2_1d_positions(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size != b.size:
        raise ValueError(f"particle counts differ: {a.size} vs {b.size}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def w1_1d(a, b) -> float:
    """Exact 1-Wasserstein distance between equal-weight 1d ensembles of equal size."""
    pa, pb = _pos(a), _pos(b)
    if pa.shape[1] != 1 or pb.shape[1] != 1:
        raise ValueError("sorted-order transport requires d = 1")
    if pa.shape[0] != pb.shape[0]:
        raise ValueError(f"particle counts differ: {pa.shape[0]} vs {pb.shape[0]}")
    return float(np.mean(np.abs(np.sort(pa[:, 0]) - np.sort(pb[:, 0]))))


def linear_assignment(cost: np.ndarray) -> np.ndarray:
    """Columns cols minimising cost[arange(n), cols].sum() over permutations of a square cost.

    Start from the dual u_i = min_j c_ij, v = 0 and match each row to its
    argmin column where no other row's argmin is that column: this partial
    matching has zero reduced cost c_ij - u_i - v_j, and every reduced cost
    is >= 0.  Each row left over is matched by one Crouse sweep, a Dijkstra
    search over reduced costs for the nearest unmatched column, vectorised
    over the columns; the duals are then updated so that both properties
    still hold and the path is flipped.  Among columns at equal distance an
    unmatched one ends the search.  O(n^3) at worst, O(n^2) when no sweep
    runs.  Non-finite costs raise ValueError, as in scipy, since a search
    on them need not end.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be a square matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains NaN or infinite entries")
    n = cost.shape[0]
    u, v = cost.min(axis=1), np.zeros(n)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    best = cost.argmin(axis=1)
    lone = np.bincount(best, minlength=n)[best] == 1
    col4row[lone] = best[lone]
    row4col[best[lone]] = np.flatnonzero(lone)
    for start in np.flatnonzero(col4row < 0):
        dist, path = np.full(n, np.inf), np.full(n, -1)
        todo = np.ones(n, dtype=bool)
        i, low, tree = start, 0.0, []
        while True:
            r = low + cost[i] - u[i] - v
            closer = todo & (r < dist)
            dist[closer] = r[closer]
            path[closer] = i
            reach = np.where(todo, dist, np.inf)
            low = reach.min()
            ties = np.flatnonzero(reach == low)
            free = ties[row4col[ties] < 0]
            j = free[0] if free.size else ties[0]
            todo[j] = False
            if row4col[j] < 0:
                break
            i = row4col[j]
            tree.append(i)
        u[start] += low
        u[tree] += low - dist[col4row[tree]]
        v[~todo] -= low - dist[~todo]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def w2_assignment_positions(a: np.ndarray, b: np.ndarray) -> float:
    """W2 of the optimal assignment on the squared-distance cost, built one axis at a time (no (N, N, d) array):
    each axis after the first is added on in row chunks of at most 2**14 entries, so no second (N, N) array is held."""
    a, b = _pos(a), _pos(b)
    cost = np.subtract.outer(a[:, 0], b[:, 0])
    cost *= cost
    step = max(1, (1 << 14) // len(b))
    for k in range(1, a.shape[1]):
        for i in range(0, len(a), step):
            gap = np.subtract.outer(a[i:i + step, k], b[:, k])
            gap *= gap
            cost[i:i + step] += gap
    cols = linear_assignment(cost)
    return float(np.sqrt(cost[np.arange(cost.shape[0]), cols].mean()))


def w2(a, b) -> float:
    """Exact 2-Wasserstein distance between two equal-weight ensembles or (n, d) position arrays.

    1d, equal counts: sorted order (``w2_1d_positions``).  1d, n and m
    atoms: the quantile functions are piecewise constant with breakpoints
    {i/n} and {j/m}, and W2^2 is the exact integral of their squared gap
    over the merged breakpoints, kept as integers over the common
    denominator n*m, in O((n + m) log(n + m)).  Higher d: the assignment
    (``w2_assignment_positions``), which needs equal counts and is capped
    at ASSIGNMENT_CAP points (SizeLimitError), since it is O(N^3) at worst.
    """
    pa, pb = _pos(a), _pos(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    n, m = pa.shape[0], pb.shape[0]
    if pa.shape[1] == 1 and n == m:
        return w2_1d_positions(pa[:, 0], pb[:, 0])
    if pa.shape[1] == 1:
        ticks = np.union1d(np.arange(n + 1) * m, np.arange(m + 1) * n)
        lo = ticks[:-1]
        gap = np.sort(pa[:, 0])[lo // m] - np.sort(pb[:, 0])[lo // n]
        return float(np.sqrt(dot(np.diff(ticks) / (n * m), gap * gap)))
    if n != m:
        raise ValueError(f"particle counts differ: {n} vs {m}")
    if n > ASSIGNMENT_CAP:
        raise SizeLimitError(f"assignment solver capped at N={ASSIGNMENT_CAP}, got {n}")
    return w2_assignment_positions(pa, pb)


def m2(ens) -> float:
    """Second moment (1/N) sum |x_i|^2."""
    pos = _pos(ens)
    return float(np.mean(np.sum(pos * pos, axis=1)))

"""Wasserstein distances and moments for equal-weight particle ensembles.

In one dimension the optimal coupling of two equal-weight N-point measures
matches sorted order against sorted order, so W2 and W1 reduce to sorting.
In general dimension (small N) the squared-cost linear assignment problem
is solved exactly; 1d sorting is used as a cross-check there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError

ASSIGNMENT_CAP = 512


@dataclass(frozen=True)
class DistanceReport:
    value: float
    method: str
    n_points: int


def _pos(ens) -> np.ndarray:
    pos = np.asarray(getattr(ens, "positions", ens), dtype=float)
    return pos[:, None] if pos.ndim == 1 else pos


def _check_pair(a: np.ndarray, b: np.ndarray, need_1d: bool):
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if need_1d and a.shape[1] != 1:
        raise ValueError("sorted-order transport requires d = 1")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"particle counts differ: {a.shape[0]} vs {b.shape[0]}")


def w2_1d_positions(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size != b.size:
        raise ValueError(f"particle counts differ: {a.size} vs {b.size}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def w2_1d(a, b) -> DistanceReport:
    """Exact 2-Wasserstein distance between equal-weight 1d ensembles."""
    pa, pb = _pos(a), _pos(b)
    _check_pair(pa, pb, need_1d=True)
    return DistanceReport(w2_1d_positions(pa[:, 0], pb[:, 0]), "sorted_1d", pa.shape[0])


def w1_1d(a, b) -> DistanceReport:
    """Exact 1-Wasserstein distance between equal-weight 1d ensembles."""
    pa, pb = _pos(a), _pos(b)
    _check_pair(pa, pb, need_1d=True)
    val = float(np.mean(np.abs(np.sort(pa[:, 0]) - np.sort(pb[:, 0]))))
    return DistanceReport(val, "sorted_1d", pa.shape[0])


def w2_assignment_positions(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.optimize import linear_sum_assignment  # ~0.5 s to import; 1d runs never assign

    a, b = _pos(a), _pos(b)
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def w2_assignment(a, b) -> DistanceReport:
    """Exact 2-Wasserstein distance via the linear assignment problem.

    Shortest-augmenting-path solve, O(N^3); capped at N = 512 to keep
    runtimes interactive.
    """
    pa, pb = _pos(a), _pos(b)
    _check_pair(pa, pb, need_1d=False)
    if pa.shape[0] > ASSIGNMENT_CAP:
        raise SizeLimitError(f"assignment solver capped at N={ASSIGNMENT_CAP}, got {pa.shape[0]}")
    return DistanceReport(w2_assignment_positions(pa, pb), "assignment_exact", pa.shape[0])


def w2_1d_refined(a, b) -> DistanceReport:
    """W2 between 1d equal-weight ensembles of different sizes.

    The quantile functions Q_a, Q_b of n and m sorted atoms are piecewise
    constant with breakpoints {i/n} and {j/m}; W2^2 is the exact integral of
    (Q_a - Q_b)^2 over the merged breakpoints, in O((n + m) log(n + m)).
    Breakpoints are kept as integers over the common denominator n*m.
    n_points counts the atoms of the optimal coupling (merged intervals).
    """
    pa, pb = _pos(a), _pos(b)
    if pa.shape[1] != 1 or pb.shape[1] != 1:
        raise ValueError("refined sorted-order transport requires d = 1")
    n, m = pa.shape[0], pb.shape[0]
    ticks = np.union1d(np.arange(n + 1) * m, np.arange(m + 1) * n)
    lo = ticks[:-1]
    gap = np.sort(pa[:, 0])[lo // m] - np.sort(pb[:, 0])[lo // n]
    w2sq = float(np.dot(np.diff(ticks) / (n * m), gap * gap))
    return DistanceReport(float(np.sqrt(w2sq)), "sorted_1d_refined", lo.size)


def m2(ens) -> float:
    """Second moment (1/N) sum |x_i|^2."""
    pos = _pos(ens)
    return float(np.mean(np.sum(pos * pos, axis=1)))

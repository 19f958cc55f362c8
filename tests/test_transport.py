import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from blobflow import runner, transport
from blobflow.config import ExperimentConfig
from blobflow.errors import SizeLimitError
from blobflow.particles import ParticleEnsemble
from blobflow.transport import (
    SquaredDistances,
    linear_assignment,
    m2,
    w1_1d,
    w2,
    w2_1d_positions,
    w2_assignment_positions,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS, level_for  # noqa: E402

finite = st.floats(-50, 50, allow_nan=False)


def brute_force(a, b, p=2):
    best = np.inf
    for perm in itertools.permutations(range(b.shape[0])):
        cost = np.mean(np.sum(np.abs(a - b[list(perm)]) ** p, axis=1))
        best = min(best, cost)
    return best ** (1.0 / p)


def test_single_atoms():
    assert w2(np.array([1.5]), np.array([-2.0])) == 3.5
    assert w1_1d(np.array([1.5]), np.array([-2.0])) == 3.5


def test_identical_and_shuffled():
    a = np.array([0.0, 1.0])
    assert w2(a, a) == 0.0
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 2))
    assert w2(pts, rng.permutation(pts)) == 0.0


def test_brute_force_agreement_1d():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a, b = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        assert abs(w2(a, b) - brute_force(a, b)) <= 1e-12
        assert abs(w1_1d(a, b) - brute_force(a, b, p=1)) <= 1e-12
        assert abs(w2_assignment_positions(a, b) - w2(a, b)) <= 1e-12


def test_rotated_triangle_assignment():
    # equilateral triangle rotated by 2pi/3 about its centroid maps onto
    # itself, so the optimal matching cost is zero
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    centroid = tri.mean(axis=0)
    th = 2 * np.pi / 3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = (tri - centroid) @ rot.T + centroid
    assert w2(tri, rotated) <= 1e-12
    # a smaller rotation gives the pure displacement of the matched vertices
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = (tri - centroid) @ rot.T + centroid
    expect = brute_force(tri, rotated)
    assert abs(w2(tri, rotated) - expect) <= 1e-12


@given(arrays(float, (6, 1), elements=finite), arrays(float, (6, 1), elements=finite))
def test_w1_below_w2(a, b):
    assert w1_1d(a, b) <= w2(a, b) + 1e-12


@given(
    arrays(float, (8, 1), elements=finite),
    arrays(float, (8, 1), elements=finite),
    arrays(float, (8, 1), elements=finite),
)
def test_metric_axioms(a, b, c):
    dab = w2(a, b)
    assert dab == w2(b, a)
    assert dab <= w2(a, c) + w2(c, b) + 1e-10
    assert w2(a, a) == 0.0


@given(arrays(float, (5, 1), elements=finite), arrays(float, (5, 1), elements=finite), st.floats(-10, 10))
def test_translation_exact(a, b, shift):
    assert w2(a + shift, b + shift) == pytest.approx(w2(a, b), abs=1e-12)


@given(arrays(float, (5, 1), elements=finite), arrays(float, (5, 1), elements=finite), st.floats(0.01, 10))
def test_scaling_exact(a, b, lam):
    assert w2(lam * a, lam * b) == pytest.approx(lam * w2(a, b), rel=1e-12, abs=1e-12)


def test_mismatch_errors():
    with pytest.raises(ValueError):
        w2_1d_positions(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        w1_1d(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        w2(np.zeros((2, 1)), np.zeros((2, 2)))
    with pytest.raises(SizeLimitError):
        w2(np.zeros((513, 2)), np.zeros((513, 2)))


def _merged_breakpoint_w2(a, b):
    """W2 of n and m sorted 1d atoms as the quantile-gap integral over the merged breakpoints i m and j n of [0, n m]."""
    a, b = np.sort(a[:, 0]), np.sort(b[:, 0])
    n, m = a.size, b.size
    ticks = np.union1d(np.arange(n + 1) * m, np.arange(m + 1) * n)
    lo = ticks[:-1]
    gap = a[lo // m] - b[lo // n]
    return float(np.sqrt(np.dot(np.diff(ticks) / (n * m), gap * gap)))


def test_w2_is_exactly_the_method_it_picks():
    rng = np.random.default_rng(12)
    a, b, c = rng.normal(size=(9, 1)), rng.normal(size=(9, 1)), rng.normal(size=(14, 1))
    assert w2(a, b) == w2_1d_positions(a[:, 0], b[:, 0])
    assert w2(ParticleEnsemble(a), ParticleEnsemble(b)) == w2(a, b) == w2(a[:, 0], b[:, 0])
    assert w2(a, c) == _merged_breakpoint_w2(a, c) and w2(c, a) == _merged_breakpoint_w2(c, a)
    p, q = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
    assert w2(p, q) == w2_assignment_positions(p, q)
    assert w2(ParticleEnsemble(p), ParticleEnsemble(q)) == w2(p, q)


def test_w2_raises_where_no_exact_method_applies():
    with pytest.raises(ValueError, match="dimension mismatch"):
        w2(np.zeros((3, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="particle counts differ"):
        w2(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(SizeLimitError):
        w2(np.zeros((513, 2)), np.zeros((513, 2)))
    # the cap bounds the assignment only: sorted order takes any count
    assert w2(np.zeros((513, 1)), np.ones((513, 1))) == 1.0
    assert w2(np.zeros((513, 1)), np.ones((600, 1))) == 1.0


def _is_permutation(cols):
    return np.array_equal(np.sort(cols), np.arange(cols.size))


@settings(max_examples=100)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_assignment_matches_scipy_on_continuous_costs(n, seed):
    # a continuous random cost has one optimal permutation, so the two solvers must agree on it
    cost = np.random.default_rng(seed).random((n, n))
    assert np.array_equal(linear_assignment(cost), linear_sum_assignment(cost)[1])


@settings(max_examples=100)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_assignment_cost_matches_scipy_on_tied_costs(n, seed, levels):
    # small-integer costs tie often, so only the optimal cost is unique
    cost = np.random.default_rng(seed).integers(0, levels, (n, n)).astype(float)
    cols, rows = linear_assignment(cost), np.arange(n)
    assert _is_permutation(cols)
    want = cost[rows, linear_sum_assignment(cost)[1]].sum()
    assert abs(cost[rows, cols].sum() - want) <= 1e-12 * max(1.0, abs(want))


def test_assignment_edge_cases():
    assert linear_assignment(np.array([[-3.5]])).tolist() == [0]
    flat = linear_assignment(np.full((7, 7), 2.5))
    assert _is_permutation(flat)
    # every row's cheapest column is column 0, so no row keeps its argmin and each is matched by a sweep
    cost = np.random.default_rng(5).random((40, 40))
    cost[:, 0] = -1.0
    assert np.array_equal(linear_assignment(cost), linear_sum_assignment(cost)[1])


def test_assignment_rejects_non_finite_costs():
    a = np.zeros((3, 2))
    for bad in (np.nan, np.inf, -np.inf):
        b = np.ones((3, 2))
        b[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            w2_assignment_positions(a, b)
    with pytest.raises(ValueError):
        linear_assignment(np.zeros((2, 3)))


class RowsOf(SquaredDistances):
    """A square matrix read through the lazy route: each read is recorded and forms a copy of those rows."""

    def __init__(self, matrix):
        super().__init__(matrix, matrix)
        object.__setattr__(self, "reads", [])

    def __getitem__(self, rows):
        self.reads.append(rows)
        return self.a[rows].copy()


@settings(max_examples=100)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_rows_formed_on_demand_give_the_matrix_columns(n, seed, levels):
    # the scipy-comparison inputs: continuous costs (levels 0) and small-integer ones that tie often; the starting dual
    # reads blocks of at most COST_BLOCK entries, and a solve that sweeps reads the whole cost once, not a row per step
    rng = np.random.default_rng(seed)
    cost = rng.random((n, n)) if levels == 0 else rng.integers(0, levels, (n, n)).astype(float)
    lazy = RowsOf(cost)
    assert np.array_equal(linear_assignment(lazy), linear_assignment(cost))
    if lazy.reads[-1] == slice(None):
        lazy.reads.pop()
    assert all(r.stop is not None and (r.stop - r.start) * n <= max(n, transport.COST_BLOCK) for r in lazy.reads)
    assert len(lazy.reads) == -(-n // max(1, transport.COST_BLOCK // n))


def test_lazy_cost_gives_the_matrix_columns_and_w2_on_a_2d_snapshot_step(tmp_path):
    # a consecutive-snapshot pair of blob2d_gauss: the cost rows formed from the positions as the solver reads them give
    # the columns and the W2 bits of the whole (N, N) cost, summed axis 0 first as the rows are
    raw = WORKLOADS["blob2d_gauss"].config(level_for(DEFAULT_SEED), str(tmp_path / "run"))
    cfg = ExperimentConfig.from_dict(raw)
    (_, a), (_, b) = runner.execute(cfg, cfg.output_dir).trajectory.snapshots[-2:]
    a, b = a.positions, b.positions
    cost = np.subtract.outer(a[:, 0], b[:, 0]) ** 2 + np.subtract.outer(a[:, 1], b[:, 1]) ** 2
    cols = linear_assignment(cost)
    assert np.array_equal(linear_assignment(SquaredDistances(a, b)), cols)
    assert np.array_equal(SquaredDistances(a, b).matched(cols), cost[np.arange(len(a)), cols])
    assert w2_assignment_positions(a, b) == float(np.sqrt(cost[np.arange(len(a)), cols].mean()))


def test_non_finite_positions_raise_before_any_sweep():
    reads = []

    class Recording(SquaredDistances):
        def __getitem__(self, rows):
            reads.append(rows)
            return super().__getitem__(rows)

    rng = np.random.default_rng(8)
    for bad in (np.nan, np.inf):
        a, b = rng.normal(size=(100, 2)), rng.normal(size=(100, 2))
        a[-1, 1] = bad
        reads.clear()
        with pytest.raises(ValueError, match="NaN or infinite"):
            linear_assignment(Recording(a, b))
        assert reads and all(r.stop is not None for r in reads)  # the starting dual's blocks only


def test_assignment_w2_holds_less_than_one_cost_matrix():
    # a snapshot step, which the starting dual matches whole: the whole (N, N) cost made the W2 at N = 512 peak at
    # 2.49 MB, beside 2.10 MB for the cost itself; its rows formed block by block peak at 0.54 MB
    rng = np.random.default_rng(9)
    a = rng.normal(size=(512, 2))
    b = a + 1e-3 * rng.normal(size=a.shape)
    w2_assignment_positions(a, b)
    tracemalloc.start()
    try:
        w2_assignment_positions(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * np.dtype(float).itemsize


def test_2d_snapshot_steps_equal_the_scipy_assignment(tmp_path):
    raw = WORKLOADS["blob2d_gauss"].config(level_for(DEFAULT_SEED), str(tmp_path / "run"))
    cfg = ExperimentConfig.from_dict(raw)
    traj = runner.execute(cfg, cfg.output_dir).trajectory
    got = [row["dw_step"] for row in traj.diagnostics[1:]]
    want = []
    for (_, a), (_, b) in zip(traj.snapshots, traj.snapshots[1:]):
        cost = np.sum((a.positions[:, None, :] - b.positions[None, :, :]) ** 2, axis=-1)
        rows, cols = linear_sum_assignment(cost)
        want.append(float(np.sqrt(cost[rows, cols].mean())))
    assert len(got) > 0 and got == want


def test_moments():
    assert m2(np.array([[3.0]])) == 9.0
    ens = ParticleEnsemble(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert m2(ens) == pytest.approx(2.5)


def test_moment_transport_inequality():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        a = rng.normal(size=(n, 1))
        b = 2 * rng.normal(size=(n, 1)) + 1
        assert m2(b) <= 2 * m2(a) + 2 * w2(a, b) ** 2 + 1e-12


def test_quantile_gaussian_m2():
    from scipy.special import erfinv

    q = (np.arange(10_000) + 0.5) / 10_000
    x = np.sqrt(2) * erfinv(2 * q - 1)
    assert abs(m2(x[:, None]) - 1.0) <= 0.01


def test_refined_distance_consistency():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 1))
    b = rng.normal(size=(6, 1))
    assert w2(a, b) == pytest.approx(w2_1d_positions(a, b), abs=1e-14)
    # repeating atoms leaves the measure unchanged
    a3 = np.repeat(a, 3, axis=0)
    assert w2(a3, b) == pytest.approx(w2_1d_positions(a, b), abs=1e-12)


def _lcm_repeat_w2(a, b):
    """Oracle: repeat both sorted atom lists up to lcm(n, m), then match in order."""
    n = math.lcm(a.size, b.size)
    ra = np.repeat(np.sort(a), n // a.size)
    rb = np.repeat(np.sort(b), n // b.size)
    return float(np.sqrt(np.mean((ra - rb) ** 2)))


@given(
    arrays(np.float64, st.integers(1, 40), elements=finite),
    arrays(np.float64, st.integers(1, 40), elements=finite),
)
def test_refined_matches_common_refinement(a, b):
    want = _lcm_repeat_w2(a, b)
    assert abs(w2(a[:, None], b[:, None]) - want) <= 1e-12 * max(1.0, want)


def test_refined_beyond_the_common_refinement_size():
    # lcm(2003, 2999) ~ 6e6 atoms, past what the repeat formula could hold
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2003, 1)), rng.normal(size=(2999, 1))
    dist = w2(a, b)
    assert np.isfinite(dist) and 0.0 < dist < 0.5
    assert dist == pytest.approx(w2(b, a), rel=1e-12)


@settings(max_examples=60)
@given(st.sampled_from([1, 2]), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_assignment_cost_built_per_axis_gives_the_broadcast_value(d, n, seed):
    # the (N, N) cost is summed one axis at a time; the (N, N, d) broadcast form is the oracle, bit for bit
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, d)), rng.uniform(-2.0, 2.0, size=(n, d))
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    want = float(np.sqrt(cost[np.arange(n), linear_assignment(cost)].mean()))
    assert w2_assignment_positions(a, b) == want

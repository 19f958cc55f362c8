"""The windowed particle<->grid core against the dense pair oracle.

Every deposit and gather touches only each particle's window of
W = 2 ceil(R/h) + 2 consecutive nodes per axis, R the kernel's reach, its
box clamped onto the grid.  The dense oracle here builds the (N, G, d)
displacement tensor over every particle and grid node instead, evaluates
the kernel on its squared distances, drops the pairs beyond R (the
truncation the window applies: the per-axis box for the separable
gaussian, the support ball for the bump), and reads F' only where the
deposit is nonzero.  The clip-and-mask oracle (``full_size_pairs``) keeps
each box where its point puts it, clipping and masking the nodes off the
grid; the clamped boxes must give its pairs within reach and its deposit,
bit for bit.
"""
import tracemalloc
from functools import reduce
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blobflow import energy, fields, grids, particles
from blobflow.energy import EnergyModel, mollified_density
from blobflow.fields import TestFunction, error_term_grid, error_term_z
from blobflow.grids import QuadratureSpec
from blobflow.jko import _step_grid
from blobflow.kernels import MollifierSpec, grad_on_pairs, value_and_grad_factor, value_on_pairs
from blobflow.particles import ParticleEnsemble, velocity_on_grid

TOL = 1e-12


def dense_pairs(pos, kernel, grid, reach):
    """(N, G, d) node-minus-particle offsets, and the pairs within reach: |diff_k| <= R along every axis for the
    gaussian, |diff| <= R for the bump (beyond its ball V and g are exactly 0, so either rule gives its values)."""
    diff = grid.nodes()[None, :, :] - pos[:, None, :]  # (N, G, d)
    sq = diff * diff
    near = np.all(sq <= reach * reach, axis=-1) if kernel.separable else np.sum(sq, axis=-1) <= reach * reach
    return diff, near


def dense_kernel(pos, kernel, grid, reach=None):
    """Offsets as ``dense_pairs``, and V_eps and g_eps (N, G) on r2 = sum_k diff_k^2, the pairs beyond reach 0.0.

    The kernel is evaluated as the window evaluates it, by ``value_and_grad_factor`` on r2: value_on_pairs
    divides the offsets by eps first, which rounds an offset on the bump's support edge to another t.
    """
    diff, near = dense_pairs(pos, kernel, grid, kernel.padding_radius() if reach is None else reach)
    v, g = value_and_grad_factor(kernel, np.sum(diff * diff, axis=-1))
    return diff, v * near, g * near


def axis_values(kernel, sq):
    """The gaussian's V_eps factor per axis: the 1d profile of its width on the (N, d, W) squared offsets sq, consumed."""
    return value_and_grad_factor(MollifierSpec(kernel.family, 1, kernel.eps), sq)[0]


def dense_density(pos, kernel, grid, reach=None):
    """The (N, G) kernel matrix averaged over the particles, pairs beyond reach dropped."""
    return dense_kernel(pos, kernel, grid, reach)[1].mean(axis=0)


def dense_velocity(pos, kernel, model, grid):
    """-sum_g grad V_eps(x_n - g) w_g F'(v_g) over the whole grid, and its scale sum_g |grad V| |w F'|."""
    diff, vker, g = dense_kernel(pos, kernel, grid)
    v = vker.mean(axis=0)
    fp = np.zeros_like(v)
    held = v != 0.0
    fp[held] = model.f_prime(v[held])
    wfp = grid.trapezoid_weights() * fp
    gv = -diff * g[..., None]  # (N, G, d) grad V_eps(x_n - node) = (x_n - node) g_eps
    vel = -np.einsum("ngd,g->nd", gv, wfp)
    scale = np.einsum("ng,g->n", np.sqrt(np.sum(gv * gv, axis=-1)), np.abs(wfp))
    return vel, scale


def dense_error_term(pos, kernel, phi, grid):
    """z on the grid from the dense (N, G) kernel matrix, and the sup of its two parts."""
    _, vker, _ = dense_kernel(pos, kernel, grid)
    gp_part = phi.grad(pos).reshape(len(pos), -1)
    gp_node = phi.grad(grid.nodes()).reshape(grid.nodes().shape[0], -1)
    carried = np.einsum("ng,nd->gd", vker, gp_part) / len(pos)
    held = vker.mean(axis=0)[:, None] * gp_node
    return carried - held, np.max(np.abs(carried)) + np.max(np.abs(held))


MODELS = {
    "power": st.floats(1.2, 3.0).map(lambda m: EnergyModel("power", m)),
    "entropy": st.just(EnergyModel("entropy")),
}


@st.composite
def cases(draw, grid_kinds=("auto", "slack", "pinned"), dims=(1, 2), families=("gaussian", "bump")):
    """A kernel, an energy, particles and a grid, the way the solvers build them.

    ``slack`` is the JKO step grid, evaluated at line-search trial points
    that wander past it, so boxes are clamped at the grid's edge; ``pinned``
    is a fixed box with one particle exactly one kernel reach from its edge.
    """
    d = draw(st.sampled_from(dims))
    kernel = MollifierSpec(draw(st.sampled_from(families)), d, draw(st.floats(0.2, 0.5)))
    model = draw(st.sampled_from(sorted(MODELS)).flatmap(MODELS.get))
    n = draw(st.integers(1, 8 if d == 2 else 24))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(grid_kinds))
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, size=(n, d))
    reach = kernel.padding_radius()
    quad = QuadratureSpec()
    if kind == "auto":
        grid = quad.grid_for(pos, kernel)
    elif kind == "slack":
        slack = draw(st.sampled_from([1, 2, 3])) * kernel.eps
        grid = _step_grid(pos[:, 0], kernel, quad, slack) if d == 1 else quad.grid_for(
            np.vstack([pos - slack, pos + slack]), kernel)
        pos = pos + rng.uniform(-1.0, 1.0, size=pos.shape) * (slack + reach)
    else:
        lo = pos.min(axis=0) - reach
        lo[1:] -= rng.uniform(0.0, 0.5, size=d - 1)
        hi = pos.max(axis=0) + reach + rng.uniform(0.0, 0.5, size=d)
        quad = QuadratureSpec(domain=np.stack([lo, hi], axis=1).tolist())
        grid = quad.grid_for(pos, kernel)
    return kernel, model, pos, grid, quad


@settings(max_examples=100)
@given(cases())
def test_windowed_deposit_matches_dense(case):
    kernel, _, pos, grid, _ = case
    dense = dense_density(pos, kernel, grid)
    assert np.max(np.abs(mollified_density(pos, kernel, grid).density - dense)) <= TOL * np.max(dense)


@settings(max_examples=100)
@given(cases())
def test_windowed_velocity_matches_dense(case):
    kernel, model, pos, grid, _ = case
    vel, scale = dense_velocity(pos, kernel, model, grid)
    err = np.sqrt(np.sum((velocity_on_grid(mollified_density(pos, kernel, grid), model) - vel) ** 2, axis=1))
    assert np.all(err <= TOL * scale)
    assert model.neg_prime_calls == 0


# a 1d bump particle whose pinned domain's nodes all lie on or beyond its support edge: the windowed term is 1.6e-49
# and the dense one must be exactly 0.0 (scale 0.0), which holds only when both evaluate the kernel on the same r2
PINNED_ON_THE_SUPPORT_EDGE = (
    MollifierSpec("bump", 1, 0.3709663696621517), None, np.array([[-0.901116007882214]]), None,
    QuadratureSpec(domain=[[-1.2720823775443657, -0.06295823752413587]]),
)


@settings(max_examples=100)
@given(cases(grid_kinds=("auto", "pinned")), st.sampled_from(["gaussian_bump", "poly_bump"]), st.floats(0.3, 1.5))
@example(PINNED_ON_THE_SUPPORT_EDGE, "poly_bump", 0.7576158787038756)
def test_windowed_error_term_matches_dense(case, family, width):
    kernel, _, pos, _, quad = case
    phi = TestFunction(family, np.full(kernel.d, 0.2), width)
    grid = error_term_grid(pos, kernel, phi, quad) if quad.domain is None else quad.grid_for(pos, kernel)
    z, scale = dense_error_term(pos, kernel, phi, grid)
    rep = error_term_z(ParticleEnsemble(pos), kernel, phi, grid)
    assert np.max(np.abs(rep.field.reshape(z.shape) - z)) <= TOL * scale


@settings(max_examples=100)
@given(cases())
def test_window_holds_exactly_the_grid_nodes_within_reach(case):
    kernel, _, pos, grid, _ = case
    reach = kernel.padding_radius()
    win = grid.window(pos, reach)
    lin, r2 = win.lin(), win.r2()
    diff = grid.nodes()[None] - pos[:, None]
    near = np.sum(diff * diff, axis=-1) <= reach * reach  # r2 cuts to the ball, whatever the family
    held = np.isfinite(r2)
    rows = np.broadcast_to(np.arange(len(pos))[:, None], lin.shape)
    counted = np.zeros_like(near)
    counted[rows[held], lin[held]] = True
    assert np.array_equal(counted, near) and np.count_nonzero(held) == np.count_nonzero(near)
    diff = diff[rows[held], lin[held]]
    assert np.array_equal(r2[held], np.sum(diff * diff, axis=-1))
    n, d, w = win.off.shape
    per_pair = [np.broadcast_to(win.off[:, k].reshape((n,) + (1,) * k + (w,) + (1,) * (d - k - 1)), (n,) + (w,) * d)
                for k in range(d)]
    assert np.array_equal(np.stack(per_pair, axis=-1).reshape(n, -1, d)[held], diff)


@settings(max_examples=60)
@given(cases(grid_kinds=("auto", "pinned")), st.sampled_from(["gaussian_bump", "poly_bump"]))
def test_error_term_carries_v_times_grad_phi_exactly(case, family):
    kernel, _, pos, _, quad = case
    phi = TestFunction(family, np.full(kernel.d, 0.2), 0.5)
    grid = error_term_grid(pos, kernel, phi, quad) if quad.domain is None else quad.grid_for(pos, kernel)
    deposits = []

    def recording(*args, **kwargs):
        deposits.append(mollified_density(*args, **kwargs))
        return deposits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "mollified_density", recording)
        error_term_z(ParticleEnsemble(pos), kernel, phi, grid)
    win = grid.window(pos, kernel.padding_radius())
    gp = phi.grad(pos).reshape(len(pos), -1)
    [dep] = deposits
    if kernel.separable and kernel.d == 2:  # carried column k is the route's sum of (A_0 gp_k)^T A_1 over its pieces
        a0, a1 = axis_rows(win.at, axis_values(kernel, win.sq()), grid.shape)
        want = [axes_sum(a0, a1, grid, gp[:, k]) for k in range(2)]
    else:
        v = value_and_grad_factor(kernel, win.r2())[0]
        want = [win.deposit(v * gp[:, k, None]) for k in range(kernel.d)]
    assert np.array_equal(dep.carried, np.stack(want, axis=-1))


def axis_rows(at, f, shape, add=False):
    """Dense (N, n_k) rows per axis of the per-axis (N, d, W) values f on the node indices at; with add, by np.add.at,
    so that repeated (clipped) indices add their values."""
    rows = [np.zeros((len(f), n)) for n in shape]
    for k, a in enumerate(rows):
        if add:
            np.add.at(a, (np.arange(len(f))[:, None], at[:, k]), f[:, k])
        else:
            np.put_along_axis(a, at[:, k], f[:, k], axis=1)
    return rows


def axes_sum(a0, a1, grid, c=None):
    """Flat sums of (A_0 c)^T A_1 over chunks of PRODUCT_MACS / (16 n_1) rows added in row order, one product per tile
    of A_0^T's rows: the 2d gaussian's deposit, bit for bit."""
    step = max(1, grids.PRODUCT_MACS // (16 * grid.shape[1]))
    acc = np.zeros(grid.shape)
    for a in range(0, len(a0), step):
        rows = slice(a, a + step)
        a0t = (a0[rows] if c is None else a0[rows] * c[rows, None]).T
        for t in grids.tiles(grid.shape[0]):
            acc[t] += a0t[t] @ a1[rows]
    return acc.ravel()


def traced_peak(fn):
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pairs_per_row(grid, pos, kernel):
    """W^d, the pairs of one particle's window on grid."""
    _, d, w = grid.window(pos, kernel.padding_radius()).off.shape
    return w ** d


def pair_nbytes(grid, pos, kernel):
    """The bytes of one (N, W^d) float64 pair array over the particles' windows on grid."""
    return len(pos) * pairs_per_row(grid, pos, kernel) * np.dtype(float).itemsize


def blocks_of_an_eighth(monkeypatch, grid, pos, kernel):
    """Row blocks of at most an eighth of the pairs each, so the block-sized arrays stay small beside the full-size ones."""
    monkeypatch.setattr(grids, "BLOCK_PAIRS", min(grids.BLOCK_PAIRS, len(pos) * pairs_per_row(grid, pos, kernel) // 8))


def gate_case(family, n):
    # particles in a box one kernel width across: the (N, W^d) pair arrays dwarf the grid
    kernel = MollifierSpec(family, 2, 0.2)
    return kernel, np.random.default_rng(0).uniform(-0.1, 0.1, size=(n, 2))


GATE_CASES = pytest.mark.parametrize("family, n", [("gaussian", 64), ("bump", 400)])


@GATE_CASES
def test_window_alone_holds_less_than_one_pair_array(family, n):
    # the window keeps per-axis (N, d, W) arrays only, and no mask; every (rows, W^d) array is formed per row block:
    # measured 0.091x (gaussian) and 0.293x (bump), under gates of 0.11x and 0.35x (about 0.02x and 0.06x of headroom)
    kernel, pos = gate_case(family, n)
    grid = QuadratureSpec().grid_for(pos, kernel)
    peak = traced_peak(lambda: grid.window(pos, kernel.padding_radius()))
    assert peak <= {"gaussian": 0.11, "bump": 0.35}[family] * pair_nbytes(grid, pos, kernel)


@GATE_CASES
def test_velocity_path_holds_at_most_two_pair_arrays(monkeypatch, family, n):
    kernel, pos = gate_case(family, n)
    model = EnergyModel("power", 2.0)
    grid = QuadratureSpec().grid_for(pos, kernel)
    blocks_of_an_eighth(monkeypatch, grid, pos, kernel)
    peak = traced_peak(lambda: velocity_on_grid(mollified_density(pos, kernel, grid), model))
    # the bump keeps its g_eps through the gather and forms its pairs per eighth-size block; the gaussian keeps (N, 2)
    # numbers per particle and forms no pair, only each chunk's per-axis arrays, dense (rows, n_k) rows per axis and
    # grid-sized sums: measured 0.344x (gaussian) and 1.622x (bump), under gates of 0.37x (about 0.026x of headroom) and
    # 1.75x
    assert peak <= {"gaussian": 0.37, "bump": 1.75}[family] * pair_nbytes(grid, pos, kernel)


@GATE_CASES
def test_error_term_deposit_holds_at_most_two_pair_arrays(monkeypatch, family, n):
    kernel, pos = gate_case(family, n)
    phi = TestFunction("poly_bump", np.full(2, 0.05), 0.3)
    grid = error_term_grid(pos, kernel, phi, QuadratureSpec())
    blocks_of_an_eighth(monkeypatch, grid, pos, kernel)
    peak = traced_peak(lambda: error_term_z(ParticleEnsemble(pos), kernel, phi, grid))
    # as for the velocity path: measured 0.259x (gaussian) and 1.775x (bump), under gates of 0.28x (about 0.021x of
    # headroom) and 1.9x
    assert peak <= {"gaussian": 0.28, "bump": 1.9}[family] * pair_nbytes(grid, pos, kernel)


def test_wide_grid_gaussian_holds_dense_rows_not_pairs():
    # on a pinned grid of 161 nodes per axis the 2d gaussian holds (N, 2) numbers per particle, a chunk's per-axis
    # arrays and dense (rows, n_k) rows per axis, and a few grid-sized sums: measured 1.81x (velocity path) and 3.16x
    # (error term, two carried columns) of N (n_0 + n_1) float64, under gates of 2.0x and 3.4x; one (N, W^2) pair array
    # is 13.5x
    kernel, pos = gate_case("gaussian", 256)
    grid = QuadratureSpec(domain=[[-4.0, 4.0]] * 2).grid_for(pos, kernel)
    model, phi = EnergyModel("power", 2.0), TestFunction("poly_bump", np.full(2, 0.05), 0.3)
    unit = len(pos) * sum(grid.shape) * np.dtype(float).itemsize
    assert traced_peak(lambda: velocity_on_grid(mollified_density(pos, kernel, grid), model)) <= 2.0 * unit
    assert traced_peak(lambda: error_term_z(ParticleEnsemble(pos), kernel, phi, grid)) <= 3.4 * unit
    assert 3.4 * unit < pair_nbytes(grid, pos, kernel) / 2


def test_gaussian_velocity_path_holds_chunk_sized_memory_whatever_n():
    # the 2d gaussian keeps (N, 2) numbers per particle and forms each chunk's offsets, factors and dense rows in the
    # deposit and again in the gather: on one 69^2 grid the path peaks at 1.57 MB at N = 1024 and 1.62 MB at N = 4096,
    # where keeping every particle's (N, 2, W) offsets, node indices, v and g took 5.1 and 18.2 MB
    kernel, model = MollifierSpec("gaussian", 2, 0.2), EnergyModel("power", 2.0)
    grid = QuadratureSpec(domain=[[-1.7, 1.7]] * 2).grid_for(np.zeros((1, 2)), kernel)
    assert grid.shape == (69, 69)

    def peak(n):
        pos = np.random.default_rng(n).uniform(-0.1, 0.1, size=(n, 2))
        return traced_peak(lambda: velocity_on_grid(mollified_density(pos, kernel, grid), model))

    assert peak(4096) <= 1.1 * peak(1024)


def blocked_run(monkeypatch, block_pairs, pos, kernel, model, grid, carry):
    monkeypatch.setattr(grids, "BLOCK_PAIRS", block_pairs)
    dep = mollified_density(pos, kernel, grid, carry=carry)
    return dep.density, dep.carried, velocity_on_grid(mollified_density(pos, kernel, grid), model)


@settings(max_examples=100)
@given(cases(), st.integers(1, 5))
def test_row_blocks_give_the_bits_of_one_block(case, rows):
    # every row block is deposited onto the sums so far in row order, so the bits cannot depend on the blocks
    kernel, model, pos, grid, _ = case
    carry = np.random.default_rng(len(pos)).normal(size=(len(pos), 2))
    per_row = pairs_per_row(grid, pos, kernel)
    with pytest.MonkeyPatch.context() as mp:
        whole = blocked_run(mp, len(pos) * per_row, pos, kernel, model, grid, carry)
        for block_pairs in (1, rows * per_row):
            for got, want in zip(blocked_run(mp, block_pairs, pos, kernel, model, grid, carry), whole):
                assert np.array_equal(got, want)


@settings(max_examples=60)
@given(cases(dims=(2,), families=("gaussian",)), st.integers(1, 3))
def test_per_axis_products_give_the_bits_of_their_chunks(case, step):
    # PRODUCT_MACS cut so that the deposit takes `step` points per chunk and the gather about half as many: the deposit
    # is the sum of (A_0 c)^T A_1 over those chunks in row order, bit for bit, and the velocity keeps the dense TOL
    kernel, model, pos, grid, _ = case
    carry = np.random.default_rng(len(pos)).normal(size=(len(pos), 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "PRODUCT_MACS", step * 16 * grid.shape[1])
        dep = mollified_density(pos, kernel, grid, carry=carry)
        win = grid.window(pos, kernel.padding_radius())
        a0, a1 = axis_rows(win.at, axis_values(kernel, win.sq()), grid.shape)
        assert np.array_equal(dep.density, axes_sum(a0, a1, grid) / len(pos))
        assert np.array_equal(dep.carried, np.stack([axes_sum(a0, a1, grid, c) for c in carry.T], axis=-1))
        got = velocity_on_grid(mollified_density(pos, kernel, grid), model)
    vel, scale = dense_velocity(pos, kernel, model, grid)
    assert np.all(np.sqrt(np.sum((got - vel) ** 2, axis=1)) <= TOL * scale)


@pytest.mark.parametrize("n", [4, 15, 16, 31, 32, 33, 63, 156, 161])
def test_tiles_cut_an_axis_into_16_to_31_rows(n):
    # a product takes one tile of rows against a chunk of PRODUCT_MACS / (16 n_k) rows: at most 31/16 PRODUCT_MACS
    # multiply-adds, under OpenBLAS's one-thread bound of 2 * 2**18, and never a single row, which numpy would hand
    # to gemv
    cut = grids.tiles(n)
    assert np.array_equal(np.concatenate([np.arange(n)[t] for t in cut]), np.arange(n))
    assert all(16 <= t.stop - t.start <= 31 for t in cut) or (n < 32 and len(cut) == 1)
    assert 31 * grids.PRODUCT_MACS // 16 < 2 << 18


def box_outer(op, a):
    """The broadcast reduce the box fast paths replace: flat (n, W^d) outer op of per-axis (n, d, W) values over the box."""
    n, d, _ = a.shape
    return reduce(op, [a[:, k].reshape((n,) + (1,) * k + (-1,) + (1,) * (d - k - 1)) for k in range(d)]).reshape(n, -1)


def full_size_pairs(grid, pos, reach):
    """The clip-and-mask oracle: flat lin and cut r2, (N, W^d) each, and cut per-axis sq and clipped node indices,
    (N, d, W) each, built whole as
    ``Grid.window`` built them before it went per row block and clamped its boxes.  Each box starts ceil(R/h) nodes
    below its point's node, wherever that is; its nodes off the grid are clipped to an edge index and masked (inf)."""
    n, d = pos.shape
    c = int(np.ceil(reach / grid.spacing))
    idx = np.floor((pos - grid.origin) / grid.spacing).astype(int)[:, :, None] + np.arange(-c, c + 2)
    off = grid.origin[:, None] + grid.spacing * idx - pos[:, :, None]
    shape = np.asarray(grid.shape)[:, None]
    sq = np.where((idx >= 0) & (idx < shape), off * off, np.inf)
    strides = np.array([prod(grid.shape[k + 1:]) for k in range(d)])
    lin = box_outer(np.add, np.clip(idx, 0, shape - 1) * strides[:, None])
    r2 = box_outer(np.add, sq)
    r2[r2 > reach * reach] = np.inf
    sq[sq > reach * reach] = np.inf
    return lin, r2, sq, np.clip(idx, 0, shape - 1)


def pair_map(lin, r2, rows=slice(None)):
    """{(row, flat node): r2} over the pairs within reach (r2 finite), rows numbered from rows.start."""
    row, at = np.nonzero(np.isfinite(r2))
    first = rows.start or 0
    return dict(zip(zip((row + first).tolist(), lin[row, at].tolist()), r2[row, at].tolist()))


@settings(max_examples=100)
@given(cases(), st.integers(1, 5), st.sampled_from(["one row", "k rows", "all rows"]))
def test_each_row_block_forms_the_rows_of_the_full_size_pairs(case, k, size):
    # every box is clamped onto the grid; its pairs within reach must still be the clip-and-mask oracle's, bit for bit
    kernel, _, pos, grid, _ = case
    reach = kernel.padding_radius()
    want_lin, want_r2, *_ = full_size_pairs(grid, pos, reach)
    per_row = pairs_per_row(grid, pos, kernel)
    block_pairs = {"one row": 1, "k rows": k * per_row, "all rows": len(pos) * per_row}[size]
    win = grid.window(pos, reach)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "BLOCK_PAIRS", block_pairs)
        blocks = win.blocks()
    assert np.array_equal(np.concatenate([np.arange(len(pos))[rows] for rows, _ in blocks]), np.arange(len(pos)))
    if size == "all rows":  # one block holds every row: it is the window itself
        assert len(blocks) == 1 and blocks[0][1] is win
    for rows, blk in blocks:
        lin, r2 = blk.lin(), blk.r2()
        assert lin.shape == r2.shape == want_lin[rows].shape
        assert pair_map(lin, r2, rows) == pair_map(want_lin[rows], want_r2[rows], rows)
        assert not any(np.shares_memory(r2, a) for a in (blk.off, blk.at))  # the caller owns r2
        if kernel.d == 1:  # one box axis to sum: lin is a view of the block's per-axis array, no new pair array
            assert np.shares_memory(lin, blk.at)


@pytest.mark.parametrize("d", [1, 2])
def test_window_clamps_every_box_onto_the_grid(d):
    # reach 0.25 on spacing 0.1: boxes of W = 8 nodes, from 3 below a point's node to 4 above it, clamped into 0..20
    grid = grids.Grid(origin=np.zeros(d), spacing=0.1, shape=(21,) * d)
    first = {1.05: 7, 0.25: 0, 1.75: 13, -5.0: 0, 5.0: 13}  # unclamped: 7, -1, 14, -53, 47
    xs = np.array(list(first))
    pos = np.stack(np.meshgrid(*[xs] * d, indexing="ij"), axis=-1).reshape(-1, d)  # on the grid, at both edges, far off
    win = grid.window(pos, 0.25)
    assert np.all((win.at >= 0) & (win.at < 21))
    assert np.array_equal(win.at, win.at[:, :, :1] + np.arange(8))  # W consecutive nodes
    assert np.array_equal(win.at[:, :, 0], np.vectorize(first.get)(pos))
    want_lin, want_r2, *_ = full_size_pairs(grid, pos, 0.25)
    assert pair_map(win.lin(), win.r2()) == pair_map(want_lin, want_r2)


def oracle_deposit(pos, kernel, grid, carry):
    """Density and carried deposit through the clip-and-mask oracle: the pair values by the window's kernel route on its
    masked offsets, summed onto its clipped flat indices by one bincount in row order; for the 2d gaussian, its per-axis
    factors added into dense rows on its clipped nodes (a masked node adds 0.0), summed as the route sums them."""
    lin, r2, sq, idx = full_size_pairs(grid, pos, kernel.padding_radius())
    if kernel.separable and kernel.d == 2:
        a0, a1 = axis_rows(idx, axis_values(kernel, sq), grid.shape, add=True)
        return axes_sum(a0, a1, grid) / len(pos), np.stack([axes_sum(a0, a1, grid, c) for c in carry.T], axis=-1)
    v = box_outer(np.multiply, axis_values(kernel, sq)) if kernel.separable else value_and_grad_factor(kernel, r2)[0]
    size = prod(grid.shape)
    density = np.bincount(lin.ravel(), weights=v.ravel(), minlength=size) / len(pos)
    carried = [np.bincount(lin.ravel(), weights=(v * c[:, None]).ravel(), minlength=size) for c in carry.T]
    return density, np.stack(carried, axis=-1)


@settings(max_examples=100)
@given(cases())
def test_clamped_deposit_gives_the_bits_of_the_clip_and_mask_deposit(case):
    # a clamped box holds the oracle's nonzero pairs on the same nodes in the same row order, and adding a 0.0 pair moves
    # no sum (the 2d gaussian's dense rows are the oracle's); the velocity's box sums group their zero pairs differently,
    # so it is held to the dense oracles' TOL only
    kernel, _, pos, grid, _ = case
    carry = np.random.default_rng(len(pos)).normal(size=(len(pos), 2))
    dep = mollified_density(pos, kernel, grid, carry=carry)
    want_density, want_carried = oracle_deposit(pos, kernel, grid, carry)
    assert np.array_equal(dep.density, want_density) and np.array_equal(dep.carried, want_carried)


@settings(max_examples=100)
@given(cases(dims=(2,)), st.integers(1, 5), st.sampled_from(["one row", "k rows", "all rows"]))
def test_box_fast_paths_give_the_bits_of_the_broadcast_reduce(case, k, size):
    # a block gathers through a strided view and indexes from one box template; both must give the broadcast
    # reduce's bits
    kernel, _, pos, grid, _ = case
    per_row = pairs_per_row(grid, pos, kernel)
    rng = np.random.default_rng(len(pos))
    wf = rng.normal(size=prod(grid.shape))
    routes = []

    def spy(route, fn):
        def wrapped(*args, **kwargs):
            routes.append(route)
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "BLOCK_PAIRS", {"one row": 1, "k rows": k * per_row, "all rows": len(pos) * per_row}[size])
        blocks = grid.window(pos, kernel.padding_radius()).blocks()
        mp.setattr(grids, "sliding_window_view", spy("view", grids.sliding_window_view))
        mp.setattr(grids.Window, "lin", spy("lin", grids.Window.lin))
        for _, blk in blocks:
            lin = box_outer(np.add, blk.at * grids.row_major_strides(grid.shape)[:, None])
            routes.clear()
            assert np.array_equal(blk.gather(wf), wf[lin])
            assert routes == ["view"]
            assert np.array_equal(blk.lin(), lin)


def value_and_grad_factor_with_v_over_r2(spec, r2):
    """The kernel evaluation as it was when V_eps, not g_eps, took r2's buffer: the bit-for-bit oracle."""
    r2 = np.asarray(r2, dtype=float)
    inv_eps2 = spec.eps ** -2.0
    scale = spec.eps ** (-spec.d)
    if spec.family == "gaussian":
        v = np.multiply(r2, -0.5 * inv_eps2, out=r2)
        np.exp(v, out=v)
        v *= (1.0 / np.sqrt(2.0 * np.pi)) ** spec.d * scale
        return v, v * -inv_eps2
    t = np.multiply(r2, -inv_eps2, out=r2)
    t += 1.0
    np.maximum(t, 0.0, out=t)
    g = t * t
    c = {1: 35.0 / 32.0, 2: 4.0 / np.pi}[spec.d] * scale
    t *= g
    t *= c
    g *= -6.0 * c * inv_eps2
    return t, g


@settings(max_examples=100)
@given(
    st.sampled_from(["gaussian", "bump"]), st.sampled_from([1, 2]), st.floats(0.05, 2.0),
    st.integers(0, 2**32 - 1), st.sampled_from(["array", "0-d", "scalar"]),
)
def test_kernel_evaluation_keeps_the_bits_of_v_over_r2(family, d, eps, seed, form):
    spec = MollifierSpec(family, d, eps)
    r2 = np.random.default_rng(seed).uniform(0.0, 3.0 * spec.padding_radius() ** 2, size=40)
    r2[::5] = np.inf
    r2[1] = 0.0
    make = {"array": lambda: r2.copy(), "0-d": lambda: np.array(r2[2]), "scalar": lambda: float(r2[2])}[form]
    for got, want in zip(value_and_grad_factor(spec, make()), value_and_grad_factor_with_v_over_r2(spec, make())):
        assert np.array_equal(got, want)
    if form == "scalar":
        for r in (0.0, np.inf):
            assert value_and_grad_factor(spec, r) == value_and_grad_factor_with_v_over_r2(spec, r)


def r2_route(pos, kernel, model, grid, carry):
    """Density, carried deposit and velocity with the kernel evaluated on each block's r2, and g_eps gathered as it was."""
    blocks, density, carried = [], None, [None] * carry.shape[1]
    for rows, blk in grid.window(pos, kernel.padding_radius()).blocks():
        v, g = value_and_grad_factor(kernel, blk.r2())
        blocks.append((blk, g))
        carried = [blk.deposit(v * c[rows, None], acc) for c, acc in zip(carry.T, carried)]
        density = blk.deposit(v, density)
    density = density / len(pos)
    wf = np.zeros_like(density)
    held = density != 0.0
    wf[held] = grid.trapezoid_weights()[held] * model.f_prime(density[held])
    vel = []
    for blk, g in blocks:
        gw = wf[blk.lin()]
        gw *= g
        vel.append(grids.contract(blk.off, gw))
    return density, np.stack(carried, axis=-1), np.concatenate(vel)


@settings(max_examples=100)
@given(st.one_of(cases(dims=(1,)), cases(dims=(2,), families=("bump",))))
def test_every_row_block_kernel_gives_the_bits_of_the_r2_route(case):
    # every kernel but the 2d gaussian is evaluated on its blocks' r2 and gathered back through them: the 1d gaussian
    # and bump, and the 2d bump, whose gather reads its boxes through a strided view instead of flat indices
    kernel, model, pos, grid, _ = case
    carry = np.random.default_rng(len(pos)).normal(size=(len(pos), 2))
    dep = mollified_density(pos, kernel, grid, carry=carry)
    got = dep.density, dep.carried, velocity_on_grid(mollified_density(pos, kernel, grid), model)
    for a, b in zip(got, r2_route(pos, kernel, model, grid, carry)):
        assert np.array_equal(a, b)


@settings(max_examples=100)
@given(cases(dims=(2,), families=("gaussian",)))
def test_per_axis_gaussian_keeps_exactly_the_pairs_within_reach(case):
    # the truncation is the per-axis box |diff_k| <= R.  A cut to the ball instead moves a pair by at most exp(-32)
    # of the peak, which the entropy's velocity oracle sees on a few draws only (8 of 1500 left TOL), so the pairs
    # the product leaves nonzero are held to the dense oracle's on-grid box as a set
    kernel, _, pos, grid, _ = case
    reach = kernel.padding_radius()
    win = grid.window(pos, reach)
    held = box_outer(np.multiply, axis_values(kernel, win.sq())) != 0.0
    rows = np.broadcast_to(np.arange(len(pos))[:, None], held.shape)
    kept = np.zeros((len(pos), prod(grid.shape)), dtype=bool)
    kept[rows[held], win.lin()[held]] = True
    _, near = dense_pairs(pos, kernel, grid, reach)
    assert np.array_equal(kept, near) and np.count_nonzero(held) == np.count_nonzero(near)


def test_gaussian_truncation_moves_the_deposit_by_its_tail_only():
    # beyond 8 eps the unit gaussian is below exp(-32) of its peak
    kernel = MollifierSpec("gaussian", 1, 0.1)
    pos = np.linspace(-1.0, 1.0, 41)[:, None]
    grid = QuadratureSpec().grid_for(pos, kernel)
    full = dense_density(pos, kernel, grid, reach=np.inf)
    assert np.max(np.abs(mollified_density(pos, kernel, grid).density - full)) <= 1e-13 * np.max(full)


@pytest.mark.parametrize("eps", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_truncation_leaves_a_tail_mass_below_1e14(d, eps):
    # kernels promises the 8 eps truncation leaves a tail below 1e-14: the per-axis box leaves 2 d Q(8), 2.5e-15 in
    # 2d; a ball of radius 8 eps would leave exp(-32) = 1.3e-14
    ens = ParticleEnsemble(np.full((1, d), 0.013))
    assert abs(fields.mollify_auto(ens, MollifierSpec("gaussian", d, eps)).mass() - 1.0) <= 1e-14


def test_entropy_reads_f_prime_only_where_the_deposit_is_nonzero():
    # the JKO step grid's outer ring lies beyond every particle's reach
    kernel, model = MollifierSpec("gaussian", 1, 0.1), EnergyModel("entropy")
    x = np.linspace(-0.5, 0.5, 17)
    grid = _step_grid(x, kernel, QuadratureSpec(), slack=3 * kernel.eps)
    assert np.any(mollified_density(x[:, None], kernel, grid).density == 0.0)
    assert np.all(np.isfinite(velocity_on_grid(mollified_density(x[:, None], kernel, grid), model)))


@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_pair_arrays_scale_with_the_window_not_the_grid(monkeypatch, family, d):
    kernel = MollifierSpec(family, d, 0.25)
    model = EnergyModel("power", 2.0)
    side = np.linspace(-0.5, 0.5, 3)
    pos = np.stack(np.meshgrid(*[side] * d, indexing="ij"), axis=-1).reshape(-1, d)
    shapes, displacement_calls = [], []

    def recording(spec, arr):
        shapes.append(np.shape(arr))
        return value_and_grad_factor(spec, arr)

    def displacements(fn):
        def wrapped(spec, diff):
            displacement_calls.append(np.shape(diff))
            return fn(spec, diff)
        return wrapped

    monkeypatch.setattr(energy, "value_and_grad_factor", recording)
    for mod in (particles, energy):
        monkeypatch.setattr(mod, "value_on_pairs", displacements(value_on_pairs), raising=False)
        monkeypatch.setattr(mod, "grad_on_pairs", displacements(grad_on_pairs), raising=False)
    seen = []
    for half in (3.0, 6.0):
        quad = QuadratureSpec(domain=[[-half, half]] * d)
        grid = quad.grid_for(pos, kernel)
        shapes.clear()
        velocity_on_grid(mollified_density(pos, kernel, grid), model)
        mollified_density(pos, kernel, grid)
        seen.append(list(shapes))
    w = 2 * int(np.ceil(kernel.padding_radius() / QuadratureSpec().spacing(kernel))) + 2
    if kernel.separable and d == 2:
        # evaluated per axis on (rows, 2, W) squared offsets only, per chunk of rows in both deposits and in the gather
        assert seen[0] and all(s[1:] == (2, w) for s in seen[0]) and sum(s[0] for s in seen[0]) == 3 * len(pos)
    else:  # every other kernel on (N, W^d) pairs, in the two deposits only
        assert seen[0] == [(len(pos), w ** d)] * 2
    assert seen[1] == seen[0]
    assert displacement_calls == []


@settings(max_examples=60)
@given(cases(grid_kinds=("slack", "pinned")), st.sampled_from(["gaussian_bump", "poly_bump"]))
def test_window_paths_raise_no_floating_point_error(case, family):
    # r2 = inf marks the pairs that do not count; no inf * 0, overflow or underflow may follow from it
    kernel, model, pos, grid, quad = case
    phi = TestFunction(family, np.full(kernel.d, 0.2), 0.5)
    z_grid = error_term_grid(pos, kernel, phi, quad) if quad.domain is None else grid
    with np.errstate(all="raise"):
        velocity_on_grid(mollified_density(pos, kernel, grid), model)
        mollified_density(pos, kernel, grid)
        error_term_z(ParticleEnsemble(pos), kernel, phi, z_grid)

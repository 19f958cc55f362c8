import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from blobflow.energy import EnergyModel, mollified_density
from blobflow.errors import CoverageError
from blobflow.fields import (
    TestFunction,
    _neighbours_zero,
    _time_residuals,
    error_term_grid,
    error_term_z,
    local_weak_form_residual,
    mollify,
    mollify_auto,
    sobolev_seminorm_m2,
    weak_form_residual,
)
from blobflow.grids import Grid, GridField, QuadratureSpec
from blobflow.kernels import MollifierSpec, kernel_moments, value_on_pairs
from blobflow.particles import ParticleEnsemble, simulate, velocity_on_grid
from blobflow.reference import BarenblattProfile

K = MollifierSpec("gaussian", 1, 0.3)
M2 = EnergyModel("power", 2.0)


def _grid_about(points, kernel, phi=None, extra=0.0):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if phi is not None:
        pad = phi.support_radius() + 2 * kernel.padding_radius() + extra
        pts = np.vstack([pts, phi.center[None, :]])
    else:
        pad = 2 * kernel.padding_radius() + extra
    return QuadratureSpec().grid_for(np.vstack([pts - pad, pts + pad]), kernel)


def test_mollify_single_particle_samples_kernel():
    # the grid is grown to one window box, so its last node lies beyond the particle's reach
    ens = ParticleEnsemble(np.array([0.0]))
    field = mollify_auto(ens, K)
    x = field.grid.axes()[0]
    near = np.abs(x) <= K.padding_radius()
    assert not np.all(near)
    np.testing.assert_allclose(field.values[near], value_on_pairs(K, x[near, None]), atol=1e-15)
    assert np.all(field.values[~near] == 0.0)
    assert field.mass() == pytest.approx(1.0, abs=1e-6)


def test_mollify_mass_and_sup_bound():
    rng = np.random.default_rng(0)
    ens = ParticleEnsemble(rng.normal(size=(30, 1)))
    field = mollify_auto(ens, K)
    assert field.mass() == pytest.approx(1.0, abs=1e-6)
    assert field.values.max() <= kernel_moments(K).sup_v + 1e-12


def test_mollify_linear_in_the_measure():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 1))
    b = rng.normal(size=(24, 1))
    grid = _grid_about(np.vstack([a, b]), K)
    fa = mollify(ParticleEnsemble(a), K, grid).values
    fb = mollify(ParticleEnsemble(b), K, grid).values
    merged = mollify(ParticleEnsemble(np.vstack([a, b])), K, grid).values
    np.testing.assert_allclose(merged, (8 * fa + 24 * fb) / 32, rtol=1e-12, atol=1e-300)


def test_mollify_coverage_error():
    grid = Grid(np.array([-0.5]), 0.05, (21,))
    with pytest.raises(CoverageError):
        mollify(ParticleEnsemble(np.array([0.0])), K, grid)


def test_error_term_vanishes_when_phi_is_flat_on_the_particles():
    # particles out of reach of the test function's support: with the
    # compact kernel both gradient factors vanish identically
    phi = TestFunction("poly_bump", np.zeros(1), 0.5)
    kernel = MollifierSpec("bump", 1, 0.3)
    ens = ParticleEnsemble(np.array([3.0, 4.0, -3.5]))
    grid = _grid_about(ens.positions, kernel, phi)
    rep = error_term_z(ens, kernel, phi, grid)
    assert rep.l1_norm == 0.0


def test_error_term_bound_and_pointwise():
    rng = np.random.default_rng(5)
    ens = ParticleEnsemble(rng.normal(scale=0.8, size=(12, 1)))
    for fam in ("gaussian_bump", "poly_bump"):
        phi = TestFunction(fam, np.array([0.2]), 1.3)
        for eps in (0.4, 0.15):
            kernel = MollifierSpec("gaussian", 1, eps)
            grid = _grid_about(ens.positions, kernel, phi)
            rep = error_term_z(ens, kernel, phi, grid)
            assert rep.l1_norm <= phi.sup_hess() * kernel_moments(kernel).m1 * (1 + 1e-6)
            assert rep.pointwise_ok


@pytest.mark.parametrize("family, d", [("gaussian", 1), ("bump", 1), ("gaussian", 2), ("bump", 2)])
def test_error_term_grid_is_the_lattice_cropped_to_the_kernel_reach(family, d):
    rng = np.random.default_rng(7)
    ens = ParticleEnsemble(rng.normal(scale=0.5, size=(9, d)))
    kernel = MollifierSpec(family, d, 0.3)
    phi = TestFunction("gaussian_bump", np.full(d, 0.4), 1.0)
    grid = error_term_grid(ens.positions, kernel, phi, QuadratureSpec())
    reach = kernel.padding_radius()
    extent = np.ptp(ens.positions, axis=0) + 2 * reach
    assert np.all(grid.upper() - grid.origin <= extent + 2 * grid.spacing)
    full = error_term_z(ens, kernel, phi, _grid_about(ens.positions, kernel, phi))
    assert error_term_z(ens, kernel, phi, grid).l1_norm == pytest.approx(full.l1_norm, rel=1e-12)


def test_error_term_coverage_error():
    phi = TestFunction("gaussian_bump", np.zeros(1), 1.0)
    grid = Grid(np.array([-1.0]), 0.05, (41,))
    with pytest.raises(CoverageError):
        error_term_z(ParticleEnsemble(np.array([0.0])), K, phi, grid)


def test_testfunction_sup_norms_against_sampling():
    for fam in ("gaussian_bump", "poly_bump"):
        phi = TestFunction(fam, np.zeros(1), 1.7)
        xs = np.linspace(-2.0, 2.0, 40001)
        g = phi.grad(xs)
        assert np.max(np.abs(g)) <= phi.sup_grad() * (1 + 1e-9)
        assert np.max(np.abs(g)) >= phi.sup_grad() * (1 - 1e-4)
        h = 1e-4
        hess = (phi.grad(xs + h) - phi.grad(xs - h)) / (2 * h)
        assert np.max(np.abs(hess)) <= phi.sup_hess() * (1 + 1e-6)
        assert np.max(np.abs(hess)) >= phi.sup_hess() * (1 - 1e-3)


def test_seminorm_constant_patch_is_zero():
    grid = Grid(np.array([0.0]), 0.1, (41,))
    assert sobolev_seminorm_m2(GridField(grid, np.full(41, 0.7)), 2.0) <= 1e-20


def test_seminorm_gaussian_closed_form():
    # int |d/dx gaussian|^2 = 1/(4 sqrt(pi) sigma^3)
    for sigma in (1.0, 0.7):
        h = 0.002
        half = 10.0 * sigma
        n = int(2 * half / h) + 1
        grid = Grid(np.array([-half]), h, (n,))
        x = grid.axes()[0]
        vals = np.exp(-0.5 * x * x / sigma**2) / np.sqrt(2 * np.pi * sigma**2)
        got = sobolev_seminorm_m2(GridField(grid, vals), 2.0)
        assert got == pytest.approx(1.0 / (4 * np.sqrt(np.pi) * sigma**3), rel=1e-5)


def test_seminorm_refinement_stable():
    prof = BarenblattProfile(m=2.0, d=1)
    coarse = sobolev_seminorm_m2(prof.sample_field(0.0, 0.02), 2.0)
    fine = sobolev_seminorm_m2(prof.sample_field(0.0, 0.01), 2.0)
    assert abs(coarse - fine) / fine <= 0.01


def test_seminorm_clamps_degenerate_roots():
    # m < 2: the root field^{m/2} is not differentiable at 0; clamped cells
    # keep the integrand finite and the value stable under refinement
    prof = BarenblattProfile(m=1.5, d=1)
    val = sobolev_seminorm_m2(prof.sample_field(0.0, 0.01), 1.5)
    assert np.isfinite(val) and val > 0


def neighbours_zero_by_roll(zero, axis):
    """The two-roll form with edge patches that ``_neighbours_zero`` replaced: the oracle."""
    before = np.roll(zero, 1, axis=axis)
    after = np.roll(zero, -1, axis=axis)
    idx_lo = [slice(None)] * zero.ndim
    idx_hi = [slice(None)] * zero.ndim
    idx_lo[axis] = 0
    idx_hi[axis] = -1
    before[tuple(idx_lo)] = True
    after[tuple(idx_hi)] = True
    return before & after


@given(arrays(bool, array_shapes(min_dims=1, max_dims=2, max_side=7)))
def test_neighbours_zero_matches_the_roll_form(zero):
    for axis in range(zero.ndim):
        got = _neighbours_zero(zero, axis)
        assert got.dtype == bool and np.array_equal(got, neighbours_zero_by_roll(zero, axis))


def test_weak_form_residual_stationary_single_particle():
    traj = simulate(ParticleEnsemble(np.array([0.2])), K, M2, T=0.01, dt=1e-3, record_every=5)
    phi = TestFunction("gaussian_bump", np.zeros(1), 1.0)
    res = weak_form_residual(traj, K, M2, phi)
    assert np.max(res) <= 1e-12


def test_weak_form_residual_first_order_in_recording():
    initial = BarenblattProfile(m=2.0, d=1).quantile_ensemble(32)
    phi = TestFunction("gaussian_bump", np.zeros(1), 1.5)
    kernel = MollifierSpec("gaussian", 1, 0.25)
    res = {}
    for record in (8, 4, 2, 1):
        traj = simulate(initial, kernel, M2, T=0.048, dt=2e-3, record_every=record)
        res[record] = weak_form_residual(traj, kernel, M2, phi)[-1]
    # time-quadrature refinement: residual shrinks roughly quadratically
    # with the recording interval (trapezoid in time), at least first order
    assert res[8] > res[4] > res[2]
    assert res[8] / res[2] >= 2.0


def test_weak_form_residual_phi_away_from_particles():
    traj = simulate(ParticleEnsemble(np.array([-0.1, 0.1])), K, M2, T=0.01, dt=1e-3, record_every=5)
    phi = TestFunction("poly_bump", np.array([50.0]), 1.0)
    res = weak_form_residual(traj, K, M2, phi)
    assert np.max(res) == 0.0


def test_local_weak_form_on_exact_profile():
    # gridded analytic solution satisfies the local weak form up to
    # discretisation error
    prof = BarenblattProfile(m=2.0, d=1)
    h = 0.005
    half = prof.support_radius(0.3) + 0.5
    n = int(2 * half / h) + 1
    grid = Grid(np.array([-half]), h, (n,))
    x = grid.axes()[0]
    times = np.linspace(0.0, 0.25, 26)
    series = [(t, GridField(grid, prof.density(t, x))) for t in times]
    phi = TestFunction("gaussian_bump", np.zeros(1), 1.0)
    res = local_weak_form_residual(series, M2, phi)
    assert np.max(res) <= 5e-4


def test_local_weak_form_zero_density_region():
    grid = Grid(np.array([-1.0]), 0.05, (41,))
    zero = GridField(grid, np.zeros(41))
    phi = TestFunction("gaussian_bump", np.zeros(1), 1.0)
    res = local_weak_form_residual([(0.0, zero), (0.1, zero)], M2, phi)
    assert np.max(res) == 0.0


def test_local_weak_form_residual_shrinks_with_eps():
    # mollified particle runs approach the local equation as eps drops
    prof = BarenblattProfile(m=2.0, d=1)
    initial = prof.quantile_ensemble(128)
    phi = TestFunction("gaussian_bump", np.zeros(1), 1.2)
    half = prof.support_radius(0.1) + 4.0
    grid = Grid(np.array([-half]), 0.02, (int(2 * half / 0.02) + 1,))
    finals = []
    for eps in (0.4, 0.2, 0.1):
        kernel = MollifierSpec("gaussian", 1, eps)
        steps = int(np.ceil(0.1 / (0.1 * eps * eps)))
        rec = max(1, steps // 10)
        while steps % rec:
            rec -= 1
        traj = simulate(initial, kernel, M2, T=0.1, dt=0.1 / steps, record_every=rec)
        series = [(t, mollify(e, kernel, grid)) for t, e in traj.snapshots]
        finals.append(local_weak_form_residual(series, M2, phi)[-1])
    assert finals[0] > finals[1] > finals[2]


def test_mollify_and_error_term_2d():
    kernel = MollifierSpec("gaussian", 2, 0.4)
    rng = np.random.default_rng(8)
    ens = ParticleEnsemble(rng.normal(scale=0.5, size=(9, 2)))
    field = mollify_auto(ens, kernel)
    assert field.mass() == pytest.approx(1.0, abs=1e-6)
    assert field.values.max() <= kernel_moments(kernel).sup_v + 1e-12
    phi = TestFunction("gaussian_bump", np.zeros(2), 1.5)
    grid = _grid_about(ens.positions, kernel, phi)
    rep = error_term_z(ens, kernel, phi, grid)
    assert rep.l1_norm <= rep.l1_bound * (1 + 1e-6)
    assert rep.pointwise_ok
    assert rep.field.shape == grid.shape + (2,)


def _prefix_trapezoid_residuals(lhs, rate, times):
    """Oracle: one trapezoid over each prefix of the record, O(K^2)."""
    rhs = [np.trapezoid(rate[: k + 1], times[: k + 1]) if k else 0.0 for k in range(times.size)]
    return np.abs(lhs - np.array(rhs))


@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_time_residuals_match_prefix_trapezoids(k, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(1e-3, 1e-1, size=k))
    lhs, rate = rng.normal(size=k), rng.normal(size=k)
    got = _time_residuals(lhs, rate, times)
    scale = np.abs(lhs).max() + np.sum(np.abs(rate[1:] + rate[:-1]) * np.diff(times))
    np.testing.assert_allclose(got, _prefix_trapezoid_residuals(lhs, rate, times), rtol=0, atol=1e-12 * scale)
    # bit for bit the scipy pass it replaced
    from scipy.integrate import cumulative_trapezoid

    np.testing.assert_array_equal(got, np.abs(lhs - cumulative_trapezoid(rate, times, initial=0.0)))


def test_weak_form_residual_matches_prefix_trapezoids():
    kernel = MollifierSpec("gaussian", 1, 0.25)
    traj = simulate(BarenblattProfile(m=2.0, d=1).quantile_ensemble(32), kernel, M2, T=0.06, dt=2e-3)
    phi = TestFunction("gaussian_bump", np.zeros(1), 1.5)
    pairing, lhs = [], []
    for _, ens in traj.snapshots:
        grid = QuadratureSpec().grid_for(ens.positions, kernel)
        vel = velocity_on_grid(mollified_density(ens.positions, kernel, grid), M2)
        pairing.append(float(np.mean(np.sum(phi.grad(ens.positions) * vel, axis=1))))
        lhs.append(float(np.mean(phi.value(ens.positions))) - float(np.mean(phi.value(traj.snapshots[0][1].positions))))
    lhs = np.array(lhs)
    want = _prefix_trapezoid_residuals(lhs, np.array(pairing), traj.times())
    # the residual is a small difference of O(|lhs|) terms; compare on their scale
    np.testing.assert_allclose(weak_form_residual(traj, kernel, M2, phi), want, rtol=0, atol=1e-12 * np.abs(lhs).max())

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_banded

from blobflow.energy import EnergyModel, regularized_energy
from blobflow.grids import Grid, GridField
from blobflow.jko import boltzmann_entropy
from blobflow.kernels import MollifierSpec
from blobflow import reference
from blobflow.particles import ParticleEnsemble
from blobflow.reference import (
    BarenblattProfile,
    fd_pme_oracle,
    heat_solution,
    lambda_convexity,
    lower_bound_check,
    negative_part_constants,
    stability_bound,
)


def test_profile_constants_m2():
    prof = BarenblattProfile(m=2.0, d=1)
    assert prof.alpha == pytest.approx(1 / 3)
    assert prof.k == pytest.approx(1 / 12)
    assert prof.front_constant == pytest.approx(3 ** (1 / 3) / 4, abs=1e-14)
    # pinned regression value: support radius at unit absolute time
    assert prof.support_radius(0.0) == pytest.approx(3 ** (2 / 3), abs=1e-12)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_front_constant_matches_scipy_beta(m, d):
    from scipy.special import beta, gamma

    prof = BarenblattProfile(m=m, d=d)
    shape = np.pi ** (d / 2.0) / gamma(d / 2.0) * beta(d / 2.0, m / (m - 1.0))
    want = (prof.k ** (d / 2.0) / shape) ** (1.0 / (1.0 / (m - 1.0) + d / 2.0))
    assert prof.front_constant == pytest.approx(want, rel=1e-15, abs=0)


def test_profile_outside_support_and_mass():
    prof = BarenblattProfile(m=2.0, d=1)
    r = prof.support_radius(0.0)
    assert prof.density(0.0, r * 1.0001) == 0.0
    for t in (0.0, 0.5, 2.0):
        mass, _ = integrate.quad(lambda x: prof.density(t, x), -prof.support_radius(t), prof.support_radius(t))
        assert abs(mass - 1.0) <= 1e-8


def test_profile_mass_general_exponents():
    for m in (1.5, 3.0):
        prof = BarenblattProfile(m=m, d=1, mass=1.0, t0=0.5)
        r = prof.support_radius(0.0)
        mass, _ = integrate.quad(lambda x: prof.density(0.0, x), -r, r, limit=200)
        assert abs(mass - 1.0) <= 1e-8
    prof2 = BarenblattProfile(m=2.0, d=2)
    r = prof2.support_radius(0.0)
    mass, _ = integrate.quad(lambda rr: 2 * np.pi * rr * prof2.density(0.0, np.array([rr, 0.0])), 0, r)
    assert abs(mass - 1.0) <= 1e-8


def test_profile_solves_local_equation_on_grid():
    # finite differences of the exact profile satisfy d_t rho = (rho^m)_xx
    prof = BarenblattProfile(m=2.0, d=1)
    h, dt = 0.002, 1e-5
    x = np.arange(-3.0, 3.0 + h / 2, h)
    inside = np.abs(x) < 0.8 * prof.support_radius(0.0)  # stay off the kink
    lhs = (prof.density(dt, x) - prof.density(-dt, x)) / (2 * dt)
    pm = prof.density(0.0, x) ** 2
    rhs = np.zeros_like(x)
    rhs[1:-1] = (pm[2:] - 2 * pm[1:-1] + pm[:-2]) / h**2
    assert np.max(np.abs(lhs - rhs)[inside]) <= 2e-3


QUANTILE_TIMES = (0.0, 0.3, 2.0)


@pytest.mark.parametrize("t", QUANTILE_TIMES)
def test_quantiles_match_the_m2_closed_form(t):
    # at m = 2 the half-mass in phi is (3 sin(phi) - sin(phi)^3) / 2, solved by x = 2 R sin(arcsin(2q - 1) / 3)
    prof = BarenblattProfile(m=2.0, d=1, t0=0.7)
    r = prof.support_radius(t)
    for n in (7, 100, 400, 1000, 4096):
        q = (np.arange(n) + 0.5) / n
        want = 2.0 * r * np.sin(np.arcsin(2.0 * q - 1.0) / 3.0)
        assert np.max(np.abs(prof.cdf_inverse(q, t) - want)) <= 1e-14 * r
    assert np.array_equal(prof.cdf_inverse(np.array([0.0, 0.5, 1.0]), t), [-r, 0.0, r])


@pytest.mark.parametrize("t", QUANTILE_TIMES)
@pytest.mark.parametrize("m", [1.2, 1.5, 3.0, 4.0])
def test_quantiles_invert_an_independent_cdf(m, t):
    prof = BarenblattProfile(m=m, d=1, t0=0.7)
    r = prof.support_radius(t)
    q = (np.arange(400) + 0.5) / 400
    x = prof.cdf_inverse(q, t)
    assert np.all(np.diff(x) > 0)
    upper = np.random.default_rng(0).uniform(0.5, 1.0, 200)  # 1 - q is exact for these
    assert np.array_equal(prof.cdf_inverse(1.0 - upper, t), -prof.cdf_inverse(upper, t))
    # the profile is (r - y)^k (r + y)^k up to a constant; QAWS takes the (y + r)^k end singularity exactly
    k = 1.0 / (m - 1.0)
    opts = dict(weight="alg", epsabs=1e-15, epsrel=1e-13, limit=200)
    total = integrate.quad(lambda y: 1.0, -r, r, wvar=(k, k), **opts)[0]
    for qi, xi in zip(q[::9], x[::9]):
        below = integrate.quad(lambda y: (r - y) ** k, -r, xi, wvar=(k, 0.0), **opts)[0]
        assert abs(below / total - qi) <= 1e-12


def test_quantiles_compute_the_jacobi_rule_once_per_exponent(monkeypatch):
    # the rule is one 48x48 eigendecomposition, 11-16 ms on two BLAS threads; a second call at the same m reuses it,
    # and the cached nodes and weights are read-only, so no caller can change a later call's quantiles
    calls = []

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    eigh = np.linalg.eigh
    reference._jacobi_rule.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", counting)
    prof, q = BarenblattProfile(m=2.5, d=1), (np.arange(64) + 0.5) / 64
    first = prof.cdf_inverse(q)
    assert np.array_equal(prof.cdf_inverse(q, 0.0), first)
    assert calls == [(48, 48)]
    assert not any(a.flags.writeable for a in reference._jacobi_rule(48, 2.0 / 1.5 + 1.0))


def test_heat_solution():
    x = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(
        heat_solution(0.0, x, 1.3), np.exp(-0.5 * x * x / 1.3) / np.sqrt(2 * np.pi * 1.3), atol=1e-15
    )
    # variance additivity and the semigroup property in closed form
    var = lambda t: integrate.quad(lambda y: y * y * heat_solution(t, y, 0.5), -30, 30, limit=300)[0]
    assert abs(var(0.7) - (0.5 + 1.4)) <= 1e-10
    np.testing.assert_allclose(
        heat_solution(0.3, x, 0.5 + 2 * 0.2), heat_solution(0.5, x, 0.5), atol=1e-15
    )


def test_gaussian_entropy_formula_monotone():
    # the grid entropy of the evolved heat profile (variance 2) against -(1/2) log(2 pi e var)
    half, h = 14.0, 0.004
    grid = Grid(np.array([-half]), h, (int(2 * half / h) + 1,))
    fld = GridField(grid, heat_solution(0.5, grid.axes()[0], 1.0))
    assert boltzmann_entropy(fld) == pytest.approx(-0.5 * np.log(2 * np.pi * np.e * 2.0), abs=1e-8)


def _barenblatt_initial(h, half=4.0):
    prof = BarenblattProfile(m=2.0, d=1)
    grid = Grid(np.array([-half]), h, (int(round(2 * half / h)) + 1,))
    return prof, GridField(grid, prof.density(0.0, grid.axes()[0]))


def test_fd_oracle_zero_initial_stays_zero():
    grid = Grid(np.array([-1.0]), 0.01, (201,))
    series = fd_pme_oracle(GridField(grid, np.zeros(201)), m=2.0, T=0.01, dt=1e-3)
    assert np.all(series[-1][1].values == 0.0)


def test_fd_oracle_preserves_symmetry_and_mass():
    prof, initial = _barenblatt_initial(1 / 128)
    series = fd_pme_oracle(initial, m=2.0, T=0.05, dt=1e-4)
    final = series[-1][1]
    np.testing.assert_allclose(final.values, final.values[::-1], atol=1e-10)
    assert final.mass() == pytest.approx(initial.mass(), abs=1e-8)


def test_fd_oracle_solves_its_newton_systems_as_solve_banded_does(monkeypatch):
    import scipy.linalg.lapack as lapack

    systems, gtsv = [], lapack.dgtsv

    def recording(dl, d, du, b):
        out = gtsv(dl, d, du, b)
        systems.append((dl.copy(), d.copy(), du.copy(), b.copy(), out[3]))
        return out

    monkeypatch.setattr(lapack, "dgtsv", recording)
    _, initial = _barenblatt_initial(1 / 128)
    fd_pme_oracle(initial, m=2.0, T=40 * 4 / 128**2, dt=4 / 128**2)
    assert len(systems) > 40
    for dl, d, du, b, x in systems:
        ab = np.zeros((3, d.size))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        assert np.array_equal(solve_banded((1, 1), ab, b), x)


def test_fd_oracle_tracks_profile_coarse():
    prof, initial = _barenblatt_initial(1 / 128)
    series = fd_pme_oracle(initial, m=2.0, T=0.25, dt=4 / 128**2)
    final = series[-1][1]
    x = final.grid.axes()[0]
    err = final.integrate(np.abs(final.values - prof.density(0.25, x)))
    assert err <= 1e-3


def _cold_start_fd(u, m, lam, n_steps):
    """The oracle's implicit-Euler / Newton march, each solve started from the last step's field."""
    ab = np.zeros((3, u.size))
    for _ in range(n_steps):
        un, v = u, u.copy()
        for _ in range(50):
            vc = np.maximum(v, 0.0)
            vm, dvm = vc ** m, m * vc ** (m - 1.0)
            res = v - un
            res[1:-1] -= lam * (vm[2:] - 2.0 * vm[1:-1] + vm[:-2])
            res[0], res[-1] = v[0], v[-1]
            if np.max(np.abs(res)) < 1e-12:
                break
            ab[1, :] = 1.0 + 2.0 * lam * dvm
            ab[0, 1:] = -lam * dvm[1:]
            ab[2, :-1] = -lam * dvm[:-1]
            ab[1, 0] = ab[1, -1] = 1.0
            ab[0, 1] = ab[2, -2] = 0.0
            v = v - solve_banded((1, 1), ab, res)
        else:
            raise AssertionError("cold-start Newton did not converge")
        u = v
    return u


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_fd_oracle_warm_start_matches_cold_start(m):
    # extrapolated starts change only where Newton stops inside its 1e-12 residual
    prof = BarenblattProfile(m=m, d=1, t0=0.5)
    h, T, n_steps = 1 / 128, 0.05, 200
    grid = Grid(np.array([-3.0]), h, (int(round(6.0 / h)) + 1,))
    initial = GridField(grid, prof.density(0.0, grid.axes()[0]))
    warm = fd_pme_oracle(initial, m=m, T=T, dt=T / n_steps)[-1][1].values
    cold = _cold_start_fd(initial.values.copy(), m, (T / n_steps) / h ** 2, n_steps)
    assert np.max(np.abs(warm - cold)) <= 1e-10


@pytest.mark.parametrize("m,tol", [(1.5, 5e-3), (3.0, 5e-3)])
def test_fd_oracle_general_exponents(m, tol):
    # the degenerate-power Newton solve also tracks the profile for
    # fractional and cubic exponents (coarse grid, short horizon)
    prof = BarenblattProfile(m=m, d=1, t0=0.5)
    h = 1 / 128
    half = prof.support_radius(0.1) + 1.0
    n = int(round(2 * half / h)) + 1
    grid = Grid(np.array([-half]), h, (n,))
    x = grid.axes()[0]
    steps = int(round(0.1 / (4 * h * h)))
    initial = GridField(grid, prof.density(0.0, x))
    series = fd_pme_oracle(initial, m=m, T=0.1, dt=0.1 / steps)
    final = series[-1][1]
    err = final.integrate(np.abs(final.values - prof.density(0.1, x)))
    assert err <= tol
    # the sharper edges of m != 2 profiles cost O(h^{3/2}) sampled mass,
    # but the solve itself conserves what it was given
    assert final.mass() == pytest.approx(initial.mass(), abs=1e-8)


def test_fd_oracle_returns_initial_and_final():
    prof, initial = _barenblatt_initial(1 / 32)
    series = fd_pme_oracle(initial, m=2.0, T=0.01, dt=1e-3)
    assert [t for t, _ in series] == pytest.approx([0.0, 0.01], abs=1e-15)
    assert series[0][1] is initial
    assert series[1][1].grid == initial.grid and not np.array_equal(series[1][1].values, initial.values)


def test_fd_oracle_validates_steps():
    grid = Grid(np.array([-1.0]), 0.01, (201,))
    with pytest.raises(ValueError):
        fd_pme_oracle(GridField(grid, np.zeros(201)), m=2.0, T=0.01, dt=3e-3)


def test_lambda_convexity_formula_and_scaling():
    model = EnergyModel("power", 2.0)
    lam = lambda_convexity(MollifierSpec("gaussian", 1, 0.3), model)
    assert isinstance(lam, float) and lam < 0
    assert lam / lambda_convexity(MollifierSpec("gaussian", 1, 0.6), model) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        lambda_convexity(MollifierSpec("gaussian", 1, 0.3), EnergyModel("entropy"))


def test_stability_bound_edges():
    lam = lambda_convexity(MollifierSpec("gaussian", 1, 0.3), EnergyModel("power", 2.0))
    assert stability_bound(lam, 0.0, 0.37) == pytest.approx(0.37)
    assert stability_bound(lam, 5.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        stability_bound(lam, -1.0, 0.1)


def test_stability_envelope_dominates_measured_distance():
    # N-particle run against a 4N reference at the same eps stays inside
    # the (astronomically loose) stability envelope
    from blobflow.particles import simulate
    from blobflow.transport import w2

    kernel = MollifierSpec("gaussian", 1, 0.3)
    model = EnergyModel("power", 2.0)
    prof = BarenblattProfile(m=2.0, d=1)
    t_small = simulate(prof.quantile_ensemble(32), kernel, model, T=0.1, dt=2e-3, record_every=10)
    t_big = simulate(prof.quantile_ensemble(128), kernel, model, T=0.1, dt=2e-3, record_every=10)
    lam = lambda_convexity(kernel, model)
    dw0 = w2(t_small.snapshots[0][1], t_big.snapshots[0][1])
    for (t, a), (_, b) in zip(t_small.snapshots[1:], t_big.snapshots[1:]):
        measured = w2(a, b)
        assert measured <= stability_bound(lam, t, dw0)


def test_negative_part_constants():
    c1, c2 = negative_part_constants(EnergyModel("power", 2.0), 0.5)
    assert c1 == c2 == 0.0
    c1, c2 = negative_part_constants(EnergyModel("entropy"), 0.5)
    assert c1 == 0.0 and c2 == pytest.approx(2 / np.e)
    # sharpness oracle: c2 s^alpha dominates the negative part of s log s
    s = np.linspace(1e-6, 1.0, 10001)
    assert np.all(c2 * np.sqrt(s) + s * np.log(s) >= -1e-12)


def test_lower_bound_check_cases():
    kernel = MollifierSpec("gaussian", 1, 0.2)
    assert lower_bound_check(ParticleEnsemble(np.array([0.0, 1.0])), kernel, EnergyModel("power", 2.0))
    half, h = 12.0, 0.01
    grid = Grid(np.array([-half]), h, (int(2 * half / h) + 1,))
    x = grid.axes()[0]
    wide = GridField(grid, np.exp(-0.5 * x * x / 9.0) / np.sqrt(2 * np.pi * 9.0))
    assert lower_bound_check(wide, kernel, EnergyModel("entropy"))
    assert regularized_energy(wide, kernel, EnergyModel("entropy")) < 0  # negative energy, still above the bound
    spike = np.zeros(x.size)
    spike[x.size // 2] = 1.0 / h
    assert lower_bound_check(GridField(grid, spike), kernel, EnergyModel("entropy"))

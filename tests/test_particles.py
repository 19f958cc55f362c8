import numpy as np
import pytest

from blobflow import transport
from blobflow.energy import EnergyModel
from blobflow.errors import CoverageError, UnsupportedDensityError
from blobflow.grids import QuadratureSpec
from blobflow.kernels import MollifierSpec
from blobflow.particles import (
    ParticleEnsemble,
    initial_sampler,
    pairwise_velocity_m2,
    simulate,
    stable_dt,
    step,
    step_count,
    velocity,
)
from blobflow.reference import BarenblattProfile, GaussianDensity, ProductDensity, UniformDensity

K_G = MollifierSpec("gaussian", 1, 0.3)
M2 = EnergyModel("power", 2.0)


def test_single_particle_is_stationary():
    ens = ParticleEnsemble(np.array([0.7]))
    v = velocity(ens, K_G, M2)
    assert np.max(np.abs(v)) <= 1e-12
    stepped = step(ens, 0.01, K_G, M2)
    assert stepped.positions[0, 0] == pytest.approx(0.7, abs=1e-13)
    assert stepped.time == pytest.approx(0.01)


def test_two_particles_repel_symmetrically():
    ens = ParticleEnsemble(np.array([-0.3, 0.3]))
    v = velocity(ens, MollifierSpec("gaussian", 1, 0.5), M2)
    assert v[0, 0] == pytest.approx(-v[1, 0], abs=1e-12)
    assert v[1, 0] > 0  # diffusion spreads mass outwards


def test_pairwise_route_matches_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pos = np.sort(rng.uniform(-1, 1, size=16))[:, None]
        vq = velocity(ParticleEnsemble(pos), K_G, M2)
        vp = pairwise_velocity_m2(pos, K_G)
        assert np.max(np.abs(vq - vp)) <= 1e-6


def test_velocity_sum_vanishes():
    rng = np.random.default_rng(1)
    for model in (M2, EnergyModel("power", 3.0), EnergyModel("power", 1.5)):
        pos = rng.normal(size=(25, 1))
        v = velocity(ParticleEnsemble(pos), K_G, model)
        assert abs(v.sum()) <= 1e-8 * 25


def test_velocity_sum_bump_kernel_coarse_bound():
    # the C^2 bump kernel caps the trapezoid cancellation at O(h^2 eps^-3);
    # exact-to-1e-8 balance is a property of the analytic gaussian family
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(20, 1))
    v = velocity(ParticleEnsemble(pos), MollifierSpec("bump", 1, 0.4), EnergyModel("power", 1.5))
    assert abs(v.sum()) <= 0.2


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(12, 1))
    base = velocity(ParticleEnsemble(pos), K_G, M2)
    moved = velocity(ParticleEnsemble(pos + 5.37), K_G, M2)
    assert np.max(np.abs(base - moved)) <= 1e-8


def test_permutation_equivariance():
    # identical up to summation-order roundoff in the shared density build
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(10, 1))
    perm = rng.permutation(10)
    v = velocity(ParticleEnsemble(pos), K_G, M2)
    vp = velocity(ParticleEnsemble(pos[perm]), K_G, M2)
    np.testing.assert_allclose(v[perm], vp, atol=1e-12)


def test_symmetric_pair_stays_symmetric():
    ens = ParticleEnsemble(np.array([-0.4, 0.4]))
    for _ in range(20):
        ens = step(ens, 1e-3, MollifierSpec("gaussian", 1, 0.5), M2)
        assert ens.positions[0, 0] == pytest.approx(-ens.positions[1, 0], abs=1e-12)


def test_integrator_richardson_orders():
    # self-convergence against a fine rk4 reference on a smooth 8-body run
    kernel = MollifierSpec("gaussian", 1, 0.5)
    x0 = ParticleEnsemble(np.linspace(-0.7, 0.7, 8))
    T = 0.08

    def run(integrator, dt):
        ens = x0
        for _ in range(int(round(T / dt))):
            ens = step(ens, dt, kernel, M2, integrator=integrator)
        return ens.positions

    ref = run("rk4", T / 256)
    orders = {}
    for integ in ("euler", "rk4"):
        e1 = np.max(np.abs(run(integ, T / 8) - ref))
        e2 = np.max(np.abs(run(integ, T / 16) - ref))
        orders[integ] = np.log2(e1 / e2)
    assert 0.8 <= orders["euler"] <= 1.3
    assert 3.5 <= orders["rk4"] <= 4.6


def test_simulate_dissipates_energy_and_conserves():
    initial = BarenblattProfile(m=2.0, d=1).quantile_ensemble(40)
    traj = simulate(initial, MollifierSpec("gaussian", 1, 0.2), M2, T=0.02, dt=1e-3, record_every=4)
    e = np.array([d["energy"] for d in traj.diagnostics])
    assert np.all(np.diff(e) <= 1e-8)
    coms = np.array([d["com"][0] for d in traj.diagnostics])
    assert np.max(np.abs(coms - coms[0])) <= 1e-8
    assert all(ens.n == 40 for _, ens in traj.snapshots)
    assert len(traj.snapshots) == 6  # floor(T / (record_every dt)) + 1
    assert all(d["dw_step"] >= 0 for d in traj.diagnostics)


def test_simulate_rejects_bad_record_interval():
    initial = ParticleEnsemble(np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        simulate(initial, K_G, M2, T=0.01, dt=1e-3, record_every=3)


@pytest.mark.parametrize(
    "T,dt,n",
    [(0.3, 0.1, 3), (1.2, 0.1, 12), (0.07, 0.01, 7), (0.27, 0.03, 9), (0.25, 0.1, 3), (1e-15, 1.0, 1)],
)
def test_step_count_near_integer_ratios(T, dt, n):
    # T / dt lands an ulp or two below n for the first two, above it for the next two
    assert step_count(T, dt) == n


@pytest.mark.parametrize("T,dt,n", [(0.3, 0.1, 3), (0.07, 0.01, 7)])
def test_validated_record_interval_is_the_one_run(T, dt, n):
    from blobflow.config import ExperimentConfig

    cfg = ExperimentConfig.from_dict(
        {"kernel": {"family": "gaussian", "eps": 0.8, "d": 1}, "energy": {"kind": "power", "m": 2.0},
         "n_particles": 4, "T": T, "dt": dt, "integrator": "euler", "record_every": n}
    )
    traj = simulate(cfg.initial_ensemble(), cfg.kernel_spec(), cfg.energy_model(), T=T, dt=dt, record_every=n)
    assert len(traj.snapshots) == 2 and traj.times()[-1] == pytest.approx(T, rel=1e-15)


@pytest.mark.parametrize("dt", [-1e-3, 0.0])
def test_simulate_refuses_a_nonpositive_step(dt):
    # dt=-1e-3 used to run one step of size T, dt=0 to divide by zero
    with pytest.raises(ValueError, match="must be positive"):
        simulate(ParticleEnsemble(np.array([0.0, 0.5])), K_G, M2, T=0.01, dt=dt)


def test_pinned_domain_escape_detected():
    quad = QuadratureSpec(domain=((-1.0, 1.0),))
    ens = ParticleEnsemble(np.array([0.999]))
    with pytest.raises(CoverageError):
        velocity(ens, MollifierSpec("gaussian", 1, 0.2), M2, quad)


def test_stable_dt_uses_convexity_heuristic():
    assert stable_dt(MollifierSpec("gaussian", 1, 0.5), M2) == pytest.approx(0.1 * 0.25)
    # at small eps the curvature term takes over and shrinks the step
    small = stable_dt(MollifierSpec("gaussian", 1, 0.05), M2)
    assert small < 0.1 * 0.05**2


def test_quantile_sampler_uniform():
    ens = initial_sampler("quantile", UniformDensity(0, 1), 4)
    np.testing.assert_allclose(ens.positions[:, 0], [0.125, 0.375, 0.625, 0.875], atol=1e-15)


def test_quantile_sampler_gaussian_rate():
    # exact quantile-vs-quantile distances against a 1e5-atom reference:
    # gaussian tails put the decay between 1/N and 1/sqrt(N)
    from blobflow.transport import w2

    ref = initial_sampler("quantile", GaussianDensity(1.0), 100_000)
    errs = []
    for n in (50, 100, 200):
        ens = initial_sampler("quantile", GaussianDensity(1.0), n)
        errs.append(w2(ens, ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] == pytest.approx(0.0493, abs=0.002)  # frozen oracle value, N=100
    rates = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(1.2 <= r <= 2.0 for r in rates)


def test_quantile_sampler_barenblatt_support():
    prof = BarenblattProfile(m=2.0, d=1)
    ens = initial_sampler("quantile", prof, 50)
    r = prof.support_radius(0.0)
    assert np.all(np.abs(ens.positions) <= r)


def test_quantile_sampler_barenblatt_rate_halves():
    # compactly supported profile: quantile error ~halves per doubling of N
    from blobflow.transport import w2

    prof = BarenblattProfile(m=2.0, d=1)
    ref = initial_sampler("quantile", prof, 100_000)
    errs = [w2(initial_sampler("quantile", prof, n), ref) for n in (50, 100, 200)]
    assert errs[0] > errs[1] > errs[2]
    assert all(1.7 <= errs[i] / errs[i + 1] <= 2.1 for i in range(2))


def test_simulate_2d_dissipates():
    dens = ProductDensity(axes=(UniformDensity(-0.5, 0.5), UniformDensity(-0.5, 0.5)))
    initial = initial_sampler("quantile", dens, 16)
    traj = simulate(initial, MollifierSpec("gaussian", 2, 0.3), M2, T=0.01, dt=1e-3, record_every=5)
    e = np.array([d["energy"] for d in traj.diagnostics])
    assert np.all(np.diff(e) <= 1e-8)
    coms = np.array([d["com"] for d in traj.diagnostics])
    assert np.max(np.abs(coms - coms[0])) <= 1e-8


def test_assignment_cap_is_the_transport_cap(monkeypatch):
    # above the assignment solver's cap a 2d run records no W2 step instead of failing
    monkeypatch.setattr(transport, "ASSIGNMENT_CAP", 3)
    initial = ParticleEnsemble(np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [0.3, 0.3]]))
    traj = simulate(initial, MollifierSpec("gaussian", 2, 0.3), M2, T=2e-3, dt=1e-3)
    dw = [d["dw_step"] for d in traj.diagnostics]
    assert dw[0] == 0.0 and len(dw) == 3 and all(np.isnan(x) for x in dw[1:])


@pytest.mark.parametrize("d", [1, 2])
def test_snapshot_step_is_transport_w2(d):
    # the recorded W2 step is w2 of consecutive snapshots, bit for bit: sorted order in 1d, the assignment in 2d
    if d == 1:
        initial = BarenblattProfile(m=2.0, d=1).quantile_ensemble(24)
    else:
        initial = initial_sampler("quantile", ProductDensity(axes=(UniformDensity(-0.5, 0.5),) * 2), 16)
    traj = simulate(initial, MollifierSpec("gaussian", d, 0.3), M2, T=4e-3, dt=1e-3, record_every=2)
    steps = [row["dw_step"] for row in traj.diagnostics]
    want = [transport.w2(a, b) for (_, a), (_, b) in zip(traj.snapshots, traj.snapshots[1:])]
    assert steps[0] == 0.0 and steps[1:] == want and all(w > 0.0 for w in want)


def test_recorded_snapshot_deposit_is_the_next_steps_first_stage(monkeypatch):
    # recorded every step, each snapshot's deposit gives its energy and the next Euler step
    from blobflow.grids import Grid

    initial = BarenblattProfile(m=2.0, d=1).quantile_ensemble(32)
    steps, dt = 6, 1e-3
    last = simulate(initial, K_G, M2, T=steps * dt, dt=dt, integrator="euler", record_every=steps)
    calls = [0]
    window = Grid.window

    def counted(self, *args):
        calls[0] += 1
        return window(self, *args)

    monkeypatch.setattr(Grid, "window", counted)
    traj = simulate(initial, K_G, M2, T=steps * dt, dt=dt, integrator="euler", record_every=1)
    assert calls[0] == steps + 1
    assert len(traj.snapshots) == steps + 1
    np.testing.assert_array_equal(traj.final().positions, last.final().positions)
    assert traj.diagnostics[-1]["energy"] == last.diagnostics[-1]["energy"]


def test_simulate_domain_escape_mid_run():
    from blobflow.errors import DomainEscapeError

    # a repelling pair right at the margin pushes its outer member into
    # the boundary ring within a few steps
    quad = QuadratureSpec(domain=((-4.0, 4.0),))
    initial = ParticleEnsemble(np.array([2.25, 2.35]))
    with pytest.raises(DomainEscapeError):
        simulate(initial, MollifierSpec("gaussian", 1, 0.2), M2, T=0.5, dt=5e-3, quad=quad)


def test_uniform_grid_sampler():
    ens = initial_sampler("uniform_grid", UniformDensity(-1, 1), 4)
    np.testing.assert_allclose(ens.positions[:, 0], [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
    with pytest.raises(UnsupportedDensityError):
        initial_sampler("uniform_grid", GaussianDensity(1.0), 4)


def test_product_density_sampler():
    dens = ProductDensity(axes=(UniformDensity(0, 1), UniformDensity(0, 2)))
    ens = initial_sampler("quantile", dens, 9)
    assert ens.positions.shape == (9, 2)
    with pytest.raises(UnsupportedDensityError):
        initial_sampler("quantile", dens, 8)


def test_sampler_error_cases():
    with pytest.raises(UnsupportedDensityError):
        initial_sampler("random", UniformDensity(), 4)
    with pytest.raises(UnsupportedDensityError):
        initial_sampler("quantile", object(), 4)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.array([np.nan]))
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros((0, 1)))

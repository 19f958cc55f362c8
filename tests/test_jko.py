import numpy as np
import pytest

from blobflow.energy import EnergyModel, energy_on_grid, mollified_density
from blobflow.fields import mollify, sobolev_seminorm_m2
from blobflow.grids import Grid, GridField, QuadratureSpec
from blobflow.jko import (
    JkoChain,
    JkoState,
    boltzmann_entropy,
    flow_interchange_diagnostic,
    _step_grid,
    jko_step,
    moment_interpolation_constant,
    run_jko,
    tau_cap,
    validate_tau,
)
from blobflow.kernels import MollifierSpec
from blobflow.reference import BarenblattProfile
from blobflow.transport import m2 as ens_m2, w2_1d_positions

K = MollifierSpec("gaussian", 1, 0.1)
M2 = EnergyModel("power", 2.0)
TAU = 1e-3


def test_moment_interpolation_constants_against_quadrature():
    from scipy import integrate

    val, _ = integrate.quad(lambda x: (1 + abs(x)) ** -2.0, -np.inf, np.inf)
    assert moment_interpolation_constant(1) == pytest.approx(val**0.5, abs=1e-10)
    val, _ = integrate.quad(lambda r: 2 * np.pi * r * (1 + r) ** -4.0, 0, np.inf)
    assert moment_interpolation_constant(2) == pytest.approx(val ** (1 / 3), abs=1e-10)


def test_tau_validation():
    assert tau_cap(M2, 1) == pytest.approx(1.0 / (2 * 2 * np.sqrt(2)))
    validate_tau(1e-3, M2, 1)
    with pytest.raises(ValueError):
        validate_tau(0.5, M2, 1)
    with pytest.raises(ValueError):
        validate_tau(0.0, M2, 1)


def test_single_blob_does_not_move():
    state = JkoState(positions=np.array([0.3]), tau=TAU, step_index=0)
    new, record = jko_step(state, K, M2)
    assert abs(new.positions[0] - 0.3) <= 1e-8 * TAU + 1e-12
    assert record.dw2 <= 1e-16


def test_chain_strictly_decreases_energy():
    x0 = (np.arange(64) + 0.5) / 64
    chain = run_jko(x0, K, M2, tau=TAU, n_steps=8)
    e = chain.energies()
    assert np.all(np.diff(e) < 0)
    assert np.all(chain.dw2_increments() > 0)


def test_symmetric_data_gives_symmetric_minimiser():
    x0 = np.linspace(-0.5, 0.5, 32)
    state = JkoState(positions=x0, tau=TAU, step_index=0)
    new, _ = jko_step(state, K, M2)
    np.testing.assert_allclose(new.positions, -new.positions[::-1], atol=1e-8)


def test_per_step_inequality_and_order():
    x0 = np.sort(np.random.default_rng(9).uniform(0, 1, 48))
    chain = run_jko(x0, K, M2, tau=TAU, n_steps=6)
    for r in chain.records:
        assert r.dw2 / (2 * TAU) + r.energy <= r.energy_prev + 1e-10 * (1 + abs(r.energy_prev))
    for s in chain.states:
        assert np.all(np.diff(s.positions) >= 0)


def test_inner_gradient_matches_finite_differences():
    # oracle: directional finite differences of the frozen-grid objective
    from blobflow.jko import _objective, _step_grid
    from blobflow.particles import velocity_on_grid

    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(-0.4, 0.4, 12))
    tau = 5e-3
    grid = _step_grid(x, K, QuadratureSpec(), slack=K.eps)
    y = x + 1e-3 * rng.normal(size=x.size)
    vel = velocity_on_grid(mollified_density(y[:, None], K, grid), M2)[:, 0]
    grad = ((y - x) / tau - vel) / x.size
    h = 1e-6
    for i in (0, 5, 11):
        e = np.zeros_like(y)
        e[i] = h
        fd = (
            _objective(y + e, x, tau, x.size, K, M2, grid)[0]
            - _objective(y - e, x, tau, x.size, K, M2, grid)[0]
        ) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=5e-5, abs=1e-10)


def test_moment_inequality_along_chain():
    x0 = BarenblattProfile(m=2.0, d=1).quantile_ensemble(32).positions[:, 0]
    chain = run_jko(x0, K, M2, tau=TAU, n_steps=5)
    for prev, nxt in zip(chain.states, chain.states[1:]):
        dw2 = w2_1d_positions(prev.positions, nxt.positions) ** 2
        assert ens_m2(nxt.positions[:, None]) <= 2 * ens_m2(prev.positions[:, None]) + 2 * dw2 + 1e-12


def test_budget_and_holder():
    x0 = (np.arange(32) + 0.5) / 32
    chain = run_jko(x0, K, M2, tau=TAU, n_steps=10)
    assert chain.total_dw2() <= chain.dw2_budget() + 1e-15
    assert np.isfinite(chain.holder_constant())
    assert chain.max_m2() < 10


def test_horizon_is_tau_times_the_step_count():
    x0 = (np.arange(8) + 0.5) / 8
    chain = run_jko(x0, K, M2, tau=TAU, n_steps=3)
    assert chain.horizon == pytest.approx(3 * TAU)


def test_entropy_values():
    grid = Grid(np.array([0.0]), 0.001, (1001,))
    assert boltzmann_entropy(GridField(grid, np.ones(1001))) == pytest.approx(0.0, abs=1e-12)
    half = 10.0
    n = int(2 * half / 0.002) + 1
    g2 = Grid(np.array([-half]), 0.002, (n,))
    x = g2.axes()[0]
    gauss = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    assert boltzmann_entropy(GridField(g2, gauss)) == pytest.approx(
        -0.5 * np.log(2 * np.pi * np.e), abs=1e-9
    )


def test_flow_interchange_mass_identity_m1():
    x0 = (np.arange(32) + 0.5) / 32
    chain = run_jko(x0, MollifierSpec("gaussian", 1, 0.2), EnergyModel("entropy"), tau=TAU, n_steps=10)
    rep = flow_interchange_diagnostic(chain)
    assert abs(rep.sum_mass - 10 * TAU) <= 1e-8


def test_flow_interchange_stationary_blob_warns():
    chain = run_jko(np.array([0.0]), K, M2, tau=TAU, n_steps=4)
    rep = flow_interchange_diagnostic(chain)
    terms = np.array([r.fi_term for r in chain.records])
    assert np.ptp(terms) <= 1e-10 * max(1.0, terms.max())  # nothing evolves
    assert np.ptp([r.entropy for r in chain.records]) <= 1e-10
    assert rep.solver_quality_warning  # drop ~ 0 while the terms are positive


def test_inner_solver_reports_nonconvergence(monkeypatch):
    import blobflow.jko as jko
    from blobflow.errors import ConvergenceError

    state = JkoState(positions=(np.arange(16) + 0.5) / 16, tau=TAU, step_index=0)
    monkeypatch.setattr(jko, "MAX_INNER_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as err:
        jko_step(state, K, M2)
    assert err.value.residual is not None and err.value.residual > 0


def test_an_unsorted_minimiser_is_resorted_and_re_evaluated(monkeypatch):
    # the inner solve may leave two atoms out of order; the step sorts them, evaluates J at the
    # sorted vector, and keeps it only if J did not rise above the solve's own value
    import blobflow.jko as jko
    from blobflow.errors import ConvergenceError

    state = JkoState(positions=(np.arange(16) + 0.5) / 16, tau=TAU, step_index=0)
    want, want_record = jko_step(state, K, M2)
    solve, objective = jko._minimise_on_grid, jko._objective
    understate = [0.0]

    def unsorted(*args):
        result = solve(*args)
        evaluated.clear()  # keep only the evaluations made after the solve
        y = result["y"].copy()
        y[[3, 4]] = y[[4, 3]]
        return {**result, "y": y, "objective": result["objective"] - understate[0]}

    evaluated = []
    monkeypatch.setattr(jko, "_minimise_on_grid", unsorted)
    monkeypatch.setattr(jko, "_objective", lambda y, *rest: evaluated.append(y.copy()) or objective(y, *rest))
    got, record = jko_step(state, K, M2)
    assert len(evaluated) == 1 and np.array_equal(evaluated[0], want.positions)
    assert np.array_equal(got.positions, want.positions) and record == want_record
    understate[0] = 1.0  # the solve claims a J that the sorted vector does not reach
    with pytest.raises(ConvergenceError, match="sorted projection increased the objective"):
        jko_step(state, K, M2)


def test_a_line_search_flat_to_rounding_keeps_the_start_within_100_gtol(monkeypatch):
    # no trial passes Armijo: the solve keeps its start when the sup-gradient is within 100 gtol, and stalls beyond
    import blobflow.jko as jko
    from blobflow.errors import ConvergenceError

    x = (np.arange(16) + 0.5) / 16
    grid = _step_grid(x, K, QuadratureSpec(), slack=K.eps)
    gsup = jko._minimise_on_grid(x, TAU, K, M2, grid, np.inf)["grad_sup"]  # the start's, where an infinite gtol stops
    monkeypatch.setattr(jko, "ARMIJO_C1", np.inf)
    kept = jko._minimise_on_grid(x, TAU, K, M2, grid, gsup / 50)
    assert np.array_equal(kept["y"], x) and kept["objective"] == kept["start"]
    assert kept["grad_sup"] == gsup and kept["iterations"] == 1
    with pytest.raises(ConvergenceError, match="stalled"):
        jko._minimise_on_grid(x, TAU, K, M2, grid, gsup / 200)


def _recorded_solves(monkeypatch, shift=0.0):
    """Patch the inner solve to record each (grid, y) it returns, its y moved by shift."""
    import blobflow.jko as jko

    solve, solves = jko._minimise_on_grid, []

    def recorded(x, tau, kernel, model, grid, gtol):
        result = solve(x, tau, kernel, model, grid, gtol)
        solves.append((grid, result["y"] + shift))
        return {**result, "y": solves[-1][1]}

    monkeypatch.setattr(jko, "_minimise_on_grid", recorded)
    return solves


def test_a_step_that_leaves_its_grid_is_solved_again_on_a_wider_one(monkeypatch):
    # the first `tight` attempts take no slack, so the spreading state leaves their grid
    import blobflow.jko as jko
    from blobflow.errors import ConvergenceError

    state = JkoState(positions=(np.arange(16) + 0.5) / 16, tau=TAU, step_index=0)
    step_grid, tight, slacks = jko._step_grid, [1], []
    solves = _recorded_solves(monkeypatch)

    def first_tight(x, kernel, quad, slack):
        slacks.append(slack)
        return step_grid(x, kernel, quad, 0.0 if len(solves) < tight[0] else slack)

    monkeypatch.setattr(jko, "_step_grid", first_tight)
    got, _ = jko_step(state, K, M2)
    reach = K.padding_radius()
    assert slacks == [K.eps, 2 * K.eps] and not solves[0][0].covers(solves[0][1][:, None], margin=reach)
    assert solves[1][0].covers(got.positions[:, None], margin=reach) and np.array_equal(got.positions, solves[1][1])
    solves.clear()
    slacks.clear()
    tight[0] = 3
    with pytest.raises(ConvergenceError, match="beyond every retried grid extension"):
        jko_step(state, K, M2)
    assert len(solves) == 3 and slacks == [K.eps, 2 * K.eps, 3 * K.eps]


def test_a_step_that_leaves_a_pinned_domain_fails_without_a_retry(monkeypatch):
    # every attempt on a pinned domain builds its one lattice, so a retry would solve the same problem again
    from blobflow.errors import ConvergenceError

    solves = _recorded_solves(monkeypatch, shift=1.5)
    state = JkoState(positions=(np.arange(16) + 0.5) / 16, tau=TAU, step_index=0)
    with pytest.raises(ConvergenceError, match=r"pinned quadrature domain \[\[-2.0, 3.0\]\]"):
        jko_step(state, K, M2, QuadratureSpec(domain=[[-2.0, 3.0]]))
    assert len(solves) == 1


def test_a_pinned_domain_takes_every_atom_its_grid_covers():
    # the atoms sit 0.88 inside [-0.85, 1.85], beyond the kernel's reach of 0.8; padded by the retry slack they did not
    x0 = (np.arange(16) + 0.5) / 16
    quad = QuadratureSpec(domain=[[-0.85, 1.85]])
    grid = quad.grid_for(x0[:, None], K)
    assert grid.shape == (109,)
    chain = run_jko(x0, K, M2, tau=TAU, n_steps=1, quad=quad)
    free = run_jko(x0, K, M2, tau=TAU, n_steps=1)
    assert grid.covers(chain.states[-1].positions[:, None], margin=K.padding_radius())
    np.testing.assert_allclose(chain.states[-1].positions, free.states[-1].positions, rtol=0, atol=1e-9)


def test_energy_prev_consistency_across_grids():
    # per-step energies recorded on the step's frozen grid agree with an
    # independent evaluation to well below the inequality slack
    x0 = (np.arange(16) + 0.5) / 16
    chain = run_jko(x0, K, M2, tau=TAU, n_steps=2)
    r = chain.records[1]
    grid = QuadratureSpec().grid_for(chain.states[1].positions[:, None], K)
    fresh = energy_on_grid(mollified_density(chain.states[1].positions[:, None], K, grid), M2)
    assert r.energy_prev == pytest.approx(fresh, rel=1e-10)


def _holder_oracle(chain):
    """The pairwise scan holder_constant replaced: one W2 call per state pair."""
    idx = np.unique(np.linspace(0, len(chain.states) - 1, 128).astype(int))
    best = 0.0
    for a, i in enumerate(idx):
        for j in idx[a + 1 :]:
            dw = w2_1d_positions(chain.states[i].positions, chain.states[j].positions)
            best = max(best, dw / (np.sqrt((j - i) * chain.tau) + np.sqrt(chain.tau)))
    return best


@pytest.mark.parametrize("n_states", [1, 2, 61, 300])
def test_holder_constant_matches_pairwise_scan(n_states):
    rng = np.random.default_rng(n_states)
    walk = np.cumsum(rng.normal(scale=0.01, size=(n_states, 128)), axis=0)
    states = [JkoState(np.sort(w), TAU, k) for k, w in enumerate(walk)]
    chain = JkoChain(states=states, records=[], kernel=K, model=M2, tau=TAU)
    assert chain.holder_constant() == _holder_oracle(chain)


def test_flow_interchange_uses_the_chain_quadrature():
    quad = QuadratureSpec(h_over_eps=0.5)
    x0 = BarenblattProfile(m=2.0, d=1).quantile_ensemble(32).positions[:, 0]
    chain = run_jko(x0, MollifierSpec("gaussian", 1, 0.2), M2, tau=TAU, n_steps=5, quad=quad)
    assert chain.quad == quad
    rep = flow_interchange_diagnostic(chain)
    # on the default eps/4 grid instead the two sums sit ~0.9 % apart
    assert rep.sum_d == pytest.approx(sum(r.fi_term for r in chain.records), rel=1e-10)


@pytest.mark.parametrize("n_steps", [0, -1])
def test_run_jko_refuses_a_nonpositive_horizon(n_steps):
    with pytest.raises(ValueError, match="n_steps must be positive"):
        run_jko(np.linspace(0.0, 1.0, 8), K, M2, tau=1e-3, n_steps=n_steps)


def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_one_deposit_per_objective_and_velocity_call(monkeypatch):
    # E_eps of the previous state is the solve's starting objective, not a deposit of its own;
    # each velocity and the step record read the accepted trial's deposit
    import blobflow.jko as jko

    calls = {"window": 0, "objective": 0, "velocity": 0}
    monkeypatch.setattr(Grid, "window", _counting(calls, "window", Grid.window))
    monkeypatch.setattr(jko, "_objective", _counting(calls, "objective", jko._objective))
    monkeypatch.setattr(jko, "velocity_on_grid", _counting(calls, "velocity", jko.velocity_on_grid))
    x0 = BarenblattProfile(m=2.0, d=1).quantile_ensemble(32).positions[:, 0]
    jko_step(JkoState(positions=x0, tau=TAU, step_index=0), K, M2)
    assert calls["objective"] > 1 and calls["velocity"] > 1
    assert calls["window"] == calls["objective"]


def test_energy_prev_is_the_previous_energy_on_the_step_grid():
    x0 = BarenblattProfile(m=2.0, d=1).quantile_ensemble(32).positions[:, 0]
    state = JkoState(positions=x0, tau=TAU, step_index=0)
    for _ in range(3):
        nxt, record = jko_step(state, K, M2)
        grid = _step_grid(state.positions, K, QuadratureSpec(), slack=K.eps)
        assert record.energy_prev == energy_on_grid(mollified_density(state.positions[:, None], K, grid), M2)
        state = nxt


@pytest.mark.parametrize("n_steps", [1, 5])
def test_flow_interchange_deposits_only_the_initial_state(monkeypatch, n_steps):
    chain = run_jko(BarenblattProfile(m=2.0, d=1).quantile_ensemble(32).positions[:, 0], K, M2, tau=TAU, n_steps=n_steps)
    calls = {"window": 0}
    monkeypatch.setattr(Grid, "window", _counting(calls, "window", Grid.window))
    rep = flow_interchange_diagnostic(chain)
    assert calls["window"] == 1
    assert len(chain.records) == n_steps
    assert rep.sum_d == float(np.sum([r.fi_term for r in chain.records]))


def _hull_report_oracle(chain):
    """The report's terms as they were computed before: every state mollified on one hull grid."""
    hull = np.concatenate([s.positions for s in chain.states])
    grid = chain.quad.grid_for(hull[:, None], chain.kernel)
    fields = [mollify(s.ensemble(), chain.kernel, grid) for s in chain.states]
    d_terms = np.array([chain.tau * sobolev_seminorm_m2(f, chain.model.m) for f in fields[1:]])
    mass_terms = np.array([chain.tau * f.mass() for f in fields[1:]])
    return d_terms, mass_terms, boltzmann_entropy(fields[0]), boltzmann_entropy(fields[-1])


@pytest.mark.parametrize("model", [M2, EnergyModel("power", 3.0), EnergyModel("entropy")], ids=lambda m: m.kind + str(m.m))
def test_flow_interchange_records_match_the_hull_grid(model):
    # gaussian chains: both grids share the spacing, and the terms agree to round-off
    x0 = BarenblattProfile(m=2.0, d=1).quantile_ensemble(32).positions[:, 0]
    chain = run_jko(x0, MollifierSpec("gaussian", 1, 0.2), model, tau=TAU, n_steps=20)
    rep = flow_interchange_diagnostic(chain)
    d_terms, mass_terms, h0, hk = _hull_report_oracle(chain)
    np.testing.assert_allclose([r.fi_term for r in chain.records], d_terms, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose([r.mass_term for r in chain.records], mass_terms, rtol=1e-12, atol=0.0)
    assert chain.records[-1].entropy == pytest.approx(hk, rel=1e-12, abs=0.0)
    assert rep.sum_mass == pytest.approx(mass_terms.sum(), rel=1e-12, abs=0.0)
    assert rep.ratio == pytest.approx(d_terms.sum() / (model.m ** 2 / (4.0 * model.c1) * (h0 - hk)), rel=1e-9, abs=0.0)

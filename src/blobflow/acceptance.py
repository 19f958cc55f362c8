"""Named acceptance recipes: one callable per exit criterion.

Each criterion returns a CriterionResult with a pass flag and a one-line
detail string; the CLI `accept` subcommand and the acceptance test module
both drive this registry, so the suite is runnable either way.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .energy import EnergyModel
from .fields import TestFunction, error_term_grid, error_term_z
from .grids import GridField, QuadratureSpec, cover_points
from .jko import flow_interchange_diagnostic, run_jko
from .kernels import MollifierSpec
from .particles import ParticleEnsemble, pairwise_velocity_m2, simulate, stable_dt, step_count, velocity
from .reference import BarenblattProfile, fd_pme_oracle, lambda_convexity, lower_bound_check
from .transport import m2 as ens_m2, w2, w2_assignment_positions


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} criterion {self.cid}: {self.title} -- {self.detail}"


# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Per-step proximal energy inequality along JKO chains."""
    started = time.perf_counter()
    kernel = MollifierSpec("gaussian", 1, 0.1)
    tau, steps = 1e-3, 50
    x0 = (np.arange(64) + 0.5) / 64
    worst = -np.inf
    for m in (1.5, 2.0, 3.0):
        chain = run_jko(x0, kernel, EnergyModel("power", m), tau=tau, n_steps=steps)
        for r in chain.records:
            slack = r.dw2 / (2 * tau) + r.energy - r.energy_prev
            worst = max(worst, slack / (1.0 + abs(r.energy_prev)))
    elapsed = time.perf_counter() - started
    return CriterionResult(
        1,
        "JKO energy inequality (m in {1.5, 2, 3})",
        worst <= 1e-10 and elapsed < 60.0,
        f"worst relative violation {worst:.3e} (cap 1e-10), {elapsed:.1f}s (cap 60s)",
    )


@lru_cache(maxsize=1)
def _dissipation_run():
    started = time.perf_counter()
    kernel = MollifierSpec("gaussian", 1, 0.1)
    model = EnergyModel("power", 2.0)
    initial = BarenblattProfile(m=2.0, d=1).quantile_ensemble(100)
    traj = simulate(initial, kernel, model, T=0.25, dt=1e-3, record_every=10)
    return traj, time.perf_counter() - started


def criterion_2() -> CriterionResult:
    traj, elapsed = _dissipation_run()
    e = np.array([d["energy"] for d in traj.diagnostics])
    worst = float(np.max(np.diff(e)))
    return CriterionResult(
        2,
        "particle energy dissipation (m=2, N=100, rk4, T=0.25)",
        worst <= 1e-8 and elapsed < 60.0,
        f"max energy increase between snapshots {worst:.3e} (cap 1e-8), {elapsed:.1f}s (cap 60s)",
    )


def criterion_3() -> CriterionResult:
    traj, _ = _dissipation_run()
    coms = np.array([d["com"][0] for d in traj.diagnostics])
    drift = float(np.max(np.abs(coms - coms[0])))
    mass_ok = all(ens.n == traj.snapshots[0][1].n for _, ens in traj.snapshots)
    return CriterionResult(
        3,
        "conservation over the dissipation run",
        mass_ok and drift <= 1e-8,
        f"mass exact (structural), |com drift| {drift:.3e} (cap 1e-8)",
    )


def criterion_4() -> CriterionResult:
    model = EnergyModel("power", 2.0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        eps = float(rng.uniform(0.2, 0.5))
        kernel = MollifierSpec("gaussian", 1, eps)
        pos = np.sort(rng.uniform(-1.0, 1.0, size=32))
        ens = ParticleEnsemble(pos[:, None])
        v_quad = velocity(ens, kernel, model)
        v_pair = pairwise_velocity_m2(ens.positions, kernel)
        worst = max(worst, float(np.max(np.abs(v_quad - v_pair))))
    return CriterionResult(
        4,
        "quadrature velocity equals closed-form pairwise route (m=2)",
        worst <= 1e-6,
        f"max abs velocity difference {worst:.3e} (cap 1e-6)",
    )


def criterion_5() -> CriterionResult:
    # Atoms spaced wider than twice the largest eps: with the compact
    # kernel every atom stays isolated across the ladder, which is the
    # regime where the L1 norm of the error term scales linearly in eps
    # (overlapping kernels over smooth densities decay quadratically).
    ens = ParticleEnsemble(np.array([-1.6, -0.5, 0.4, 1.5]))
    phi = TestFunction("poly_bump", np.zeros(1), 2.5)
    quad = QuadratureSpec()
    norms = {}
    ptwise = True
    for eps in (0.4, 0.2, 0.1, 0.05):
        kernel = MollifierSpec("bump", 1, eps)
        rep = error_term_z(ens, kernel, phi, error_term_grid(ens.positions, kernel, phi, quad))
        norms[eps] = rep.l1_norm
        ptwise = ptwise and rep.pointwise_ok
    ratios = [norms[b] / norms[a] for a, b in ((0.4, 0.2), (0.2, 0.1), (0.1, 0.05))]
    in_window = all(0.35 <= r <= 0.65 for r in ratios)
    return CriterionResult(
        5,
        "error-term L1 halves per eps-halving; pointwise bound holds",
        in_window and ptwise,
        f"ratios {[f'{r:.3f}' for r in ratios]} (window [0.35, 0.65]), pointwise ok={ptwise}",
    )


def criterion_6() -> CriterionResult:
    worst = 0.0
    signs_ok = True
    for m, d in itertools.product((1.5, 2.0, 3.0), (1, 2)):
        model = EnergyModel("power", m)
        for eps in (0.1, 0.2, 0.4):
            lam = lambda_convexity(MollifierSpec("gaussian", d, eps), model)
            lam2 = lambda_convexity(MollifierSpec("gaussian", d, 2 * eps), model)
            target = 2.0 ** (2.0 + d * (m - 1.0))
            worst = max(worst, abs(lam.lam / lam2.lam - target) / target)
            signs_ok = signs_ok and lam.lam < 0
    return CriterionResult(
        6,
        "convexity-modulus scaling 2^(2+d(m-1)) across (m, d)",
        worst <= 1e-12 and signs_ok,
        f"worst relative ratio error {worst:.3e} (cap 1e-12), all negative={signs_ok}",
    )


def _brute_force_w2(a: np.ndarray, b: np.ndarray) -> float:
    best = np.inf
    for perm in itertools.permutations(range(b.shape[0])):
        cost = float(np.mean(np.sum((a - b[list(perm)]) ** 2, axis=1)))
        best = min(best, cost)
    return float(np.sqrt(best))


def criterion_7() -> CriterionResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 7))
        d = 1 if trial % 2 == 0 else 2
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        ref = _brute_force_w2(a, b)
        worst = max(worst, abs(w2(a, b) - ref))
        if d == 1:  # w2 sorts in 1d, so check the assignment there too
            worst = max(worst, abs(w2_assignment_positions(a, b) - ref))
    axioms = _metric_axioms(rng)
    return CriterionResult(
        7,
        "transport distances match brute-force permutation minimum",
        worst <= 1e-12 and axioms,
        f"max |distance - brute force| {worst:.3e} (cap 1e-12), metric axioms={axioms}",
    )


def _metric_axioms(rng) -> bool:
    for _ in range(50):
        n = int(rng.integers(2, 65))
        a, b, c = (rng.normal(size=(n, 1)) for _ in range(3))
        dab, dba = w2(a, b), w2(b, a)
        dac, dcb = w2(a, c), w2(c, b)
        if dab != dba or dab > dac + dcb + 1e-10:
            return False
        if w2(a, a) != 0.0:
            return False
        shift = rng.normal()
        if abs(w2(a + shift, b + shift) - dab) > 1e-12:
            return False
    return True


def _eps_ladder_run(m, family, t0, eps_values, n=400, T=0.25):
    profile = BarenblattProfile(m=m, d=1, t0=t0)
    initial = profile.quantile_ensemble(n)
    ref = profile.quantile_ensemble(n, t=T)
    errors = {}
    guards = 0
    for eps in eps_values:
        model = EnergyModel("power", m)
        kernel = MollifierSpec(family, 1, eps)
        steps = step_count(T, stable_dt(kernel, model))
        traj = simulate(initial, kernel, model, T=T, dt=T / steps, record_every=steps)
        final = traj.final()
        errors[eps] = w2(final, ref)
        guards += model.neg_prime_calls
    return errors, guards


def criterion_8() -> CriterionResult:
    started = time.perf_counter()
    errors, _ = _eps_ladder_run(2.0, "gaussian", t0=1.0, eps_values=(0.4, 0.2, 0.1))
    elapsed = time.perf_counter() - started
    seq = [errors[e] for e in (0.4, 0.2, 0.1)]
    monotone = seq[0] > seq[1] > seq[2]
    factor = seq[0] / seq[2]
    return CriterionResult(
        8,
        "nonlocal-to-local convergence (m=2, gaussian, N=400)",
        monotone and factor >= 2.0 and elapsed < 600.0,
        f"W2 errors {[f'{e:.5f}' for e in seq]}, monotone={monotone}, "
        f"factor {factor:.2f} (need >= 2), {elapsed:.0f}s (cap 600s)",
    )


def criterion_9() -> CriterionResult:
    errors, guards = _eps_ladder_run(1.5, "bump", t0=0.25, eps_values=(0.4, 0.2, 0.1))
    seq = [errors[e] for e in (0.4, 0.2, 0.1)]
    monotone = seq[0] > seq[1] > seq[2]
    return CriterionResult(
        9,
        "subquadratic regime with the compact bump kernel (m=1.5)",
        monotone and guards == 0,
        f"W2 errors {[f'{e:.5f}' for e in seq]}, monotone={monotone}, F' negative-argument count {guards}",
    )


def criterion_10() -> CriterionResult:
    tau, steps = 1e-3, 50
    profile = BarenblattProfile(m=2.0, d=1)
    x0 = profile.quantile_ensemble(64).positions[:, 0]
    sums = {}
    for eps in (0.4, 0.2, 0.1):
        kernel = MollifierSpec("gaussian", 1, eps)
        chain = run_jko(x0, kernel, EnergyModel("power", 2.0), tau=tau, n_steps=steps)
        sums[eps] = flow_interchange_diagnostic(chain).sum_d
    spread = max(sums.values()) / min(sums.values())
    chain1 = run_jko(x0, MollifierSpec("gaussian", 1, 0.2), EnergyModel("entropy"), tau=tau, n_steps=steps)
    mass_sum = flow_interchange_diagnostic(chain1).sum_mass
    mass_gap = abs(mass_sum - tau * steps)
    return CriterionResult(
        10,
        "flow-interchange dissipation bounded across the eps sweep",
        spread < 3.0 and mass_gap <= 1e-8,
        f"sum ratios max/min {spread:.3f} (cap 3), m=1 mass identity gap {mass_gap:.2e} (cap 1e-8)",
    )


def criterion_11() -> CriterionResult:
    rng = np.random.default_rng(11)
    lower_ok = True
    for trial in range(50):
        eps = float(rng.uniform(0.05, 0.5))
        model = EnergyModel("entropy") if trial % 2 else EnergyModel("power", float(rng.uniform(1.2, 3.0)))
        kernel = MollifierSpec("gaussian", 1, eps)
        if trial % 3 == 0:
            grid = cover_points(np.zeros((1, 1)), 6.0, 0.02)
            x = grid.axes()[0]
            s1, s2 = rng.uniform(0.2, 2.0, size=2)
            c1, c2 = rng.uniform(-2.0, 2.0, size=2)
            w = rng.uniform(0.2, 0.8)
            vals = w * np.exp(-0.5 * (x - c1) ** 2 / s1**2) / np.sqrt(2 * np.pi * s1**2)
            vals += (1 - w) * np.exp(-0.5 * (x - c2) ** 2 / s2**2) / np.sqrt(2 * np.pi * s2**2)
            rho = GridField(grid, vals / GridField(grid, vals).mass())
        else:
            rho = ParticleEnsemble(rng.normal(scale=rng.uniform(0.3, 2.0), size=(int(rng.integers(2, 40)), 1)))
        lower_ok = lower_ok and lower_bound_check(rho, kernel, model).ok
    moment_ok = True
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(1, 50))
        a = rng.normal(scale=rng.uniform(0.2, 3.0), size=(n, 1))
        b = rng.normal(scale=rng.uniform(0.2, 3.0), size=(n, 1)) + rng.normal()
        gap = ens_m2(b) - 2.0 * ens_m2(a) - 2.0 * w2(a, b) ** 2
        worst = max(worst, gap)
        moment_ok = moment_ok and gap <= 1e-6
    return CriterionResult(
        11,
        "energy lower bound and moment inequality on randomized inputs",
        lower_ok and moment_ok,
        f"lower bound ok={lower_ok}; worst moment-inequality gap {worst:.3e} (cap 1e-6)",
    )


def criterion_12() -> CriterionResult:
    profile = BarenblattProfile(m=2.0, d=1)
    errs = {}
    for h in (1 / 128, 1 / 256, 1 / 512):
        grid = cover_points(np.zeros((1, 1)), 4.0, h)
        x = grid.axes()[0]
        initial = GridField(grid, profile.density(0.0, x))
        series = fd_pme_oracle(initial, m=2.0, T=0.25, dt=4 * h * h)
        final = series[-1][1]
        errs[h] = final.integrate(np.abs(final.values - profile.density(0.25, x)))
    hs = sorted(errs, reverse=True)
    order = float(np.polyfit(np.log(hs), np.log([errs[h] for h in hs]), 1)[0])
    fine_ok = errs[1 / 512] <= 1e-3
    order_ok = 1.7 <= order <= 2.3
    return CriterionResult(
        12,
        "finite-difference oracle self-validation on the analytic profile",
        fine_ok and order_ok,
        f"L1 at h=1/512: {errs[1 / 512]:.2e} (cap 1e-3); fitted spatial order {order:.2f} (window [1.7, 2.3])",
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}

"""1d minimizing-movement (JKO) scheme for the mollified energy.

States are sorted equal-weight atom vectors, for which the squared
2-Wasserstein distance to the previous state is the plain quadratic
(1/N) sum (y_i - x_i)^2 in sorted alignment.  One step solves

    minimise  J(y) = (1/(2 tau N)) sum (y_i - x_i)^2 + E_eps[y]

by Armijo-backtracked gradient descent started at y = x.  The energy
gradient reuses the blob velocity field (grad_i E = -v_i / N), so a
gradient step of size tau*N is exactly one damped implicit-Euler
fixed-point sweep.  The quadrature grid is frozen per step, which makes
the descent property of the line search an exact statement about the
recorded objective values: every accepted step satisfies

    dW^2(x, y)/(2 tau) + E_eps[y] <= E_eps[x].

The admissible step cap tau <= 1/(2 c2 C_{d,alpha}) is enforced with the
curvature constant c2 of the energy model and the moment-interpolation
constant C_{d,alpha} (alpha = 1/2 in d=1, 2/3 in d=2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, energy_on_grid, mollified_density
from .errors import ConvergenceError
from .fields import mollify, sobolev_seminorm_m2
from .grids import GridField, QuadratureSpec, dot
from .kernels import MollifierSpec
from .particles import ParticleEnsemble, velocity_on_grid
from .transport import m2

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
MAX_INNER_ITERATIONS = 600


def alpha_for_dim(d: int) -> float:
    """Lower-growth exponent used in the moment interpolation, per dimension."""
    return 0.5 if d == 1 else 2.0 / 3.0


def moment_interpolation_constant(d: int) -> float:
    """C_{d,alpha} = (int (1+|x|)^{-2 alpha/(1-alpha)} dx)^{1-alpha}.

    alpha = 1/2, d = 1: integrand (1+|x|)^{-2}, integral 2, constant sqrt(2).
    alpha = 2/3, d = 2: integrand (1+|x|)^{-4}, integral pi/3, constant (pi/3)^{1/3}.
    """
    if d == 1:
        return float(np.sqrt(2.0))
    return float((np.pi / 3.0) ** (1.0 / 3.0))


def tau_cap(model: EnergyModel, d: int) -> float:
    """Largest admissible time step for a well-posed minimisation step."""
    return min(1.0, 1.0 / (2.0 * model.c2 * moment_interpolation_constant(d)))


def validate_tau(tau: float, model: EnergyModel, d: int) -> None:
    cap = tau_cap(model, d)
    if not 0.0 < tau <= cap:
        raise ValueError(f"tau={tau} outside the admissible range (0, {cap:.6g}]")


@dataclass(frozen=True)
class JkoState:
    """One accepted state of the chain: sorted atoms plus bookkeeping."""

    positions: np.ndarray  # sorted (N,)
    tau: float
    step_index: int

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).ravel()
        if np.any(np.diff(pos) < 0):
            raise ValueError("JKO states keep sorted order")
        object.__setattr__(self, "positions", pos)

    def ensemble(self) -> ParticleEnsemble:
        return ParticleEnsemble(self.positions[:, None], time=self.step_index * self.tau)


@dataclass(frozen=True)
class StepRecord:
    n: int
    energy_prev: float
    energy: float
    dw2: float
    entropy: float  # Boltzmann entropy of the mollified state
    fi_term: float  # tau * int |grad (V_eps*rho)^{m/2}|^2
    mass_term: float  # tau * int V_eps*rho (the L2 part of the dissipation norm)
    inner_iterations: int
    grad_sup: float


@dataclass
class JkoChain:
    """Accepted states rho^0..rho^K with per-step diagnostics."""

    states: list
    records: list
    kernel: MollifierSpec
    model: EnergyModel
    tau: float
    quad: QuadratureSpec = QuadratureSpec()

    @property
    def horizon(self) -> float:
        return self.tau * (len(self.states) - 1)

    def energies(self) -> np.ndarray:
        return np.array([self.records[0].energy_prev] + [r.energy for r in self.records])

    def dw2_increments(self) -> np.ndarray:
        return np.array([r.dw2 for r in self.records])

    def total_dw2(self) -> float:
        return float(self.dw2_increments().sum())

    def dw2_budget(self) -> float:
        """Telescoped energy-decay budget 2 tau (E[rho^0] - min_n E[rho^n])."""
        e = self.energies()
        return 2.0 * self.tau * float(e[0] - e.min())

    def holder_constant(self) -> float:
        """Measured c with dW(rho(s), rho(t)) <= c (sqrt|t-s| + sqrt tau).

        Long chains are subsampled (the pair scan is quadratic); the
        constant is a measurement, not an assertion.  States are sorted, so
        the RMS gap of two rows is their W2 distance.
        """
        idx = np.linspace(0, len(self.states) - 1, 128).astype(int)
        idx = idx[np.concatenate(([True], np.diff(idx) > 0))]  # sorted, so this drops the repeats
        rows = np.array([self.states[i].positions for i in idx])
        best = 0.0
        for a, i in enumerate(idx[:-1]):
            dw = np.sqrt(np.mean((rows[a + 1 :] - rows[a]) ** 2, axis=1))
            gap = np.sqrt((idx[a + 1 :] - i) * self.tau) + np.sqrt(self.tau)
            best = max(best, float(np.max(dw / gap)))
        return best

    def max_m2(self) -> float:
        return max(m2(s.positions) for s in self.states)


def _step_grid(positions: np.ndarray, kernel: MollifierSpec, quad: QuadratureSpec, slack: float):
    """quad's grid around the atoms padded by slack either side.  A pinned domain has one lattice, which no slack
    moves, so its coverage check takes the atoms themselves, as the particle solver's does."""
    if quad.domain is None:
        positions = np.concatenate([positions - slack, positions + slack])
    return quad.grid_for(positions[:, None], kernel)


def jko_step(
    prev: JkoState,
    kernel: MollifierSpec,
    model: EnergyModel,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[JkoState, StepRecord]:
    """One proximal step, solved to sup-gradient 1e-8 sqrt(N); returns the state and its diagnostics."""
    validate_tau(prev.tau, model, 1)
    x = prev.positions
    n = x.size
    tau = prev.tau
    gtol = 1e-8 * np.sqrt(n)

    result = None
    for attempt in range(3):
        grid = _step_grid(x, kernel, quad, slack=(attempt + 1) * kernel.eps)
        result = _minimise_on_grid(x, tau, kernel, model, grid, gtol)
        if grid.covers(result["y"][:, None], margin=kernel.padding_radius()):
            break
        if quad.domain is not None:  # every attempt would build the pinned domain's one lattice and solve again on it
            raise ConvergenceError(
                f"proximal step moved particles within one kernel support radius ({kernel.padding_radius():.4g}) "
                f"of the edge of the pinned quadrature domain {[list(axis) for axis in quad.domain]}",
                residual=result["grad_sup"],
            )
    else:
        raise ConvergenceError(
            "proximal step moved particles beyond every retried grid extension",
            residual=result["grad_sup"],
        )
    y, j_val, dep = result["y"], result["objective"], result["deposit"]
    iters, gsup = result["iterations"], result["grad_sup"]

    if np.any(np.diff(y) < 0):
        # Off-manifold wander: resort (energy is permutation invariant and
        # the aligned quadratic only decreases) and re-verify the descent.
        y = np.sort(y)
        j_sorted, dep = _objective(y, x, tau, n, kernel, model, grid)
        if j_sorted > j_val + 1e-12 * (1.0 + abs(j_val)):
            raise ConvergenceError("sorted projection increased the objective", residual=gsup)

    state = JkoState(positions=y, tau=tau, step_index=prev.step_index + 1)
    field = GridField(grid, dep.density.reshape(grid.shape))  # the accepted trial's own deposit
    record = StepRecord(
        n=state.step_index,
        energy_prev=result["start"],
        energy=energy_on_grid(dep, model),
        dw2=float(np.mean((y - x) ** 2)),
        entropy=boltzmann_entropy(field),
        fi_term=tau * sobolev_seminorm_m2(field, model.m),
        mass_term=tau * field.mass(),
        inner_iterations=iters,
        grad_sup=gsup,
    )
    return state, record


def _objective(y, x, tau, n, kernel, model, grid):
    """J(y) on the step's grid, and the deposit of y it was evaluated from."""
    dep = mollified_density(y[:, None], kernel, grid)
    return float(np.sum((y - x) ** 2)) / (2.0 * tau * n) + energy_on_grid(dep, model), dep


def _minimise_on_grid(x, tau, kernel, model, grid, gtol):
    n = x.size
    y = x.copy()
    # at y = x the quadratic term is exactly 0.0, so this is E_eps[x] on the step's grid
    j_cur, dep = _objective(y, x, tau, n, kernel, model, grid)
    j_start = j_cur
    alpha = tau * n
    alpha_max = 10.0 * tau * n
    iters = 0
    gsup = np.inf
    for iters in range(1, MAX_INNER_ITERATIONS + 1):
        vel = velocity_on_grid(dep, model)[:, 0]
        grad = ((y - x) / tau - vel) / n
        gsup = float(np.max(np.abs(grad)))
        if gsup <= gtol:
            break
        gnorm2 = dot(grad, grad)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            y_try = y - alpha * grad
            j_try, dep_try = _objective(y_try, x, tau, n, kernel, model, grid)
            if j_try <= j_cur - ARMIJO_C1 * alpha * gnorm2:
                y, j_cur, dep = y_try, j_try, dep_try
                alpha = min(1.5 * alpha, alpha_max)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # Line search exhausted: the objective is flat to rounding.
            if gsup <= 100.0 * gtol:
                break
            raise ConvergenceError(
                f"JKO inner line search stalled with sup-gradient {gsup:.3e}",
                residual=gsup,
            )
    else:
        raise ConvergenceError(
            f"JKO inner optimiser hit {MAX_INNER_ITERATIONS} iterations, sup-gradient {gsup:.3e}",
            residual=gsup,
        )
    return {"y": y, "objective": j_cur, "deposit": dep, "start": j_start, "iterations": iters, "grad_sup": gsup}


def run_jko(
    initial_positions: np.ndarray,
    kernel: MollifierSpec,
    model: EnergyModel,
    tau: float,
    n_steps: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> JkoChain:
    """Run the minimizing-movement chain for n_steps steps (at least one)."""
    validate_tau(tau, model, 1)
    if n_steps < 1:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    x0 = np.sort(np.asarray(initial_positions, dtype=float).ravel())
    state = JkoState(positions=x0, tau=tau, step_index=0)
    chain = JkoChain(states=[state], records=[], kernel=kernel, model=model, tau=tau, quad=quad)
    for _ in range(n_steps):
        state, record = jko_step(state, kernel, model, quad)
        chain.states.append(state)
        chain.records.append(record)
    return chain


# ---------------------------------------------------------------------------
# entropy and the flow-interchange diagnostic

def boltzmann_entropy(field: GridField) -> float:
    """int v log v with the continuous extension 0 at v = 0."""
    v = field.values
    integrand = np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
    return field.integrate(integrand)


@dataclass(frozen=True)
class FlowInterchangeReport:
    sum_d: float  # sum over accepted states of tau * int |grad (v^n)^{m/2}|^2
    sum_mass: float  # sum over accepted states of tau * int v^n (L2 part; T when mass is 1)
    ratio: float  # sum_d / (m^2/(4 c1) (H[v^0] - H[v^K]))
    solver_quality_warning: bool


def flow_interchange_diagnostic(chain: JkoChain) -> FlowInterchangeReport:
    """Dissipation sum versus the telescoped entropy drop, read off the step records.

    Each record holds its state's terms on that step's frozen grid; only the
    initial state, which no record covers, is mollified here, on a grid of
    the chain's quadrature.  The inequality sum_n D_n <= m^2/(4 c1) (H^0 - H^K)
    is exact for exact minimisers with the true entropy; here both sides are
    desk-scale surrogates (mollified entropy, inexact inner solves), so a
    ratio above 1.05 is flagged as a solver-quality warning rather than a
    failure.
    """
    model, first = chain.model, chain.states[0]
    sum_d = float(np.array([r.fi_term for r in chain.records], dtype=float).sum())
    sum_mass = float(np.array([r.mass_term for r in chain.records], dtype=float).sum())
    grid = chain.quad.grid_for(first.positions[:, None], chain.kernel)
    h0 = boltzmann_entropy(mollify(first.ensemble(), chain.kernel, grid))
    drop = model.m ** 2 / (4.0 * model.c1) * (h0 - chain.records[-1].entropy)
    ratio = sum_d / drop if drop > 0 else float("inf")
    return FlowInterchangeReport(sum_d, sum_mass, ratio, bool(not ratio <= 1.05))

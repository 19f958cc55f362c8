"""Deterministic blob-method particle flow.

N equal-weight particles carry the empirical measure
rho^N = (1/N) sum_j delta_{x_j}.  Each particle moves with the mollified
velocity field

    v_i = - int grad V_eps(x_i - y) F'( (1/N) sum_j V_eps(y - x_j) ) dy,

evaluated by trapezoid quadrature on one shared grid per evaluation.  The
density is one ``energy.Deposit`` over each particle's box of grid nodes
(``grids.Window``), and the velocity gathers F' w back through that
deposit (``Deposit.contract``), by the route it was deposited by.
``kernels`` describes the families.

For F(x) = x^2 the velocity collapses to the pairwise interaction
-(2/N) sum_j grad W_eps(x_i - x_j) with W_eps = V_eps * V_eps; that closed
form (gaussian family) is kept as an independent cross-check route.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import transport
from .energy import Deposit, EnergyModel, energy_on_grid, mollified_density
from .errors import CoverageError, DomainEscapeError, SizeLimitError, UnsupportedDensityError
from .grids import QuadratureSpec
from .kernels import MollifierSpec, grad_on_pairs, self_convolution

INTEGRATORS = ("euler", "heun", "rk4")


@dataclass(frozen=True)
class ParticleEnsemble:
    """Equal-weight particle positions; total mass is exactly one."""

    positions: np.ndarray  # (N, d)
    time: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be a nonempty (N, d) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("particle positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    def center_of_mass(self) -> np.ndarray:
        return self.positions.mean(axis=0)


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots of a particle run plus per-snapshot diagnostics.

    diagnostics columns: energy (mollified energy on the step's quadrature
    grid), m2, center of mass, and the Wasserstein increment from the
    previous snapshot.
    """

    snapshots: list  # [(t, ParticleEnsemble)]
    diagnostics: list  # [dict]

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    def final(self) -> ParticleEnsemble:
        return self.snapshots[-1][1]


def velocity_on_grid(dep: Deposit, model: EnergyModel) -> np.ndarray:
    """Blob velocities from a deposit on its own grid: grad V_eps(node - x) against F' w on the nodes (``Deposit.contract``).

    F' is read only where the deposit is nonzero: nothing else is gathered,
    and the entropy's F' is undefined at zero density.
    """
    wf = np.zeros_like(dep.density)
    held = dep.density != 0.0
    wf[held] = dep.grid.trapezoid_weights()[held] * model.f_prime(dep.density[held])
    return dep.contract(wf)


def velocity(
    ens: ParticleEnsemble,
    kernel: MollifierSpec,
    model: EnergyModel,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Particle velocities on a fresh shared grid covering the ensemble."""
    grid = quad.grid_for(ens.positions, kernel)
    return velocity_on_grid(mollified_density(ens.positions, kernel, grid), model)


def pairwise_velocity_m2(positions: np.ndarray, kernel: MollifierSpec) -> np.ndarray:
    """Closed-form velocities for F(x) = x^2: -(2/N) sum_j grad W_eps(x_i - x_j); gaussian family only."""
    w_eps = self_convolution(kernel)
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    gw = grad_on_pairs(w_eps, pos[:, None, :] - pos[None, :, :])
    return -(2.0 / pos.shape[0]) * gw.sum(axis=1)


def step(
    ens: ParticleEnsemble,
    dt: float,
    kernel: MollifierSpec,
    model: EnergyModel,
    quad: QuadratureSpec = QuadratureSpec(),
    integrator: str = "rk4",
    k1: np.ndarray | None = None,
) -> ParticleEnsemble:
    """Advance one time step, from the caller's velocity k1 at ens if given; weights are untouched, so mass is exact."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}; choose from {INTEGRATORS}")
    x = ens.positions
    f = lambda y: velocity_on_grid(mollified_density(y, kernel, quad.grid_for(y, kernel)), model)
    k1 = f(x) if k1 is None else k1
    if integrator == "euler":
        xn = x + dt * k1
    elif integrator == "heun":
        k2 = f(x + dt * k1)
        xn = x + 0.5 * dt * (k1 + k2)
    else:
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        xn = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return ParticleEnsemble(xn, time=ens.time + dt)


def step_count(T: float, dt: float) -> int:
    """Uniform steps of at most dt that reach T (at least one); the count both solvers and validation use."""
    if not (T > 0 and dt > 0):
        raise ValueError(f"T and dt must be positive, got T={T}, dt={dt}")
    return max(1, int(np.ceil(T / dt - 1e-12)))


def step_plan(T: float, dt: float | None, record_every: int, kernel: MollifierSpec, model: EnergyModel) -> tuple:
    """(n_steps, dt) simulate integrates: step_count(T, dt) steps of T / n_steps, dt=None taking stable_dt."""
    if dt is None:
        dt = stable_dt(kernel, model)
    n_steps = step_count(T, dt)
    if n_steps % record_every != 0:
        raise ValueError(f"record_every={record_every} must divide the {n_steps} steps")
    return n_steps, T / n_steps


def stable_dt(kernel: MollifierSpec, model: EnergyModel) -> float:
    """Default step: min(0.1 eps^2, reciprocal convexity-modulus heuristic)."""
    dt = 0.1 * kernel.eps ** 2
    if model.m > 1:
        from .reference import lambda_convexity

        lam = abs(lambda_convexity(kernel, model).lam)
        dt = min(dt, 1.0 / lam)
    return dt


def simulate(
    initial: ParticleEnsemble,
    kernel: MollifierSpec,
    model: EnergyModel,
    T: float,
    dt: float | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
    integrator: str = "rk4",
    record_every: int = 1,
) -> Trajectory:
    """Integrate the blob ODE to time T, recording every record_every steps.

    A recorded snapshot is deposited once: its energy diagnostic and the
    next step's first-stage velocity read the same deposit.  With a pinned
    quadrature domain, a particle reaching the boundary ring, at a step or
    at a snapshot, aborts the run (DomainEscapeError, carrying the snapshots
    recorded before) rather than truncating integrals.  The W2 step between
    snapshots is ``transport.w2``; above the assignment cap (d > 1) it is NaN.
    """
    n_steps, dt = step_plan(T, dt, record_every, kernel, model)

    def w2(a, b):
        try:
            return transport.w2(a, b)
        except SizeLimitError:
            return float("nan")

    def record(ens, last):
        """Append the snapshot and its diagnostics; return the next step's first-stage velocity, unless last."""
        dw_step = w2(snapshots[-1][1], ens) if snapshots else 0.0  # first, so its (N, N) cost never meets the deposit's pairs
        dep = mollified_density(ens.positions, kernel, quad.grid_for(ens.positions, kernel))
        diagnostics.append({
            "t": ens.time,
            "energy": energy_on_grid(dep, model),
            "m2": transport.m2(ens),
            "com": ens.center_of_mass(),
            "dw_step": dw_step,
        })
        snapshots.append((ens.time, ens))
        return None if last else velocity_on_grid(dep, model)

    snapshots, diagnostics = [], []
    ens = replace(initial, time=0.0)
    k1 = record(ens, False)
    for k in range(1, n_steps + 1):
        try:
            ens = step(ens, dt, kernel, model, quad, integrator, k1)
            k1 = record(ens, k == n_steps) if k % record_every == 0 else None
        except CoverageError as exc:
            raise DomainEscapeError(
                f"particles escaped the quadrature box at step {k} (t={k * dt:.6g}): {exc}",
                Trajectory(snapshots=snapshots, diagnostics=diagnostics),
            ) from exc
    return Trajectory(snapshots=snapshots, diagnostics=diagnostics)


def initial_sampler(kind: str, density, n: int) -> ParticleEnsemble:
    """Deterministic initial placement for a reference density.

    ``quantile`` places x_i = Q((i - 1/2)/N) through the density's quantile
    function ``cdf_inverse`` (1d), or the tensor product of per-axis
    quantiles for product densities (N must then be a perfect square).  The
    self-similar profile's quantiles are exact to round-off and keep no
    table (``BarenblattProfile.cdf_inverse``).  ``uniform_grid`` spreads
    midpoints evenly over a compact support.
    """
    if kind not in ("quantile", "uniform_grid"):
        raise UnsupportedDensityError(f"unknown sampler kind {kind!r}")
    axes = getattr(density, "axes", None)
    if axes is not None:  # product density in d = 2
        side = int(round(np.sqrt(n)))
        if side * side != n:
            raise UnsupportedDensityError("product densities need a square particle count")
        cols = [initial_sampler(kind, ax, side).positions[:, 0] for ax in axes]
        xx, yy = np.meshgrid(cols[0], cols[1], indexing="ij")
        return ParticleEnsemble(np.stack([xx.ravel(), yy.ravel()], axis=-1))
    q = (np.arange(n) + 0.5) / n
    if kind == "quantile":
        ppf = getattr(density, "cdf_inverse", None)
        if ppf is None:
            raise UnsupportedDensityError(
                f"{type(density).__name__} has no quantile function; cannot place particles"
            )
        return ParticleEnsemble(np.asarray(ppf(q), dtype=float)[:, None])
    support = getattr(density, "support", None)
    if support is None:
        raise UnsupportedDensityError(
            f"{type(density).__name__} has no compact support; uniform_grid needs one"
        )
    a, b = support()
    if not (np.isfinite(a) and np.isfinite(b)):
        raise UnsupportedDensityError("uniform_grid needs a bounded support")
    return ParticleEnsemble((a + (b - a) * q)[:, None])

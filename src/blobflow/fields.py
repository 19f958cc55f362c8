"""Grid reconstructions of particle measures and weak-form diagnostics.

The mollified reconstruction v = V_eps * rho^N turns an atomic measure
into a smooth gridded density.  On top of it live the diagnostics that
track how far a run sits from the local diffusion equation: the commutator
error term

    z(x) = (V_eps * (rho grad phi))(x) - grad phi(x) (V_eps * rho)(x)
         = (1/N) sum_j V_eps(x - x_j) [grad phi(x_j) - grad phi(x)],

whose L1 norm is bounded by eps ||D^2 phi||_inf m1(V_1) and decays
linearly in eps, the Sobolev dissipation seminorm int |grad v^{m/2}|^2,
and the weak-form residuals of the nonlocal and local equations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, mollified_density
from .errors import CoverageError
from .grids import Grid, GridField, QuadratureSpec, cover_points
from .kernels import MollifierSpec, kernel_moments
from .particles import ParticleEnsemble, Trajectory, velocity

CLAMP = 1e-14  # values below this are treated as exact zeros before powering


def mollify(ens: ParticleEnsemble, kernel: MollifierSpec, grid: Grid) -> GridField:
    """V_eps * rho^N sampled on the grid; mass is ~1 when coverage holds."""
    if not grid.covers(ens.positions, margin=kernel.padding_radius()):
        raise CoverageError("grid does not cover the ensemble padded by the kernel support")
    return GridField(grid, mollified_density(ens.positions, kernel, grid).density.reshape(grid.shape))


def mollify_auto(ens: ParticleEnsemble, kernel: MollifierSpec, quad: QuadratureSpec = QuadratureSpec()) -> GridField:
    """mollify on a fresh grid covering the ensemble plus kernel support."""
    return mollify(ens, kernel, quad.grid_for(ens.positions, kernel))


# ---------------------------------------------------------------------------
# closed-form C^2 test functions

@dataclass(frozen=True)
class TestFunction:
    """Radial C^2 test function with exact derivative bounds.

    ``gaussian_bump``: exp(-r^2 / (2 w^2)); numerically supported in 8w.
    ``poly_bump``:     (1 - r^2 / w^2)^3 on r < w, zero outside (exact).

    The closed-form sup norms of the gradient and Hessian make the error
    term's L1 bound a sharp, assertable inequality.
    """

    family: str
    center: np.ndarray
    width: float

    __test__ = False  # not a pytest collectable despite the name

    def __post_init__(self):
        if self.family not in ("gaussian_bump", "poly_bump"):
            raise ValueError(f"unknown test-function family {self.family!r}")
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if self.width <= 0:
            raise ValueError("width must be positive")

    @property
    def d(self) -> int:
        return self.center.size

    def _u(self, x):
        x = np.asarray(x, dtype=float)
        if self.d == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x[..., None]
        return (x - self.center) / self.width

    def value(self, x):
        u = self._u(x)
        r2 = np.sum(u * u, axis=-1)
        if self.family == "gaussian_bump":
            return np.exp(-0.5 * r2)
        return np.maximum(1.0 - r2, 0.0) ** 3

    def grad(self, x):
        u = self._u(x)
        r2 = np.sum(u * u, axis=-1)
        if self.family == "gaussian_bump":
            g = -np.exp(-0.5 * r2) / self.width
        else:
            g = -6.0 * np.maximum(1.0 - r2, 0.0) ** 2 / self.width
        return u * g[..., None]

    def sup_grad(self) -> float:
        if self.family == "gaussian_bump":
            return np.exp(-0.5) / self.width
        return (96.0 / (25.0 * np.sqrt(5.0))) / self.width

    def sup_hess(self) -> float:
        """Operator-norm sup of the Hessian (attained at the center)."""
        if self.family == "gaussian_bump":
            return 1.0 / self.width ** 2
        return 6.0 / self.width ** 2

    def support_radius(self) -> float:
        return self.width if self.family == "poly_bump" else 8.0 * self.width


# ---------------------------------------------------------------------------
# error term

@dataclass(frozen=True)
class ErrorTermReport:
    field: np.ndarray  # grid.shape + (d,) components of z
    l1_norm: float
    l1_bound: float  # ||D^2 phi|| * m1(V_eps) = eps ||D^2 phi|| m1(V_1)
    pointwise_ok: bool  # |z| <= 2 ||grad phi|| v at every node


def error_term_grid(positions, kernel: MollifierSpec, phi: TestFunction, quad: QuadratureSpec) -> Grid:
    """Grid for error_term_z: the nodes within one kernel support of the ensemble (z vanishes beyond),
    cropped from the lattice of quad's spacing (never its pinned domain) around the ensemble and phi's centre padded by
    supp phi + 3 kernel supports, one box wide at least."""
    reach = kernel.padding_radius()
    pts = np.vstack([positions, phi.center[None, :]])
    pad = phi.support_radius() + 2.0 * reach
    grid = cover_points(np.vstack([pts - pad, pts + pad]), reach, quad.spacing(kernel))
    lo = np.floor((np.min(positions, axis=0) - reach - grid.origin) / grid.spacing)
    hi = np.ceil((np.max(positions, axis=0) + reach - grid.origin) / grid.spacing)
    return Grid(grid.origin + lo * grid.spacing, grid.spacing, hi - lo + 1).widened(reach)


def error_term_z(
    ens: ParticleEnsemble,
    kernel: MollifierSpec,
    phi: TestFunction,
    grid: Grid,
) -> ErrorTermReport:
    """Commutator error z = V_eps*(rho grad phi) - (grad phi) V_eps*rho."""
    if not grid.covers(ens.positions, margin=kernel.padding_radius()):
        raise CoverageError("grid does not cover the ensemble padded by the kernel support")
    gp_part = phi.grad(ens.positions)  # (N, d)
    gp_node = phi.grad(grid.nodes())  # (G, d)
    dep = mollified_density(ens.positions, kernel, grid, carry=gp_part)  # carried: N V_eps * (rho grad phi)
    z = dep.carried / ens.n - dep.density[:, None] * gp_node
    znorm = np.sqrt(np.sum(z * z, axis=-1))
    l1 = grid.integrate(znorm)
    mom = kernel_moments(kernel)
    bound = phi.sup_hess() * mom.m1
    ptwise = bool(np.all(znorm <= 2.0 * phi.sup_grad() * dep.density + 1e-12 * mom.sup_v))
    return ErrorTermReport(
        field=z.reshape(grid.shape + (ens.d,)),
        l1_norm=l1,
        l1_bound=bound,
        pointwise_ok=ptwise,
    )


# ---------------------------------------------------------------------------
# Sobolev dissipation seminorm

def sobolev_seminorm_m2(field: GridField, m: float) -> float:
    """int |grad (field^{m/2})|^2 by central differences.

    For 1 < m < 2 the root field^{m/2} is not differentiable where the
    field vanishes; values below CLAMP are zeroed before powering and the
    integrand is dropped on nodes whose neighbours along the axis all
    clamp, mirroring the restriction of the dissipation integral to the
    positivity set.
    """
    v = np.where(field.values > CLAMP, field.values, 0.0)
    w = v ** (0.5 * m)
    zero = v == 0.0
    integrand = np.zeros_like(w)
    for axis, deriv in enumerate(GridField(field.grid, w).gradient()):
        dead = zero & _neighbours_zero(zero, axis)
        deriv = np.where(dead, 0.0, deriv)
        integrand += deriv ** 2
    return field.integrate(integrand)


def _neighbours_zero(zero: np.ndarray, axis: int) -> np.ndarray:
    """True where both neighbours along axis are zero; beyond the grid's edge counts as zero."""
    pad = [(0, 0)] * zero.ndim
    pad[axis] = (1, 1)
    padded = np.pad(zero, pad, constant_values=True)
    lead = (slice(None),) * axis
    return padded[lead + (slice(None, -2),)] & padded[lead + (slice(2, None),)]


# ---------------------------------------------------------------------------
# weak-form residuals

def weak_form_residual(
    traj: Trajectory,
    kernel: MollifierSpec,
    model: EnergyModel,
    phi: TestFunction,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """|LHS - RHS| of the nonlocal weak form per recorded interval.

    LHS(t) = mean phi(x_i(t)) - mean phi(x_i(0)); RHS integrates the
    transport pairing mean grad phi(x_i) . v_i in time by the trapezoid
    rule over the recorded snapshots.
    """
    times = traj.times()
    pairing = np.empty(times.size)
    lhs = np.empty(times.size)
    phi0 = float(np.mean(phi.value(traj.snapshots[0][1].positions)))
    for k, (_, ens) in enumerate(traj.snapshots):
        vel = velocity(ens, kernel, model, quad)
        pairing[k] = float(np.mean(np.sum(phi.grad(ens.positions) * vel, axis=1)))
        lhs[k] = float(np.mean(phi.value(ens.positions))) - phi0
    return _time_residuals(lhs, pairing, times)


def local_weak_form_residual(
    series,
    model: EnergyModel,
    phi: TestFunction,
) -> np.ndarray:
    """|LHS - RHS| of the local diffusion weak form on gridded densities.

    series is an iterable of (t, GridField) on one common grid, each field
    read once, as it comes, so a generator holds one field at a time.
    LHS(t) = int phi (v_t - v_0); RHS(t) = - int_0^t int grad phi . grad P(v_s),
    with grad P(v) by central differences and trapezoid time quadrature.
    """
    times, spatial, lhs = [], [], []
    for t, fld in series:
        if not times:  # phi and its gradient on the nodes every field shares, and int phi v_0
            grid = fld.grid
            nodes = grid.nodes()
            phiv = phi.value(nodes).reshape(grid.shape)
            gp = phi.grad(nodes)
            gp_comps = [gp[:, a].reshape(grid.shape) for a in range(grid.d)]
            base = fld.integrate(phiv * fld.values)
        elif fld.grid.shape != grid.shape:
            raise ValueError("all fields must share one grid")
        press = GridField(grid, model.pressure(fld.values))
        integrand = np.zeros(grid.shape)
        for comp, deriv in zip(gp_comps, press.gradient()):
            integrand += comp * deriv
        times.append(t)
        spatial.append(fld.integrate(integrand))
        lhs.append(fld.integrate(phiv * fld.values) - base)
    return _time_residuals(np.array(lhs), -np.array(spatial), np.array(times))


def _time_residuals(lhs: np.ndarray, rate: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|lhs(t_k) - int_0^{t_k} rate dt| with one cumulative trapezoid pass."""
    steps = np.cumsum(np.diff(times) * (rate[1:] + rate[:-1]) / 2.0)
    return np.abs(lhs - np.concatenate(([0.0], steps)))

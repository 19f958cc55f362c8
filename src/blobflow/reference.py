"""Reference solutions, convexity constants, and analytic lower bounds.

The self-similar compactly-supported profile

    rho(t, x) = t^{-a} (C - k |x|^2 t^{-2b})_+^{1/(m-1)},
    a = d/(d(m-1)+2),  b = a/d,  k = a(m-1)/(2 d m),

solves the slow-diffusion equation for m > 1; C is fixed by the total
mass through a Beta-function integral.  It is the analytic benchmark for
every convergence study here, backed by an independent implicit
finite-difference oracle for the same equation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .energy import EnergyModel, regularized_energy
from .errors import ConvergenceError
from .grids import GridField, cover_points
from .jko import alpha_for_dim, moment_interpolation_constant
from .kernels import MollifierSpec, kernel_moments
from .transport import m2 as ensemble_m2


# ---------------------------------------------------------------------------
# density profiles (quantile functions feed the particle samplers)

@dataclass(frozen=True)
class UniformDensity:
    a: float = 0.0
    b: float = 1.0

    def cdf_inverse(self, q):
        return self.a + (self.b - self.a) * np.asarray(q, dtype=float)

    def support(self):
        return self.a, self.b


@dataclass(frozen=True)
class GaussianDensity:
    sigma2: float = 1.0
    center: float = 0.0

    def cdf_inverse(self, q):
        from scipy.special import erfinv  # ~0.3 s to import; only gaussian initial data needs it

        q = np.asarray(q, dtype=float)
        return self.center + np.sqrt(2.0 * self.sigma2) * erfinv(2.0 * q - 1.0)


@dataclass(frozen=True)
class ProductDensity:
    """Tensor product of two 1d profiles (d = 2 initial data)."""

    axes: tuple

    def __post_init__(self):
        if len(self.axes) != 2 or any(isinstance(a, ProductDensity) for a in self.axes):
            raise ValueError("a product density needs exactly two one-dimensional axis densities")


@lru_cache(maxsize=16)
def _jacobi_rule(n: int, b: float):
    """n-point Gauss-Jacobi nodes on [-1, 1] and weights summing to 1 for the weight (1 + x)^b, b > 0, read-only.

    Golub-Welsch: the nodes are the eigenvalues of the weight's symmetric
    tridiagonal Jacobi matrix and the weights the squared first components
    of its unit eigenvectors.  The rule is computed once per (n, b): one
    eigendecomposition is 0.3 ms on one BLAS thread but 11-16 ms on two.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + b
    diag = b * b / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _front_mass(u, p: float, rule):
    """int_0^u sin(s)^p ds for each angle u in [0, pi/2].

    sin(s)^p = s^p (sin(s)/s)^p: the Gauss-Jacobi rule of weight (1 + x)^p
    takes the s^p, which a Gauss-Legendre rule converges on only
    algebraically for fractional p, and (sin(s)/s)^p is analytic beyond
    [0, pi/2], so 48 nodes leave round-off relative to the result at every u.
    The (angles, nodes) products are formed 4096 angles at a time, so a
    large ensemble's quantiles take a few MB, not 48 copies of the ensemble.
    """
    nodes, weights = rule
    flat = np.ravel(u)
    sums = np.empty_like(flat)
    for lo in range(0, flat.size, 4096):
        block = slice(lo, lo + 4096)
        s = flat[block, None] * (0.5 * (1.0 + nodes))
        sinc = np.divide(np.sin(s), s, out=np.ones_like(s), where=s > 0)
        sums[block] = sinc**p @ weights
    return u ** (p + 1.0) / (p + 1.0) * sums.reshape(np.shape(u))


@dataclass(frozen=True)
class BarenblattProfile:
    """Self-similar slow-diffusion profile of unit (or given) mass."""

    m: float
    d: int = 1
    mass: float = 1.0
    t0: float = 1.0

    def __post_init__(self):
        if not self.m > 1:
            raise ValueError("the self-similar profile needs m > 1")
        if self.t0 <= 0:
            raise ValueError("time offset must be positive")

    @property
    def alpha(self) -> float:
        return self.d / (self.d * (self.m - 1) + 2.0)

    @property
    def beta(self) -> float:
        return self.alpha / self.d

    @property
    def k(self) -> float:
        return self.alpha * (self.m - 1) / (2.0 * self.d * self.m)

    @property
    def front_constant(self) -> float:
        """C fixed so that the profile carries the requested mass.

        mass = C^{1/(m-1)+d/2} k^{-d/2} pi^{d/2}/Gamma(d/2) B(d/2, m/(m-1)),
        and with B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) the Gamma(d/2) cancels.
        """
        m, d = self.m, self.d
        b = m / (m - 1.0)
        shape = np.pi ** (d / 2.0) * math.gamma(b) / math.gamma(d / 2.0 + b)
        return float((self.mass * self.k ** (d / 2.0) / shape) ** (1.0 / (1.0 / (m - 1.0) + d / 2.0)))

    def support_radius(self, t: float = 0.0) -> float:
        s = t + self.t0
        return float(np.sqrt(self.front_constant / self.k) * s ** self.beta)

    def density(self, t, x):
        """Profile density at shifted time t (absolute time t + t0)."""
        s = t + self.t0
        if s <= 0:
            raise ValueError("profile evaluated before its initial singularity")
        x = np.asarray(x, dtype=float)
        r2 = x * x if self.d == 1 else np.sum(x * x, axis=-1)
        core = np.maximum(self.front_constant - self.k * r2 * s ** (-2 * self.beta), 0.0)
        return s ** (-self.alpha) * core ** (1.0 / (self.m - 1.0))

    def sample_field(self, t: float, spacing: float) -> GridField:
        """The profile on a lattice covering its support padded by 0.5."""
        grid = cover_points(np.zeros((1, self.d)), self.support_radius(t) + 0.5, spacing)
        return GridField(grid, self.density(t, grid.nodes()).reshape(grid.shape))

    def cdf_inverse(self, q, t: float = 0.0):
        """Exact quantiles of the 1d profile at shifted time t.

        With x = R sin(phi), R the support radius, the profile's mass density
        in phi is proportional to cos(phi)^p, p = 2/(m-1) + 1, and a half
        carries sqrt(pi) Gamma((p+1)/2) / (2 Gamma(p/2+1)); the CDF is a
        regularized incomplete beta function (NIST DLMF 8.17).  The quantile
        is solved on the mass beyond x on its own side, 2 min(q, 1-q) of a
        half, as the angle u = pi/2 - |phi| from the front: a 257-knot table
        of that mass starts 4 Newton steps on ``_front_mass``, and
        x = sign(2q - 1) R cos(u).  2 min(q, 1-q) is exact in floating point
        for every q in [0, 1], so the quantiles agree with the closed form at
        m = 2 to round-off of R even next to the fronts, and Q(1 - q) = -Q(q)
        holds bit for bit wherever 1 - q is exact (every q >= 1/2).  q
        outside [0, 1] maps to the nearer front.
        """
        if self.d != 1:
            raise ValueError("quantiles implemented for d = 1")
        q = np.asarray(q, dtype=float)
        p = 2.0 / (self.m - 1.0) + 1.0
        half = math.sqrt(math.pi) * math.gamma((p + 1.0) / 2.0) / (2.0 * math.gamma(p / 2.0 + 1.0))
        rule = _jacobi_rule(48, p)
        target = half * np.clip(2.0 * np.minimum(q, 1.0 - q), 0.0, 1.0)
        # the front mass grows like u^(p+1) / (p+1), so its (p+1)-th root is close to linear in u
        knots = np.linspace(0.0, 0.5 * np.pi, 257)
        root = 1.0 / (p + 1.0)
        u = np.interp(target**root, _front_mass(knots, p, rule) ** root, knots)
        for _ in range(4):
            slope = np.sin(u) ** p
            step = np.divide(_front_mass(u, p, rule) - target, slope, out=np.zeros_like(u), where=slope > 0)
            u = np.clip(u - step, 0.0, 0.5 * np.pi)
        return np.sign(2.0 * q - 1.0) * self.support_radius(t) * np.cos(u)

    def support(self):
        r = self.support_radius()
        return -r, r

    def quantile_ensemble(self, n: int, t: float = 0.0):
        from .particles import ParticleEnsemble

        q = (np.arange(n) + 0.5) / n
        return ParticleEnsemble(self.cdf_inverse(q, t)[:, None], time=max(t, 0.0))


def heat_solution(t: float, x, sigma2: float):
    """1d heat flow of a centred gaussian: variance sigma2 + 2t."""
    if t < 0:
        raise ValueError("heat flow runs forward in time")
    var = sigma2 + 2.0 * t
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x * x) / var) / (2.0 * np.pi * var) ** 0.5


# ---------------------------------------------------------------------------
# finite-difference oracle for the local equation

def fd_pme_oracle(initial: GridField, m: float, T: float, dt: float) -> list:
    """Implicit-Euler / Newton solve of d_t u = Lap(u^m) with zero ends.

    Second-order centred Laplacian on the field's grid, full Newton on the
    nonlinearity with tridiagonal solves (at most 50 iterations to a
    residual of 1e-12 per step), each started from the linear extrapolation
    max(2 u^n - u^{n-1}, 0) of the last two steps.  The update is in
    divergence form, so interior mass is conserved to solver tolerance.
    The tridiagonal systems go straight to LAPACK's ``dgtsv``, the routine
    ``scipy.linalg.solve_banded`` calls for one band either side, without
    its per-call input checks.  Returns [(0, initial), (T, final)].
    """
    from scipy.linalg.lapack import dgtsv  # ~0.3 s to import; only this oracle needs it

    if initial.d != 1:
        raise ValueError("the finite-difference oracle is one-dimensional")
    h = initial.grid.spacing
    u = initial.values.copy()
    n = u.size
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise ValueError("dt must divide T")
    lam = dt / h ** 2
    ab = np.zeros((3, n))
    u_prev = u
    for step_ix in range(1, n_steps + 1):
        un = u
        v = np.maximum(2.0 * u - u_prev, 0.0)
        for _ in range(50):
            vc = np.maximum(v, 0.0)
            vm = vc ** m
            dvm = m * vc ** (m - 1.0)
            res = v - un
            res[1:-1] -= lam * (vm[2:] - 2.0 * vm[1:-1] + vm[:-2])
            res[0] = v[0]
            res[-1] = v[-1]
            if np.max(np.abs(res)) < 1e-12:
                break
            ab[1, :] = 1.0 + 2.0 * lam * dvm
            ab[0, 1:] = -lam * dvm[1:]
            ab[2, :-1] = -lam * dvm[:-1]
            ab[1, 0] = ab[1, -1] = 1.0
            ab[0, 1] = ab[2, -2] = 0.0
            dx, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], res)[3:]
            if info:
                raise ConvergenceError(f"singular Newton system at step {step_ix} (dgtsv info {info})")
            v = v - dx
        else:
            raise ConvergenceError(
                f"Newton stalled at step {step_ix} with residual {np.max(np.abs(res)):.3e}",
                residual=float(np.max(np.abs(res))),
            )
        u_prev, u = u, v
    return [(0.0, initial), (n_steps * dt, GridField(initial.grid, u))]


# ---------------------------------------------------------------------------
# convexity modulus and stability

def lambda_convexity(kernel: MollifierSpec, model: EnergyModel) -> float:
    """Displacement-convexity modulus lambda = -c2 ||D^2 V_eps|| ||V_eps||^{m-2} / (m-1)."""
    if model.m <= 1:
        raise ValueError("the convexity modulus formula needs m > 1")
    mom = kernel_moments(kernel)
    return -model.c2 * mom.sup_d2v * mom.sup_v ** (model.m - 2.0) / (model.m - 1.0)


def stability_bound(lam: float, t: float, dw0: float) -> float:
    """Gradient-flow stability envelope exp(-lambda t) * dW(0)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(np.exp(-lam * t) * dw0)


# ---------------------------------------------------------------------------
# analytic lower bound of the mollified energy

def negative_part_constants(model: EnergyModel, alpha: float) -> tuple[float, float]:
    """(c1, c2) with F^-(s) <= c1 s + c2 s^alpha.

    Power laws are nonnegative, so both vanish.  For the entropy,
    sup_s -s^{1-alpha} log s = 1/(e (1-alpha)).
    """
    if model.kind == "power":
        return 0.0, 0.0
    return 0.0, 1.0 / (np.e * (1.0 - alpha))


def lower_bound_check(rho, kernel: MollifierSpec, model: EnergyModel) -> bool:
    """True when E_eps[rho] >= -c1 - 4 c2 C_{d,alpha}(1 + eps^2 m2(V1) + m2(rho))^alpha, up to 1e-6 (1 + |rhs|)."""
    alpha = alpha_for_dim(kernel.d)
    c_da = moment_interpolation_constant(kernel.d)
    c1, c2 = negative_part_constants(model, alpha)
    if isinstance(rho, GridField):
        mom2 = rho.moment2()
    else:
        mom2 = ensemble_m2(rho)
    lhs = regularized_energy(rho, kernel, model)
    rhs = -c1 - 4.0 * c2 * c_da * (1.0 + kernel_moments(kernel).m2 + mom2) ** alpha
    return bool(lhs >= rhs - 1e-6 * (1.0 + abs(rhs)))

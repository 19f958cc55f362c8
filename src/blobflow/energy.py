"""Internal-energy integrands and the mollified energy functional.

Two integrand families are supported:

* ``power``   -- F(x) = x^m / (m-1) for an exponent m > 1, whose gradient
  flow is the slow-diffusion equation with pressure P(x) = x^m;
* ``entropy`` -- F(x) = x log x (continuously extended by 0 at x = 0),
  the m = 1 end of the scale, with pressure P(x) = x (heat equation).

Both satisfy the two-sided curvature bound c1 x^{m-2} <= F''(x) <= c2 x^{m-2}
with equality (c1 = c2 = m for power laws, 1 for the entropy).

The mollified functional evaluated here is

    E_eps[rho] = int F((V_eps * rho)(x)) dx,

computed by trapezoid quadrature on a grid tied to the kernel width.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import EnergyDomainError
from .grids import Grid, GridField, QuadratureSpec, contract
from .kernels import MollifierSpec, value_and_grad_factor, value_on_pairs

KINDS = ("power", "entropy")


@dataclass
class EnergyModel:
    """Integrand F with derivatives, pressure, and curvature constants.

    ``neg_prime_calls`` counts requests for F' at negative arguments; the
    mollified density is nonnegative by construction, so a nonzero count
    flags a bug upstream (asserted zero in the subquadratic runs).
    """

    kind: str
    m: float = 1.0
    neg_prime_calls: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown energy kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "power":
            if not self.m > 1:
                raise ValueError(f"power-law exponent must exceed 1, got {self.m}")
        else:
            self.m = 1.0

    @property
    def c1(self) -> float:
        return self.m if self.kind == "power" else 1.0

    @property
    def c2(self) -> float:
        return self.m if self.kind == "power" else 1.0

    # -- pointwise integrand ------------------------------------------------

    def f_eval(self, x):
        """F(x) for densities x >= 0 (negative inputs are clipped to 0)."""
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        if self.kind == "power":
            return x ** self.m / (self.m - 1.0)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] * np.log(x[pos])
        return out if out.ndim else float(out)

    def f_prime(self, x):
        """F'(x); F'(0) = 0 for power laws, undefined for the entropy."""
        x = np.asarray(x, dtype=float)
        neg = int(np.count_nonzero(x < 0.0))
        if neg:
            self.neg_prime_calls += neg
            x = np.maximum(x, 0.0)
        if self.kind == "power":
            return self.m / (self.m - 1.0) * x ** (self.m - 1.0)
        if np.any(x <= 0.0):
            raise EnergyDomainError("entropy F' is undefined at zero density")
        return np.log(x) + 1.0

    def pressure(self, x):
        """P(x) = x F'(x) - F(x): x^m for power laws, x for the entropy."""
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        if self.kind == "power":
            return x ** self.m
        return x


@dataclass(frozen=True)
class Deposit:
    """One state's V_eps * rho^N on a grid, with what the velocity gathers through.

    The energy reads ``density``, the velocity gathers values on the grid
    back through ``contract``, and the error term reads ``carried``.  The
    2d gaussian keeps its whole ``Window``, which holds (N, 2) per-point
    numbers only, and the 1d profile it evaluates per axis: the gather forms
    each chunk's offsets, factors and dense rows again, as the deposit did,
    and lets them go.  Otherwise each row block keeps its ``Window`` and its
    (rows, W^d) g_eps, the bump's the one full-size pair array kept.  The
    V_eps values are dead once deposited.
    """

    grid: Grid
    kernel: MollifierSpec
    pairs: tuple  # (window, per-axis factors) for the 2d gaussian, else per row block (``Window.blocks``) (its Window, g_eps)
    density: np.ndarray  # flat (G,) (1/N) sum_j V_eps(node - x_j)
    carried: np.ndarray | None  # (G, m) sum_j V_eps(node - x_j) carry[j], when a carry was given

    def contract(self, values: np.ndarray) -> np.ndarray:
        """(N, d) sums of grad V_eps(node - x_j) times the flat (G,) values over each particle's box, by the deposit's route.

        grad V_eps(node - x) = (node - x) g_eps(|node - x|^2): the 2d gaussian
        takes it per axis (``Window.contract_axes``); otherwise each row block
        reads the values on its boxes (``Window.gather``), times its g_eps,
        and sums the offsets one axis at a time (``grids.contract``).
        """
        if self.kernel.separable and self.kernel.d == 2:
            win, factors = self.pairs
            return win.contract_axes(values, factors)
        out = []
        for blk, g in self.pairs:
            box = blk.gather(values)
            box *= g
            out.append(contract(blk.off, box))
        return np.concatenate(out)


def mollified_density(positions: np.ndarray, kernel: MollifierSpec, grid: Grid, carry=None) -> Deposit:
    """(1/N) sum_j V_eps(. - x_j) on the grid nodes: each particle adds V_eps onto the nodes within its reach.

    With ``carry`` (N, m), each column is deposited too, weighted by V_eps
    (``Deposit.carried``).  This function picks the route and
    ``Deposit.contract`` follows it.  The 2d gaussian is deposited by matrix
    products of its per-axis factors, the 1d profile on each axis's squared
    offsets, formed chunk by chunk (``Window.deposit_axes``); every other
    kernel is evaluated on each row block's r2 (``Window.blocks``), and the
    block's V_eps is deposited onto the sums so far and let go.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    cols = () if carry is None else carry.T
    win = grid.window(pos, kernel.padding_radius())
    if kernel.separable and kernel.d == 2:
        factors = partial(value_and_grad_factor, replace(kernel, d=1))
        density, *carried = win.deposit_axes(factors, cols)
        pairs = (win, factors)
    else:
        density, carried, pairs = None, [None] * len(cols), []
        for rows, blk in win.blocks():
            v, grad = value_and_grad_factor(kernel, blk.r2())
            pairs.append((blk, grad))
            carried = [blk.deposit(v * c[rows, None], acc) for c, acc in zip(cols, carried)]
            density = blk.deposit(v, density)
    return Deposit(grid, kernel, tuple(pairs), density / len(pos), None if carry is None else np.stack(carried, axis=-1))


def regularized_energy(
    rho,
    kernel: MollifierSpec,
    model: EnergyModel,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """E_eps[rho] = int F(V_eps * rho) by trapezoid quadrature.

    rho may be a particle ensemble / raw position array (grid built around
    the particles, padded by the kernel support) or a 1d GridField (convolved
    on its own grid, extended by the kernel support).
    """
    if isinstance(rho, GridField):
        conv = convolve_field(rho, kernel)
        return conv.integrate(model.f_eval(conv.values))
    positions = getattr(rho, "positions", rho)
    return energy_on_grid(mollified_density(positions, kernel, quad.grid_for(positions, kernel)), model)


def energy_on_grid(dep: Deposit, model: EnergyModel) -> float:
    """E_eps of a deposited ensemble on its grid."""
    return dep.grid.integrate(model.f_eval(dep.density))


def convolve_field(field: GridField, kernel: MollifierSpec) -> GridField:
    """V_eps * field as a discrete convolution of a 1d field on its own grid.

    The result grid is the input grid extended by the kernel's numerical
    support.  The field spacing should resolve the kernel (h <= eps/4) for
    quadrature-grade accuracy; discrete Young's inequality holds regardless.
    Gridded densities are convolved in 1d only; a 2d field raises ValueError.
    """
    if field.d != 1:
        raise ValueError(f"gridded densities are convolved in 1d only; this field is {field.d}d")
    h = field.grid.spacing
    nk = int(np.ceil(kernel.padding_radius() / h))
    taps = value_on_pairs(kernel, h * np.arange(-nk, nk + 1)[:, None]) * h
    vals = np.convolve(field.values, taps, mode="full")
    return GridField(Grid(field.grid.origin - nk * h, h, vals.shape), vals)

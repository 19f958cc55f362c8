"""Mollifier families and their width-scalings.

A smoothing kernel of width ``eps`` is generated from a unit profile by
``V_eps(x) = eps^{-d} V_1(x / eps)``.  The unit profiles on offer are

* ``gaussian`` -- standard normal density.  Unbounded support; for
  quadrature purposes it is truncated at ``GAUSSIAN_TRUNCATION`` widths,
  where the tail mass is below 1e-14.
* ``bump``     -- normalised polynomial bump ``c_d (1 - |x|^2)^3`` on the
  unit ball, identically zero outside.  C^2, compactly supported; this is
  the profile required by the subquadratic diffusion regime.

Both profiles are nonnegative, even, mass one, with finite second moment
and integrable gradient.  ``value_and_grad_factor`` is the one evaluator
of both, on squared distances.  The gaussian is also separable: ``V_eps(x) =
prod_k V^1_eps(x_k)``, a product of 1d profiles, which ``energy`` uses in
2d by evaluating the 1d profile on each axis's squared offsets and
multiplying the axes as matrix products.  Its truncation is per axis: a
pair counts when every ``|x_k| <= 8 eps``, a box that leaves at most
``2 d Q(8)`` of the mass outside (``Q`` the normal tail; 2.5e-15 in
d = 2).  The bump is not a product and is cut to its support ball.
Scalar moments of the unit profile are closed forms (``UNIT_MOMENTS``);
moments of ``V_eps`` follow from the exact scaling laws (``m1`` and ``m2``
scale like ``eps`` and ``eps^2``, sup norms like ``eps^{-d}`` and
``eps^{-d-2}``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

FAMILIES = ("gaussian", "bump")

# Quadrature/padding radius of the unit gaussian; tail mass < 1e-14.
GAUSSIAN_TRUNCATION = 8.0

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class MollifierSpec:
    """A mollifier family member: profile family, dimension, width."""

    family: str
    d: int
    eps: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if type(self.d) is not int or self.d not in (1, 2):
            raise ValueError(f"dimension must be the integer 1 or 2, got {self.d!r}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"kernel width must be positive and finite, got {self.eps}")

    def padding_radius(self) -> float:
        """Radius beyond which the kernel is numerically negligible.

        Exact support radius for the bump family; truncation radius for the
        gaussian family.
        """
        if self.family == "bump":
            return self.eps
        return GAUSSIAN_TRUNCATION * self.eps

    @property
    def separable(self) -> bool:
        """True when V_eps is a product of 1d profiles, one per axis (the gaussian family)."""
        return self.family == "gaussian"


@dataclass(frozen=True)
class KernelMoments:
    """Scalar norms and moments of a scaled kernel V_eps."""

    mass: float
    m1: float
    m2: float
    sup_v: float
    sup_d2v: float
    l1_grad_v: float


# (mass, m1, m2, l1_grad) of the unit profile per (family, d): the integrals of
# V_1, |x| V_1, |x|^2 V_1 and |grad V_1| over R^d.  The gaussian's l1_grad is
# E|X| in both dimensions; the bump's are polynomial integrals on [0, 1].
UNIT_MOMENTS = {
    ("gaussian", 1): (1.0, math.sqrt(2.0 / math.pi), 1.0, math.sqrt(2.0 / math.pi)),
    ("gaussian", 2): (1.0, math.sqrt(math.pi / 2.0), 2.0, math.sqrt(math.pi / 2.0)),
    ("bump", 1): (1.0, 35.0 / 128.0, 1.0 / 9.0, 35.0 / 16.0),
    ("bump", 2): (1.0, 128.0 / 315.0, 1.0 / 5.0, 128.0 / 35.0),
}

# c_d with c_d (1 - |x|^2)^3 of mass one: 1 / (32/35) in d = 1, 1 / (pi/4) in d = 2.
BUMP_NORMALISATION = {1: 35.0 / 32.0, 2: 4.0 / math.pi}


def _unit_sup(family: str, d: int) -> float:
    return float(value_and_grad_factor(MollifierSpec(family, d, 1.0), 0.0)[0])


def _unit_sup_hessian(family: str, d: int) -> float:
    # Operator norm of the unit-profile Hessian, attained at the origin for
    # both families (radial eigenvalue |p''(0)| dominates all r).
    if family == "gaussian":
        return _INV_SQRT_2PI ** d
    return 6.0 * BUMP_NORMALISATION[d]


# ---------------------------------------------------------------------------
# scaled evaluation

def kernel_moments(spec: MollifierSpec) -> KernelMoments:
    """Mass, first and second moments, sup norms and the gradient L1 norm of V_eps."""
    mass, m1_unit, m2_unit, l1g_unit = UNIT_MOMENTS[spec.family, spec.d]
    return KernelMoments(
        mass=mass,
        m1=spec.eps * m1_unit,
        m2=spec.eps ** 2 * m2_unit,
        sup_v=spec.eps ** (-spec.d) * _unit_sup(spec.family, spec.d),
        sup_d2v=spec.eps ** (-spec.d - 2) * _unit_sup_hessian(spec.family, spec.d),
        l1_grad_v=l1g_unit / spec.eps,
    )


def value_and_grad_factor(spec: MollifierSpec, r2) -> tuple:
    """(V_eps, g_eps) at squared distances r2, with grad V_eps(x) = x g_eps(|x|^2).

    Every deposit and gather evaluates the kernel here: on each pair's r2,
    or for the 2d gaussian as the 1d profile (d = 1) on each axis's squared
    offsets, which are V_eps's factors per axis.  V_eps and g_eps share one
    exp (gaussian) or one t = max(1 - r2 / eps^2, 0) (bump), and both are
    exactly 0.0 at r2 = inf, which is how ``Window.r2`` and ``Window.sq``
    mark the pairs that do not count, so no exp underflows.
    r2 is consumed: g_eps is written over its buffer (a float array r2
    becomes g_eps), V_eps into one new array, and each step works in place.
    """
    r2 = np.asarray(r2, dtype=float)
    inv_eps2 = spec.eps ** -2.0
    scale = spec.eps ** (-spec.d)
    if spec.family == "gaussian":
        v = np.exp(np.multiply(r2, -0.5 * inv_eps2, out=r2))
        v *= _INV_SQRT_2PI ** spec.d * scale
        return v, np.multiply(v, -inv_eps2, out=r2)
    t = np.multiply(r2, -inv_eps2, out=r2)
    t += 1.0
    np.maximum(t, 0.0, out=t)
    c = BUMP_NORMALISATION[spec.d] * scale
    v = t * t
    v *= t
    v *= c
    t *= t
    t *= -6.0 * c * inv_eps2
    return v, t


def value_on_pairs(spec: MollifierSpec, diff: np.ndarray) -> np.ndarray:
    """V_eps on an explicit (..., d) array of displacement vectors."""
    u = np.asarray(diff, dtype=float) / spec.eps
    return value_and_grad_factor(replace(spec, eps=1.0), np.einsum("...d,...d->...", u, u))[0] * spec.eps ** (-spec.d)


def grad_on_pairs(spec: MollifierSpec, diff: np.ndarray) -> np.ndarray:
    """grad V_eps on an explicit (..., d) array of displacement vectors."""
    u = np.asarray(diff, dtype=float) / spec.eps
    g = value_and_grad_factor(replace(spec, eps=1.0), np.einsum("...d,...d->...", u, u))[1] * spec.eps ** (-spec.d - 1)
    return u * g[..., None]


def self_convolution(spec: MollifierSpec) -> MollifierSpec:
    """W_eps = V_eps * V_eps, for the gaussian family again a gaussian kernel, of width sqrt(2)*eps.

    The bump family's self-convolution has no closed form and is refused.
    """
    if spec.family != "gaussian":
        raise ValueError("V_eps * V_eps has a closed form for the gaussian family only")
    return replace(spec, eps=np.sqrt(2.0) * spec.eps)

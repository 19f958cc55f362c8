import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from blobflow.kernels import (
    BUMP_NORMALISATION,
    GAUSSIAN_TRUNCATION,
    UNIT_MOMENTS,
    MollifierSpec,
    grad_on_pairs,
    kernel_moments,
    self_convolution,
    value_and_grad_factor,
    value_on_pairs,
)

SPECS_1D = [MollifierSpec("gaussian", 1, 1.0), MollifierSpec("bump", 1, 1.0),
            MollifierSpec("gaussian", 1, 0.37), MollifierSpec("bump", 1, 0.52)]


def test_gaussian_closed_forms():
    g = MollifierSpec("gaussian", 1, 1.0)
    assert value_on_pairs(g, np.array([0.0])) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-15)
    # d/dx of the unit gaussian at x=1 is -x V(x)
    assert grad_on_pairs(g, np.array([1.0]))[0] == pytest.approx(-np.exp(-0.5) / np.sqrt(2 * np.pi), abs=1e-15)
    assert grad_on_pairs(g, np.array([0.0]))[0] == 0.0


def test_bump_compact_support_exact():
    b = MollifierSpec("bump", 1, 0.5)
    assert value_on_pairs(b, np.array([0.6])) == 0.0
    assert value_on_pairs(b, np.array([-0.5])) == 0.0
    assert value_on_pairs(b, np.array([0.49])) > 0.0
    assert grad_on_pairs(b, np.array([0.7]))[0] == 0.0


def test_evenness_2d():
    k = MollifierSpec("gaussian", 2, 0.3)
    assert value_on_pairs(k, np.array([0.1, -0.2])) == value_on_pairs(k, np.array([-0.1, 0.2]))


@given(st.floats(-6, 6), st.sampled_from(["gaussian", "bump"]), st.floats(0.1, 2.0))
def test_even_value_odd_gradient(x, family, eps):
    spec = MollifierSpec(family, 1, eps)
    x = np.array([x])
    assert value_on_pairs(spec, x) == value_on_pairs(spec, -x)
    assert grad_on_pairs(spec, x) == -grad_on_pairs(spec, -x)
    assert value_on_pairs(spec, x) >= 0.0


@given(st.floats(-4, 4), st.sampled_from(["gaussian", "bump"]), st.floats(0.05, 3.0))
def test_scaling_identity(x, family, eps):
    spec = MollifierSpec(family, 1, eps)
    unit = MollifierSpec(family, 1, 1.0)
    expect = value_on_pairs(unit, np.array([x / eps])) / eps
    assert value_on_pairs(spec, np.array([x])) == pytest.approx(expect, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("spec", SPECS_1D, ids=str)
def test_normalization_by_quadrature(spec):
    upper = spec.padding_radius()
    val, err = integrate.quad(lambda x: value_on_pairs(spec, np.array([x])), -upper, upper, limit=200)
    assert abs(val - 1.0) <= 1e-8


@pytest.mark.parametrize("spec", SPECS_1D + [MollifierSpec("gaussian", 2, 0.4), MollifierSpec("bump", 2, 0.8)], ids=str)
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(3)
    h = 1e-5
    worst = 0.0
    for _ in range(40):
        x = rng.uniform(-1.5 * spec.padding_radius(), 1.5 * spec.padding_radius(), size=spec.d)
        g = grad_on_pairs(spec, x)
        for axis in range(spec.d):
            step = np.zeros(spec.d)
            step[axis] = h
            fd = (value_on_pairs(spec, x + step) - value_on_pairs(spec, x - step)) / (2 * h)
            worst = max(worst, abs(g[axis] - fd))
    assert worst <= 1e-6


def test_moments_scaling_laws_exact():
    for family in ("gaussian", "bump"):
        base = kernel_moments(MollifierSpec(family, 1, 1.0))
        scaled = kernel_moments(MollifierSpec(family, 1, 0.5))
        assert scaled.m1 == base.m1 * 0.5
        assert scaled.m2 == base.m2 * 0.25
        assert scaled.sup_v == base.sup_v * 2.0
        assert scaled.sup_d2v == base.sup_d2v * 8.0


def test_gaussian_unit_moments():
    assert kernel_moments(MollifierSpec("gaussian", 1, 1.0)).m2 == pytest.approx(1.0, abs=1e-10)
    assert kernel_moments(MollifierSpec("gaussian", 1, 0.5)).m2 == pytest.approx(0.25, abs=1e-10)
    assert kernel_moments(MollifierSpec("gaussian", 2, 1.0)).m2 == pytest.approx(2.0, abs=1e-9)
    assert kernel_moments(MollifierSpec("gaussian", 1, 1.0)).m1 == pytest.approx(np.sqrt(2 / np.pi), abs=1e-10)


def _radial_quad(profile, d, upper):
    """Integral of profile(|x|) over R^d by adaptive quadrature on the radius (tolerance 1e-12)."""
    weight = (lambda r: 2.0) if d == 1 else (lambda r: 2.0 * np.pi * r)
    return integrate.quad(lambda r: weight(r) * profile(r), 0.0, upper, limit=200, epsabs=1e-12, epsrel=1e-12)[0]


@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_moment_table_matches_radial_quadrature(family, d):
    # the quadrature the closed forms replaced: m1 and m2 of the unit profile, whose mass is one
    unit = MollifierSpec(family, d, 1.0)
    upper = 1.0 if family == "bump" else np.inf
    val = lambda r: float(value_and_grad_factor(unit, r * r)[0])
    assert _radial_quad(val, d, upper) == pytest.approx(1.0, rel=1e-14, abs=0)
    oracle = [_radial_quad(lambda r, p=p: r ** p * val(r), d, upper) for p in (1, 2)]
    np.testing.assert_allclose(UNIT_MOMENTS[family, d], oracle, rtol=1e-14, atol=0)
    if family == "bump":
        raw = _radial_quad(lambda r: (1.0 - r * r) ** 3, d, 1.0)
        assert BUMP_NORMALISATION[d] == pytest.approx(1.0 / raw, rel=1e-14, abs=0)


def test_bump_m2_against_riemann_sum():
    # independent oracle: high-resolution Riemann sum on the exact support
    spec = MollifierSpec("bump", 1, 1.0)
    x = np.linspace(-1, 1, 2_000_001)
    riemann = np.sum(x * x * value_on_pairs(spec, x[:, None])) * (x[1] - x[0])
    mom = kernel_moments(spec)
    assert mom.m2 == pytest.approx(riemann, abs=1e-9)
    assert mom.m2 == pytest.approx(1.0 / 9.0, abs=1e-10)  # closed form of the cubic bump
    assert kernel_moments(MollifierSpec("bump", 2, 1.0)).m2 == pytest.approx(0.2, abs=1e-10)


def test_sup_hessian_matches_sampled_second_differences():
    h = 1e-4
    for spec in (MollifierSpec("gaussian", 1, 1.0), MollifierSpec("bump", 1, 1.0)):
        xs = np.linspace(-1.2, 1.2, 4001)
        v = lambda y: value_on_pairs(spec, y[:, None])
        second = (v(xs + h) - 2 * v(xs) + v(xs - h)) / h**2
        assert kernel_moments(spec).sup_d2v == pytest.approx(np.max(np.abs(second)), rel=1e-4)


def test_self_convolution_gaussian_closed_form():
    w = self_convolution(MollifierSpec("gaussian", 1, 0.2))
    assert isinstance(w, MollifierSpec)
    assert w.eps == pytest.approx(np.sqrt(2) * 0.2, abs=1e-15)


@pytest.mark.parametrize("d", [1, 2])
def test_self_convolution_refuses_the_bump_family(d):
    with pytest.raises(ValueError, match="gaussian family only"):
        self_convolution(MollifierSpec("bump", d, 0.5))


def test_padding_radius():
    assert MollifierSpec("bump", 1, 0.3).padding_radius() == pytest.approx(0.3)
    assert MollifierSpec("gaussian", 1, 0.3).padding_radius() == pytest.approx(GAUSSIAN_TRUNCATION * 0.3)


def test_evenness_bulk_random():
    rng = np.random.default_rng(0)
    for spec in (MollifierSpec("gaussian", 1, 0.7), MollifierSpec("bump", 1, 0.7)):
        x = rng.uniform(-3, 3, size=(1000, 1))
        np.testing.assert_array_equal(value_on_pairs(spec, x), value_on_pairs(spec, -x))
        np.testing.assert_array_equal(grad_on_pairs(spec, x), -grad_on_pairs(spec, -x))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        MollifierSpec("box", 1, 1.0)
    with pytest.raises(ValueError):
        MollifierSpec("gaussian", 3, 1.0)
    with pytest.raises(ValueError):
        MollifierSpec("gaussian", 1, 0.0)


@settings(max_examples=100)
@given(st.sampled_from(["gaussian", "bump"]), st.sampled_from([1, 2]), st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
def test_shared_evaluation_matches_the_displacement_front_ends(family, d, eps, seed):
    # the windows' one evaluation on |x|^2 against value_on_pairs / grad_on_pairs on x, to 1e-14 of the sup scale
    spec = MollifierSpec(family, d, eps)
    diff = np.random.default_rng(seed).uniform(-1.1, 1.1, size=(256, d)) * spec.padding_radius()
    v, g = value_and_grad_factor(spec, np.sum(diff * diff, axis=-1))
    sup = kernel_moments(spec).sup_v
    assert np.max(np.abs(v - value_on_pairs(spec, diff))) <= 1e-14 * sup
    assert np.max(np.abs(diff * g[:, None] - grad_on_pairs(spec, diff))) <= 1e-14 * sup / eps


@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_shared_evaluation_is_exactly_zero_at_infinite_distance(family, d):
    v, g = value_and_grad_factor(MollifierSpec(family, d, 0.3), np.array([np.inf, 0.0]))
    assert v[0] == 0.0 and g[0] == 0.0 and v[1] > 0.0 and g[1] < 0.0

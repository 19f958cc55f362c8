import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blobflow.energy import EnergyModel, convolve_field, regularized_energy
from blobflow.errors import EnergyDomainError
from blobflow.grids import Grid, GridField, QuadratureSpec
from blobflow.kernels import MollifierSpec
from blobflow.particles import ParticleEnsemble


def test_power_m2_closed_forms():
    model = EnergyModel("power", 2.0)
    assert model.f_eval(3.0) == 9.0
    assert model.f_prime(3.0) == 6.0


def test_entropy_closed_forms():
    model = EnergyModel("entropy")
    assert model.f_eval(1.0) == 0.0
    assert model.f_prime(1.0) == 1.0
    assert model.f_eval(0.0) == 0.0
    with pytest.raises(EnergyDomainError):
        model.f_prime(0.0)


def test_prime_at_zero_is_zero_for_power_laws():
    assert EnergyModel("power", 1.5).f_prime(0.0) == 0.0
    assert EnergyModel("power", 2.0).f_prime(0.0) == 0.0


def test_negative_argument_guard_counts():
    model = EnergyModel("power", 1.5)
    model.f_prime(np.array([0.2, -0.1, -0.3]))
    assert model.neg_prime_calls == 2
    model.f_prime(-1.0)
    assert model.neg_prime_calls == 3


def test_pressure_values():
    assert EnergyModel("power", 3.0).pressure(2.0) == 8.0
    assert EnergyModel("entropy").pressure(0.7) == pytest.approx(0.7)
    assert EnergyModel("power", 2.0).pressure(0.0) == 0.0
    assert EnergyModel("entropy").pressure(0.0) == 0.0


@given(
    st.floats(0, 10),
    st.floats(0, 10),
    st.floats(0.001, 0.999),
    st.sampled_from([("power", 1.5), ("power", 2.0), ("power", 3.0), ("entropy", 1.0)]),
)
def test_convexity_probe(a, b, t, kind_m):
    model = EnergyModel(kind_m[0], kind_m[1])
    left = model.f_eval(t * a + (1 - t) * b)
    right = t * model.f_eval(a) + (1 - t) * model.f_eval(b)
    assert left <= right + 1e-12


def test_convexity_probe_bulk_random():
    rng = np.random.default_rng(1)
    for kind, m in (("power", 1.5), ("power", 2.0), ("power", 3.0), ("entropy", 1.0)):
        model = EnergyModel(kind, m)
        a = rng.uniform(0, 10, size=1000)
        b = a + rng.uniform(0, 10, size=1000)
        t = rng.uniform(0, 1, size=1000)
        gap = model.f_eval(t * a + (1 - t) * b) - t * model.f_eval(a) - (1 - t) * model.f_eval(b)
        assert np.max(gap) <= 1e-12


@pytest.mark.parametrize("kind,m", [("power", 1.5), ("power", 2.0), ("power", 3.0), ("entropy", 1.0)])
def test_derivatives_match_finite_differences(kind, m):
    # oracle: f' against differences of f
    model = EnergyModel(kind, m)
    xs = np.linspace(0.01, 10.0, 57)
    h = 1e-5
    fp = (model.f_eval(xs + h) - model.f_eval(xs - h)) / (2 * h)
    assert np.max(np.abs(model.f_prime(xs) - fp) / np.maximum(1, np.abs(fp))) <= 1e-6


@pytest.mark.parametrize("kind,m", [("power", 1.5), ("power", 2.0), ("power", 3.0), ("entropy", 1.0)])
def test_curvature_sandwich_is_equality(kind, m):
    model = EnergyModel(kind, m)
    assert model.c1 == model.c2


def test_single_blob_energy_closed_form():
    # E_eps[delta_0] = int V_eps^2 = 1/(2 eps sqrt(pi)) for the gaussian, m=2
    for eps in (0.5, 0.2):
        val = regularized_energy(
            ParticleEnsemble(np.array([0.0])), MollifierSpec("gaussian", 1, eps), EnergyModel("power", 2.0)
        )
        assert val == pytest.approx(1.0 / (2 * eps * np.sqrt(np.pi)), rel=1e-10)


def test_gaussian_density_energy_closed_form():
    # rho gaussian with variance s2: E_eps = 1/(2 sqrt(pi (s2 + eps^2)))
    s2, eps = 0.7, 0.25
    h = 0.01
    grid = Grid(np.array([-8.0]), h, (1601,))
    x = grid.axes()[0]
    rho = GridField(grid, np.exp(-0.5 * x * x / s2) / np.sqrt(2 * np.pi * s2))
    val = regularized_energy(rho, MollifierSpec("gaussian", 1, eps), EnergyModel("power", 2.0))
    assert val == pytest.approx(1.0 / (2 * np.sqrt(np.pi * (s2 + eps**2))), rel=1e-6)


def test_translation_invariance():
    model = EnergyModel("power", 2.0)
    kernel = MollifierSpec("gaussian", 1, 0.3)
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(20, 1))
    base = regularized_energy(ParticleEnsemble(pos), kernel, model)
    for shift in (0.173, -2.5, 11.0):
        moved = regularized_energy(ParticleEnsemble(pos + shift), kernel, model)
        assert abs(moved - base) <= 1e-8 * (1 + abs(base))


def test_entropy_energy_handles_compact_zero_region():
    # bump-mollified field vanishes off the support; F(0) = 0 extension
    model = EnergyModel("entropy")
    kernel = MollifierSpec("bump", 1, 0.4)
    val = regularized_energy(ParticleEnsemble(np.array([0.0, 0.5])), kernel, model)
    assert np.isfinite(val)


def _indicator_field():
    h = 1 / 512
    grid = Grid(np.array([-0.5]), h, (2 * 512 + 1,))
    x = grid.axes()[0]
    return GridField(grid, np.where((x >= 0) & (x <= 1.0), 1.0, 0.0))


def test_convolved_field_mass_preserved():
    field = _indicator_field()
    conv = convolve_field(field, MollifierSpec("gaussian", 1, 0.1))
    assert conv.mass() == pytest.approx(field.mass(), abs=1e-8)


def test_quadrature_refinement_stability():
    # halving the spacing moves the energy by less than the quadrature tolerance
    ens = ParticleEnsemble(np.array([-0.4, 0.1, 0.9]))
    kernel = MollifierSpec("gaussian", 1, 0.25)
    model = EnergyModel("power", 2.0)
    coarse = regularized_energy(ens, kernel, model, QuadratureSpec(h_over_eps=0.25))
    fine = regularized_energy(ens, kernel, model, QuadratureSpec(h_over_eps=0.125))
    assert abs(coarse - fine) <= 1e-8 * (1 + abs(fine))


def test_model_validation():
    with pytest.raises(ValueError):
        EnergyModel("power", 1.0)
    with pytest.raises(ValueError):
        EnergyModel("weird")
    assert EnergyModel("entropy", 7.0).m == 1.0

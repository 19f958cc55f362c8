"""The dimension-generic grid layer against the per-d code it replaced.

Each oracle below is the explicit d=1 / d=2 formula (or the per-value
row formatter, a hand-written lattice, the per-axis trapezoid rule) that
the single path replaced; the single path must reproduce it exactly, or
to rounding where the summation order changed.
"""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from blobflow.energy import convolve_field
from blobflow.grids import Grid, GridField, QuadratureSpec, cover_points, write_csv
from blobflow.kernels import MollifierSpec, value_on_pairs
from blobflow.reference import BarenblattProfile
from blobflow.runner import emit_reference


def _rows_oracle(header, rows) -> str:
    """The row formatter every artifact went through before write_csv."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    return "".join(line + "\n" for line in lines)


SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1, 1 / 3]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS))
words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789.", min_size=1, max_size=12)


@given(data=st.data(), n=st.integers(0, 30))
def test_write_csv_matches_row_formatter(tmp_path_factory, data, n):
    xs = data.draw(st.lists(floats, min_size=n, max_size=n))
    ids = data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n))
    names = data.draw(st.lists(words, min_size=n, max_size=n))
    ys = data.draw(st.lists(floats, min_size=n, max_size=n))
    fcol, icol, gcol = np.array(xs, dtype=float), np.array(ids, dtype=np.int64), np.array(ys, dtype=float)
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, "x,id,name,y", [fcol, icol, names, gcol])
    rows = [[fcol[i], icol[i], names[i], gcol[i]] for i in range(n)]
    assert path.read_bytes() == _rows_oracle("x,id,name,y", rows).encode()


def test_write_csv_tuple_columns(tmp_path):
    # report.csv / compare.csv hand over the transposed row list
    rows = [[0.4, 40, "auto", "w2_final_vs_reference", 1e-5], [0.2, 40, "auto", "z_eps_l1", -0.0]]
    write_csv(tmp_path / "r.csv", "eps,n,step,metric,value", list(zip(*rows)))
    assert (tmp_path / "r.csv").read_text() == _rows_oracle("eps,n,step,metric,value", rows)


GRIDS = [
    Grid(np.array([-0.37]), 0.013, (57,)),
    Grid(np.array([1.5]), 0.25, (2,)),
    Grid(np.array([-1.1, 0.3]), 0.07, (23, 31)),
    Grid(np.array([0.0, -2.0]), 0.5, (2, 5)),
]


def _nodes_oracle(grid):
    axes = grid.axes()
    if grid.d == 1:
        return axes[0][:, None]
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=-1)


def _weights_oracle(grid):
    per_axis = []
    for n in grid.shape:
        w = np.full(n, grid.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        per_axis.append(w)
    return per_axis[0] if grid.d == 1 else np.outer(per_axis[0], per_axis[1]).ravel()


def _gradient_oracle(field):
    axes = field.grid.axes()
    if field.d == 1:
        return [np.gradient(field.values, axes[0])]
    return list(np.gradient(field.values, axes[0], axes[1]))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}-{'x'.join(map(str, g.shape))}")
def test_generic_geometry_matches_per_dimension_formulas(grid):
    np.testing.assert_array_equal(grid.nodes(), _nodes_oracle(grid))
    np.testing.assert_array_equal(grid.trapezoid_weights(), _weights_oracle(grid))
    values = np.sin(3.0 * grid.nodes()).sum(axis=1).reshape(grid.shape)
    field = GridField(grid, values)
    got, want = field.gradient(), _gradient_oracle(field)
    assert len(got) == len(want) == grid.d
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _convolve_oracle(field, kernel):
    """The per-d body of convolve_field before the lattice rewrite."""
    h = field.grid.spacing
    nk = int(np.ceil(kernel.padding_radius() / h))
    offs = h * np.arange(-nk, nk + 1)
    if field.d == 1:
        return np.convolve(field.values, value_on_pairs(kernel, offs[:, None]) * h, mode="full")
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    return np.maximum(fftconvolve(field.values, value_on_pairs(kernel, np.stack([ox, oy], axis=-1)) * h * h), 0.0)


@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_convolve_field_matches_per_dimension_body(family, d):
    grid = GRIDS[0] if d == 1 else GRIDS[2]
    field = GridField(grid, np.exp(-np.sum(grid.nodes() ** 2, axis=1)).reshape(grid.shape))
    kernel = MollifierSpec(family, d, 0.1)
    got = convolve_field(field, kernel).values
    want = _convolve_oracle(field, kernel)
    if d == 1:
        np.testing.assert_array_equal(got, want)  # direct sums are np.convolve
    else:
        # the taps are scaled by h**2 instead of h*h: one rounding apart
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * np.max(want))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}-{'x'.join(map(str, g.shape))}")
def test_integrate_matches_per_axis_trapezoid(grid):
    values = np.exp(np.cos(2.0 * grid.nodes()).sum(axis=1)).reshape(grid.shape)
    want = values
    for k in range(grid.d - 1, -1, -1):  # the per-axis rule integrate replaced
        want = np.trapezoid(want, grid.axes()[k], axis=k)
    field = GridField(grid, values)
    assert field.integrate() == pytest.approx(float(want), rel=1e-14, abs=0.0)


def _lattice_oracle(lo, hi, h):
    """The hand-written lattice: origin lo, ceil(extent / h) + 1 nodes per axis."""
    return Grid(lo, h, tuple(int(np.ceil((b - a) / h)) + 1 for a, b in zip(lo, hi)))


def _same_lattice(got, want):
    np.testing.assert_array_equal(got.origin, want.origin)
    assert (got.spacing, got.shape) == (want.spacing, want.shape)


@pytest.mark.parametrize("domain", [((-2.0, 3.0),), ((-1.3, 1.1), (0.0, 2.05))])
def test_cover_points_builds_the_pinned_domain_lattice(domain):
    kernel = MollifierSpec("gaussian", len(domain), 0.1)
    dom = np.asarray(domain)
    grid = QuadratureSpec(domain=domain).grid_for(dom.mean(axis=1)[None, :], kernel)
    _same_lattice(grid, _lattice_oracle(dom[:, 0], dom[:, 1], 0.025))


@pytest.mark.parametrize("domain", [((3.0, -3.0),), ((-1.0, 1.0), (2.0, 2.0))])
def test_pinned_domain_must_be_ordered(domain):
    # cover_points would span a reversed box just the same; the spec refuses it
    with pytest.raises(ValueError, match="lo < hi"):
        QuadratureSpec(domain=domain).grid_for(np.zeros((1, len(domain))), MollifierSpec("gaussian", len(domain), 0.1))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t,h", [(0.0, 0.01), (0.3, 0.013), (1.7, 0.002)])
def test_cover_points_builds_the_profile_lattice(d, t, h):
    prof = BarenblattProfile(m=2.0, d=d)
    r = prof.support_radius(t) + 0.5
    n = int(np.ceil(2 * r / h)) + 1
    _same_lattice(prof.sample_field(t, h).grid, Grid(np.full(d, -r), h, (n,) * d))


@pytest.mark.parametrize("sigma2,t,h", [(1.0, 0.0, 0.01), (0.3, 0.2, 0.007), (2.5, 1.1, 0.03)])
def test_cover_points_builds_the_heat_lattice(tmp_path, sigma2, t, h):
    emit_reference("heat", tmp_path / "h.csv", sigma2=sigma2, t=t, spacing=h)
    half = 8.0 * np.sqrt(sigma2 + 2.0 * t)
    n = int(np.ceil(2 * half / h)) + 1
    meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
    _same_lattice(Grid(np.asarray(meta["origin"]), meta["spacing"], meta["extents"]), Grid(np.array([-half]), h, (n,)))


def test_cover_points_builds_the_acceptance_lattices():
    # criterion 12 rounded 2 * half / h; criterion 11 spelt out 601 nodes
    for h in (1 / 128, 1 / 256, 1 / 512):
        want = Grid(np.array([-4.0]), h, (int(round(2 * 4.0 / h)) + 1,))
        _same_lattice(cover_points(np.zeros((1, 1)), 4.0, h), want)
    _same_lattice(cover_points(np.zeros((1, 1)), 6.0, 0.02), Grid(np.array([-6.0]), 0.02, (601,)))

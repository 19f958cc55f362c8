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

from blobflow import grids
from blobflow.energy import convolve_field
from blobflow.errors import CoverageError
from blobflow.fields import TestFunction, error_term_grid
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


@pytest.mark.parametrize("n", [0, grids.CSV_ROWS - 1, grids.CSV_ROWS, grids.CSV_ROWS + 1, 2 * grids.CSV_ROWS + 3])
def test_write_csv_matches_row_formatter_across_chunks(tmp_path, n):
    # the writer formats CSV_ROWS rows at a time; the rows on either side of each cut, and a split into blocks, keep their bytes
    rng = np.random.default_rng(n)
    xs = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    ids = rng.integers(-(2**62), 2**62, n)
    names = [f"w{i % 13}_{i}" for i in range(n)]
    oracle = _rows_oracle("x,id,name", [[xs[i], ids[i], names[i]] for i in range(n)]).encode()
    write_csv(tmp_path / "one.csv", "x,id,name", [xs, ids, names])
    assert (tmp_path / "one.csv").read_bytes() == oracle
    cuts = [0, n // 3, n // 3 + grids.CSV_ROWS + 1, n]
    blocks = ([xs[a:b], ids[a:b], names[a:b]] for a, b in zip(cuts, cuts[1:]))
    write_csv(tmp_path / "blocks.csv", "x,id,name", blocks)
    assert (tmp_path / "blocks.csv").read_bytes() == oracle


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
    """The 1d body of convolve_field before the lattice rewrite."""
    h = field.grid.spacing
    nk = int(np.ceil(kernel.padding_radius() / h))
    offs = h * np.arange(-nk, nk + 1)
    return np.convolve(field.values, value_on_pairs(kernel, offs[:, None]) * h, mode="full")


@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_convolve_field_matches_per_dimension_body(family, d):
    grid = GRIDS[0] if d == 1 else GRIDS[2]
    field = GridField(grid, np.exp(-np.sum(grid.nodes() ** 2, axis=1)).reshape(grid.shape))
    kernel = MollifierSpec(family, d, 0.1)
    if d == 2:  # gridded densities are convolved in 1d only
        with pytest.raises(ValueError, match="convolved in 1d only"):
            convolve_field(field, kernel)
        return
    np.testing.assert_array_equal(convolve_field(field, kernel).values, _convolve_oracle(field, kernel))


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


def _box_nodes(kernel):
    """W, the nodes per axis of one ``Grid.window`` box at the kernel's reach on its default spacing."""
    return 2 * int(np.ceil(kernel.padding_radius() / QuadratureSpec().spacing(kernel))) + 2


def _grown_from(grid, narrow):
    """grid is narrow grown at its upper end to one box per axis: the origin and every node of narrow keep their bits."""
    np.testing.assert_array_equal(grid.origin, narrow.origin)
    assert grid.spacing == narrow.spacing and grid.shape != narrow.shape
    for got, want in zip(grid.axes(), narrow.axes()):
        np.testing.assert_array_equal(got[:len(want)], want)


# bump, eps 0.25: h = 1/32 and R = 1/4, so a box is W = 18 nodes; [-R, R] holds 17, and one particle's auto grid too
BUMP = MollifierSpec("bump", 1, 0.25)


# with these test function widths the error-term crop is 2 ceil(R/h) + 1 nodes per axis, one short of a box
@pytest.mark.parametrize("kernel, width", [(BUMP, 0.5), (MollifierSpec("gaussian", 2, 0.3), 0.3)], ids=["bump-1d", "gaussian-2d"])
def test_one_particle_grids_are_grown_to_one_box(monkeypatch, kernel, width):
    pos = np.full((1, kernel.d), 0.013)
    phi = TestFunction("gaussian_bump", np.full(kernel.d, 0.2), width)
    got = {"auto": QuadratureSpec().grid_for(pos, kernel), "error term": error_term_grid(pos, kernel, phi, QuadratureSpec())}
    with monkeypatch.context() as mp:  # the grids as they are built, before they grow
        mp.setattr(Grid, "widened", lambda self, reach: self)
        narrow = {"auto": QuadratureSpec().grid_for(pos, kernel), "error term": error_term_grid(pos, kernel, phi, QuadratureSpec())}
    for name, grid in got.items():
        assert min(grid.shape) >= _box_nodes(kernel) > min(narrow[name].shape), name
        _grown_from(grid, narrow[name])


def test_a_pinned_domain_narrower_than_one_box_grows_after_its_coverage_check():
    domain = [[-0.25, 0.25], [-1.0, 1.0]]
    kernel = MollifierSpec("bump", 2, 0.25)
    quad = QuadratureSpec(domain=domain)
    grid = quad.grid_for(np.zeros((1, 2)), kernel)
    narrow = cover_points(np.asarray(domain).T, 0.0, quad.spacing(kernel))
    assert narrow.shape == (17, 65) and grid.shape == (_box_nodes(kernel), 65)
    _grown_from(grid, narrow)
    # 0.24 from the given hi, 0.27 from the grown grid's upper node: within R of the domain the user pinned
    assert grid.covers(np.array([[0.01, 0.0]]), margin=kernel.padding_radius())
    with pytest.raises(CoverageError):
        quad.grid_for(np.array([[0.01, 0.0]]), kernel)


def test_a_grid_one_box_wide_is_returned_as_it_is(monkeypatch):
    # grid_for runs once per deposit: a wide grid must cost no dataclass replace
    monkeypatch.setattr(grids, "replace", lambda *a, **k: pytest.fail("a wide grid was replaced"))
    pos = np.linspace(-1.0, 1.0, 5)[:, None]
    pinned = QuadratureSpec(domain=[[-2.0, 2.0]])
    for quad in (QuadratureSpec(), pinned):
        grid = quad.grid_for(pos, BUMP)
        assert min(grid.shape) >= _box_nodes(BUMP) and grid.widened(BUMP.padding_radius()) is grid


def test_window_refuses_a_grid_narrower_than_one_box():
    # a box start below 0 would wrap in the strided view gather instead of failing
    grid = Grid(np.zeros(2), 0.1, (21, 7))
    with pytest.raises(ValueError, match="narrower than one box"):
        grid.window(np.full((1, 2), 0.3), 0.25)
    assert grid.widened(0.25).window(np.full((1, 2), 0.3), 0.25).at.shape == (1, 2, 8)

"""Uniform tensor grids, gridded fields, and quadrature policy.

Convolution-type integrals all run on uniform grids whose spacing is tied
to the kernel width (the integrands' length scale is eps), with the domain
padded by the kernel's numerical support so truncation sits below every
tolerance in use.  Every lattice is built by ``cover_points``, every
grid integral is ``Grid.integrate`` and every dot product is ``dot``;
reductions are plain numpy sums or products sized to run on one BLAS
thread, so repeated runs are bit-reproducible.  The grid layer is written
once for any dimension d; the box products serve the kernels' d <= 2.  A
particle touches its box of nodes (``Grid.window``), clamped onto the
grid, so every box lies on it.

``write_csv`` is the one writer of every CSV artifact: Python scalars
joined by ``str``, which for floats is the shortest round-trip repr, so
identical inputs give byte-identical files.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from math import inf, prod
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CoverageError


# The most terms in one product of ``dot``: OpenBLAS splits a longer one over
# threads, which changes its bits.  Every 1d grid in use is one.
DOT_TERMS = 10000


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i of two 1d arrays: dot products of DOT_TERMS terms at a time, summed in order, so its bits do not
    depend on the number of BLAS threads.  The package's one ``np.dot``."""
    if len(a) <= DOT_TERMS:  # one product, without the per-piece cost that thousands of small JKO calls would see
        return float(np.dot(a, b))
    return float(sum(np.dot(a[i:i + DOT_TERMS], b[i:i + DOT_TERMS]) for i in range(0, len(a), DOT_TERMS)))


@dataclass(frozen=True)
class Grid:
    """Geometry of a uniform tensor grid: origin, spacing, points per axis."""

    origin: np.ndarray
    spacing: float
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "origin", np.atleast_1d(np.asarray(self.origin, dtype=float)))
        object.__setattr__(self, "shape", tuple(int(n) for n in np.atleast_1d(self.shape)))
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")
        if len(self.origin) != len(self.shape):
            raise ValueError("origin and shape dimensions differ")

    @property
    def d(self) -> int:
        return len(self.shape)

    def axes(self):
        return [self.origin[k] + self.spacing * np.arange(self.shape[k]) for k in range(self.d)]

    def upper(self) -> np.ndarray:
        return self.origin + self.spacing * (np.asarray(self.shape) - 1)

    def nodes(self) -> np.ndarray:
        """All nodes as a flat (G, d) array, row-major."""
        return lattice_nodes(self.axes())

    def trapezoid_weights(self) -> np.ndarray:
        """Flat (G,) trapezoid quadrature weights matching nodes()."""
        per_axis = []
        for n in self.shape:
            w = np.full(n, self.spacing)
            w[0] *= 0.5
            w[-1] *= 0.5
            per_axis.append(w)
        return reduce(np.multiply.outer, per_axis).ravel()

    def integrate(self, values) -> float:
        """Trapezoid integral of an array of node values: their ``dot`` with ``trapezoid_weights``."""
        return dot(self.trapezoid_weights(), values.ravel())

    def window(self, points: np.ndarray, reach: float) -> Window:
        """Each point's box of W = 2 ceil(reach/h) + 2 consecutive nodes per axis, which holds every node within reach of it.

        A box starts ceil(reach/h) nodes below its point's node, clamped onto
        the grid (its first node in [0, n_k - W]).  The nodes within reach lie
        on the grid and in the unclamped box, so the clamped box holds them
        too; the nodes the clamp pulls in lie beyond reach.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c = int(np.ceil(reach / self.spacing))
        w = 2 * c + 2
        if min(self.shape) < w:
            raise ValueError(f"grid of {self.shape} nodes is narrower than one box of {w} nodes per axis")
        first = np.maximum(np.floor((pts - self.origin) / self.spacing).astype(int) - c, 0)
        return Window(pts, np.minimum(first, np.subtract(self.shape, w)), self, w, reach)

    def widened(self, reach: float) -> Grid:
        """This grid, or, where an axis has fewer nodes than one ``window`` box, grown to one box at its upper end, every node kept."""
        w = 2 * int(np.ceil(reach / self.spacing)) + 2
        return self if min(self.shape) >= w else replace(self, shape=tuple(max(n, w) for n in self.shape))

    def covers(self, points: np.ndarray, margin: float = 0.0) -> bool:
        """True when every point sits at least margin inside the box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        slack = 1e-9 * self.spacing
        lo = self.origin + margin - slack
        hi = self.upper() - margin + slack
        return bool(np.all(pts >= lo) and np.all(pts <= hi))


# The most pairs in one row block of a window.  The pairs are formed, the
# kernel evaluated and the velocity gathered one block at a time, so the
# bump's factors g_eps are the one full-size pair array a deposit keeps.
# 2**16 pairs is 0.5 MB of float64, and every 1d workload fits in one block.
BLOCK_PAIRS = 1 << 16

# The most multiply-adds in one matrix product of ``Window.deposit_axes`` and
# ``contract_axes``, up to the 31/16 a tile allows: OpenBLAS runs fewer than
# 2 * 2**18 on one thread and splits a larger product over threads, which
# changes its bits.  Their chunks hold 0.25 MB of dense rows on a square grid.
PRODUCT_MACS = 1 << 18


@dataclass(frozen=True)
class Window:
    """The particle<->grid pairs a kernel of finite reach touches: each point's box of nodes.

    Every box is W consecutive nodes on the grid along each axis.  A pair
    counts when its node is within reach of the point: as a whole (``r2``,
    the ball of radius R) for a kernel evaluated on squared distances,
    along every axis (``sq``, the box) for a separable one.  A window keeps
    its points and their boxes' (N, d) first nodes only.  Its per-axis
    (N, d, W) ``at`` and ``off`` are formed on first use and kept; the 2d
    products (``deposit_axes``, ``contract_axes``) read them per chunk of
    rows (``chunks``) instead, so none outlives its chunk there.  The
    (N, W^d) pairs are formed when they are needed, at most BLOCK_PAIRS of
    them at once (``blocks``).
    """

    points: np.ndarray  # (N, d)
    first: np.ndarray  # (N, d) each box's first node index along each axis
    grid: Grid
    width: int  # W
    reach: float  # R: a pair beyond it (in r2, or along an axis in sq) does not count

    @cached_property
    def at(self) -> np.ndarray:
        """(N, d, W) node index along each axis, W consecutive ones on the grid."""
        return self.first[:, :, None] + np.arange(self.width)

    @cached_property
    def off(self) -> np.ndarray:
        """(N, d, W) node minus point along each axis."""
        off = self.grid.spacing * self.at
        off += self.grid.origin[:, None]
        off -= self.points[:, :, None]
        return off

    def chunks(self, step: int) -> Iterator:
        """(rows, window of those rows) for consecutive chunks of step rows, in order."""
        for a in range(0, len(self.first), step):
            rows = slice(a, a + step)
            yield rows, replace(self, points=self.points[rows], first=self.first[rows])

    def blocks(self) -> list:
        """(rows, window of those rows) for consecutive row blocks of at most BLOCK_PAIRS pairs each (one row at least), in order."""
        n, d = self.first.shape
        step = max(1, BLOCK_PAIRS // self.width ** d)
        return [(slice(0, n), self)] if step >= n else list(self.chunks(step))

    def lin(self) -> np.ndarray:
        """(N, W^d) flat indices into the grid's row-major nodes of each point's box nodes; in 1d a view of ``at``.

        A box is its first node's flat index plus one (W^d,) template of the
        per-axis offsets stride_k · j.
        """
        if self.grid.d == 1:
            return self.at[:, 0]
        strides = row_major_strides(self.grid.shape)
        return (self.first @ strides)[:, None] + box_sum(strides[None, :, None] * np.arange(self.width))

    def gather(self, values: np.ndarray) -> np.ndarray:
        """(N, W^d) flat (G,) grid values at each point's box nodes, a new array.

        In d > 1, each box is read from a strided (W, ..., W) view of the
        grid at its first node, and no flat index is formed.
        """
        d = self.grid.d
        if d == 1:
            return values[self.lin()]
        boxes = sliding_window_view(values.reshape(self.grid.shape), (self.width,) * d)
        return boxes[tuple(self.first.T)].reshape(len(self.first), -1)

    def sq(self) -> np.ndarray:
        """(N, d, W) squared offsets along each axis, inf where the node is beyond reach along that axis; a new array."""
        sq = self.off * self.off
        sq[sq > self.reach * self.reach] = np.inf
        return sq

    def r2(self) -> np.ndarray:
        """(N, W^d) squared distances from each point to its box nodes, inf beyond reach; a new array."""
        r2 = box_sum(self.off * self.off)
        r2[r2 > self.reach * self.reach] = np.inf
        return r2

    def deposit(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat (G,) sums per node of the (N, W^d) pair values.

        With ``out``, the sums are added onto it in place.  Both ``bincount``
        and ``add.at`` add the pairs one by one in row order, so depositing
        the row blocks one by one onto the first block's sums gives the
        bits of one deposit of every row.
        """
        lin = self.lin().ravel()
        if out is None:
            return np.bincount(lin, weights=values.ravel(), minlength=prod(self.grid.shape))
        np.add.at(out, lin, values.ravel())
        return out

    def axis_rows(self, f: np.ndarray, k: int) -> np.ndarray:
        """Dense (N, ..., n_k) rows of the values f (N, ..., W) on the box nodes along axis k, 0.0 elsewhere."""
        dense = np.zeros(f.shape[:-1] + (self.grid.shape[k],))
        first = self.first[:, k].reshape((-1,) + (1,) * (f.ndim - 2))
        sliding_window_view(dense, f.shape[-1], axis=-1, writeable=True)[(*np.indices(f.shape[:-1], sparse=True), first)] = f
        return dense

    def deposit_axes(self, factors, weights=()) -> list:
        """Flat (G,) sums per node of the box products v_0 v_1, then of those times each (N,) weight.

        ``factors`` maps (rows, 2, W) squared offsets (``sq``) to per-axis
        factors (v, g), 0.0 beyond reach along their axis.  Over chunks of
        PRODUCT_MACS / (16 n_1) points, each chunk's offsets and factors are
        formed, v goes into dense rows A_k per axis (``axis_rows``), and the
        chunk's A_0^T A_1, a weight scaling A_0's rows, is added onto the
        sums in row order, one matrix product per ``tiles`` of A_0^T's rows.
        That is N G multiply-adds in place of N W^2 pair products, yet BLAS
        makes it and ``contract_axes`` faster than the pairs up to G / W^2 of
        about 20 (N = 400, W = 66, one core).
        """
        (n0, n1), cut = self.grid.shape, tiles(self.grid.shape[0])
        sums = [np.zeros((n0, n1)) for _ in range(1 + len(weights))]
        for rows, part in self.chunks(max(1, PRODUCT_MACS // (16 * n1))):
            v = factors(part.sq())[0]
            a0, a1 = part.axis_rows(v[:, 0], 0), part.axis_rows(v[:, 1], 1)
            for acc, c in zip(sums, (None, *weights)):
                a0t = (a0 if c is None else a0 * c[rows, None]).T
                for t in cut:
                    acc[t] += a0t[t] @ a1
        return [acc.ravel() for acc in sums]

    def contract_axes(self, values: np.ndarray, factors) -> np.ndarray:
        """(N, 2) sums over each box of (node - point)_k g_k v_j times the flat (G,) grid values, j the other axis.

        Over chunks of PRODUCT_MACS / (32 n_0) points, the chunk's offsets
        and per-axis factors (v, g) are formed again as ``deposit_axes``
        forms them.  A point's two dense rows along axis 0 (``axis_rows``),
        of off_0 g_0 and of v_0, times the (n_0, n_1) values sum them along
        axis 0 with either weight, one matrix product per ``tiles`` of the
        values' columns.  Both sums are read on the point's box along axis 1
        and summed there against v_1 (component 0) or off_1 g_1 (component 1).
        """
        (n0, n1), cut = self.grid.shape, tiles(self.grid.shape[1])
        grid, out = values.reshape(n0, n1), np.empty((len(self.first), 2))
        for rows, part in self.chunks(max(1, PRODUCT_MACS // (32 * n0))):
            v, g = factors(part.sq())
            off = part.off
            a0 = part.axis_rows(np.stack([off[:, 0] * g[:, 0], v[:, 0]], axis=1), 0).reshape(-1, n0)
            sums = np.empty((len(a0), n1))
            for t in cut:
                np.matmul(a0, grid[:, t], out=sums[:, t])
            box = np.take_along_axis(sums.reshape(-1, 2, n1), part.at[:, None, 1], axis=2)
            np.einsum("nw,nw->n", box[:, 0], v[:, 1], out=out[rows, 0])
            np.einsum("nw,nw->n", box[:, 1], off[:, 1] * g[:, 1], out=out[rows, 1])
        return out


def tiles(n: int) -> list:
    """Consecutive slices of 16 to 31 of range(n), or one slice when n < 32.  Each matrix product of the per-axis route
    takes one tile against a chunk of PRODUCT_MACS / 16 multiply-adds per tile row: at most 31/16 PRODUCT_MACS, under
    OpenBLAS's one-thread bound, and never a single row, which numpy would hand to gemv instead."""
    m = max(1, n // 16)
    return [slice(i * n // m, (i + 1) * n // m) for i in range(m)]


def contract(off: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(n, d) sums over each box of (node - point) along each axis times the (n, W^d) pair values.

    Axis k sums the values over the other box axes first, then weighs them
    by ``off[:, k]``, so no (n, W^d, d) array is built.  In 1d there are no
    other axes, and the values go in as they are.
    """
    n, d, w = off.shape
    box = values.reshape((n,) + (w,) * d)
    sums = [values] if d == 1 else [box.sum(axis=2), box.sum(axis=1)]
    out = np.empty((n, d))
    for k, s in enumerate(sums):
        np.einsum("nw,nw->n", off[:, k], s, out=out[:, k])
    return out


def box_sum(a: np.ndarray) -> np.ndarray:
    """Flat (n, W^d) sums of per-axis (n, d, W) values laid along the axes of the (n, W, ..., W) box, row-major; in 1d a view of a."""
    n, d, _ = a.shape
    if d == 1:  # the per-call cost of the reduce below shows in runs of many small 1d calls (JKO)
        return a[:, 0]
    return reduce(np.add, [a[:, k].reshape((n,) + (1,) * k + (-1,) + (1,) * (d - k - 1)) for k in range(d)]).reshape(n, -1)


def row_major_strides(shape: tuple) -> np.ndarray:
    """(d,) flat-index step of one node along each axis of a row-major grid of the given shape."""
    return np.array([prod(shape[k + 1:]) for k in range(len(shape))])


def lattice_nodes(axes) -> np.ndarray:
    """Every point of the tensor lattice spanned by per-axis coordinates, flat (G, d), row-major."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def cover_points(points: np.ndarray, pad: float, spacing: float) -> Grid:
    """Smallest grid of the given spacing covering the points padded by pad; the one lattice rule."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    shape = tuple(int(np.ceil((b - a) / spacing)) + 1 for a, b in zip(lo, hi))
    return Grid(origin=lo, spacing=spacing, shape=shape)


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def d(self) -> int:
        return self.grid.d

    def integrate(self, integrand: np.ndarray | None = None) -> float:
        """Trapezoid integral of integrand (default: the field itself)."""
        return self.grid.integrate(self.values if integrand is None else integrand)

    def mass(self) -> float:
        return self.integrate()

    def moment2(self) -> float:
        """Second moment int |x|^2 field dx."""
        nodes = self.grid.nodes()
        r2 = np.sum(nodes * nodes, axis=-1).reshape(self.grid.shape)
        return self.integrate(self.values * r2)

    def gradient(self):
        """Central-difference gradient per axis (one-sided at boundaries)."""
        return [np.gradient(self.values, ax, axis=k) for k, ax in enumerate(self.grid.axes())]


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid-policy knobs for convolution quadrature.

    spacing is h = h_over_eps * eps, defaulting to eps/4 for the gaussian
    family and eps/8 for the bump family (the C^2 bump and the fractional
    powers it feeds need the finer grid).  The padding defaults to the
    kernel's own numerical support radius, the radius the mollifier and
    the JKO coverage check rely on.  A fixed box may be pinned via
    domain=[lo, hi] per axis; runs then fail loudly if particles approach
    the boundary instead of silently truncating integrals.  Every grid is
    at least one ``Grid.window`` box wide (``Grid.widened``).
    """

    h_over_eps: float | None = None
    domain: tuple | None = None

    def __post_init__(self):
        h = self.h_over_eps
        if h is not None and not (isinstance(h, (int, float)) and 0 < h < inf):
            raise ValueError(f"h_over_eps must be a positive finite number, got {h!r}")
        if self.domain is not None:
            dom = np.asarray(self.domain, dtype=float)
            if dom.ndim != 2 or dom.shape[1] != 2 or np.any(dom[:, 1] <= dom[:, 0]):
                raise ValueError("domain must give [lo, hi] per axis, lo < hi")
            object.__setattr__(self, "domain", tuple(map(tuple, dom.tolist())))

    def spacing(self, kernel) -> float:
        if self.h_over_eps is not None:
            return self.h_over_eps * kernel.eps
        return (0.125 if kernel.family == "bump" else 0.25) * kernel.eps

    def grid_for(self, positions: np.ndarray, kernel) -> Grid:
        """Quadrature grid for kernel integrals around the given positions."""
        pad = kernel.padding_radius()
        h = self.spacing(kernel)
        pts = np.atleast_2d(np.asarray(positions, dtype=float))
        if self.domain is None:
            return cover_points(pts, pad, h).widened(pad)
        dom = np.asarray(self.domain, dtype=float)
        if len(dom) != pts.shape[1]:
            raise ValueError(f"domain gives {len(dom)} axes for {pts.shape[1]}-dimensional positions")
        grid = cover_points(dom.T, 0.0, h)
        if not grid.covers(pts, margin=pad):
            raise CoverageError(
                "quadrature domain too small: a particle sits within one kernel "
                f"support radius ({pad:.4g}) of the boundary"
            )
        return grid.widened(pad)


# ---------------------------------------------------------------------------
# serialisation: CSV values plus a JSON geometry sidecar

# The most CSV rows held as Python objects at once, by ``write_csv`` and by
# ``runner.read_trajectory_csv``: about 0.12 MB of cells for a 1d trajectory.
CSV_ROWS = 1 << 10


def write_csv(path, header: str, columns) -> None:
    """One CSV row per index of the equal-length columns, under header.

    columns may instead be an iterator of column lists, whose rows follow
    one another.  Each column goes through tolist(), so every cell is a
    Python scalar and str (through the row template's %s) gives the shortest
    round-trip repr for floats.  At most CSV_ROWS rows are turned into
    Python objects at once, so the cells held while writing stay bounded
    whatever the file's length; the columns themselves are the caller's.
    """
    with Path(path).open("w") as fh:
        fh.write(header + "\n")
        for block in columns if isinstance(columns, Iterator) else [columns]:
            cols = [np.asarray(c) for c in block]
            row = ",".join(["%s"] * len(cols)) + "\n"
            for a in range(0, len(cols[0]) if cols else 0, CSV_ROWS):
                fh.writelines(map(row.__mod__, zip(*(c[a:a + CSV_ROWS].tolist() for c in cols))))


def write_field_csv(field: GridField, path) -> None:
    names = ["x"] if field.d == 1 else [f"x{k}" for k in range(field.d)]
    write_csv(path, ",".join(names + ["value"]), [*field.grid.nodes().T, field.values.ravel()])
    sidecar = {
        "origin": [float(a) for a in field.grid.origin],
        "spacing": field.grid.spacing,
        "extents": [int(n) for n in field.grid.shape],
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")

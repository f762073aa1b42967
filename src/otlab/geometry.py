"""Uniform cell-centered grids on convex boxes and discrete calculus on them.

A :class:`Grid` covers a box in R^d (d = 1 or 2) with n cells per axis;
densities and potentials live as one value per cell, integrals are midpoint
sums, and gradients are central differences (one-sided at the boundary).
All objects are immutable after construction and every operation is a pure
function of its inputs, so evaluation order never changes results.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError

__all__ = [
    "Grid",
    "DensityField",
    "gradient",
    "tv_norm",
    "normalize",
    "random_smooth_density",
    "boundary_cells_and_normals",
    "interp_multilinear",
    "format_cell",
    "write_rows",
    "write_field_csv",
    "read_field_csv",
]


def _as_tuple(value, d: int) -> tuple:
    if np.isscalar(value):
        return (value,) * d
    out = tuple(value)
    if len(out) != d:
        raise ParameterError(f"expected {d} per-axis entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box ``[lower, upper]`` per axis.

    Parameters
    ----------
    d : spatial dimension, 1 or 2.
    lower, upper : per-axis bounds (scalars are broadcast).
    n : per-axis cell count, at least 4.
    """

    d: int
    lower: tuple
    upper: tuple
    n: tuple

    def __init__(self, d: int, lower, upper, n):
        if d not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {d}")
        lo = tuple(float(v) for v in _as_tuple(lower, d))
        hi = tuple(float(v) for v in _as_tuple(upper, d))
        nn = tuple(int(v) for v in _as_tuple(n, d))
        for a in range(d):
            if not (np.isfinite(lo[a]) and np.isfinite(hi[a])):
                raise ParameterError(f"axis {a}: bounds must be finite ({lo[a]} .. {hi[a]})")
            if not hi[a] > lo[a]:
                raise ParameterError(f"axis {a}: upper must exceed lower ({lo[a]} .. {hi[a]})")
            if nn[a] < 4:
                raise ParameterError(f"axis {a}: need at least 4 cells, got {nn[a]}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "n", nn)

    @property
    def spacing(self) -> tuple:
        """Cell width per axis."""
        return tuple((self.upper[a] - self.lower[a]) / self.n[a] for a in range(self.d))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def shape(self) -> tuple:
        return self.n

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.n))

    def axis_centers(self, a: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[a]
        return self.lower[a] + h * (np.arange(self.n[a]) + 0.5)

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an array of shape ``(num_cells, d)``, row-major."""
        axes = [self.axis_centers(a) for a in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @property
    def enclosing_radius(self) -> float:
        """Radius of the smallest ball around the box center containing the box."""
        return 0.5 * float(np.hypot.reduce([self.upper[a] - self.lower[a] for a in range(self.d)]))

    @property
    def cost_radius(self) -> float:
        """Upper bound on |x - y| over the box: twice the enclosing radius."""
        return 2.0 * self.enclosing_radius

    def interior_mask(self, width: int = 1) -> np.ndarray:
        """Boolean mask of cells at least `width` cells away from every boundary."""
        mask = np.ones(self.shape, dtype=bool)
        for a in range(self.d):
            idx = np.arange(self.n[a])
            keep = (idx >= width) & (idx < self.n[a] - width)
            sl = [None] * self.d
            sl[a] = slice(None)
            mask &= keep[tuple(sl)]
        return mask

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        ok = np.ones(len(pts), dtype=bool)
        for a in range(self.d):
            ok &= (pts[:, a] >= self.lower[a]) & (pts[:, a] <= self.upper[a])
        return ok

    def clip(self, points: np.ndarray) -> np.ndarray:
        """Project points onto the closed box."""
        pts = np.array(np.atleast_2d(points), dtype=float)
        for a in range(self.d):
            np.clip(pts[:, a], self.lower[a], self.upper[a], out=pts[:, a])
        return pts


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DensityField:
    """Nonnegative cell values on one grid; unit total mass after :func:`normalize`."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ShapeError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ShapeError("density values must be finite")
        if np.any(vals < 0):
            raise ShapeError("density values must be nonnegative")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def tv(self) -> float:
        return tv_norm(self)


def gradient(values, grid: Grid) -> np.ndarray:
    """Finite-difference gradient of a scalar grid function, shape ``grid.shape + (d,)``.

    Central differences at interior cells, first-order one-sided differences
    at boundary cells; exact for affine data away from the boundary. Raises
    ShapeError when the values do not match the grid or a gradient entry is
    not finite.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ShapeError(f"values shape {vals.shape} != grid shape {grid.shape}")
    # np.gradient with edge_order=1 is exactly this stencil.
    parts = np.gradient(vals, *grid.spacing, edge_order=1)
    comp = np.stack([parts] if grid.d == 1 else parts, axis=-1)
    if not np.all(np.isfinite(comp)):
        raise ShapeError("gradient entries must be finite")
    return comp


def tv_norm(density: DensityField) -> float:
    """Discrete total variation: sum of |gradient| times cell volume."""
    comp = gradient(density.values, density.grid)
    return float(np.sqrt((comp**2).sum(axis=-1)).sum() * density.grid.cell_volume)


def normalize(density: DensityField) -> DensityField:
    """Scale to unit total mass. Raises on an all-zero field."""
    total = density.mass
    if total <= 0.0:
        raise DegenerateInputError("cannot normalize a field with zero total mass")
    return DensityField(density.grid, density.values / total)


def random_smooth_density(
    grid: Grid,
    seed: int,
    mode_count: int = 3,
    floor: float = 0.1,
) -> DensityField:
    """Strictly positive smooth test density, deterministic in the seed.

    Builds ``floor + |truncated random Fourier series|`` on the unit-scaled
    box and normalizes. ``floor > 0`` keeps the result bounded away from zero
    so gradient-of-cost conventions at vanishing arguments stay exercised by
    dedicated tests rather than dominating every instance.
    """
    if mode_count < 1:
        raise ParameterError("mode_count must be >= 1")
    if not floor > 0:
        raise ParameterError("floor must be positive")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    hatted = [
        (grid.axis_centers(a) - grid.lower[a]) / (grid.upper[a] - grid.lower[a])
        for a in range(grid.d)
    ]
    vals = np.zeros(grid.shape)
    if grid.d == 1:
        x = hatted[0]
        for k in range(1, mode_count + 1):
            a_k, b_k = rng.standard_normal(2) / k
            vals += a_k * np.cos(np.pi * k * x) + b_k * np.sin(np.pi * k * x)
    else:
        x = hatted[0][:, None]
        y = hatted[1][None, :]
        for kx in range(mode_count + 1):
            for ky in range(mode_count + 1):
                if kx == 0 and ky == 0:
                    continue
                amp = rng.standard_normal() / (kx + ky)
                px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
                vals += amp * np.cos(np.pi * kx * x + px) * np.cos(np.pi * ky * y + py)
    raw = DensityField(grid, floor + np.abs(vals))
    return normalize(raw)


def boundary_cells_and_normals(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary facets of the box as (cells, normals, areas), one entry per facet.

    ``cells`` are the owning cells' flat row-major indices, ``normals`` the
    outward unit normals, shape (k, d), and ``areas`` the facet areas. In 1-d
    the facets are the left then the right endpoint, each of area 1; in 2-d
    the left and right facet of each row j, then the bottom and top facet of
    each column i. Corner cells contribute one facet per touching side, so
    in 2-d the areas add up to the perimeter.
    """
    if grid.d == 1:
        return np.array([0, grid.n[0] - 1]), np.array([[-1.0], [1.0]]), np.ones(2)
    nx, ny = grid.n
    hx, hy = grid.spacing
    j, i = np.arange(ny), np.arange(nx)
    cells = np.concatenate([np.stack([j, (nx - 1) * ny + j], axis=1).reshape(-1),
                            np.stack([i * ny, i * ny + ny - 1], axis=1).reshape(-1)])
    normals = np.concatenate([np.tile([[-1.0, 0.0], [1.0, 0.0]], (ny, 1)),
                              np.tile([[0.0, -1.0], [0.0, 1.0]], (nx, 1))])
    areas = np.repeat([hy, hx], [2 * ny, 2 * nx])
    return cells, normals, areas


def interp_multilinear(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of cell-centered values at arbitrary points.

    Points beyond the outermost cell centers use the nearest-center value
    along that axis (constant extension).
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ShapeError(f"values shape {vals.shape} != grid shape {grid.shape}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = []
    for a in range(grid.d):
        h = grid.spacing[a]
        # fractional index relative to the first cell center
        t = (pts[:, a] - (grid.lower[a] + 0.5 * h)) / h
        coords.append(np.clip(t, 0.0, grid.n[a] - 1.0))
    if grid.d == 1:
        t = coords[0]
        i0 = np.clip(np.floor(t).astype(int), 0, grid.n[0] - 2)
        w = t - i0
        return (1 - w) * vals[i0] + w * vals[i0 + 1]
    tx, ty = coords
    i0 = np.clip(np.floor(tx).astype(int), 0, grid.n[0] - 2)
    j0 = np.clip(np.floor(ty).astype(int), 0, grid.n[1] - 2)
    wx = tx - i0
    wy = ty - j0
    return (
        (1 - wx) * (1 - wy) * vals[i0, j0]
        + wx * (1 - wy) * vals[i0 + 1, j0]
        + (1 - wx) * wy * vals[i0, j0 + 1]
        + wx * wy * vals[i0 + 1, j0 + 1]
    )


# --- Output files: the one place the format lives. Comma-separated cells,
# LF after every line including the last. Layout of field CSVs: header
# "x[,y],value", row-major cell order.


def format_cell(value) -> str:
    """Text of one output cell: strings verbatim, bools 1/0, ints via str, floats via repr.

    Floats (numpy scalars included) go through ``float`` first, so the text
    is the shortest round-trip decimal and never numpy's ``np.float64(...)``.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def write_rows(path, rows) -> None:
    """Write each row as its formatted cells joined by commas, one LF-terminated line per row."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(",".join(map(format_cell, row)) + "\n" for row in rows)


def write_field_csv(path, grid: Grid, values: np.ndarray, value_header: str = "value") -> None:
    """One row per cell, its center's coordinates then its value, under a header; the text of
    ``write_rows``, the floats of the body formatted by ``repr`` as ``format_cell`` does."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ShapeError(f"values shape {vals.shape} != grid shape {grid.shape}")
    header = ["x", "y"][: grid.d] + [value_header]
    body = np.column_stack((grid.cell_centers(), vals.reshape(-1))).tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(map(format_cell, header)) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in body)


def _grid_from_axis(centers: np.ndarray) -> tuple[float, float, int]:
    n = len(centers)
    if n < 4:
        raise ParameterError(f"need at least 4 cells per axis in CSV, got {n}")
    h = (centers[-1] - centers[0]) / (n - 1)
    return float(centers[0] - 0.5 * h), float(centers[-1] + 0.5 * h), n


def read_field_csv(path) -> tuple[Grid, np.ndarray]:
    """Inverse of :func:`write_field_csv`; reconstructs the grid from centers.

    Raises ShapeError on a row of the wrong length and ParameterError on any
    other malformed file, centers off a uniform row-major grid included."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ParameterError("CSV file is empty")
    header, *body = rows
    d = len(header) - 1
    if d not in (1, 2):
        raise ParameterError(f"CSV must have 1 or 2 coordinate columns, found {d}")
    if any(len(row) != d + 1 for row in body):
        raise ShapeError(f"every CSV row must have {d + 1} cells")
    try:
        data = np.asarray([[float(entry) for entry in row] for row in body],
                          dtype=float).reshape(-1, d + 1)
    except ValueError as exc:
        raise ParameterError(f"non-numeric CSV cell: {exc}") from exc
    centers = data[:, :d]
    lower, upper, n = zip(*(_grid_from_axis(np.unique(centers[:, a])) for a in range(d)))
    grid = Grid(d, lower, upper, n)
    box = np.subtract(grid.upper, grid.lower)
    if len(data) != grid.num_cells or np.any(
            np.abs(grid.cell_centers() - centers) > 1e-9 * box):
        raise ParameterError("CSV centers do not form a uniform row-major grid")
    return grid, data[:, d].reshape(grid.shape).copy()

"""Discrete optimal transport for costs h(x - y) and potential recovery.

Three solvers share one result type: an exact 1-d solver built on monotone
rearrangement (the reference oracle), an exact transportation-simplex LP for
desk-scale instances in any dimension, and a log-domain entropic solver with
epsilon scaling. All three solve on one dense cost matrix, so the size limit
of ``_cost_matrix`` holds for each. All potentials can be canonicalized by
c-transforms, after which the transport map is assembled pointwise as
T(x) = x - grad_h_star(grad phi(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import geometry
from .cost import RadialCost, grad_h, grad_h_star
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    InputError,
    OTLabError,
    ParameterError,
    RangeError,
    ShapeError,
)
from .geometry import DensityField, Grid, format_cell, write_rows

__all__ = [
    "TransportResult",
    "MapField",
    "MapConsistencyReport",
    "softmin",
    "log_plan",
    "c_transform",
    "canonical_pair",
    "solve_exact_1d",
    "solve_lp",
    "solve_entropic",
    "transport_map_from_potential",
    "map_consistency_check",
    "write_result_dir",
    "read_meta",
]

_FEASIBILITY_SLACK = 1e-9
_MARGINAL_TOL = 1e-8
_GAP_FLOOR = -1e-10
# most entries of a dense cost matrix: 4096 x 4096 cell pairs, 134 MB of float64
_DENSE_CAPACITY = 4096 * 4096
# entropic solver: L1 marginal residual that ends a level and sweep cap of
# its last width; sweep cap of every warm-up width of ``_over_widths``
_RAW_MARGINAL_TOL = 1e-7
_MAX_SWEEPS = 20000
_WARM_CAP = 200
# number of past differences _fixed_point mixes
_ANDERSON_DEPTH = 5
# log-sum-exp: shifted exponents are raised to this; numpy's vectorized exp
# leaves its fast path for inputs whose result is subnormal (below about -708)
_EXP_FLOOR = -700.0
# ``_AnchoredKernel``: an output sum below _ANCHOR_FLOOR re-anchors; kernel
# entries below _KERNEL_FLOOR are dropped, so that a product of a kept entry
# with a weight above 1e-28 is no subnormal, which BLAS multiplies slowly
_ANCHOR_FLOOR = 1e-250
_KERNEL_FLOOR = 1e-280
# entries per row block of ``_row_blocks``: 256 KB of float64, which fits in L2
_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class TransportResult:
    """Optimal coupling between two grid densities plus dual potentials.

    Every solve holds its coupling as its support: ``cells`` are the flat
    row-major indices i n + j of its nonzero entries, increasing, and
    ``masses`` their masses. An exact support has at most m + n - 1 cells;
    an entropic one is the rounded plan's nonzero entries. ``coupling``
    builds the dense m x n array.
    phi lives on the source grid, psi on the target grid, both in cost
    units. The duality gap is primal - dual.
    """

    source: DensityField
    target: DensityField
    cost: RadialCost = field(repr=False)
    cells: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    primal: float
    dual: float
    solver: str
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def gap(self) -> float:
        return self.primal - self.dual

    @property
    def coupling(self) -> np.ndarray:
        """The dense source-by-target coupling, built anew from the support."""
        m, n = self.source.grid.num_cells, self.target.grid.num_cells
        plan = np.zeros(m * n)
        plan[self.cells] = self.masses
        return plan.reshape(m, n)

    def validate(self, cmat: np.ndarray | None = None) -> None:
        """Assert the coupling/potential contracts; raises on violation.

        ``cmat`` is the solve's source-by-target cost matrix, built here when
        not given; the solvers pass the one they solved with.
        """
        a = self.source.values.reshape(-1) * self.source.grid.cell_volume
        b = self.target.values.reshape(-1) * self.target.grid.cell_volume
        # one axis at a time, so that one index array of the support's size is alive
        rows = np.bincount(self.cells // b.size, weights=self.masses, minlength=a.size)
        cols = np.bincount(self.cells % b.size, weights=self.masses, minlength=b.size)
        if not np.abs(rows - a).max() <= _MARGINAL_TOL:
            raise OTLabError(
                f"coupling row sums violate the source marginal by {np.abs(rows - a).max():.3e}"
            )
        if not np.abs(cols - b).max() <= _MARGINAL_TOL:
            raise OTLabError(
                f"coupling column sums violate the target marginal by {np.abs(cols - b).max():.3e}"
            )
        if not self.gap >= _GAP_FLOOR:
            raise OTLabError(f"duality gap {self.gap:.3e} is below {_GAP_FLOOR}")
        if cmat is None:
            cmat = _cost_matrix(self.cost, self.source.grid.cell_centers(), self.target.grid.cell_centers())
        phi, psi = self.phi.reshape(-1), self.psi.reshape(-1)
        ranges = _row_blocks(*cmat.shape)
        slack = np.empty((ranges[0][1], cmat.shape[1]))  # the first block is a largest one
        block_max = []
        for start, stop in ranges:
            block = slack[:stop - start]
            np.add(phi[start:stop, None], psi, out=block)
            block -= cmat[start:stop]  # (phi + psi) - C, in one buffer
            block_max.append(block.max())
        worst = np.array(block_max).max()
        if not worst <= _FEASIBILITY_SLACK:
            raise OTLabError(f"potentials violate phi + psi <= h by {worst:.3e}")


@dataclass(frozen=True)
class MapField:
    """Transport map sampled at source cells, defined where mass is not negligible.

    ``points`` has one target point per source cell (row-major); entries off
    the mask carry the cell center itself and are meaningless. Map values are
    clipped to the box of ``target`` (None: ``grid``, the source grid); the
    largest clip distance over the masked cells is kept for diagnostics.
    ``_map_field`` builds every instance.
    """

    grid: Grid
    points: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    max_clip_distance: float = 0.0
    target: Grid | None = None

    def __post_init__(self):
        if self.points.shape != (self.grid.num_cells, self.grid.d):
            raise OTLabError("map points must be (num_cells, d)")
        if not np.all((self.target or self.grid).contains(self.points[self.mask])):
            raise OTLabError("masked map values must lie inside the target box")


def _cost_matrix(cost: RadialCost, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Dense matrix h(x_i - y_j); raises if the points' dimensions differ or a pair leaves the cost ball.

    Every solver, ``validate`` and the JKO flow build their matrix here, so
    this owns the size limit: more than ``_DENSE_CAPACITY`` entries raise
    CapacityError before the difference temporary is allocated.
    """
    if xs.shape[1] != ys.shape[1]:
        raise ShapeError(f"points x are {xs.shape[1]}-d but points y are {ys.shape[1]}-d")
    if len(xs) * len(ys) > _DENSE_CAPACITY:
        raise CapacityError(f"instance size {len(xs)} x {len(ys)} exceeds the limit")
    diff = xs[:, None, :] - ys[None, :, :]
    r = np.square(diff, out=diff).sum(axis=-1)  # in place: one (N, M, d) temporary
    del diff  # freed before the profile allocates its output
    np.sqrt(r, out=r)
    if r.max() > cost.radius * (1.0 + 1e-9):
        raise DomainError(
            f"grid pair distance {r.max():.6g} exceeds the cost radius {cost.radius:.6g}"
        )
    return np.asarray(cost.profile(r), dtype=float)


def _log_sum_exp(z: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(z) along ``axis``, overwriting z.

    Each slice is shifted by its maximum. A slice whose maximum is not
    finite gives that maximum: -inf entries add nothing, so an all -inf
    slice gives -inf, and a slice holding NaN gives NaN. Such a slice is
    zeroed before ``exp``, so none of its entries can overflow. Shifted
    entries are raised to ``_EXP_FLOOR`` before ``exp``: a slice with a
    finite maximum holds an exact exp(0) = 1 term, next to which every term
    below exp(_EXP_FLOOR) < 1e-304 is lost in rounding either way, so the
    sums keep their bits while ``exp`` stays off its slow subnormal path.
    """
    zmax = z.max(axis=axis, keepdims=True)
    odd = ~np.isfinite(zmax)
    odd_any = odd.any()
    if odd_any:
        np.copyto(z, 0.0, where=odd)
        odd_max = zmax[odd]
        zmax[odd] = 0.0
    z -= zmax
    np.maximum(z, _EXP_FLOOR, out=z)
    out = np.log(np.exp(z, out=z).sum(axis=axis)) + np.squeeze(zmax, axis)
    if odd_any:
        out[np.squeeze(odd, axis)] = odd_max
    return out


def _softmin_exps(cmat: np.ndarray, pot: np.ndarray, logw: np.ndarray, eps: float,
                  axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``softmin``'s value and its exponent buffer, which ``_log_sum_exp`` left as shifted exps."""
    shape = (-1, 1) if axis == 0 else (1, -1)
    z = np.subtract(pot.reshape(shape), cmat)  # (pot - C)/eps + logw, in one buffer
    z /= eps
    z += logw.reshape(shape)
    return -eps * _log_sum_exp(z, axis), z


def softmin(cmat: np.ndarray, pot: np.ndarray, logw: np.ndarray, eps: float,
            axis: int) -> np.ndarray:
    """Softmin -eps log sum_k exp((pot_k - C)/eps + logw_k) along ``axis`` of C.

    The exact form of every Sinkhorn-type sweep here, which
    ``_AnchoredKernel`` runs at its re-anchors. Slices are shifted by their
    maximum unless it is infinite, so zero weights (``logw = -inf``) add
    nothing and an all ``-inf`` slice gives +inf.
    """
    return _softmin_exps(cmat, pot, logw, eps, axis)[0]


def _normalized(exps: np.ndarray, axis: int) -> np.ndarray:
    """``exps`` divided in place by its sums along ``axis``, once its entries below ``_KERNEL_FLOOR`` are 0."""
    for start, stop in _row_blocks(*exps.shape):
        block = exps[start:stop]
        np.copyto(block, 0.0, where=block < _KERNEL_FLOOR)
    exps /= exps.sum(axis=axis, keepdims=True)
    return exps


class _AnchoredKernel:
    """``softmin`` on a dense cost matrix by one matrix-vector product per sweep.

    Stabilized scaling with absorption (Schmitzer, SIAM J. Sci. Comput.
    2019). The kernel holds an anchor, alpha on the rows and beta on the
    columns at width eps, and K = exp((alpha_i + beta_j - C_ij)/eps) in
    [0, 1]. A call takes ``softmin``'s arguments after the cost; with
    (anchor_in, anchor_out) = (alpha, beta) for axis 0, else (beta, alpha),
    d = (pot - anchor_in)/eps + logw and s = max d, it returns
    anchor_out - eps (log(K_op @ exp(d - s)) + s), K_op = K^T for axis 0
    and K for axis 1: ``softmin``'s value in exact arithmetic.

    It re-anchors when eps changes, when some d is NaN or +inf, when no d
    is finite, or when some output sum falls below ``_ANCHOR_FLOOR``, the
    one case in which the entries of K lost to ``_EXP_FLOOR``, underflow or
    ``_KERNEL_FLOOR`` could matter. A re-anchor is one exact ``softmin``,
    whose bits it returns: the new anchor is pot + eps logw on the input
    side and that value on the output side, and the softmin's exp buffer
    divided by its sums is the new K. An input entry without mass gets the
    softmin of the output side's anchor over its slice, so every anchor is
    finite; a value or fill that is not finite leaves no K. ``sweeps``
    counts calls, ``reanchors`` re-anchors.
    """

    def __init__(self, cmat: np.ndarray):
        self.cmat = cmat
        self.eps = self.alpha = self.beta = self.kmat = None
        self.sweeps = self.reanchors = 0

    def __call__(self, pot: np.ndarray, logw: np.ndarray, eps: float, axis: int) -> np.ndarray:
        self.sweeps += 1
        if self.kmat is not None and eps == self.eps:
            anchor_in, anchor_out = (self.alpha, self.beta) if axis == 0 else (self.beta, self.alpha)
            d = (pot - anchor_in) / eps + logw
            s = d.max()
            if -np.inf < s < np.inf:
                e = np.exp(d - s)
                sums = e @ self.kmat if axis == 0 else self.kmat @ e
                if sums.min() >= _ANCHOR_FLOOR:
                    return anchor_out - eps * (np.log(sums) + s)
        return self._reanchor(pot, logw, eps, axis)

    def _reanchor(self, pot: np.ndarray, logw: np.ndarray, eps: float, axis: int) -> np.ndarray:
        self.reanchors += 1
        self.kmat = None  # freed before the softmin allocates its buffer
        out, exps = _softmin_exps(self.cmat, pot, logw, eps, axis)
        if not np.isfinite(out).all():
            return out
        anchor_in = pot + eps * logw
        kmat = _normalized(exps, axis)
        empty = np.flatnonzero(~np.isfinite(anchor_in))
        if empty.size:
            # each empty entry's slice of C against the output side's anchor
            other = 1 - axis
            slices = np.take(self.cmat, empty, axis=axis)
            fill, fill_exps = _softmin_exps(slices, out, np.zeros_like(out), eps, other)
            if not np.isfinite(fill).all():
                return out
            anchor_in[empty] = fill
            if axis == 0:
                kmat[empty] = _normalized(fill_exps, other)
            else:
                kmat[:, empty] = _normalized(fill_exps, other)
        self.eps, self.kmat = eps, kmat
        kept = out.copy()  # the caller owns the returned array
        self.alpha, self.beta = (anchor_in, kept) if axis == 0 else (kept, anchor_in)
        return out


def log_plan(cmat: np.ndarray, f: np.ndarray, g: np.ndarray, x_log: np.ndarray,
             y_log: np.ndarray, eps: float) -> np.ndarray:
    """Log of the plan exp((f_i + g_j - C_ij)/eps) x_i y_j for log weights x, y."""
    return (f[:, None] + g[None, :] - cmat) / eps + x_log[:, None] + y_log[None, :]


def _row_gap(mass: np.ndarray, f: np.ndarray, f_next: np.ndarray, eps: float) -> float:
    """Row-marginal L1 error sum |mass expm1((f - f_next)/eps)| over rows with mass."""
    live = mass > 0
    return float(np.abs(mass[live] * np.expm1((f[live] - f_next[live]) / eps)).sum())


def _plan_mass(mass: np.ndarray, f: np.ndarray, f_next: np.ndarray, eps: float) -> float:
    """Mass sum mass exp((f - f_next)/eps) of the plan, over the rows ``_row_gap`` checks."""
    live = mass > 0
    with np.errstate(over="ignore", invalid="ignore"):
        return float((mass[live] * np.exp((f[live] - f_next[live]) / eps)).sum())


def _fixed_point(step, x0: np.ndarray, tol: float, cap: int):
    """Iterate x <- step(x) with type-II Anderson mixing until the residual is at most tol.

    ``step(x)`` returns (plain update, residual of x, extra output). The
    update is mixed with the last ``_ANDERSON_DEPTH`` differences of updates
    and residuals by least squares (Walker and Ni 2011), on the entries
    finite in x and its update only: -inf entries pass through, and the
    history restarts when that set changes. A non-finite mix takes the
    plain update; a non-finite residual restarts from the plain update x
    was mixed from, or its own (Zhang, O'Donoghue and Boyd 2020). Returns
    (x, residual, sweeps, extra) of the last point evaluated, so the
    residual is x's own; above tol it means the cap was hit.

    The history is two depth-by-live-entries buffers of differences,
    oldest row first: each sweep writes one row, and a full buffer shifts
    its rows up by one. Their leading rows, transposed, are the
    column-major matrices that differencing the stacked history gives, so
    the least squares and the mix see the same values in the same layout.
    """
    x, plain, live = x0, None, None  # plain: the plain update x was mixed from
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for sweeps in range(1, cap + 1):
            fx, residual, extra = step(x)
            if residual <= tol or sweeps == cap:
                break
            if not np.isfinite(residual):
                x, plain, live = fx if plain is None else plain, None, None
                continue
            now_live = np.isfinite(x) & np.isfinite(fx)
            if live is None or not (now_live == live).all():
                live, every = now_live, bool(now_live.all())
                d_upd = np.empty((_ANDERSON_DEPTH, np.count_nonzero(live)))
                d_res = np.empty_like(d_upd)
                rows, last_upd = 0, None  # no earlier point in this history yet
            upd = fx if every else fx[live]
            res = upd - (x if every else x[live])
            if last_upd is not None:
                if rows == _ANDERSON_DEPTH:
                    d_upd[:-1] = d_upd[1:]
                    d_res[:-1] = d_res[1:]
                else:
                    rows += 1
                np.subtract(upd, last_upd, out=d_upd[rows - 1])
                np.subtract(res, last_res, out=d_res[rows - 1])
            last_upd, last_res = upd, res
            x, plain = fx, None
            if rows and upd.size and np.isfinite(d_res[:rows]).all():
                gamma = np.linalg.lstsq(d_res[:rows].T, res, rcond=None)[0]
                mixed = upd - d_upd[:rows].T @ gamma
                if np.isfinite(mixed).all():
                    plain = fx
                    if every:
                        x = mixed
                    else:
                        x = fx.copy()
                        x[live] = mixed
    return x, residual, sweeps, extra


def _over_widths(step, x: np.ndarray, levels, tol: float, cap: int):
    """``_fixed_point`` on ``step(x, eps)`` at each width of ``levels``, each warm-starting the next.

    The last width gets ``cap`` sweeps, the others ``_WARM_CAP``. Returns
    (x, residual, sweeps summed over widths, extra) of the last width.
    """
    sweeps = 0
    for level, eps in enumerate(levels):
        x, residual, level_sweeps, extra = _fixed_point(
            partial(step, eps=eps), x, tol, cap if level == len(levels) - 1 else _WARM_CAP)
        sweeps += level_sweeps
    return x, residual, sweeps, extra


def _scaling(kernel, f: np.ndarray, x_log: np.ndarray, y_log: np.ndarray, levels,
             row_update, tol: float, cap: int):
    """Generic scaling loop (Chizat, Peyre, Schmitzer and Vialard 2018) over the widths ``levels``.

    At width eps, ``_over_widths`` iterates f <- f_next, where g = kernel(f, x_log, eps, 0)
    fits the columns, (f_next, masses) = row_update(kernel(g, y_log, eps, 1), eps) is the
    row prox, and the residual is the ``_row_gap`` of masses. ``kernel`` takes ``softmin``'s
    arguments after the cost; ``cap`` bounds the sweeps at the last width. Returns
    (f, g, masses, residual, sweeps summed over widths, ``_plan_mass`` of the plan (f, g)).
    """
    def step(f, eps):
        g = kernel(f, x_log, eps, 0)
        f_next, masses = row_update(kernel(g, y_log, eps, 1), eps)
        return f_next, _row_gap(masses, f, f_next, eps), (g, masses, f_next)

    f, residual, sweeps, (g, masses, f_next) = _over_widths(step, f, levels, tol, cap)
    return f, g, masses, residual, sweeps, _plan_mass(masses, f, f_next, levels[-1])


def _row_blocks(m: int, n: int) -> list[tuple[int, int]]:
    """Row ranges (start, stop) that cover an m-by-n matrix, at most ``_BLOCK_ENTRIES`` entries each.

    A block holds at least one row. Every blocked pass over a cost matrix
    takes its blocks from here, so its temporaries stay cache-sized.
    """
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [(start, min(start + rows, m)) for start in range(0, m, rows)]


def _min_plus(cost_rows, vals: np.ndarray, n_out: int) -> np.ndarray:
    """out[k] = min_l [C[k, l] - vals[l]] for the n_out rows of a cost matrix C.

    ``cost_rows(start, stop)`` returns rows start..stop of C; they are taken
    in the blocks of ``_row_blocks``, which caps the temporaries.
    """
    out = np.empty(n_out)
    for start, stop in _row_blocks(n_out, vals.size):
        out[start:stop] = (cost_rows(start, stop) - vals).min(axis=1)
    return out


def _column_min(cmat: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """out[l] = min_k [C[k, l] - vals[k]]: ``_min_plus`` down the columns of C.

    A running minimum over the row blocks of C, each reduced along its
    rows; no transposed or strided view of C is read.
    """
    out = np.full(cmat.shape[1], np.inf)
    for start, stop in _row_blocks(*cmat.shape):
        np.minimum(out, (cmat[start:stop] - vals[start:stop, None]).min(axis=0), out=out)
    return out


def c_transform(cost: RadialCost, values, value_grid: Grid, eval_grid: Grid | None = None) -> np.ndarray:
    """Exact discrete c-transform: out(x) = min_y [h(x - y) - values(y)].

    ``values`` lives on ``value_grid``; the minimum is taken over its cells
    and evaluated at every cell of ``eval_grid`` (default: the same grid).
    Because h is radial the same function serves both transform directions.
    The cost is built in row blocks of at most max(``_BLOCK_ENTRIES``, n)
    entries for the n value cells, so grids too large for one dense matrix
    still transform.
    """
    eval_grid = eval_grid or value_grid
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size != value_grid.num_cells:
        raise OTLabError("values do not match the value grid")
    ys = value_grid.cell_centers()
    xs = eval_grid.cell_centers()
    out = _min_plus(lambda start, stop: _cost_matrix(cost, xs[start:stop], ys), vals, xs.shape[0])
    return out.reshape(eval_grid.shape)


def _canonical_pair_from_matrix(cmat: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double c-transform on a source-by-target cost matrix; flat phi in, flat pair out.

    psi = min over rows of (C - phi) by ``_column_min``, then phi = min over
    columns of (C - psi) by ``_min_plus``; both walk the row blocks of C, so
    no temporary is larger than a block. For a radial h, h(y - x) = h(x - y)
    bit for bit, and min is exact, so this equals two ``c_transform`` calls
    exactly.
    """
    psi = _column_min(cmat, phi)
    return _min_plus(lambda start, stop: cmat[start:stop], psi, cmat.shape[0]), psi


def canonical_pair(cost: RadialCost, phi, source_grid: Grid, target_grid: Grid):
    """One double c-transform: psi = min_x [h - phi], then phi = min_y [h - psi].

    The result is a feasible c-concave pair and a fixed point of the
    transform; applied to feasible dual variables it never lowers the dual
    objective. Each transform is one blocked ``c_transform``, so no full
    cost matrix is built; the solvers, which hold one, hand it to
    ``_canonical_pair_from_matrix`` instead.
    """
    psi = c_transform(cost, phi, source_grid, target_grid)
    return c_transform(cost, psi, target_grid, source_grid), psi


def _marginals(rho: DensityField, g: DensityField) -> tuple[np.ndarray, np.ndarray]:
    a = rho.values.reshape(-1) * rho.grid.cell_volume
    b = g.values.reshape(-1) * g.grid.cell_volume
    if abs(a.sum() - b.sum()) > _MARGINAL_TOL:
        raise InputError(
            f"marginal masses differ by {abs(a.sum() - b.sum()):.3e} (> {_MARGINAL_TOL})"
        )
    if a.sum() <= 0:
        raise InputError("marginals must carry positive mass")
    return a, b * (a.sum() / b.sum())


class _Staircase:
    """North-west staircase of two marginals: the monotone plan and the LP's start basis.

    The fill walks the cells of sorted 1-d marginals from (0, 0), moving
    the most mass it can into each and stepping down a row when the row is
    spent, else right a column. The last column's capacity is unbounded,
    so it takes whatever rounding leaves in a row and every row keeps its
    mass. Its m + n - 1 cells, some of zero mass,
    span the bipartite row/column graph. It depends only on (a, b), so one
    staircase serves every cost; for a strictly convex radial cost on the
    line it is optimal (Hoffman 1963). Only two arrays are kept: the flat
    cell indices i n + j in fill order, which is row-major order, and the
    masses moved into them.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        m, n = self.m, self.n = len(a), len(b)
        cells, moves = [], []
        ar, br = a.tolist(), b.tolist()  # plain floats: the same IEEE arithmetic, no numpy scalars
        br[-1] = math.inf
        i = j = 0
        while True:
            cells.append(i * n + j)
            x, y = ar[i], br[j]
            move = y if y < x else x  # min(x, y), without the call
            moves.append(move)
            ar[i] = x = x - move
            br[j] = y - move
            if i == m - 1 and j == n - 1:
                break
            if x == 0.0 and i < m - 1:
                i += 1
            else:
                j += 1
        self.cells = np.array(cells, dtype=np.intp)
        self.moves = np.array(moves)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The plan's support: its held (nonzero) cells, flat and row-major, and their masses."""
        held = self.moves != 0.0
        return self.cells[held], self.moves[held]

    def tree(self, cmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(duals, parent, flow) of the staircase basis rooted at row 0, where u_0 = 0.

        Nodes are rows 0..m-1 and columns m..m+n-1, and u_i + v_j = c_ij on
        every staircase cell. The first cell adds column 0 and each step
        adds the row or column it moves into; the cell is the tree arc from
        that lower node to its parent, and ``flow`` holds the cell's mass
        on its lower node (the root's entry is 0). A run of steps of one kind
        hangs from the last node of the run before it, and run 0 from row 0,
        so a node of run r has dual c - e_(r-1), where e_r
        is the dual of run r's last node and e_(-1) = u_0 = 0. Those satisfy
        e_r = c_end(r) - e_(r-1): with s = (-1)^r, s e_r is a left fold of
        s c_end, and as negation is exact and rounding to nearest is
        symmetric, the fold gives the bits of the walk that takes one cell
        at a time, up to the sign of a zero. Every dual, a run's last
        included, is then taken as c - e_(r-1); for any cost but -0.0 that
        difference does not depend on the sign of a zero e_(r-1).
        ``cmat`` is the source-by-target cost matrix.
        """
        m, n, cells = self.m, self.n, self.cells
        ii, jj = np.divmod(cells, n)
        down = np.zeros(cells.size, dtype=bool)  # a row step; the first cell counts as a column step
        down[1:] = np.diff(cells) == n
        node = np.where(down, ii, m + jj)
        new_run = down[1:] != down[:-1]
        run = np.zeros(cells.size, dtype=np.intp)
        np.cumsum(new_run, out=run[1:])
        ends = np.flatnonzero(np.append(new_run, True))
        costs = cmat[ii, jj]
        sign = np.where(np.arange(ends.size) % 2 == 0, 1.0, -1.0)
        run_duals = sign * np.add.accumulate(sign * costs[ends])
        duals = np.zeros(m + n)
        duals[node] = costs - np.concatenate(([0.0], run_duals))[run]
        parent = np.full(m + n, -1, dtype=np.intp)
        parent[node] = np.concatenate(([0], node[ends]))[run]
        flow = np.zeros(m + n)
        flow[node] = self.moves
        return duals, parent, flow


def _support_cost(cells: np.ndarray, masses: np.ndarray, cmat: np.ndarray) -> float:
    """sum masses_k c_k over a support's flat cells k of the cost matrix ``cmat``."""
    return float((masses * cmat[np.divmod(cells, cmat.shape[1])]).sum())


def _checked_result(rho: DensityField, g: DensityField, cost: RadialCost, a: np.ndarray,
                    b: np.ndarray, cmat: np.ndarray, phi: np.ndarray, psi: np.ndarray, *,
                    cells: np.ndarray, masses: np.ndarray, primal: float, solver: str,
                    meta: dict) -> TransportResult:
    """A solve's result from flat potentials and its ``_marginals``, validated on ``cmat``."""
    result = TransportResult(source=rho, target=g, cost=cost, cells=cells, masses=masses,
                             phi=phi.reshape(rho.grid.shape), psi=psi.reshape(g.grid.shape),
                             primal=primal, dual=float(phi @ a + psi @ b), solver=solver,
                             meta=meta)
    result.validate(cmat)
    return result


def solve_exact_1d(rho: DensityField, g: DensityField, cost: RadialCost, *,
                   cmat: np.ndarray | None = None,
                   staircase: _Staircase | None = None) -> tuple[TransportResult, MapField]:
    """Exact 1-d transport by monotone rearrangement (quantile matching).

    Strict convexity of the cost along the line makes the monotone plan
    optimal for any cost in the family, so this doubles as the oracle the
    other solvers are tested against. The potential phi is recovered by
    integrating phi'(x) = h'(x - T(x)) from the left end (phi(left) = 0) and
    psi as the c-transform of phi, which keeps the pair feasible. The
    coupling is the staircase's support and primal its ``_support_cost``.
    ``cmat`` is the source-by-target cost matrix and ``staircase`` the
    ``_Staircase`` of the marginals, the monotone plan; each is built here
    when not given.
    """
    if rho.grid.d != 1 or g.grid.d != 1:
        raise DomainError("solve_exact_1d requires 1-d grids")
    a, b = _marginals(rho, g)
    xs = rho.grid.cell_centers()[:, 0]
    ys = g.grid.cell_centers()[:, 0]

    # cell-centered CDFs: half of a cell's own mass sits left of its center
    total = a.sum()
    fa = np.cumsum(a) - a / 2.0
    gb = np.cumsum(b) - b / 2.0
    gb_monotone = gb + np.arange(len(b)) * (1e-15 * max(total, 1.0))
    t_vals = np.interp(fa, gb_monotone, ys)

    if staircase is None:
        staircase = _Staircase(a, b)
    if cmat is None:
        cmat = _cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
    cells, masses = staircase.support()
    primal = _support_cost(cells, masses, cmat)

    diff = xs - t_vals
    dphi = np.sign(diff) * np.asarray(cost.dprofile(np.abs(diff)), dtype=float)
    dx = rho.grid.spacing[0]
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (dphi[1:] + dphi[:-1]) * dx)])
    psi = _column_min(cmat, phi)
    result = _checked_result(rho, g, cost, a, b, cmat, phi, psi, cells=cells, masses=masses,
                             primal=primal, solver="exact1d",
                             meta={"plan_nonzeros": int(cells.size)})

    return result, _map_field(rho, t_vals[:, None], g.grid)


def _largest_abs_cost(cmat: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    """max |c_ij| of a finite cost matrix, as max(C.max(), -C.min()) gives it.

    ``xs`` and ``ys`` are the (m, d) and (n, d) points of the rows and
    columns. In 1-d they are sorted and the profile increases with the
    distance, so C.max() is the larger corner entry C[0, -1] or C[-1, 0] and
    C.min() the least entry C[i, j] at a nearest y_j of some x_i, which
    ``np.searchsorted`` finds: 2m + 2 entries read in place of two passes
    over C. Other dimensions take the two passes.
    """
    if xs.shape[1] != 1:
        return max(float(cmat.max()), -float(cmat.min()))
    n = cmat.shape[1]
    above = np.searchsorted(ys[:, 0], xs[:, 0])  # y[above - 1] < x <= y[above]
    rows = np.arange(cmat.shape[0])
    near = min(cmat[rows, np.minimum(above, n - 1)].min(), cmat[rows, np.maximum(above - 1, 0)].min())
    return max(float(max(cmat[0, -1], cmat[-1, 0])), -float(near))


class _TransportationSimplex:
    """Transportation-problem solver: MODI pivoting on a strongly feasible rooted basis tree.

    The basis is a spanning tree of the bipartite row/column graph, kept
    rooted: nodes are rows ``0..m-1`` and columns ``m..m+n-1``, the root is
    column 0, and each node stores its parent, depth and dual (``duals[:m]``
    is u, ``duals[m:]`` is v). A basic cell is the arc from a node to its
    parent and holds its mass as ``flow`` at that lower node, so no m x n
    plan exists and a cell off the tree holds no mass.

    The tree stays strongly feasible (Cunningham, Math. Programming 1976):
    every row can send flow to the root along its path, so a cell of zero
    flow hangs a row, or a column with nothing below it. This is then the
    simplex of a perturbed problem where each row supplies (m + n) eps more
    and each column but the root demands eps more: a cell's flow changes by
    +-((m + n) R - C) eps for the R rows and C columns below it, never 0, so
    no basis is degenerate or repeats, whatever cell enters. Its ratio test
    takes the last cell of least flow to give up mass on a walk of the cycle
    from its apex that crosses the entering cell from row to column.

    ``tree`` is the start basis, a ``_Staircase.tree``, re-rooted at column
    0 (no tree rooted at row 0 is strongly feasible when row 0 holds no
    mass); v_0 = c_00 keeps the staircase's start gauge u_0 = 0. There a
    step down hangs a row, and a step right of zero mass hangs a leaf: it
    reaches a zero-mass column from a row that still holds mass, and the
    fill steps right again, or it runs along the last row. The last column
    is reached from a row that still holds mass, which it takes, so it
    hangs by positive flow or is a leaf. ``solve_lp`` builds a simplex only
    when the staircase fails its certificate, so there is always a pivot
    to make.

    A pivot climbs parent pointers from the entering cell's row and column
    to find the cycle, cuts the leaving cell, hangs the cut-off subtree
    from the entering cell and re-walks only that subtree. A dual is
    computed along its unique path from the root, parent first, as
    ``c_ij - dual[parent]``, so every node gets the bits a full walk of the
    tree would give it: re-walked nodes redo that arithmetic and the others
    keep their path. ``tol`` bounds the reduced costs that count as
    negative.
    """

    def __init__(self, cmat: np.ndarray, tree: tuple[np.ndarray, np.ndarray, np.ndarray],
                 tol: float):
        self.cmat = cmat
        m, n = self.m, self.n = cmat.shape
        self.tol = tol
        self.duals, parent, flow = tree
        parent, flow = parent.tolist(), flow.tolist()
        parent[0], parent[m] = m, -1
        flow[0], flow[m] = flow[m], 0.0
        self.parent, self.flow, self.depth = parent, flow, [0] * (m + n)
        self.children = [[] for _ in parent]
        for k, up in enumerate(parent):
            if up >= 0:
                self.children[up].append(k)
        self._rewalk(*self.children[m])

    def _cell(self, k: int) -> int:
        """The flat row-major index i n + j of the tree arc below node k."""
        up = self.parent[k]
        return k * self.n + up - self.m if k < self.m else up * self.n + k - self.m

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis's held (nonzero) cells, flat and row-major, and their masses."""
        # sorted() on the m + n - 1 arcs: np.argsort's first call faults in
        # about 0.2 MB of numpy's sort code, which shows in the peak RSS
        held = sorted((self._cell(k), mass) for k, mass in enumerate(self.flow) if mass != 0.0)
        return np.array([k for k, _ in held], dtype=np.intp), np.array([mass for _, mass in held])

    def _pivot(self, ei: int, ej: int) -> None:
        """Bring cell (ei, ej) into the basis and drop the leaving cell."""
        m, flow = self.m, self.flow
        parent, depth, children = self.parent, self.depth, self.children
        # the cycle: column ej and row ei climb to the node where they meet
        up_col, up_row = [m + ej], [ei]
        while depth[up_col[-1]] > depth[up_row[-1]]:
            up_col.append(parent[up_col[-1]])
        while depth[up_row[-1]] > depth[up_col[-1]]:
            up_row.append(parent[up_row[-1]])
        while up_col[-1] != up_row[-1]:
            up_col.append(parent[up_col[-1]])
            up_row.append(parent[up_row[-1]])
        # the tree path's cells from column ej to row ei, by their lower
        # nodes; signs alternate from - next to the entering cell, so the
        # even-indexed cells give up mass
        lows = up_col[:-1] + up_row[-2::-1]
        # those cells from the apex down to column ej, then from row ei up:
        # the ratio test's last cell of least flow is the first here
        gives = up_col[:-1:2][::-1] + up_row[:-1:2]
        theta = min(flow[k] for k in gives)
        out = next(k for k in gives if flow[k] == theta)
        for t, k in enumerate(lows):
            flow[k] += -theta if t % 2 == 0 else theta
        # cutting the leaving cell below its lower node `out` cuts off the
        # subtree that holds column ej if the cell is on its climb, else row ei
        inside, outside = (m + ej, ei) if out in up_col else (ei, m + ej)
        children[parent[out]].remove(out)
        # re-root the subtree at `inside` (reverse its path up to `out`) and
        # hang it from `outside` through the entering cell, which carries
        # theta; each reversed cell's mass moves to its new lower node
        k, up, mass = inside, outside, theta
        while True:
            old_up = parent[k]
            parent[k] = up
            children[up].append(k)
            flow[k], mass = mass, flow[k]
            if k == out:
                break
            children[old_up].remove(k)
            k, up = old_up, k
        self._rewalk(inside)

    def _rewalk(self, *tops: int) -> None:
        """Depths and duals of the subtrees under ``tops``, parents first."""
        m, parent, depth, children = self.m, self.parent, self.depth, self.children
        duals, dual, cost = self.duals, self.duals.item, self.cmat.item
        stack = list(tops)
        while stack:
            k = stack.pop()
            up = parent[k]
            duals[k] = (cost(k, up - m) if k < m else cost(up, k - m)) - dual(up)
            depth[k] = depth[up] + 1
            stack.extend(children[k])

    def pivot_until_optimal(self, max_pivots: int) -> tuple[int, np.ndarray]:
        """Pivot to optimality; returns the pivot count and psi, the first c-transform of the final u.

        Pricing is block search (Grigoriadis, Math. Prog. Study 1986; the
        rule of LEMON's network simplex). C is cut into pricing blocks of
        isqrt(m) rows. A pass scans them cyclically from the block after the
        one the last entering cell came from, and the first block holding a
        reduced cost t - v below -tol enters its least one, the first in
        row-major order on ties. A block is read in the pieces of its own
        ``_row_blocks``, each taking t = C - u into a buffer allocated once;
        a block is cut only beyond ``_BLOCK_ENTRIES``, and the pieces change
        no pivot. A block without a negative reduced cost folds its column
        minima into psi, so the pass that finds none leaves
        psi_j = min_i (c_ij - u_i) bit for bit ``_column_min(cmat, u)``.
        """
        cmat, m, n, limit = self.cmat, self.m, self.n, -self.tol
        u, v = self.duals[:m], self.duals[m:]  # views of ``duals``, which each pivot updates in place
        rows = math.isqrt(m)
        spans = [[(start + lo, start + hi) for lo, hi in _row_blocks(min(rows, m - start), n)]
                 for start in range(0, m, rows)]
        t = np.empty((spans[0][0][1], n))  # the first piece is the tallest
        reduced = np.empty_like(t)
        blocks = [[(lo, cmat[lo:hi], u[lo:hi, None], t[:hi - lo], reduced[:hi - lo])
                   for lo, hi in pieces] for pieces in spans]
        psi = np.empty(n)
        pivots = first = 0
        while True:
            psi.fill(np.inf)
            for block in range(first, first + len(blocks)):
                least, at = limit, -1
                for start, c_b, u_b, t_b, r_b in blocks[block % len(blocks)]:
                    np.subtract(c_b, u_b, out=t_b)
                    np.subtract(t_b, v, out=r_b)
                    k = int(r_b.argmin())
                    if r_b.item(k) < least:
                        least, at = r_b.item(k), start * n + k
                    elif at < 0:
                        np.minimum(psi, t_b.min(axis=0), out=psi)
                if at >= 0:
                    break
            else:
                return pivots, psi
            if pivots >= max_pivots:
                # the most negative reduced cost over all of C, not only this pass's blocks
                worst = min(float((np.subtract(c_b, u_b, out=t_b) - v).min())
                            for pieces in blocks for _, c_b, u_b, t_b, _ in pieces)
                raise ConvergenceError("transportation simplex exceeded its pivot budget",
                                       residual=-worst)
            first = block % len(blocks) + 1
            self._pivot(*divmod(at, n))
            pivots += 1


def solve_lp(rho: DensityField, g: DensityField, cost: RadialCost, *,
             cmat: np.ndarray | None = None,
             staircase: _Staircase | None = None) -> TransportResult:
    """Exact coupling by a certified north-west staircase or transportation-simplex pivoting.

    The start staircase's duals u, v come from ``_Staircase.tree`` and psi,
    the first c-transform of u, from ``_column_min``. As rounding is
    monotone, some reduced cost c_ij - u_i - v_j lies below -tol exactly
    when some psi_j - v_j does, so psi alone certifies the staircase. A
    certified staircase, as in 1-d for a convex cost, is the solve: the
    coupling is its support and primal its ``_support_cost``, as in
    ``solve_exact_1d``, and no m x n plan is built. Otherwise a
    ``_TransportationSimplex`` pivots from it to optimality; the coupling
    is its ``support`` and primal again its ``_support_cost``.
    Either way psi is the first c-transform of the final u and phi the
    second, so the returned pair is canonical and gradients of phi are safe
    to take. ``cmat`` is the source-by-target cost matrix and ``staircase``
    the ``_Staircase`` of the marginals, the start basis; each is built
    here when not given, and ``_cost_matrix`` refuses a pair past its size
    limit. The staircase does not depend on the cost, so solves of one
    density pair under several costs can share it.
    """
    a, b = _marginals(rho, g)
    xs, ys = rho.grid.cell_centers(), g.grid.cell_centers()
    if cmat is None:
        cmat = _cost_matrix(cost, xs, ys)
    if staircase is None:
        staircase = _Staircase(a, b)
    m = len(a)
    tree = staircase.tree(cmat)
    duals = tree[0]
    tol = 1e-11 * (1.0 + _largest_abs_cost(cmat, xs, ys))
    psi = _column_min(cmat, duals[:m])  # the first c-transform of the staircase's u
    if (psi - duals[m:] < -tol).any():
        simplex = _TransportationSimplex(cmat, tree, tol)
        pivots, psi = simplex.pivot_until_optimal(max_pivots=50 * (m + len(b)))
        cells, masses = simplex.support()
    else:
        pivots = 0
        cells, masses = staircase.support()
    primal = _support_cost(cells, masses, cmat)

    phi = _min_plus(lambda start, stop: cmat[start:stop], psi, m)  # the second c-transform
    result = _checked_result(rho, g, cost, a, b, cmat, phi, psi, cells=cells, masses=masses,
                             primal=primal, solver="lp", meta={"pivots": pivots})
    if result.gap > 1e-8 * (1.0 + abs(primal)):
        raise OTLabError(f"LP duality gap {result.gap:.3e} out of tolerance")
    return result


def _eps_ladder(eps_final: float, cmax: float) -> list[float]:
    """Cold-start widths eps_final 4^k, ..., 4 eps_final, eps_final of an epsilon-scaled solve.

    4^k eps_final is the largest such width below cmax/8; each width seeds the next.
    """
    levels = [float(eps_final)]
    while levels[-1] * 4.0 < cmax / 8.0:
        levels.append(levels[-1] * 4.0)
    return levels[::-1]


def _round_to_polytope(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project an almost-feasible plan onto exact marginals.

    Rows and columns are scaled down where they overshoot, then the missing
    mass is restored by a rank-one correction; the L1 perturbation is at most
    twice the original marginal violation.
    """
    rows = plan.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rscale = np.where(rows > a, a / rows, 1.0)
    plan = plan * rscale[:, None]
    cols = plan.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cscale = np.where(cols > b, b / cols, 1.0)
    plan = plan * cscale[None, :]
    err_a = np.maximum(a - plan.sum(axis=1), 0.0)
    err_b = np.maximum(b - plan.sum(axis=0), 0.0)
    s = err_a.sum()
    if s > 0:
        plan = plan + np.outer(err_a, err_b) / s
    return plan


def solve_entropic(rho: DensityField, g: DensityField, cost: RadialCost,
                   eps_final: float, *, cmat: np.ndarray | None = None) -> TransportResult:
    """Entropically regularized transport by log-domain dual ascent.

    Runs ``_scaling`` with the Sinkhorn row update f = softmin(g) over the
    epsilon-scaling ladder of ``_eps_ladder``; ``_MAX_SWEEPS`` caps the final
    width and ``_WARM_CAP`` the others. The plan (f, g) fits its columns
    exactly, and a width ends once its row-marginal violation falls below
    ``_RAW_MARGINAL_TOL`` = 1e-7 in L1. The plan is then rounded onto the
    transport polytope, so the returned coupling satisfies both marginals to
    float accuracy. The returned potentials are canonicalized by one exact
    double c-transform, so they satisfy the same feasibility contract as the
    exact solvers while the coupling keeps its entropic blur.

    Every sweep is one call of an ``_AnchoredKernel`` on the cost matrix,
    which the plan, the c-transforms and ``validate`` use too;
    ``meta["reanchors"]`` counts its re-anchors, the sweeps that ran an
    exact ``softmin``. ``cmat`` is the source-by-target cost matrix, built
    here when not given.
    """
    if not 0 < eps_final < np.inf:
        raise ParameterError(f"eps_final must be finite and positive, got {eps_final}")
    a, b = _marginals(rho, g)
    if cmat is None:
        cmat = _cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
    schedule = _eps_ladder(eps_final, float(cmat.max()))

    with np.errstate(divide="ignore"):
        loga = np.log(a)
        logb = np.log(b)

    kernel = _AnchoredKernel(cmat)
    f, gv, _, residual, iterations, _ = _scaling(
        kernel, np.zeros_like(a), loga, logb, schedule, lambda s, eps: (s, a),
        _RAW_MARGINAL_TOL, _MAX_SWEEPS)
    reanchors = kernel.reanchors
    del kernel  # its K goes before the plan is built
    if not residual <= _RAW_MARGINAL_TOL:
        raise ConvergenceError(f"entropic solver residual {residual:.3e} after {iterations} "
                               "iterations", residual=residual)

    plan = _round_to_polytope(np.exp(log_plan(cmat, f, gv, loga, logb, schedule[-1])), a, b)
    primal = float((plan * cmat).sum())
    cells = np.flatnonzero(plan)
    masses = plan.reshape(-1)[cells]
    del plan  # only the support is kept
    phi, psi = _canonical_pair_from_matrix(cmat, f)
    return _checked_result(rho, g, cost, a, b, cmat, phi, psi, cells=cells,
                           masses=masses, primal=primal, solver="entropic", meta={
                               "eps_final": float(eps_final),
                               "schedule": list(schedule),
                               "iterations": iterations,
                               "raw_marginal_residual": residual,
                               "reanchors": reanchors,
                           })


def _map_field(rho: DensityField, points: np.ndarray, target: Grid) -> MapField:
    """The ``MapField`` of map values ``points``, one row per cell of rho's grid.

    The mask holds the cells that carry more than a negligible mass, a
    density above 1e-10 / cell volume. Cells off it get their own center;
    every value is clipped to the box of ``target``, the grid the map maps
    into, and the largest clip distance is taken over the masked cells.
    """
    grid = rho.grid
    mask = rho.values.reshape(-1) > 1e-10 / grid.cell_volume
    points = np.where(mask[:, None], points, grid.cell_centers())
    clipped = target.clip(points)
    max_clip = float(np.abs(clipped - points)[mask].max()) if mask.any() else 0.0
    return MapField(grid, clipped, mask, max_clip, target)


def _clamped_gradient(phi, cost: RadialCost, grid: Grid):
    """Per-cell grad phi scaled into the cost's gradient range, with the raw norms and the range."""
    grad_phi = geometry.gradient(phi, grid).reshape(-1, grid.d)
    norms = np.sqrt((grad_phi**2).sum(axis=1))
    wmax = cost.grad_range()
    return grad_phi * (wmax / np.maximum(norms, wmax))[:, None], norms, wmax


def transport_map_from_potential(phi, cost: RadialCost, rho: DensityField) -> MapField:
    """Assemble T(x) = x - grad_h_star(grad phi(x)) on cells carrying mass.

    The map is taken into rho's own grid, which every caller's target
    shares. Finite-difference gradients of a canonical potential stay inside
    the gradient range of the cost up to discretization error; a relative
    overshoot beyond 0.1% signals a non-c-concave input and raises instead
    of being clipped silently. Map values are clipped to the box and the
    worst clip distance is recorded.
    """
    grid = rho.grid
    grad_phi, norms, wmax = _clamped_gradient(phi, cost, grid)
    map_field = _map_field(rho, grid.cell_centers() - grad_h_star(cost, grad_phi), grid)
    norms = norms[map_field.mask]
    if norms.size and norms.max() > wmax * (1.0 + 1e-3):
        raise RangeError(
            f"|grad phi| = {norms.max():.6g} exceeds the gradient range "
            f"{wmax:.6g}; the potential is not c-concave on this grid"
        )
    return map_field


@dataclass(frozen=True)
class MapConsistencyReport:
    """Mass-weighted residuals of the gradient identities along the map.

    residual_psi: |grad psi(T(x)) + grad h(x - T(x))| per masked cell.
    residual_phi: |grad phi(x) - grad h(x - T(x))| per masked cell.
    """

    residual_psi: np.ndarray = field(repr=False)
    residual_phi: np.ndarray = field(repr=False)
    median_psi: float
    median_phi: float


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Quantile of ``values`` under nonnegative ``weights`` (left-continuous)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    if cw[-1] <= 0:
        return float("nan")
    return float(v[np.searchsorted(cw, q * cw[-1], side="left").clip(0, len(v) - 1)])


def map_consistency_check(phi, psi, map_field: MapField, cost: RadialCost,
                          rho: DensityField, target_grid: Grid | None = None) -> MapConsistencyReport:
    """Check -grad psi(T(x)) = grad h(x - T(x)) = grad phi(x) in the discrete setting.

    grad psi is interpolated multilinearly at the mapped points; both
    residual families are summarized by rho-weighted medians, which must
    shrink under grid refinement.
    """
    grid = rho.grid
    tgrid = target_grid or grid
    mask = map_field.mask
    xs = grid.cell_centers()[mask]
    ts = map_field.points[mask]
    diff = xs - ts
    gh = grad_h(cost, diff)

    grad_phi = geometry.gradient(phi, grid).reshape(-1, grid.d)[mask]
    grad_psi_field = geometry.gradient(np.reshape(psi, tgrid.shape), tgrid)
    grad_psi_at_t = np.stack(
        [
            geometry.interp_multilinear(tgrid, grad_psi_field[..., axis], ts)
            for axis in range(tgrid.d)
        ],
        axis=-1,
    )

    res_psi = np.sqrt(((grad_psi_at_t + gh) ** 2).sum(axis=1))
    res_phi = np.sqrt(((grad_phi - gh) ** 2).sum(axis=1))
    weights = rho.values.reshape(-1)[mask] * grid.cell_volume
    return MapConsistencyReport(
        residual_psi=res_psi,
        residual_phi=res_phi,
        median_psi=weighted_quantile(res_psi, weights, 0.5),
        median_phi=weighted_quantile(res_phi, weights, 0.5),
    )


def write_result_dir(path, result: TransportResult, map_field: MapField | None = None) -> None:
    """Serialize a result to a directory of CSV files plus a key-value meta file."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    ii, jj = np.divmod(result.cells, result.target.grid.num_cells)
    write_rows(out / "coupling.csv",
               [("i", "j", "mass"), *zip(ii.tolist(), jj.tolist(), result.masses.tolist())])

    geometry.write_field_csv(out / "phi.csv", result.source.grid, result.phi, "phi")
    geometry.write_field_csv(out / "psi.csv", result.target.grid, result.psi, "psi")

    if map_field is not None:
        grid = map_field.grid
        coord_names = ["x", "y"][: grid.d]
        header = coord_names + [f"t_{c}" for c in coord_names] + ["defined"]
        cells = zip(grid.cell_centers().tolist(), map_field.points.tolist(), map_field.mask.tolist())
        write_rows(out / "map.csv", [header, *([*x, *t, m] for x, t, m in cells)])

    meta = {
        "solver": result.solver,
        "primal": result.primal,
        "dual": result.dual,
        "gap": result.gap,
        "source_cells": result.source.grid.num_cells,
        "target_cells": result.target.grid.num_cells,
        "cost_family": result.cost.family,
    }
    if result.cost.exponent is not None:
        meta["cost_exponent"] = result.cost.exponent
    if map_field is not None:
        meta["max_clip_distance"] = map_field.max_clip_distance
    for key, value in result.meta.items():
        if isinstance(value, (list, tuple)):
            value = ";".join(format_cell(float(v)) for v in value)
        meta[key] = value
    write_rows(out / "meta", ([f"{key}={format_cell(meta[key])}"] for key in sorted(meta)))


def read_meta(path) -> dict:
    """Parse a key-value meta file back into a dict of strings."""
    meta = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            meta[key] = value
    return meta

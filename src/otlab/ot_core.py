"""Discrete optimal transport for costs h(x - y) and potential recovery.

Three solvers share one result type: an exact 1-d solver built on monotone
rearrangement (the reference oracle), an exact transportation-simplex LP for
desk-scale instances in any dimension, and a log-domain entropic solver with
epsilon scaling for everything larger. All potentials can be canonicalized
by c-transforms, after which the transport map is assembled pointwise as
T(x) = x - grad_h_star(grad phi(x)).
"""

from __future__ import annotations

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
    "default_mass_threshold",
    "write_result_dir",
    "read_meta",
]

_FEASIBILITY_SLACK = 1e-9
_MARGINAL_TOL = 1e-8
_GAP_FLOOR = -1e-10
_LP_CAPACITY = 4096 * 4096
# entropic solver: L1 marginal residual that ends a level; sweep caps of
# its last width and of every warm-up width of an epsilon-scaled solve
_RAW_MARGINAL_TOL = 1e-7
_MAX_SWEEPS = 20000
_WARM_CAP = 200
# number of past differences _fixed_point mixes
_ANDERSON_DEPTH = 5
# log-sum-exp: shifted exponents are raised to this; numpy's vectorized exp
# leaves its fast path for inputs whose result is subnormal (below about -708)
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class TransportResult:
    """Optimal coupling between two grid densities plus dual potentials.

    The coupling is dense (desk scale); phi lives on the source grid, psi on
    the target grid, both in cost units. The duality gap is primal - dual.
    """

    source: DensityField
    target: DensityField
    cost: RadialCost = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    primal: float
    dual: float
    solver: str
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def gap(self) -> float:
        return self.primal - self.dual

    def validate(self, cmat: np.ndarray | None = None) -> None:
        """Assert the coupling/potential contracts; raises on violation.

        ``cmat`` is the solve's source-by-target cost matrix, built here when
        not given; the solvers pass the one they solved with.
        """
        a = self.source.values.reshape(-1) * self.source.grid.cell_volume
        b = self.target.values.reshape(-1) * self.target.grid.cell_volume
        rows = self.coupling.sum(axis=1)
        cols = self.coupling.sum(axis=0)
        if np.abs(rows - a).max() > _MARGINAL_TOL:
            raise OTLabError(
                f"coupling row sums violate the source marginal by {np.abs(rows - a).max():.3e}"
            )
        if np.abs(cols - b).max() > _MARGINAL_TOL:
            raise OTLabError(
                f"coupling column sums violate the target marginal by {np.abs(cols - b).max():.3e}"
            )
        if self.gap < _GAP_FLOOR:
            raise OTLabError(f"duality gap {self.gap:.3e} is below {_GAP_FLOOR}")
        if cmat is None:
            cmat = _cost_matrix(self.cost, self.source.grid.cell_centers(), self.target.grid.cell_centers())
        worst = (self.phi.reshape(-1)[:, None] + self.psi.reshape(-1)[None, :] - cmat).max()
        if worst > _FEASIBILITY_SLACK:
            raise OTLabError(f"potentials violate phi + psi <= h by {worst:.3e}")


@dataclass(frozen=True)
class MapField:
    """Transport map sampled at source cells, defined where mass is not negligible.

    ``points`` has one target point per source cell (row-major); entries off
    the mask carry the cell center itself and are meaningless. Map values are
    clipped to the box; the largest clip distance is kept for diagnostics.
    """

    grid: Grid
    points: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    max_clip_distance: float = 0.0

    def __post_init__(self):
        if self.points.shape != (self.grid.num_cells, self.grid.d):
            raise OTLabError("map points must be (num_cells, d)")
        if not np.all(self.grid.contains(self.points[self.mask])):
            raise OTLabError("masked map values must lie inside the box")


def default_mass_threshold(grid: Grid) -> float:
    """Cells with density at or below this carry negligible mass."""
    return 1e-10 / grid.cell_volume


def _cost_matrix(cost: RadialCost, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Dense matrix h(x_i - y_j); raises if any pair leaves the cost ball."""
    diff = xs[:, None, :] - ys[None, :, :]
    r = np.square(diff, out=diff).sum(axis=-1)  # in place: one (N, M, d) temporary
    np.sqrt(r, out=r)
    if r.max() > cost.radius * (1.0 + 1e-9):
        raise DomainError(
            f"grid pair distance {r.max():.6g} exceeds the cost radius {cost.radius:.6g}"
        )
    return np.asarray(cost.profile(r), dtype=float)


def _log_sum_exp(z: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(z) along ``axis``, overwriting z.

    Slices are shifted by their maximum unless it is infinite, so -inf
    entries add nothing and an all -inf slice gives -inf. Shifted entries
    are raised to ``_EXP_FLOOR`` before ``exp``: a slice with a finite
    maximum holds an exact exp(0) = 1 term, next to which every term below
    exp(_EXP_FLOOR) < 1e-304 is lost in rounding either way, so the sums
    keep their bits while ``exp`` stays off its slow subnormal path.
    """
    zmax = z.max(axis=axis, keepdims=True)
    empty = np.squeeze(zmax == -np.inf, axis)
    zmax[~np.isfinite(zmax)] = 0.0
    z -= zmax
    np.maximum(z, _EXP_FLOOR, out=z)
    out = np.log(np.exp(z, out=z).sum(axis=axis)) + np.squeeze(zmax, axis)
    out[empty] = -np.inf
    return out


def softmin(cmat: np.ndarray, pot: np.ndarray, logw: np.ndarray, eps: float,
            axis: int) -> np.ndarray:
    """Softmin -eps log sum_k exp((pot_k - C)/eps + logw_k) along ``axis`` of C.

    The update of every Sinkhorn-type loop here. Slices are shifted by their
    maximum unless it is infinite, so zero weights (``logw = -inf``) add
    nothing and an all ``-inf`` slice gives +inf.
    """
    shape = (-1, 1) if axis == 0 else (1, -1)
    return -eps * _log_sum_exp((pot.reshape(shape) - cmat) / eps + logw.reshape(shape), axis)


def _axis_factors(source: Grid, target: Grid) -> list[np.ndarray]:
    """Per-axis matrices (x_a,i - y_a,j)^2 / 2; on the product grids they sum to |x - y|^2 / 2."""
    return [(source.axis_centers(a)[:, None] - target.axis_centers(a)[None, :]) ** 2 / 2.0
            for a in range(source.d)]


def _separable_softmin(factors: list[np.ndarray], pot: np.ndarray, logw: np.ndarray,
                       eps: float, axis: int) -> np.ndarray:
    """``softmin`` for the 2-d cost C = F_0 (+) F_1 given by its ``_axis_factors``.

    The sum over the 2-d index runs as two batched 1-d sums, the last grid
    axis first: p1 q2 (p2 + q1) terms in place of p1 p2 q1 q2. Each stage
    keeps ``softmin``'s shift, so zero weights add nothing and an all
    ``-inf`` slice gives +inf. ``axis`` is the axis of C summed over, as in
    ``softmin``; for axis 1 the factors are transposed.
    """
    f0, f1 = factors if axis == 0 else (factors[0].T, factors[1].T)
    p1, p2 = f0.shape[0], f1.shape[0]
    z = (pot.reshape(p1, p2, 1) - f1) / eps + logw.reshape(p1, p2, 1)
    w = _log_sum_exp(z, 1)  # (p1, q2)
    return -eps * _log_sum_exp(w[:, None, :] - f0[:, :, None] / eps, 0).reshape(-1)


def log_plan(cmat: np.ndarray, f: np.ndarray, g: np.ndarray, x_log: np.ndarray,
             y_log: np.ndarray, eps: float) -> np.ndarray:
    """Log of the plan exp((f_i + g_j - C_ij)/eps) x_i y_j for log weights x, y."""
    return (f[:, None] + g[None, :] - cmat) / eps + x_log[:, None] + y_log[None, :]


def _row_gap(mass: np.ndarray, f: np.ndarray, f_next: np.ndarray, eps: float) -> float:
    """Row-marginal L1 error sum |mass expm1((f - f_next)/eps)| over rows with mass."""
    live = mass > 0
    return float(np.abs(mass[live] * np.expm1((f[live] - f_next[live]) / eps)).sum())


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
    """
    x, plain, live = x0, None, None  # plain: the plain update x was mixed from
    updates, residuals = [], []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for sweeps in range(1, cap + 1):
            fx, residual, extra = step(x)
            if residual <= tol or sweeps == cap:
                break
            if not np.isfinite(residual):
                x, plain, live = fx if plain is None else plain, None, None
                continue
            now_live = np.isfinite(x) & np.isfinite(fx)
            if live is None or not np.array_equal(now_live, live):
                live, updates, residuals = now_live, [], []
            updates.append(fx[live])
            residuals.append(fx[live] - x[live])
            del updates[:-_ANDERSON_DEPTH - 1], residuals[:-_ANDERSON_DEPTH - 1]
            x, plain = fx, None
            d_res = np.diff(residuals, axis=0).T
            if d_res.size and np.isfinite(d_res).all():
                gamma = np.linalg.lstsq(d_res, residuals[-1], rcond=None)[0]
                mixed = updates[-1] - np.diff(updates, axis=0).T @ gamma
                if np.isfinite(mixed).all():
                    x, plain = fx.copy(), fx
                    x[live] = mixed
    return x, residual, sweeps, extra


def _scaling(kernel, f: np.ndarray, x_log: np.ndarray, y_log: np.ndarray, levels,
             row_update, tol: float, cap: int):
    """Generic scaling loop (Chizat, Peyre, Schmitzer and Vialard 2018) over the widths ``levels``.

    At width eps, ``_fixed_point`` iterates f <- f_next, where g = kernel(f, x_log, eps, 0)
    fits the columns, (f_next, masses) = row_update(kernel(g, y_log, eps, 1), eps) is the
    row prox, and the residual is the ``_row_gap`` of masses. ``kernel`` takes ``softmin``'s
    arguments after the cost. Each width warm-starts the next; the last gets ``cap`` sweeps,
    the others ``_WARM_CAP``. Returns (f, g, masses, residual, sweeps summed over widths).
    """
    sweeps = 0
    for level, eps in enumerate(levels):
        def step(f):
            g = kernel(f, x_log, eps, 0)
            f_next, masses = row_update(kernel(g, y_log, eps, 1), eps)
            return f_next, _row_gap(masses, f, f_next, eps), (g, masses)

        f, residual, level_sweeps, (g, masses) = _fixed_point(
            step, f, tol, cap if level == len(levels) - 1 else _WARM_CAP)
        sweeps += level_sweeps
    return f, g, masses, residual, sweeps


def _min_plus(cost_rows, vals: np.ndarray, n_out: int) -> np.ndarray:
    """out[k] = min_l [C[k, l] - vals[l]] for the n_out rows of a cost matrix C.

    ``cost_rows(start, stop)`` returns rows start..stop of C; they are taken
    in blocks of at most 2**22 pairs, which caps the temporaries.
    """
    out = np.empty(n_out)
    block = max(1, int(2**22 // max(vals.size, 1)))
    for start in range(0, n_out, block):
        stop = min(start + block, n_out)
        out[start:stop] = (cost_rows(start, stop) - vals[None, :]).min(axis=1)
    return out


def c_transform(cost: RadialCost, values, value_grid: Grid, eval_grid: Grid | None = None) -> np.ndarray:
    """Exact discrete c-transform: out(x) = min_y [h(x - y) - values(y)].

    ``values`` lives on ``value_grid``; the minimum is taken over its cells
    and evaluated at every cell of ``eval_grid`` (default: the same grid).
    Because h is radial the same function serves both transform directions.
    The cost is built block by block, so large grids need no full matrix.
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

    psi = min over rows of (C - phi), then phi = min over columns of (C - psi).
    For a radial h, h(y - x) = h(x - y) bit for bit, so this equals two
    ``c_transform`` calls exactly.
    """
    psi = _min_plus(lambda start, stop: cmat[:, start:stop].T, phi, cmat.shape[1])
    return _min_plus(lambda start, stop: cmat[start:stop], psi, cmat.shape[0]), psi


def canonical_pair(cost: RadialCost, phi, source_grid: Grid, target_grid: Grid):
    """One double c-transform: psi = min_x [h - phi], then phi = min_y [h - psi].

    The result is a feasible c-concave pair and a fixed point of the
    transform; applied to feasible dual variables it never lowers the dual
    objective. Both transforms share one source-by-target cost matrix; the
    solvers hand theirs to ``_canonical_pair_from_matrix`` directly.
    """
    vals = np.asarray(phi, dtype=float).reshape(-1)
    if vals.size != source_grid.num_cells:
        raise OTLabError("values do not match the value grid")
    cmat = _cost_matrix(cost, source_grid.cell_centers(), target_grid.cell_centers())
    phi_c, psi = _canonical_pair_from_matrix(cmat, vals)
    return phi_c.reshape(source_grid.shape), psi.reshape(target_grid.shape)


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


def _monotone_plan(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Northwest-corner filling of sorted 1-d marginals: the monotone plan.

    Also returns the m + n - 1 staircase cells the fill visits, in order;
    some may carry zero mass. They span the bipartite row/column graph, so
    they form a starting basis for the transportation simplex.
    """
    m, n = len(a), len(b)
    plan = np.zeros((m, n))
    path = []
    ar = a.tolist()  # plain floats: the same IEEE arithmetic, no numpy scalars
    br = b.tolist()
    i = j = 0
    while True:
        path.append((i, j))
        move = min(ar[i], br[j])
        plan[i, j] = move
        ar[i] -= move
        br[j] -= move
        if i == m - 1 and j == n - 1:
            break
        if ar[i] == 0.0 and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return plan, path


def solve_exact_1d(rho: DensityField, g: DensityField, cost: RadialCost,
                   mass_threshold: float | None = None) -> tuple[TransportResult, MapField]:
    """Exact 1-d transport by monotone rearrangement (quantile matching).

    Strict convexity of the cost along the line makes the monotone plan
    optimal for any cost in the family, so this doubles as the oracle the
    other solvers are tested against. The potential phi is recovered by
    integrating phi'(x) = h'(x - T(x)) from the left end (phi(left) = 0) and
    psi as the c-transform of phi, which keeps the pair feasible.
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

    plan, _ = _monotone_plan(a, b)
    ii, jj = np.nonzero(plan)
    primal = float((plan[ii, jj] * cost.profile(np.abs(xs[ii] - ys[jj]))).sum())

    diff = xs - t_vals
    dphi = np.sign(diff) * np.asarray(cost.dprofile(np.abs(diff)), dtype=float)
    dx = rho.grid.spacing[0]
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (dphi[1:] + dphi[:-1]) * dx)])
    cmat = _cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
    psi = _min_plus(lambda start, stop: cmat[:, start:stop].T, phi, cmat.shape[1])
    dual = float(phi @ a + psi @ b)

    result = TransportResult(
        source=rho,
        target=g,
        cost=cost,
        coupling=plan,
        phi=phi.reshape(rho.grid.shape),
        psi=psi.reshape(g.grid.shape),
        primal=primal,
        dual=dual,
        solver="exact1d",
        meta={"plan_nonzeros": int(len(ii))},
    )
    result.validate(cmat)

    threshold = default_mass_threshold(rho.grid) if mass_threshold is None else mass_threshold
    mask = rho.values.reshape(-1) > threshold
    points = t_vals[:, None]
    clipped = rho.grid.clip(points)
    max_clip = float(np.abs(clipped - points).max()) if points.size else 0.0
    map_field = MapField(rho.grid, clipped, mask, max_clip)
    return result, map_field


class _TransportationSimplex:
    """Dense transportation-problem solver: NW-corner start, MODI pivoting.

    The basis is a spanning tree of the bipartite row/column graph, kept
    rooted: nodes are rows ``0..m-1`` and columns ``m..m+n-1``, the root is
    row 0 with u_0 = 0, and each node stores its parent, depth and dual
    (``duals[:m]`` is u, ``duals[m:]`` is v). Entering cells are picked by
    smallest reduced cost index and leaving ties broken by smallest index
    (Bland's rule, no cycling).

    The start basis is the north-west staircase of ``_monotone_plan``;
    walking it in order reaches each row or column from the cell that adds
    it, which gives every node its parent. In 1-d the staircase is optimal
    (Hoffman 1963) and no pivot comes. A pivot climbs parent pointers from
    the entering cell's row and column to find the cycle, cuts the leaving
    cell, hangs the cut-off subtree from the entering cell and re-walks only
    that subtree. A dual is computed along its unique path from row 0,
    parent first, as ``c_ij - dual[parent]``, so every node gets the bits a
    full walk of the tree from row 0 would give it: re-walked nodes redo
    that arithmetic and the others keep their path.
    """

    def __init__(self, cmat: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.cmat = cmat
        self.m, self.n = cmat.shape
        self.x, self.path = _monotone_plan(a, b)
        self.tol = 1e-11 * (1.0 + float(np.abs(cmat).max()))
        self.children: list[list[int]] | None = None  # built at the first pivot

    def staircase_duals(self) -> tuple[np.ndarray, np.ndarray]:
        """u_i + v_j = c_ij on the start staircase, anchored at u_0 = 0.

        Also roots the basis tree: sets ``parent`` (-1 at the root),
        ``depth`` and ``duals``.
        """
        m = self.m
        ii, jj = np.array(self.path).T
        costs = self.cmat[ii, jj].tolist()
        dual = [0.0] * (m + self.n)
        parent = [-1] * (m + self.n)
        depth = [0] * (m + self.n)
        prev_i = 0
        for i, j, c in zip(ii.tolist(), jj.tolist(), costs):
            if i != prev_i:  # a row step reaches row i through column j
                node, up = i, m + j
                prev_i = i
            else:  # the first cell or a column step reaches column j
                node, up = m + j, i
            dual[node] = c - dual[up]
            parent[node] = up
            depth[node] = depth[up] + 1
        self.parent, self.depth = parent, depth
        self.duals = np.array(dual)
        return self.duals[:m], self.duals[m:]

    def _pivot(self, ei: int, ej: int) -> None:
        """Bring cell (ei, ej) into the basis and drop the leaving cell."""
        m, n, x = self.m, self.n, self.x
        parent, depth = self.parent, self.depth
        # the cycle: column ej and row ei climb to the node where they meet
        up_col, up_row = [m + ej], [ei]
        while depth[up_col[-1]] > depth[up_row[-1]]:
            up_col.append(parent[up_col[-1]])
        while depth[up_row[-1]] > depth[up_col[-1]]:
            up_row.append(parent[up_row[-1]])
        while up_col[-1] != up_row[-1]:
            up_col.append(parent[up_col[-1]])
            up_row.append(parent[up_row[-1]])
        nodes = up_col + up_row[-2::-1]  # the tree path from column ej to row ei
        cells = [(k, l - m) if k < m else (l, k - m) for k, l in zip(nodes, nodes[1:])]
        # walk order: entering cell, then the path; signs alternate from +,
        # so the path's even-indexed cells give up mass
        theta = min(x[c] for c in cells[::2])
        out = min(
            (t for t in range(0, len(cells), 2) if x[cells[t]] == theta),
            key=lambda t: cells[t][0] * n + cells[t][1],
        )
        x[ei, ej] += theta
        for t, c in enumerate(cells):
            x[c] += -theta if t % 2 == 0 else theta
        x[cells[out]] = 0.0
        # cut the leaving cell below its upper node; the cut-off subtree
        # holds column ej if the cell is on its climb, else row ei
        if out < len(up_col) - 1:
            cut, inside, outside = nodes[out], m + ej, ei
        else:
            cut, inside, outside = nodes[out + 1], ei, m + ej
        if self.children is None:
            self.children = [[] for _ in parent]
            for k, up in enumerate(parent[1:], 1):
                self.children[up].append(k)
        children = self.children
        children[parent[cut]].remove(cut)
        # re-root the subtree at `inside` (reverse its path up to `cut`)
        # and hang it from `outside` through the entering cell
        k, up = inside, outside
        while True:
            old_up = parent[k]
            parent[k] = up
            children[up].append(k)
            if k == cut:
                break
            children[old_up].remove(k)
            k, up = old_up, k
        self._rewalk(inside)

    def _rewalk(self, top: int) -> None:
        """Depths and duals of the subtree under ``top``, parents first."""
        m, parent, depth, children = self.m, self.parent, self.depth, self.children
        duals, dual, cost = self.duals, self.duals.item, self.cmat.item
        stack = [top]
        while stack:
            k = stack.pop()
            up = parent[k]
            duals[k] = (cost(k, up - m) if k < m else cost(up, k - m)) - dual(up)
            depth[k] = depth[up] + 1
            stack.extend(children[k])

    def pivot_until_optimal(self, max_pivots: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Pivot to optimality; returns the pivot count and the final duals u, v."""
        pivots = 0
        u, v = self.staircase_duals()  # views of ``duals``, which each pivot updates in place
        reduced = self.cmat - u[:, None] - v[None, :]
        negative = reduced < -self.tol
        while True:
            k = int(negative.argmax())  # the first True in row-major order
            if not negative.flat[k]:
                return pivots, u, v
            if pivots >= max_pivots:
                raise ConvergenceError(
                    "transportation simplex exceeded its pivot budget",
                    residual=float(-reduced.min()),
                )
            self._pivot(*divmod(k, self.n))
            pivots += 1
            np.subtract(self.cmat, u[:, None], out=reduced)
            np.subtract(reduced, v[None, :], out=reduced)
            np.less(reduced, -self.tol, out=negative)


def solve_lp(rho: DensityField, g: DensityField, cost: RadialCost) -> TransportResult:
    """Exact coupling by transportation-simplex pivoting on the dense cost.

    Dual variables from the final basis tree are canonicalized by a double
    c-transform before they are returned, so gradients of phi are safe to
    take. Instances beyond ``_LP_CAPACITY`` cells squared are refused.
    """
    if rho.grid.num_cells * g.grid.num_cells > _LP_CAPACITY:
        raise CapacityError(
            f"instance size {rho.grid.num_cells} x {g.grid.num_cells} exceeds the limit"
        )
    a, b = _marginals(rho, g)
    cmat = _cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
    simplex = _TransportationSimplex(cmat, a, b)
    pivots, u, _ = simplex.pivot_until_optimal(max_pivots=50 * (len(a) + len(b)))
    primal = float((simplex.x * cmat).sum())

    phi, psi = _canonical_pair_from_matrix(cmat, u)
    dual = float(phi @ a + psi @ b)
    result = TransportResult(
        source=rho,
        target=g,
        cost=cost,
        coupling=simplex.x,
        phi=phi.reshape(rho.grid.shape),
        psi=psi.reshape(g.grid.shape),
        primal=primal,
        dual=dual,
        solver="lp",
        meta={"pivots": pivots},
    )
    result.validate(cmat)
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
                   eps_final: float) -> TransportResult:
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

    On 2-d grids with the power cost p = 2 the sweeps run axis by axis
    (``_separable_softmin`` on the per-axis factors of |x - y|^2 / 2);
    every other solve uses the dense ``softmin``. The plan, the
    c-transforms and ``validate`` use the dense cost matrix either way, and
    ``meta["kernel"]`` records the path taken ("separable" or "dense").
    """
    if not eps_final > 0:
        raise ParameterError("eps_final must be positive")
    a, b = _marginals(rho, g)
    cmat = _cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
    schedule = _eps_ladder(eps_final, float(cmat.max()))

    with np.errstate(divide="ignore"):
        loga = np.log(a)
        logb = np.log(b)

    if rho.grid.d == g.grid.d == 2 and cost.family == "power" and cost.exponent == 2.0:
        factors = _axis_factors(rho.grid, g.grid)
        kernel, sweep_softmin = "separable", partial(_separable_softmin, factors)
    else:
        kernel, sweep_softmin = "dense", partial(softmin, cmat)

    f, gv, _, residual, iterations = _scaling(
        sweep_softmin, np.zeros_like(a), loga, logb, schedule, lambda s, eps: (s, a),
        _RAW_MARGINAL_TOL, _MAX_SWEEPS)
    if not residual <= _RAW_MARGINAL_TOL:
        raise ConvergenceError(f"entropic solver residual {residual:.3e} after {iterations} "
                               "iterations", residual=residual)

    plan = _round_to_polytope(np.exp(log_plan(cmat, f, gv, loga, logb, schedule[-1])), a, b)
    primal = float((plan * cmat).sum())
    phi, psi = _canonical_pair_from_matrix(cmat, f)
    dual = float(phi @ a + psi @ b)
    result = TransportResult(
        source=rho,
        target=g,
        cost=cost,
        coupling=plan,
        phi=phi.reshape(rho.grid.shape),
        psi=psi.reshape(g.grid.shape),
        primal=primal,
        dual=dual,
        solver="entropic",
        meta={
            "eps_final": float(eps_final),
            "schedule": list(schedule),
            "iterations": iterations,
            "kernel": kernel,
            "raw_marginal_residual": residual,
        },
    )
    result.validate(cmat)
    return result


def _clamped_gradient(phi, cost: RadialCost, grid: Grid):
    """Per-cell grad phi scaled into the cost's gradient range, with the raw norms and the range."""
    grad_phi = geometry.gradient(np.asarray(phi, dtype=float), grid).components.reshape(-1, grid.d)
    norms = np.sqrt((grad_phi**2).sum(axis=1))
    wmax = cost.grad_range()
    return grad_phi * (wmax / np.maximum(norms, wmax))[:, None], norms, wmax


def transport_map_from_potential(phi, cost: RadialCost, rho: DensityField,
                                 mass_threshold: float | None = None) -> MapField:
    """Assemble T(x) = x - grad_h_star(grad phi(x)) on cells carrying mass.

    Finite-difference gradients of a canonical potential stay inside the
    gradient range of the cost up to discretization error; a relative
    overshoot beyond 0.1% signals a non-c-concave input and raises instead
    of being clipped silently. Map values are clipped to the box and the
    worst clip distance is recorded.
    """
    grid = rho.grid
    grad_phi, norms, wmax = _clamped_gradient(phi, cost, grid)
    threshold = default_mass_threshold(grid) if mass_threshold is None else mass_threshold
    mask = rho.values.reshape(-1) > threshold
    if norms[mask].size and norms[mask].max() > wmax * (1.0 + 1e-3):
        raise RangeError(
            f"|grad phi| = {norms[mask].max():.6g} exceeds the gradient range "
            f"{wmax:.6g}; the potential is not c-concave on this grid"
        )
    displacement = grad_h_star(cost, grad_phi)
    points = grid.cell_centers() - displacement
    points[~mask] = grid.cell_centers()[~mask]
    clipped = grid.clip(points)
    max_clip = float(np.abs(clipped - points)[mask].max()) if mask.any() else 0.0
    return MapField(grid, clipped, mask, max_clip)


@dataclass(frozen=True)
class MapConsistencyReport:
    """Mass-weighted residuals of the gradient identities along the map.

    residual_psi: |grad psi(T(x)) + grad h(x - T(x))| per masked cell.
    residual_phi: |grad phi(x) - grad h(x - T(x))| per masked cell.
    """

    residual_psi: np.ndarray = field(repr=False)
    residual_phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    median_psi: float
    median_phi: float
    q95_psi: float
    q95_phi: float


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
    residual families are summarized by rho-weighted medians and 95th
    percentiles, which must shrink under grid refinement.
    """
    grid = rho.grid
    tgrid = target_grid or grid
    mask = map_field.mask
    xs = grid.cell_centers()[mask]
    ts = map_field.points[mask]
    diff = xs - ts
    gh = grad_h(cost, diff)

    grad_phi = geometry.gradient(np.asarray(phi, dtype=float), grid).components.reshape(-1, grid.d)[mask]
    psi_arr = np.asarray(psi, dtype=float).reshape(tgrid.shape)
    grad_psi_field = geometry.gradient(psi_arr, tgrid).components
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
        weights=weights,
        median_psi=weighted_quantile(res_psi, weights, 0.5),
        median_phi=weighted_quantile(res_phi, weights, 0.5),
        q95_psi=weighted_quantile(res_psi, weights, 0.95),
        q95_phi=weighted_quantile(res_phi, weights, 0.95),
    )


def write_result_dir(path, result: TransportResult, map_field: MapField | None = None) -> None:
    """Serialize a result to a directory of CSV files plus a key-value meta file."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    ii, jj = np.nonzero(result.coupling)
    masses = result.coupling[ii, jj].tolist()
    write_rows(out / "coupling.csv", [("i", "j", "mass"), *zip(ii.tolist(), jj.tolist(), masses)])

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

"""Discrete verification of the five-gradients inequality and its companions.

For optimal potentials (phi, psi) of the transport between densities rho and
g with cost h(x - y), and any convex radial H with H(0) = 0, the continuum
inequality

    integral( grad rho . grad_H(grad phi) + grad g . grad_H(grad psi) ) >= 0

holds, with the convention grad_H(0) = 0. ``five_gradients`` is the one
evaluator of the integrand, its midpoint-rule integral and the boundary flux,
and ``verify_batch`` is the one path that solves and reports instances. On a
grid the integral picks up discretization error, so the batch verifier
compares the midpoint-rule value against a resolution-dependent tolerance

    tol(n) = KAPPA * (TV(rho) + TV(g)) * n**(-1/2),

where KAPPA was calibrated once on the reference batch (20 seeds, p in
{1.5, 2, 3}, q in {1.5, 2, 4}, 1-d, n = 128, LP solver) and is now frozen.

The supporting diagnostics mirror the structure of the argument behind the
inequality: the boundary flux that integration by parts discards must be
nonnegative, canonical potentials inherit the semiconcavity constant of the
cost, the map-level second-order bound D2 phi(x) + D2 psi(T(x)) <= 0 holds
rho-a.e., and the maps of mollified costs converge to the unmollified map as
the mollification width shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cost import (
    RadialCost,
    check_mollify_width,
    grad_H,
    grad_h_star,
    mollify,
    power_cost,
    power_h_function,
)
from .errors import DomainError, OTLabError, ParameterError, ShapeError
from .geometry import (
    DENSITY_FLOOR,
    DensityField,
    Grid,
    boundary_cells_and_normals,
    gradient,
    interp_multilinear,
    random_smooth_density,
    write_rows,
)
from .ot_core import (
    TransportResult,
    _clamped_gradient,
    _cost_matrix,
    _marginals,
    _Staircase,
    solve_entropic,
    solve_exact_1d,
    solve_lp,
    transport_map_from_potential,
    weighted_quantile,
)

# Calibrated once on the reference batch at n=128 and held fixed; see
# tests/test_fivegrad.py for the calibration harness that produced it.
KAPPA = 0.05

# Offset separating the two density seeds of one instance; any fixed value
# works, it only has to be deterministic.
_PAIR_SEED_OFFSET = 100003

# Cells this close (in cells) to the boundary are dropped from second-order
# statistics; one-sided stencils pollute second differences.
_EDGE_EXCLUSION = 2

_H_DELTA0_FRACTION = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one five-gradients instance.

    ``passed`` means lhs >= -tolerance. A non-empty ``error`` marks an
    instance whose solve failed; its numeric fields are NaN and it never
    passes.
    """

    seed: int
    p: float
    q: float
    n: int
    solver: str
    lhs: float
    flux: float
    tv_rho: float
    tv_g: float
    tolerance: float
    passed: bool
    error: str = ""

    def __post_init__(self):
        if not self.error:
            if not (np.isfinite(self.lhs) and np.isfinite(self.flux)):
                raise OTLabError("report on a successful solve must be finite")


@dataclass(frozen=True)
class SemiconcavityReport:
    """Largest centered second difference of a potential against the cost bound."""

    max_curvature: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SecondOrderReport:
    """Mass-weighted tail statistic of the largest eigenvalue of D2phi(x) + D2psi(T(x))."""

    percentile95: float
    tolerance: float
    sample_count: int
    passed: bool


@dataclass(frozen=True)
class BoundaryConjugateReport:
    """Worst outward component of grad_h_star(grad phi) over massy boundary cells."""

    min_normal_component: float
    tolerance: float
    cell_count: int
    passed: bool


@dataclass(frozen=True)
class MollificationReport:
    """Map convergence along a decreasing sequence of mollification widths.

    ``deviation_measures[k]`` is the rho-mass of cells where the map of the
    width-epsilon cost differs from the unmollified reference map by more
    than 2 cells; ``lp_distances[k]`` is the rho-weighted L^p distance
    between the two maps. Both sequences must be nonincreasing up to 10%
    slack and end at or below 5 cells.
    """

    epsilons: tuple[float, ...]
    deviation_measures: tuple[float, ...]
    lp_distances: tuple[float, ...]
    monotone_ok: bool
    final_ok: bool
    passed: bool


@dataclass(frozen=True)
class BatchSpec:
    """Instance lattice for the batch verifier.

    One solve per (seed, p, n), shared by one report per H exponent q; the
    two densities are ``random_smooth_density`` draws from ``seed`` and
    ``seed + 100003`` on the unit box [0, 1]^d. The grid of every n is
    built here, so a grid past ``geometry``'s cell limit is refused before
    any density is drawn. The solver is ``lp``, ``entropic`` or ``auto``, which
    picks the LP in 1-d (exact at these sizes) and the entropic solver in
    2-d.
    """

    seeds: tuple[int, ...]
    p_values: tuple[float, ...] = (2.0,)
    q_values: tuple[float, ...] = (2.0,)
    n_values: tuple[int, ...] = (128,)
    d: int = 1
    solver: str = "auto"
    entropic_eps: float = 1e-4

    def __post_init__(self):
        if len(self.seeds) == 0:
            raise ParameterError("batch needs at least one seed")
        if min(self.seeds) < 0:
            raise ParameterError(f"batch seeds must be nonnegative, got {min(self.seeds)}")
        for name in ("p_values", "q_values", "n_values"):
            if len(getattr(self, name)) == 0:
                raise ParameterError(f"batch {name} must not be empty")
        if self.d not in (1, 2):
            raise DomainError("batch dimension must be 1 or 2")
        if self.solver not in ("auto", "lp", "entropic"):
            raise ParameterError(f"unknown solver {self.solver!r}")
        if not all(1 < p < np.inf for p in self.p_values):
            raise ParameterError("cost exponents must be finite and satisfy p > 1")
        if not all(1 < q < np.inf for q in self.q_values):
            raise ParameterError("H exponents must be finite and satisfy q > 1")
        for n in self.n_values:  # refuses n < 4 and a grid past the cell limit; allocates nothing
            Grid(self.d, 0.0, 1.0, n)
        if not 0 < self.entropic_eps < np.inf:
            raise ParameterError("entropic_eps must be finite and positive")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        object.__setattr__(self, "q_values", tuple(float(q) for q in self.q_values))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate view of a report list."""

    count: int
    error_count: int
    min_lhs: float
    fraction_nonnegative: float
    fraction_within_tolerance: float


def tolerance_for(n: int, tv_rho: float, tv_g: float) -> float:
    """Resolution-dependent slack for the discrete inequality."""
    return KAPPA * (tv_rho + tv_g) / np.sqrt(float(n))


def _checked_fields(rho: DensityField, g: DensityField, phi, psi):
    grid = rho.grid
    if g.grid != grid:
        raise ShapeError("rho and g must live on the same grid")
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != grid.shape or psi.shape != grid.shape:
        raise ShapeError(
            f"potential shapes {phi.shape}, {psi.shape} do not match the grid {grid.shape}"
        )
    return grid, phi, psi


def five_gradients(rho: DensityField, g: DensityField, phi, psi,
                   hfuns) -> list[tuple[np.ndarray, float, float]]:
    """Integrand, its integral and the boundary flux of the inequality, one tuple per H.

    The integrand is grad rho . grad_H(grad phi) + grad g . grad_H(grad psi)
    cell by cell, and the integral is its midpoint-rule value. Gradients are
    central differences (one-sided at the boundary); cells where the gradient
    falls at or below the H function's zero threshold ``delta0`` contribute
    nothing, matching the grad_H(0) = 0 convention. The flux is the discrete
    boundary integral of rho grad_H(grad phi).n + g grad_H(grad psi).n, the
    term integration by parts discards when deriving the inequality; it is
    nonnegative in the continuum because optimal maps do not push mass
    outward across the boundary, and it is summed in facet order.

    The gradients of rho, g, phi and psi do not depend on H and are taken
    once; per H, the integrand and the flux share one grad_H pass.
    """
    grid, phi, psi = _checked_fields(rho, g, phi, psi)
    d_rho, d_g, d_phi, d_psi = (gradient(f, grid) for f in (rho.values, g.values, phi, psi))
    cells, normals, areas = boundary_cells_and_normals(grid)
    rho_b, g_b = rho.values.reshape(-1)[cells], g.values.reshape(-1)[cells]
    out = []
    for hfun in hfuns:
        h_phi, h_psi = (grad_H(hfun, d.reshape(-1, grid.d)).reshape(d.shape)
                        for d in (d_phi, d_psi))
        integrand = (d_rho * h_phi).sum(axis=-1)
        integrand += (d_g * h_psi).sum(axis=-1)
        terms = areas * (rho_b * (h_phi.reshape(-1, grid.d)[cells] * normals).sum(axis=-1)
                         + g_b * (h_psi.reshape(-1, grid.d)[cells] * normals).sum(axis=-1))
        # summed in facet order from 0.0: a pairwise np.sum moves the last bits in 2-d
        flux = sum(terms.tolist(), 0.0)
        out.append((integrand, float(integrand.sum() * grid.cell_volume), flux))
    return out


def semiconcavity_check(phi, constant: float, grid: Grid) -> SemiconcavityReport:
    """Check that a potential's axis curvatures respect the cost's bound.

    Potentials of a twice-differentiable cost are semiconcave with the same
    constant C as the cost (``cost.semiconcavity_constant``), so every
    centered second difference along a grid axis must stay at or below C up
    to discretization slack 10 * spacing * C.
    A potential with a non-finite entry reports NaN and fails.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise ShapeError(f"potential shape {phi.shape} does not match the grid {grid.shape}")
    if np.all(np.isfinite(phi)):
        worst = float(max(f.max() for f in _second_difference_fields(phi, grid)[:grid.d]))
    else:
        worst = float("nan")
    tol = 10.0 * max(grid.spacing) * constant
    return SemiconcavityReport(max_curvature=worst, tolerance=tol,
                               passed=worst <= constant + tol)


def _second_difference_fields(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Per-axis (and, in 2-d, mixed) second differences, edges padded by replication.

    Returns [D2_00] in 1-d and [D2_00, D2_11, D2_01] in 2-d. Padding only
    feeds interpolation near excluded cells; the statistics never use it.
    """
    out = []
    for axis in range(grid.d):
        core = np.diff(values, n=2, axis=axis) / grid.spacing[axis] ** 2
        pad = [(1, 1) if a == axis else (0, 0) for a in range(grid.d)]
        out.append(np.pad(core, pad, mode="edge"))
    if grid.d == 2:
        hx, hy = grid.spacing
        core = (
            values[2:, 2:] - values[2:, :-2] - values[:-2, 2:] + values[:-2, :-2]
        ) / (4.0 * hx * hy)
        out.append(np.pad(core, ((1, 1), (1, 1)), mode="edge"))
    return out


def second_order_check(phi, psi, transport, rho: DensityField,
                       constant: float) -> SecondOrderReport:
    """Tail check of the map-level curvature bound D2 phi(x) + D2 psi(T(x)) <= 0.

    Both Hessians are centered second differences; the psi terms are
    interpolated at the map image T(x). Cells within two cells of the
    boundary, in x or in T(x), are excluded because one-sided stencils
    pollute second differences there. Reports the rho-weighted 95th
    percentile of the largest eigenvalue, which must stay below
    20 * spacing * C.
    """
    grid, phi, psi = _checked_fields(rho, rho, phi, psi)
    d2_phi = _second_difference_fields(phi, grid)
    d2_psi = _second_difference_fields(psi, grid)

    margin = _EDGE_EXCLUSION
    interior = grid.interior_mask(margin)

    points = transport.points
    target_ok = np.ones(grid.num_cells, dtype=bool)
    for axis in range(grid.d):
        lo = grid.lower[axis] + margin * grid.spacing[axis]
        hi = grid.upper[axis] - margin * grid.spacing[axis]
        target_ok &= (points[:, axis] >= lo) & (points[:, axis] <= hi)

    eligible = transport.mask & interior.reshape(-1) & target_ok
    count = int(eligible.sum())
    tol = 20.0 * max(grid.spacing) * constant
    if count == 0:
        return SecondOrderReport(float("nan"), tol, 0, False)

    pts = points[eligible]
    psi_at_t = [interp_multilinear(grid, f, pts) for f in d2_psi]
    phi_at_x = [f.reshape(-1)[eligible] for f in d2_phi]
    if grid.d == 1:
        eig = phi_at_x[0] + psi_at_t[0]
    else:
        a = phi_at_x[0] + psi_at_t[0]
        b = phi_at_x[1] + psi_at_t[1]
        c = phi_at_x[2] + psi_at_t[2]
        eig = 0.5 * (a + b) + np.sqrt(0.25 * (a - b) ** 2 + c**2)
    weights = rho.values.reshape(-1)[eligible]
    pct = weighted_quantile(eig, weights, 0.95)
    return SecondOrderReport(pct, tol, count, pct <= tol)


def boundary_conjugate_check(rho: DensityField, phi, cost: RadialCost,
                             floor: float = DENSITY_FLOOR) -> BoundaryConjugateReport:
    """Sign check of grad_h_star(grad phi) . n at massy boundary cells.

    A boundary cell is massy when its density exceeds half of ``floor``; the
    default is the floor of ``random_smooth_density``.

    The displacement x - T(x) equals grad_h_star(grad phi(x)); where mass
    sits on the boundary it cannot point outward, so the outward component
    must be >= -10 * spacing. Gradients are one-sided at the boundary and
    clamped into the invertible range of the cost before inversion.
    """
    grid = rho.grid
    comp, _, _ = _clamped_gradient(phi, cost, grid)  # raises ShapeError on a potential off the grid
    cells, normals, _ = boundary_cells_and_normals(grid)
    massy = rho.values.reshape(-1)[cells] > 0.5 * floor
    tol = 10.0 * max(grid.spacing)
    if not massy.any():
        return BoundaryConjugateReport(float("nan"), tol, 0, False)
    steps = grad_h_star(cost, comp[cells[massy]])
    # Python's min keeps the first of equal values (0.0, -0.0) in facet order; np.min the last
    worst = min((steps * normals[massy]).sum(axis=-1).tolist())
    return BoundaryConjugateReport(worst, tol, int(massy.sum()), worst >= -tol)


def check_mollification(d: int, cost: RadialCost, widths) -> None:
    """Raise unless ``mollification_convergence_experiment`` accepts these inputs.

    The experiment runs on 1-d grids (DomainError); it needs a nonempty,
    strictly decreasing sequence of widths, each accepted by
    ``check_mollify_width`` (ParameterError). Needs no solve.
    """
    if d != 1:
        raise DomainError(f"the mollification experiment runs on 1-d grids, not {d}-d")
    if len(widths) == 0:
        raise ParameterError("eps_sequence must be a non-empty list of widths")
    if any(e2 >= e1 for e1, e2 in zip(widths, widths[1:])):
        raise ParameterError("eps_sequence must decrease strictly")
    for width in widths:
        try:
            check_mollify_width(cost, width)
        except ParameterError as exc:
            raise ParameterError(f"invalid eps_sequence width: {exc}") from exc


def mollification_convergence_experiment(rho: DensityField, g: DensityField,
                                         base_cost: RadialCost,
                                         eps_sequence) -> MollificationReport:
    """Track the map of the mollified cost back to the unmollified map.

    For each width epsilon the instance is re-solved with the mollified cost
    and the map is rebuilt from its potential; the deviation from the exact
    monotone map of the base cost must shrink as epsilon does. Quadratic
    base costs are a fixed point (mollification leaves their gradient
    unchanged), so deviations reduce to solver and stencil error. Every
    potential comes from the monotone solver ``solve_exact_1d``, not the
    LP: degenerate instances (equal densities, flat stretches) admit many
    optimal LP duals, and the simplex may return a steep one whose map
    differs from the monotone map at order one even though both are
    optimal. The marginals, and so their ``_Staircase``, are the same for
    every cost: one serves the reference solve and every width.
    """
    grid = rho.grid
    eps = tuple(float(e) for e in eps_sequence)
    check_mollification(grid.d, base_cost, eps)
    if g.grid != grid:
        raise ShapeError("rho and g must live on the same grid")

    staircase = _Staircase(*_marginals(rho, g))
    _, ref_map = solve_exact_1d(rho, g, base_cost, staircase=staircase)
    spacing = grid.spacing[0]
    dev_threshold = 2.0 * spacing
    final_threshold = 5.0 * spacing
    p_exp = base_cost.exponent if base_cost.exponent is not None else 2.0

    cell_mass = rho.values.reshape(-1) * grid.cell_volume
    measures = []
    distances = []
    for e in eps:
        smooth = mollify(base_cost, e)
        result, _ = solve_exact_1d(rho, g, smooth, staircase=staircase)
        t_eps = transport_map_from_potential(result.phi, smooth, rho)
        mask = t_eps.mask & ref_map.mask
        dev = np.abs(t_eps.points[:, 0] - ref_map.points[:, 0])
        w = cell_mass[mask]
        dev = dev[mask]
        measures.append(float(w[dev > dev_threshold].sum()))
        distances.append(float((w * dev**p_exp).sum() ** (1.0 / p_exp)))

    def nonincreasing(seq):
        return all(b <= 1.1 * a + 1e-12 for a, b in zip(seq, seq[1:]))

    monotone_ok = nonincreasing(measures) and nonincreasing(distances)
    final_ok = measures[-1] <= final_threshold and distances[-1] <= final_threshold
    return MollificationReport(
        epsilons=eps,
        deviation_measures=tuple(measures),
        lp_distances=tuple(distances),
        monotone_ok=monotone_ok,
        final_ok=final_ok,
        passed=monotone_ok and final_ok,
    )


def _solve_for_batch(rho: DensityField, g: DensityField, cost: RadialCost, solver: str,
                     entropic_eps: float, cmat: np.ndarray | None,
                     staircase: _Staircase | None) -> TransportResult:
    if solver == "lp":
        return solve_lp(rho, g, cost, cmat=cmat, staircase=staircase)
    return solve_entropic(rho, g, cost, eps_final=entropic_eps, cmat=cmat)


def instance_densities(spec: BatchSpec, seed: int, n: int) -> tuple[DensityField, DensityField]:
    """The deterministic density pair of one batch instance."""
    grid = Grid(spec.d, 0.0, 1.0, n)
    rho = random_smooth_density(grid, seed)
    g = random_smooth_density(grid, seed + _PAIR_SEED_OFFSET)
    return rho, g


def _batch_solver(spec: BatchSpec) -> str:
    """The spec's solver with ``auto`` resolved: the LP in 1-d, entropic in 2-d."""
    if spec.solver != "auto":
        return spec.solver
    return "lp" if spec.d == 1 else "entropic"


def _shared_cost_matrix(cost: RadialCost, grid: Grid) -> np.ndarray | None:
    """The read-only cost matrix every seed of one (p, n) solves against, or None.

    None, when the build fails or ``_cost_matrix`` refuses the size, leaves
    the build to each solve, which then raises what it raises alone.
    Read-only, a solver that wrote into it would raise instead of
    corrupting the next seed's solve.
    """
    try:
        cmat = _cost_matrix(cost, grid.cell_centers(), grid.cell_centers())
    except OTLabError:
        return None
    cmat.setflags(write=False)
    return cmat


def _shared_staircase(rho: DensityField, g: DensityField, solver: str) -> _Staircase | None:
    """The ``_Staircase`` every p of one (seed, n) pair solves from, or None.

    Only the LP starts from a staircase: None for the entropic solver and
    when the marginals are refused; as with ``_shared_cost_matrix``, each
    solve then raises what it raises alone.
    """
    if solver != "lp":
        return None
    try:
        return _Staircase(*_marginals(rho, g))
    except OTLabError:
        return None


def verify_batch(spec: BatchSpec) -> list[InequalityReport]:
    """Run every (seed, p, q, n) instance of the spec, in lattice order.

    The loops run n first: the H functions, one per q, are built once per n
    (their zero threshold depends only on the grid); each seed's density
    pair, its TVs and, for the ``lp`` solver, its ``_Staircase`` (the LP
    start basis, which no cost changes) once per (seed, n) and shared by
    every p. Then the cost and its read-only matrix are built once per
    (p, n), shared by every seed's solve and dropped before the next one is
    built; a matrix past the size limit of ``_cost_matrix`` is not built,
    and each seed's solve raises its CapacityError.
    Each (seed, p, n) problem is solved once for all q, since the potentials
    do not depend on H. Solver failures are captured per instance, as one
    report per q whose ``error`` names the failure and whose ``solver`` names
    the solver that failed, so one bad instance cannot abort the batch; the
    reports come out in the fixed (seed, p, q, n) order, so reruns reproduce
    the report list exactly.
    """
    solver = _batch_solver(spec)
    solved = {}
    for k, n in enumerate(spec.n_values):
        pairs = [instance_densities(spec, seed, n) for seed in spec.seeds]
        tvs = [(rho.tv(), g.tv()) for rho, g in pairs]
        staircases = [_shared_staircase(rho, g, solver) for rho, g in pairs]
        grid = pairs[0][0].grid
        delta0 = _H_DELTA0_FRACTION * 2.0 * grid.enclosing_radius
        hfuns = [power_h_function(q, delta0=delta0) for q in spec.q_values]
        for j, p in enumerate(spec.p_values):
            cost = power_cost(p, grid.cost_radius)
            cmat = _shared_cost_matrix(cost, grid)
            for i, (seed, (rho, g), (tv_rho, tv_g), staircase) in enumerate(
                    zip(spec.seeds, pairs, tvs, staircases)):
                tol = tolerance_for(n, tv_rho, tv_g)
                error = ""
                try:
                    result = _solve_for_batch(rho, g, cost, solver, spec.entropic_eps, cmat,
                                              staircase)
                    terms = five_gradients(rho, g, result.phi, result.psi, hfuns)
                except OTLabError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    terms = [(None, float("nan"), float("nan"))] * len(hfuns)
                solved[i, j, k] = [
                    InequalityReport(seed=seed, p=p, q=q, n=n, solver=solver,
                                     lhs=lhs, flux=flux, tv_rho=tv_rho, tv_g=tv_g,
                                     tolerance=tol, passed=bool(lhs >= -tol), error=error)
                    for q, (_, lhs, flux) in zip(spec.q_values, terms)
                ]
            cmat = None  # one matrix alive at a time
    return [report
            for i in range(len(spec.seeds)) for j in range(len(spec.p_values))
            for same_q in zip(*(solved[i, j, k] for k in range(len(spec.n_values))))
            for report in same_q]


def summarize(reports) -> BatchSummary:
    """Aggregate min LHS and pass fractions over successful reports."""
    reports = list(reports)
    good = [r for r in reports if not r.error]
    if not good:
        return BatchSummary(len(reports), len(reports), float("nan"), 0.0, 0.0)
    lhs = np.array([r.lhs for r in good])
    within = sum(1 for r in good if r.passed)
    return BatchSummary(
        count=len(reports),
        error_count=len(reports) - len(good),
        min_lhs=float(lhs.min()),
        fraction_nonnegative=float((lhs >= 0).mean()),
        fraction_within_tolerance=within / len(reports),
    )


def refinement_study(spec: BatchSpec, instances, n_values) -> dict:
    """LHS of fixed (seed, p, q) instances across resolutions.

    Returns {(seed, p, q): [lhs at each n]}; used to confirm that negative
    excursions shrink as the grid is refined. Each instance is one
    ``verify_batch`` of the spec over every n.
    """
    curves = {}
    for seed, p, q in instances:
        point = replace(spec, seeds=(seed,), p_values=(p,), q_values=(q,),
                        n_values=tuple(n_values))
        curves[seed, p, q] = [report.lhs for report in verify_batch(point)]
    return curves


_CSV_HEADER = "seed,p,q,n,solver,lhs,flux,tv_rho,tv_g,tolerance,pass".split(",")


def write_reports_csv(path, reports) -> None:
    """Write one CSV row per report in the :func:`geometry.write_rows` format."""
    write_rows(path, [_CSV_HEADER] + [
        (r.seed, float(r.p), float(r.q), r.n, r.solver, r.lhs, r.flux, r.tv_rho, r.tv_g,
         r.tolerance, r.passed)
        for r in reports
    ])

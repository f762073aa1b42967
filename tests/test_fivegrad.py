"""Tests for the five-gradients verifier and its companion diagnostics."""

import dataclasses
import itertools
import weakref

import numpy as np
import pytest

from otlab.cost import (
    HFunction,
    grad_H,
    grad_h_star,
    mollify,
    power_cost,
    power_h_function,
    semiconcavity_constant,
)
from otlab import fivegrad, geometry
from otlab import ot_core as oc
from otlab.errors import DomainError, ParameterError, ShapeError
from otlab.fivegrad import (
    _H_DELTA0_FRACTION,
    KAPPA,
    BatchSpec,
    boundary_conjugate_check,
    five_gradients,
    instance_densities,
    mollification_convergence_experiment,
    refinement_study,
    second_order_check,
    semiconcavity_check,
    summarize,
    tolerance_for,
    verify_batch,
    write_reports_csv,
)
from otlab.geometry import DensityField, Grid, gradient, random_smooth_density
from otlab.ot_core import solve_lp, transport_map_from_potential


def unit_grid(n=128):
    return Grid(1, 0.0, 1.0, n)


def solved_pair(seed=7, n=128, p=2.0):
    grid = unit_grid(n)
    rho = random_smooth_density(grid, seed)
    g = random_smooth_density(grid, seed + 1)
    cost = power_cost(p, grid.cost_radius)
    return grid, rho, g, cost, solve_lp(rho, g, cost)


def lhs_and_flux(rho, g, phi, psi, hfun):
    """The integral and the boundary flux of one H."""
    (_, lhs, flux), = five_gradients(rho, g, phi, psi, [hfun])
    return lhs, flux


def one_point(spec, seed, p, q, n):
    """The report of one (seed, p, q, n) instance: a one-point ``verify_batch`` of the spec."""
    point = dataclasses.replace(spec, seeds=(seed,), p_values=(p,), q_values=(q,), n_values=(n,))
    return verify_batch(point)[0]


class TestLHS:
    def test_equal_densities_give_zero(self):
        grid = unit_grid()
        rho = random_smooth_density(grid, 3)
        cost = power_cost(2.0, grid.cost_radius)
        res = solve_lp(rho, rho, cost)
        hf = power_h_function(2.0, delta0=1e-9)
        assert lhs_and_flux(rho, rho, res.phi, res.psi, hf) == (0.0, 0.0)

    def test_random_pair_meets_tv_bound(self):
        # reference instance: n=256, p=2, quadratic H, seed 1
        grid, rho, g, cost, res = solved_pair(seed=1, n=256)
        hf = power_h_function(2.0, delta0=1e-9)
        lhs, _ = lhs_and_flux(rho, g, res.phi, res.psi, hf)
        assert lhs >= -1e-2 * (rho.tv() + g.tv())

    def test_doubling_h_doubles_lhs(self):
        grid, rho, g, cost, res = solved_pair()
        hf = power_h_function(1.5, delta0=1e-9)
        double = HFunction(lambda r: 2.0 * hf.dprofile(r), hf.delta0)
        (_, lhs, _), (_, doubled, _) = five_gradients(rho, g, res.phi, res.psi, [hf, double])
        assert doubled == pytest.approx(2.0 * lhs, rel=1e-12)

    def test_swap_symmetry(self):
        grid, rho, g, cost, res = solved_pair(seed=11)
        hf = power_h_function(2.0, delta0=1e-9)
        lhs, _ = lhs_and_flux(rho, g, res.phi, res.psi, hf)
        swapped, _ = lhs_and_flux(g, rho, res.psi, res.phi, hf)
        assert swapped == pytest.approx(lhs, abs=1e-14)

    def test_grad_h_parallelism_on_instance(self):
        grid, rho, g, cost, res = solved_pair(seed=5)
        hf = power_h_function(1.5, delta0=1e-9)
        gphi = gradient(np.asarray(res.phi), grid).reshape(-1)
        from otlab.cost import grad_H

        hvals = grad_H(hf, gphi.reshape(-1, 1)).reshape(-1)
        assert np.all(gphi * hvals >= 0.0)

    def test_shape_mismatch_rejected(self):
        grid = unit_grid()
        rho = random_smooth_density(grid, 1)
        hf = power_h_function(2.0)
        with pytest.raises(ShapeError):
            five_gradients(rho, rho, np.zeros(64), np.zeros(128), [hf])
        other = random_smooth_density(unit_grid(64), 1)
        with pytest.raises(ShapeError):
            five_gradients(rho, other, np.zeros(128), np.zeros(128), [hf])


class TestBoundaryFlux:
    def test_rightward_shift_flux(self):
        # mass pushed rightward; the outgoing flux stays essentially nonnegative
        grid = unit_grid(256)
        x = grid.cell_centers()[:, 0]
        from otlab.geometry import DensityField, normalize

        rho = normalize(DensityField(grid, 0.05 + np.exp(-60 * (x - 0.35) ** 2)))
        g = normalize(DensityField(grid, 0.05 + np.exp(-60 * (x - 0.65) ** 2)))
        cost = power_cost(2.0, grid.cost_radius)
        res = solve_lp(rho, g, cost)
        hf = power_h_function(2.0, delta0=1e-9)
        _, flux = lhs_and_flux(rho, g, res.phi, res.psi, hf)
        assert flux >= -1e-2

    def test_quadratic_h_matches_direct_sum(self):
        grid, rho, g, cost, res = solved_pair(seed=9)
        hf = power_h_function(2.0, delta0=0.0)
        _, flux = lhs_and_flux(rho, g, res.phi, res.psi, hf)
        gphi = gradient(np.asarray(res.phi), grid)[..., 0]
        gpsi = gradient(np.asarray(res.psi), grid)[..., 0]
        direct = (
            -(rho.values[0] * gphi[0] + g.values[0] * gpsi[0])
            + (rho.values[-1] * gphi[-1] + g.values[-1] * gpsi[-1])
        )
        assert flux == pytest.approx(direct, rel=1e-12, abs=1e-15)


def _facet_loop(grid):
    """Boundary facets as a list of (cell index tuple, outward normal, area), in facet order."""
    if grid.d == 1:
        return [((0,), np.array([-1.0]), 1.0), ((grid.n[0] - 1,), np.array([1.0]), 1.0)]
    (nx, ny), (hx, hy) = grid.n, grid.spacing
    facets = []
    for j in range(ny):
        facets += [((0, j), np.array([-1.0, 0.0]), hy), ((nx - 1, j), np.array([1.0, 0.0]), hy)]
    for i in range(nx):
        facets += [((i, 0), np.array([0.0, -1.0]), hx), ((i, ny - 1), np.array([0.0, 1.0]), hx)]
    return facets


def _loop_flux(rho, g, phi, psi, hfun):
    """The boundary flux summed facet by facet."""
    grid = rho.grid
    h_phi, h_psi = (grad_H(hfun, gradient(f, grid).reshape(-1, grid.d))
                    .reshape(grid.shape + (grid.d,)) for f in (phi, psi))
    flux = 0.0
    for index, normal, area in _facet_loop(grid):
        flux += area * (rho.values[index] * float(h_phi[index] @ normal)
                        + g.values[index] * float(h_psi[index] @ normal))
    return float(flux)


def _loop_conjugate(rho, phi, cost, floor):
    """The worst outward step and the massy cell count, facet by facet."""
    grid = rho.grid
    comp, _, _ = oc._clamped_gradient(phi, cost, grid)
    worst, count = np.inf, 0
    for index, normal, _ in _facet_loop(grid):
        if rho.values[index] <= 0.5 * floor:
            continue
        step = grad_h_star(cost, comp[np.ravel_multi_index(index, grid.shape)])
        worst = min(worst, float(step @ normal))
        count += 1
    return (worst, count) if count else (float("nan"), 0)


class TestBoundaryArrays:
    """The array forms of the flux and the conjugate check equal a facet-by-facet loop."""

    @pytest.mark.parametrize("grid", [
        Grid(1, 0.0, 1.0, 16),
        Grid(1, -0.5, 2.0, 9),
        Grid(2, (-1.0, 0.5), (1.5, 2.0), (5, 7)),
        Grid(2, (-1.0, 0.5), (1.5, 2.0), (7, 5)),
        Grid(2, (0.0, -2.0), (3.0, 1.0), (4, 9)),
    ], ids=["1d-16", "1d-9", "2d-5x7", "2d-7x5", "2d-4x9"])
    @pytest.mark.parametrize("zero", [False, True], ids=["random", "zero"])
    def test_equals_facet_loop(self, grid, zero):
        rng = np.random.default_rng(grid.num_cells)
        for _ in range(4):
            rho = DensityField(grid, rng.uniform(0.0, 1.0, grid.shape))
            g = DensityField(grid, rng.uniform(0.0, 1.0, grid.shape))
            phi, psi = (np.zeros(grid.shape) if zero else rng.normal(size=grid.shape)
                        for _ in range(2))
            for q, delta0 in itertools.product((1.5, 2.0, 4.0), (0.0, 0.3)):
                hfun = power_h_function(q, delta0=delta0)
                _, got = lhs_and_flux(rho, g, phi, psi, hfun)
                assert repr(got) == repr(_loop_flux(rho, g, phi, psi, hfun))
            for p, floor in itertools.product((1.5, 2.0, 3.0), (0.0, 1.0, 4.0)):
                cost = power_cost(p, grid.cost_radius)
                rep = boundary_conjugate_check(rho, phi, cost, floor)
                worst, count = _loop_conjugate(rho, phi, cost, floor)
                assert repr(rep.min_normal_component) == repr(worst)
                assert rep.cell_count == count


class TestSemiconcavity:
    def test_constant_potential(self):
        grid = unit_grid(64)
        bound = semiconcavity_constant(power_cost(2.0, grid.cost_radius))
        rep = semiconcavity_check(np.zeros(grid.shape), bound, grid)
        assert rep.max_curvature == 0.0
        assert rep.passed

    def test_concave_kink_passes_any_constant(self):
        grid = unit_grid(128)
        x = grid.cell_centers()[:, 0]
        phi = -np.abs(x - 0.5)
        rep = semiconcavity_check(phi, 0.0, grid)
        assert rep.max_curvature <= 0.0
        assert rep.passed

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_potential_fails(self, d, bad):
        # a potential that fails the bound must not pass once one cell is non-finite
        grid = Grid(d, 0.0, 1.0, 16)
        phi = 100.0 * (grid.cell_centers() ** 2).sum(axis=1).reshape(grid.shape)
        bound = 1.0
        assert not semiconcavity_check(phi, bound, grid).passed
        phi[(5,) * d] = bad
        rep = semiconcavity_check(phi, bound, grid)
        assert np.isnan(rep.max_curvature)
        assert not rep.passed

    def test_mollified_instance_respects_bound(self):
        grid = unit_grid(256)
        rho = random_smooth_density(grid, 2)
        g = random_smooth_density(grid, 12)
        smooth = mollify(power_cost(2.0, grid.cost_radius), 0.1)
        res = solve_lp(rho, g, smooth)
        bound = semiconcavity_constant(smooth)
        rep = semiconcavity_check(res.phi, bound, grid)
        assert rep.passed
        assert rep.max_curvature <= bound + rep.tolerance


class TestSecondOrder:
    def test_equal_densities_pass(self):
        grid = unit_grid(128)
        rho = random_smooth_density(grid, 4)
        cost = power_cost(2.0, grid.cost_radius)
        res = solve_lp(rho, rho, cost)
        tmap = transport_map_from_potential(res.phi, cost, rho)
        bound = semiconcavity_constant(cost)
        rep = second_order_check(res.phi, res.psi, tmap, rho, bound)
        assert rep.sample_count > 0
        assert rep.percentile95 <= rep.tolerance
        assert rep.passed

    def test_smooth_pair_tail_bound(self):
        grid, rho, g, cost, res = solved_pair(seed=6, n=256)
        tmap = transport_map_from_potential(res.phi, cost, rho)
        bound = semiconcavity_constant(cost)
        rep = second_order_check(res.phi, res.psi, tmap, rho, bound)
        assert rep.sample_count > 0
        assert rep.passed

    def test_refinement_does_not_worsen_tail(self):
        values = []
        for n in (128, 512):
            grid, rho, g, cost, res = solved_pair(seed=6, n=n)
            tmap = transport_map_from_potential(res.phi, cost, rho)
            bound = semiconcavity_constant(cost)
            rep = second_order_check(res.phi, res.psi, tmap, rho, bound)
            values.append(rep.percentile95)
        assert values[1] <= values[0] + 1e-12

    def test_2d_eigenvalue_of_constant_hessians(self):
        # quadratic potentials of constant Hessians A and B under the
        # identity map: the centered second differences are exact, so every
        # eligible cell reports the largest eigenvalue of A + B
        grid = Grid(2, 0.0, 1.0, 12)
        x, y = grid.cell_centers().T
        hess_a = np.array([[0.7, 0.3], [0.3, -0.4]])
        hess_b = np.array([[-0.2, 0.25], [0.25, 0.5]])

        def quadratic(h):
            values = 0.5 * (h[0, 0] * x * x + 2.0 * h[0, 1] * x * y + h[1, 1] * y * y)
            return values.reshape(grid.shape)

        identity = oc.MapField(grid, grid.cell_centers(), np.ones(grid.num_cells, dtype=bool))
        rho = random_smooth_density(grid, 3)
        rep = second_order_check(quadratic(hess_a), quadratic(hess_b), identity, rho, 1.0)
        assert rep.sample_count == 8 * 8
        assert rep.percentile95 == pytest.approx(np.linalg.eigvalsh(hess_a + hess_b).max(),
                                                 rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [12, 16])
    def test_2d_lp_batch_pair_passes(self, n, p):
        rho, g = instance_densities(BatchSpec(seeds=(0,), d=2), 0, n)
        cost = power_cost(p, rho.grid.cost_radius)
        res = solve_lp(rho, g, cost)
        tmap = transport_map_from_potential(res.phi, cost, rho)
        rep = second_order_check(res.phi, res.psi, tmap, rho, semiconcavity_constant(cost))
        assert rep.sample_count > 0
        assert rep.passed


class TestBoundaryConjugate:
    def test_smooth_instance_passes(self):
        grid, rho, g, cost, res = solved_pair(seed=8)
        rep = boundary_conjugate_check(rho, res.phi, cost)
        assert rep.cell_count == 2
        assert rep.passed

    def test_potential_off_the_grid_raises(self):
        grid, rho, g, cost, res = solved_pair(seed=8)
        with pytest.raises(ShapeError):
            boundary_conjugate_check(rho, np.zeros(grid.num_cells + 1), cost)

    def test_quadratic_reduction_matches_gradient(self):
        # for the quadratic cost the displacement equals grad phi itself
        grid, rho, g, cost, res = solved_pair(seed=10)
        rep = boundary_conjugate_check(rho, res.phi, cost)
        assert rep.cell_count == 2
        gphi = gradient(np.asarray(res.phi), grid)[..., 0]
        direct = min(-gphi[0], gphi[-1])
        assert rep.min_normal_component == pytest.approx(direct, rel=1e-12, abs=1e-15)


@pytest.fixture
def staircase_fills(monkeypatch):
    """Every ``_Staircase`` built, in build order: one entry per run of the fill loop."""
    built = []
    real = oc._Staircase.__init__

    def init(self, a, b):
        built.append(self)
        real(self, a, b)

    monkeypatch.setattr(oc._Staircase, "__init__", init)
    return built


class TestMollificationExperiment:
    def test_equal_densities_zero_deviation(self):
        grid = unit_grid()
        rho = random_smooth_density(grid, 5)
        rep = mollification_convergence_experiment(
            rho, rho, power_cost(2.0, grid.cost_radius), (0.2, 0.1)
        )
        assert rep.deviation_measures == (0.0, 0.0)
        assert all(d <= 1e-10 for d in rep.lp_distances)
        assert rep.passed

    def test_quadratic_cost_is_fixed_point(self):
        grid = unit_grid()
        rho = random_smooth_density(grid, 5)
        g = random_smooth_density(grid, 15)
        rep = mollification_convergence_experiment(
            rho, g, power_cost(2.0, grid.cost_radius), (0.2, 0.1, 0.05)
        )
        assert rep.deviation_measures == (0.0, 0.0, 0.0)
        assert all(d <= 5e-3 for d in rep.lp_distances)
        assert rep.passed

    def test_p15_deviation_measures_nonincreasing(self):
        grid = unit_grid()
        rho = random_smooth_density(grid, 5)
        g = random_smooth_density(grid, 15)
        rep = mollification_convergence_experiment(
            rho, g, power_cost(1.5, grid.cost_radius), (0.2, 0.1, 0.05)
        )
        meas = rep.deviation_measures
        assert all(b <= a + 1e-12 for a, b in zip(meas, meas[1:]))
        assert rep.monotone_ok
        assert rep.final_ok

    def test_one_staircase_for_reference_and_widths(self, monkeypatch, staircase_fills):
        grid = unit_grid(64)
        rho, g = random_smooth_density(grid, 5), random_smooth_density(grid, 15)
        cost = power_cost(1.5, grid.cost_radius)
        shared = mollification_convergence_experiment(rho, g, cost, (0.2, 0.1, 0.05))
        assert len(staircase_fills) == 1
        # with every solve building its own staircase the report is the same
        real = fivegrad.solve_exact_1d
        monkeypatch.setattr(fivegrad, "solve_exact_1d",
                            lambda *args, staircase, **kwargs: real(*args, **kwargs))
        alone = mollification_convergence_experiment(rho, g, cost, (0.2, 0.1, 0.05))
        assert len(staircase_fills) == 1 + 1 + 4  # the shared ones and one per solve
        assert shared == alone

    @pytest.mark.parametrize("widths", [(0.2, 0.1, 0.0), (0.1, 0.2)],
                             ids=["last-width-zero", "increasing"])
    def test_refuses_before_any_solve(self, monkeypatch, widths):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the inputs were checked")

        monkeypatch.setattr(fivegrad, "solve_exact_1d", no_solve)
        grid = unit_grid(32)
        rho = random_smooth_density(grid, 5)
        with pytest.raises(ParameterError):
            mollification_convergence_experiment(
                rho, rho, power_cost(2.0, grid.cost_radius), widths)

    def test_parameter_validation(self):
        grid = unit_grid()
        rho = random_smooth_density(grid, 5)
        cost = power_cost(2.0, grid.cost_radius)
        with pytest.raises(ParameterError):
            mollification_convergence_experiment(rho, rho, cost, (0.1, 0.2))
        with pytest.raises(ParameterError):
            mollification_convergence_experiment(rho, rho, cost, ())
        grid2 = Grid(2, (0, 0), (1, 1), 8)
        rho2 = random_smooth_density(grid2, 5)
        with pytest.raises(DomainError):
            mollification_convergence_experiment(rho2, rho2, cost, (0.1,))


class TestBatch:
    def test_small_batch_all_pass(self):
        spec = BatchSpec(seeds=(0, 1), p_values=(1.5, 3.0), q_values=(2.0, 4.0))
        reports = verify_batch(spec)
        assert len(reports) == 8
        assert all(not r.error for r in reports)
        assert all(r.passed for r in reports)
        assert all(r.lhs >= -r.tolerance for r in reports)
        summary = summarize(reports)
        assert summary.count == 8
        assert summary.error_count == 0
        assert summary.fraction_within_tolerance == 1.0

    def test_determinism(self):
        spec = BatchSpec(seeds=(4,), p_values=(1.5,), q_values=(1.5,))
        assert verify_batch(spec) == verify_batch(spec)

    def test_tolerance_formula(self):
        assert tolerance_for(128, 2.0, 3.0) == pytest.approx(KAPPA * 5.0 / np.sqrt(128.0))

    def test_calibration_margin_holds(self):
        # reduced rerun of the calibration batch: the frozen KAPPA must
        # dominate every observed negative excursion ratio
        spec = BatchSpec(
            seeds=(0, 7, 13), p_values=(1.5, 2.0, 3.0), q_values=(1.5, 2.0, 4.0)
        )
        reports = verify_batch(spec)
        ratios = [
            max(-r.lhs, 0.0) / ((r.tv_rho + r.tv_g) / np.sqrt(r.n)) for r in reports
        ]
        assert max(ratios) <= KAPPA

    def test_solver_error_is_captured(self):
        spec = BatchSpec(seeds=(0,), p_values=(2.0,), q_values=(2.0,),
                         n_values=(5000,), solver="lp")
        reports = verify_batch(spec)
        assert len(reports) == 1
        assert reports[0].error.startswith("CapacityError")
        assert not reports[0].passed
        assert np.isnan(reports[0].lhs)
        summary = summarize(reports)
        assert summary.error_count == 1

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            BatchSpec(seeds=())
        with pytest.raises(ParameterError):
            BatchSpec(seeds=(1,), p_values=(1.0,))
        with pytest.raises(ParameterError):
            BatchSpec(seeds=(1,), solver="magic")
        with pytest.raises(DomainError):
            BatchSpec(seeds=(1,), d=3)
        # the batch has no exact 1-d solver, in any dimension
        for d in (1, 2):
            with pytest.raises(ParameterError, match="unknown solver 'exact1d'"):
                BatchSpec(seeds=(1,), solver="exact1d", d=d)
        with pytest.raises(ParameterError):
            BatchSpec(seeds=(1,), entropic_eps=0.0)
        with pytest.raises(ParameterError, match="nonnegative"):
            BatchSpec(seeds=(0, -1))
        # refused here, not by the per-(p, n) loop of verify_batch, which would abort the batch
        for overrides in ({"p_values": (2.0, np.inf)}, {"q_values": (np.inf,)},
                          {"p_values": (np.nan,)}, {"entropic_eps": np.inf},
                          {"entropic_eps": np.nan}):
            with pytest.raises(ParameterError, match="finite"):
                BatchSpec(seeds=(1,), **overrides)

    def test_spec_types_its_fields(self):
        # a checked config section passes straight in, JSON lists and all
        spec = BatchSpec(seeds=[0, 1], p_values=[2], q_values=[1.5], n_values=[16])
        assert spec.seeds == (0, 1) and spec.p_values == (2.0,)
        assert spec.q_values == (1.5,) and spec.n_values == (16,)
        assert type(spec.p_values[0]) is float

    def test_refinement_study_keys_and_tolerance(self):
        spec = BatchSpec(seeds=(0,), p_values=(1.5,), q_values=(4.0,))
        study = refinement_study(spec, [(0, 1.5, 4.0)], (128, 256))
        vals = study[(0, 1.5, 4.0)]
        assert len(vals) == 2
        grid = Grid(1, 0.0, 1.0, 256)
        rho, g = instance_densities(spec, 0, 256)
        assert vals[1] >= -tolerance_for(256, rho.tv(), g.tv())


def report_fields(report):
    """A report's fields as a tuple in which NaN compares equal to NaN."""
    return tuple("nan" if isinstance(v, float) and np.isnan(v) else v
                 for v in dataclasses.astuple(report))


def lattice(spec):
    return itertools.product(spec.seeds, spec.p_values, spec.q_values, spec.n_values)


class TestOneSolvePerProblem:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Every batch solve as [rho, g, cost, result], in call order; None for a failed solve."""
        calls = []
        real = fivegrad._solve_for_batch

        def recording(rho, g, cost, solver, entropic_eps, cmat, staircase):
            calls.append([rho, g, cost, None])
            calls[-1][3] = real(rho, g, cost, solver, entropic_eps, cmat, staircase)
            return calls[-1][3]

        monkeypatch.setattr(fivegrad, "_solve_for_batch", recording)
        return calls

    def test_one_solve_per_seed_p_n(self, solves):
        spec = BatchSpec(seeds=(0, 1), p_values=(1.5, 3.0), q_values=(1.5, 2.0, 4.0),
                         n_values=(16, 32), solver="lp")
        reports = verify_batch(spec)
        assert len(reports) == 24
        assert len(solves) == 8

    @pytest.mark.parametrize("n_values, solver", [((16, 32), "lp"), ((16, 5000), "auto")])
    def test_rows_equal_single_instances(self, n_values, solver):
        spec = BatchSpec(seeds=(0, 1), p_values=(2.0, 3.0), q_values=(1.5, 2.0, 4.0),
                         n_values=n_values, solver=solver)
        batch = [report_fields(r) for r in verify_batch(spec)]
        single = [report_fields(one_point(spec, *point)) for point in lattice(spec)]
        assert batch == single
        assert [row[:4] for row in batch] == list(lattice(spec))

    def test_failed_solve_gives_one_error_row_per_q(self, solves):
        spec = BatchSpec(seeds=(0,), q_values=(1.5, 2.0, 4.0), n_values=(5000,),
                         solver="auto")
        reports = verify_batch(spec)
        assert len(solves) == 1
        assert solves[0][3] is None
        assert [r.q for r in reports] == [1.5, 2.0, 4.0]
        assert len({r.error for r in reports}) == 1
        assert reports[0].error.startswith("CapacityError")
        # auto resolves before the solve, so the error row names the LP
        assert all(r.solver == "lp" for r in reports)

    def test_oversized_entropic_batch_gives_one_error_row_per_q(self, solves):
        # the entropic solver inherits the matrix's size limit: no 5000 x 5000 matrix is built
        spec = BatchSpec(seeds=(0,), q_values=(1.5, 2.0, 4.0), n_values=(5000,),
                         solver="entropic")
        reports = verify_batch(spec)
        assert len(solves) == 1 and solves[0][3] is None
        assert [r.q for r in reports] == [1.5, 2.0, 4.0]
        assert {r.error for r in reports} == {
            "CapacityError: instance size 5000 x 5000 exceeds the limit"}
        assert all(r.solver == "entropic" and not r.passed for r in reports)

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 8)])
    def test_one_call_on_three_h_equals_three_single_calls(self, d, n):
        rho, g = instance_densities(BatchSpec(seeds=(3,), n_values=(n,), d=d), 3, n)
        result = solve_lp(rho, g, power_cost(1.5, rho.grid.cost_radius))
        delta0 = _H_DELTA0_FRACTION * 2.0 * rho.grid.enclosing_radius
        hfuns = [power_h_function(q, delta0=delta0) for q in (1.5, 2.0, 4.0)]
        together = five_gradients(rho, g, result.phi, result.psi, hfuns)
        assert len(together) == 3
        for hf, (integrand, lhs, flux) in zip(hfuns, together):
            (one_integrand, one_lhs, one_flux), = five_gradients(rho, g, result.phi,
                                                                 result.psi, [hf])
            assert integrand.tobytes() == one_integrand.tobytes()
            assert integrand.shape == rho.grid.shape
            assert repr((lhs, flux)) == repr((one_lhs, one_flux))

    def test_lhs_and_flux_match_public_functions_exactly(self, solves):
        spec = BatchSpec(seeds=(3,), p_values=(1.5, 2.0), q_values=(1.5, 2.0, 4.0),
                         n_values=(64,), solver="lp")
        reports = verify_batch(spec)
        assert len(solves) == 2
        for report in reports:
            rho, g, cost, result = solves[spec.p_values.index(report.p)]
            assert cost.exponent == report.p
            hf = power_h_function(report.q,
                                  delta0=_H_DELTA0_FRACTION * 2.0 * rho.grid.enclosing_radius)
            (integrand, lhs, flux), = five_gradients(rho, g, result.phi, result.psi, [hf])
            assert (report.lhs, report.flux) == (lhs, flux)
            assert report.lhs == float(integrand.sum() * rho.grid.cell_volume)



class TestSharedBatchInputs:
    """One cost matrix per (p, n) and one density pair per (seed, n), shared read-only."""

    SPEC = dict(seeds=(0, 1, 2), p_values=(1.5, 3.0), q_values=(1.5, 2.0, 4.0),
                n_values=(16, 32))

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts matrix builds and density draws and records every batch solve."""
        record = {"matrices": [], "densities": 0, "solves": []}
        real_matrix = oc._cost_matrix
        real_density = geometry.random_smooth_density
        real_solve = fivegrad._solve_for_batch

        def matrix(cost, xs, ys):
            # the previous matrix is dropped before the next one is built
            assert all(ref() is None for ref in record["matrices"])
            out = real_matrix(cost, xs, ys)
            record["matrices"].append(weakref.ref(out))
            return out

        def density(*args, **kwargs):
            record["densities"] += 1
            return real_density(*args, **kwargs)

        def solve(rho, g, cost, solver, entropic_eps, cmat, staircase):
            shared = (not cmat.flags.writeable, cmat is record["matrices"][-1]())
            record["solves"].append((rho, g, cost, shared,
                                     real_solve(rho, g, cost, solver, entropic_eps, cmat,
                                                staircase)))
            return record["solves"][-1][-1]

        for module in (oc, fivegrad):
            monkeypatch.setattr(module, "_cost_matrix", matrix)
        for module in (geometry, fivegrad):
            monkeypatch.setattr(module, "random_smooth_density", density)
        monkeypatch.setattr(fivegrad, "_solve_for_batch", solve)
        return record

    @pytest.mark.parametrize("solver, standalone", [
        ("lp", solve_lp),
    ])
    def test_builds_once_and_matches_standalone_solves(self, builds, solver, standalone):
        reports = verify_batch(BatchSpec(solver=solver, **self.SPEC))
        assert len(reports) == 36
        assert len(builds["matrices"]) == 4
        assert builds["densities"] == 12
        assert len(builds["solves"]) == 12
        for rho, g, cost, shared, result in builds["solves"]:
            assert shared == (True, True)
            alone = standalone(rho, g, cost)
            for name in ("phi", "psi", "coupling"):
                assert np.array_equal(getattr(result, name), getattr(alone, name))

    @pytest.mark.parametrize("solver", ["lp"])
    def test_failed_matrix_build_errors_only_its_p(self, monkeypatch, solver):
        spec = BatchSpec(solver=solver, **self.SPEC)
        clean = verify_batch(spec)
        real = oc._cost_matrix

        def failing(cost, xs, ys):
            if cost.exponent == 3.0:
                raise DomainError("no matrix for p = 3")
            return real(cost, xs, ys)

        for module in (oc, fivegrad):
            monkeypatch.setattr(module, "_cost_matrix", failing)
        reports = verify_batch(spec)
        assert [r[:4] for r in map(report_fields, reports)] == list(lattice(spec))
        for got, want in zip(reports, clean):
            if got.p == 3.0:
                assert got.error == "DomainError: no matrix for p = 3"
                assert np.isnan(got.lhs) and np.isnan(got.flux) and not got.passed
                fields, clean_fields = report_fields(got), report_fields(want)
                # seed, p, q, n, solver, tv_rho, tv_g and tolerance are kept
                assert fields[:5] + fields[7:10] == clean_fields[:5] + clean_fields[7:10]
            else:
                assert report_fields(got) == report_fields(want)

    def test_nan_potential_errors_only_its_instance(self, monkeypatch):
        spec = BatchSpec(solver="lp", **self.SPEC)
        clean = verify_batch(spec)
        bad_rho = instance_densities(spec, 1, 32)[0]
        real = fivegrad._solve_for_batch

        def poisoned(rho, g, cost, solver, entropic_eps, cmat, staircase):
            result = real(rho, g, cost, solver, entropic_eps, cmat, staircase)
            if np.array_equal(rho.values, bad_rho.values) and cost.exponent == 3.0:
                phi = result.phi.copy()
                phi[5] = np.nan
                result = dataclasses.replace(result, phi=phi)
            return result

        monkeypatch.setattr(fivegrad, "_solve_for_batch", poisoned)
        reports = verify_batch(spec)
        assert [r[:4] for r in map(report_fields, reports)] == list(lattice(spec))
        hit = 0
        for got, want in zip(reports, clean):
            if (got.seed, got.p, got.n) == (1, 3.0, 32):
                hit += 1
                assert got.error == "ShapeError: gradient entries must be finite"
                assert np.isnan(got.lhs) and not got.passed
            else:
                assert report_fields(got) == report_fields(want)
        assert hit == len(spec.q_values)

    def test_h_functions_built_once_per_n(self, monkeypatch):
        built = []
        real = fivegrad.power_h_function

        def counting(q, delta0=0.0):
            built.append(q)
            return real(q, delta0=delta0)

        monkeypatch.setattr(fivegrad, "power_h_function", counting)
        spec = BatchSpec(solver="lp", **self.SPEC)
        assert len(verify_batch(spec)) == 36
        assert built == list(spec.q_values) * len(spec.n_values)


class TestSharedStaircase:
    """One ``_Staircase`` per (seed, n) pair, shared by every p of an lp batch."""

    @pytest.mark.parametrize("solver, standalone", [
        ("lp", solve_lp),
    ])
    def test_one_per_pair_and_solves_match_standalone(self, monkeypatch, staircase_fills,
                                                      solver, standalone):
        solves = []
        real_solve = fivegrad._solve_for_batch

        def solve(rho, g, cost, solver, entropic_eps, cmat, staircase):
            solves.append((rho, g, cost, staircase,
                           real_solve(rho, g, cost, solver, entropic_eps, cmat, staircase)))
            return solves[-1][-1]

        monkeypatch.setattr(fivegrad, "_solve_for_batch", solve)
        spec = BatchSpec(solver=solver, **TestSharedBatchInputs.SPEC)
        assert len(verify_batch(spec)) == 36
        batch_fills = list(staircase_fills)
        pairs = len(spec.seeds) * len(spec.n_values)
        assert len(batch_fills) == pairs  # not one per (seed, p, n)
        assert len(solves) == pairs * len(spec.p_values)
        shared = {}
        for rho, g, cost, staircase, result in solves:
            assert shared.setdefault(id(rho), staircase) is staircase
            alone = standalone(rho, g, cost)
            for name in ("phi", "psi", "coupling"):
                assert getattr(result, name).tobytes() == getattr(alone, name).tobytes()
            assert (result.primal, result.dual, result.meta) == (alone.primal, alone.dual,
                                                                 alone.meta)
        assert {id(s) for s in shared.values()} == {id(s) for s in batch_fills}

    def test_criterion_1_lattice_fills_once_per_pair(self, staircase_fills):
        # the inequality-batch pass: 20 seeds x 2 n pairs, 3 p, 3 q
        spec = BatchSpec(seeds=tuple(range(20, 40)), p_values=(1.5, 2.0, 3.0),
                         q_values=(1.5, 2.0, 4.0), n_values=(128, 512), solver="lp")
        assert len(verify_batch(spec)) == 360
        assert len(staircase_fills) == 40


class TestReportsCSV:
    def test_round_trip_bytes(self, tmp_path):
        spec = BatchSpec(seeds=(0, 1), p_values=(2.0,), q_values=(1.5,))
        reports = verify_batch(spec)
        path = tmp_path / "reports.csv"
        write_reports_csv(path, reports)
        first = path.read_bytes()
        assert first.startswith(b"seed,p,q,n,solver,lhs,flux,tv_rho,tv_g,tolerance,pass\n")
        assert b"\r" not in first
        write_reports_csv(path, verify_batch(spec))
        assert path.read_bytes() == first
        lines = first.decode().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].endswith(",1")


class TestTwoDimensional:
    def test_entropic_instance_passes(self):
        spec = BatchSpec(seeds=(2,), p_values=(2.0,), q_values=(2.0,),
                         n_values=(16,), d=2, entropic_eps=3e-3)
        report, = verify_batch(spec)
        assert report.error == ""
        assert report.solver == "entropic"
        assert report.passed

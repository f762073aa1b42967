"""Tests for the transport solvers, c-transforms, and map assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from otlab import fivegrad
from otlab import ot_core as oc
from otlab.cost import power_cost
from otlab.errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    InputError,
    ParameterError,
    RangeError,
)
from otlab.geometry import Grid, as_density, gradient, random_smooth_density


def four_point_grid():
    # cell centers at 0, 1, 2, 3
    return Grid(1, -0.5, 3.5, 4)


def random_pair(n=64, seeds=(3, 11), bounds=(0.0, 1.0)):
    grid = Grid(1, bounds[0], bounds[1], n)
    return grid, random_smooth_density(grid, seeds[0]), random_smooth_density(grid, seeds[1])


class TestCTransform:
    def test_zero_potential_gives_zero(self):
        # minimizer is y = x, where h(0) - 0 = 0
        grid = four_point_grid()
        cost = power_cost(2.0, grid.cost_radius)
        phi = oc.c_transform(cost, np.zeros(4), grid)
        np.testing.assert_allclose(phi, np.zeros(4))

    def test_exhaustive_four_point_minimum(self):
        # psi = (0, -1, 0, 0), h(z) = z^2/2 on centers {0,1,2,3}:
        # phi(0) = min(0, 1.5, 2, 4.5) = 0, phi(1) = min(0.5, 1, 0.5, 2) = 0.5,
        # phi(2) = min(2, 1.5, 0, 0.5) = 0, phi(3) = min(4.5, 3, 0.5, 0) = 0
        grid = four_point_grid()
        cost = power_cost(2.0, grid.cost_radius)
        phi = oc.c_transform(cost, np.array([0.0, -1.0, 0.0, 0.0]), grid)
        np.testing.assert_allclose(phi, [0.0, 0.5, 0.0, 0.0])

    def test_double_transform_is_idempotent(self):
        grid, rho, g = random_pair()
        cost = power_cost(1.5, grid.cost_radius)
        rng = np.random.default_rng(0)
        raw = rng.normal(size=grid.shape)
        phi1, psi1 = oc.canonical_pair(cost, raw, grid, grid)
        phi2, psi2 = oc.canonical_pair(cost, phi1, grid, grid)
        np.testing.assert_allclose(phi2, phi1, atol=1e-12)
        np.testing.assert_allclose(psi2, psi1, atol=1e-12)

    def test_monotone_in_argument(self):
        # pointwise smaller psi leaves more room: c_transform flips the order
        grid, rho, g = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        rng = np.random.default_rng(5)
        psi2 = rng.normal(size=grid.shape) * 0.1
        psi1 = psi2 - np.abs(rng.normal(size=grid.shape))
        phi1 = oc.c_transform(cost, psi1, grid)
        phi2 = oc.c_transform(cost, psi2, grid)
        assert np.all(phi1 >= phi2 - 1e-14)


class TestCanonicalPairMatrixForm:
    """The one-matrix double c-transform equals two ``c_transform`` calls bit for bit."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("grids", [
        (Grid(1, 0.0, 1.0, 64), Grid(1, 0.0, 1.0, 64)),
        (Grid(2, 0.0, 1.0, (7, 9)), Grid(2, 0.0, 1.0, (7, 9))),
        (Grid(1, 0.0, 1.0, 48), Grid(1, 0.1, 1.3, 31)),
    ], ids=["square-1d", "grid-2d", "rectangular-1d"])
    def test_equals_two_c_transforms(self, grids, p):
        source, target = grids
        cost = power_cost(p, max(source.cost_radius, target.cost_radius) + 0.3)
        raw = np.random.default_rng(source.num_cells).normal(size=source.shape)
        phi, psi = oc.canonical_pair(cost, raw, source, target)
        want_psi = oc.c_transform(cost, raw, source, target)
        want_phi = oc.c_transform(cost, want_psi, target, source)
        assert phi.shape == source.shape and psi.shape == target.shape
        assert np.array_equal(psi, want_psi)
        assert np.array_equal(phi, want_phi)


class TestCostMatrixCount:
    """Each solve and each canonical pair builds its cost matrix exactly once."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        build = oc._cost_matrix

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(oc, "_cost_matrix", counted)
        return calls

    @pytest.mark.parametrize("solve", [
        lambda rho, g, cost: oc.solve_lp(rho, g, cost),
        lambda rho, g, cost: oc.solve_entropic(rho, g, cost, eps_final=1e-2),
        lambda rho, g, cost: oc.solve_exact_1d(rho, g, cost),
        lambda rho, g, cost: oc.canonical_pair(cost, np.zeros(rho.grid.shape), rho.grid, g.grid),
    ], ids=["solve_lp", "solve_entropic", "solve_exact_1d", "canonical_pair"])
    def test_one_matrix_1d(self, count, solve):
        grid, rho, g = random_pair(n=32)
        solve(rho, g, power_cost(1.5, grid.cost_radius))
        assert len(count) == 1

    def test_one_matrix_lp_2d(self, count):
        grid = Grid(2, 0.0, 1.0, 5)
        rho, g = random_smooth_density(grid, 1), random_smooth_density(grid, 2)
        result = oc.solve_lp(rho, g, power_cost(2.0, grid.cost_radius))
        assert result.meta["pivots"] > 0
        assert len(count) == 1


class TestExact1D:
    def test_identity_pair(self):
        grid, rho, _ = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        result, map_field = oc.solve_exact_1d(rho, rho, cost)
        assert result.primal == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            map_field.points[:, 0], grid.cell_centers()[:, 0], atol=1e-10
        )

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_shifted_uniform_quantile_map(self, p):
        # rho uniform on [0,1/2], g uniform on [1/2,1]: T(x) = x + 1/2
        grid = Grid(1, 0.0, 1.0, 64)
        cost = power_cost(p, grid.cost_radius)
        xs = grid.cell_centers()[:, 0]
        rho = as_density(grid, np.where(xs < 0.5, 2.0, 0.0))
        g = as_density(grid, np.where(xs >= 0.5, 2.0, 0.0))
        result, map_field = oc.solve_exact_1d(rho, g, cost)
        mask = map_field.mask
        err = np.abs(map_field.points[mask, 0] - (xs[mask] + 0.5))
        assert err.max() <= grid.spacing[0]

    def test_coupling_mass_is_one(self):
        grid, rho, g = random_pair()
        cost = power_cost(1.5, grid.cost_radius)
        result, _ = oc.solve_exact_1d(rho, g, cost)
        assert result.coupling.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_2d(self):
        grid = Grid(2, 0.0, 1.0, 8)
        rho = random_smooth_density(grid, 1)
        cost = power_cost(2.0, grid.cost_radius)
        with pytest.raises(DomainError):
            oc.solve_exact_1d(rho, rho, cost)

    def test_translation_equivariance_in_the_interior(self):
        # both densities shifted by one cell => T shifts by one cell
        grid = Grid(1, 0.0, 1.0, 64)
        xs = grid.cell_centers()[:, 0]
        bump = np.exp(-80.0 * (xs - 0.4) ** 2) + 0.5 * np.exp(-60.0 * (xs - 0.55) ** 2)
        bump[xs < 0.15] = 0.0
        bump[xs > 0.85] = 0.0
        target = np.exp(-50.0 * (xs - 0.5) ** 2)
        target[xs < 0.15] = 0.0
        target[xs > 0.85] = 0.0
        cost = power_cost(2.0, grid.cost_radius)
        rho1 = as_density(grid, bump).normalized()
        g1 = as_density(grid, target).normalized()
        rho2 = as_density(grid, np.roll(bump, 1)).normalized()
        g2 = as_density(grid, np.roll(target, 1)).normalized()
        _, m1 = oc.solve_exact_1d(rho1, g1, cost)
        _, m2 = oc.solve_exact_1d(rho2, g2, cost)
        dx = grid.spacing[0]
        inner = m1.mask & np.roll(m2.mask, -1)
        inner[:5] = inner[-5:] = False
        shift = m2.points[1:, 0][inner[:-1]] - m1.points[:-1, 0][inner[:-1]]
        np.testing.assert_allclose(shift, dx, atol=1e-8)


class TestSolveLP:
    def test_identity_uniform_is_diagonal(self):
        grid = four_point_grid()
        cost = power_cost(1.5, grid.cost_radius)
        uniform = as_density(grid, np.ones(4)).normalized()
        result = oc.solve_lp(uniform, uniform, cost)
        np.testing.assert_allclose(result.coupling, np.eye(4) * 0.25, atol=1e-12)
        assert result.primal == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_oracle_equivalence(self, p):
        grid, rho, g = random_pair()
        cost = power_cost(p, grid.cost_radius)
        lp = oc.solve_lp(rho, g, cost)
        exact, _ = oc.solve_exact_1d(rho, g, cost)
        assert lp.primal == pytest.approx(exact.primal, rel=1e-6)
        assert lp.gap <= 1e-8 * (1.0 + abs(lp.primal))

    def test_swap_transposes_coupling(self):
        grid, rho, g = random_pair(seeds=(9, 4))
        cost = power_cost(2.0, grid.cost_radius)
        fwd = oc.solve_lp(rho, g, cost)
        bwd = oc.solve_lp(g, rho, cost)
        np.testing.assert_allclose(bwd.coupling, fwd.coupling.T, atol=1e-12)
        assert bwd.primal == pytest.approx(fwd.primal, rel=1e-12)
        # potentials swap modulo the additive gauge on supported cells
        diff = bwd.phi - fwd.psi
        support = fwd.coupling.sum(axis=0) > 1e-6
        assert np.ptp(diff[support]) <= 1e-8

    def test_complementary_slackness(self):
        grid, rho, g = random_pair()
        cost = power_cost(1.5, grid.cost_radius)
        result = oc.solve_lp(rho, g, cost)
        cmat = oc._cost_matrix(cost, grid.cell_centers(), grid.cell_centers())
        pairs = result.coupling > 1e-6
        slack = cmat - result.phi.reshape(-1)[:, None] - result.psi.reshape(-1)[None, :]
        assert slack.min() >= -1e-9
        assert np.abs(slack[pairs]).max() <= 1e-6

    def test_capacity_limit(self, monkeypatch):
        monkeypatch.setattr(oc, "_LP_CAPACITY", 100)
        grid, rho, g = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        with pytest.raises(CapacityError):
            oc.solve_lp(rho, g, cost)

    def test_mass_mismatch_rejected(self):
        grid, rho, g = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        heavier = as_density(grid, g.values * 1.5)
        with pytest.raises(InputError):
            oc.solve_lp(rho, heavier, cost)


def _numpy_tree_duals(cmat, cells):
    """Reference walk of the basis tree spanned by ``cells`` from u_0 = 0, on numpy scalars.

    Unreached rows and columns stay NaN.
    """
    m, n = cmat.shape
    rows = [[] for _ in range(m)]
    cols = [[] for _ in range(n)]
    for i, j in cells:
        rows[i].append(j)
        cols[j].append(i)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in rows[k]:
                if np.isnan(v[j]):
                    v[j] = cmat[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in cols[k]:
                if np.isnan(u[i]):
                    u[i] = cmat[i, k] - v[k]
                    stack.append(("r", i))
    return u, v


def _basis_cells(simplex):
    """The cells of the rooted basis tree: one per node below the root."""
    m = simplex.m
    return [(k, up - m) if k < m else (up, k - m)
            for k, up in enumerate(simplex.parent) if up >= 0]


class TestStaircaseDuals:
    """The start duals walked off the staircase equal a tree search bit for bit."""

    @staticmethod
    def simplex(cost, source, target, a, b):
        cmat = oc._cost_matrix(cost, source.cell_centers(), target.cell_centers())
        return oc._TransportationSimplex(cmat, np.asarray(a, float), np.asarray(b, float))

    @staticmethod
    def check(simplex):
        u, v = simplex.staircase_duals()
        assert sorted(_basis_cells(simplex)) == sorted(simplex.path)
        want_u, want_v = _numpy_tree_duals(simplex.cmat, simplex.path)
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)

    @pytest.mark.parametrize("a, b", [
        # equal partial sums: the fill empties a row and a column at once
        ([0.25, 0.25, 0.25, 0.25], [0.5, 0.125, 0.125, 0.25]),
        ([0.125, 0.375, 0.25, 0.25, 0.0], [0.5, 0.0, 0.25, 0.25]),
        ([0.0, 0.5, 0.0, 0.5], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]),
    ])
    def test_degenerate_staircase(self, a, b):
        source, target = Grid(1, 0.0, 1.0, len(a)), Grid(1, 0.0, 1.0, len(b))
        simplex = self.simplex(power_cost(1.5, 1.0), source, target, a, b)
        assert len(simplex.path) == len(a) + len(b) - 1
        assert any(simplex.x[cell] == 0.0 for cell in simplex.path)
        self.check(simplex)

    @pytest.mark.parametrize("d, n", [(1, 96), (2, 8)])
    def test_random_marginals(self, d, n):
        grid = Grid(d, 0.0, 1.0, n)
        a = random_smooth_density(grid, 3).values.reshape(-1) * grid.cell_volume
        b = random_smooth_density(grid, 4).values.reshape(-1) * grid.cell_volume
        cost = power_cost(3.0, grid.cost_radius)
        self.check(self.simplex(cost, grid, grid, a, b * (a.sum() / b.sum())))


class TestLPRegression:
    """The 2-d 8x8 LP of the transport benchmark: seed 0, p = 2, a random pair."""

    @staticmethod
    def instance():
        grid = Grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
        cost = power_cost(2.0, grid.cost_radius)
        return random_smooth_density(grid, 0), random_smooth_density(grid, 1), cost

    def test_pivots_and_duals_pinned(self, monkeypatch):
        checked = []
        rewalk = oc._TransportationSimplex._rewalk

        def checked_rewalk(simplex, top):
            rewalk(simplex, top)
            m, n = simplex.m, simplex.n
            cells = _basis_cells(simplex)
            assert len(set(cells)) == m + n - 1
            assert all(simplex.depth[k] == simplex.depth[up] + 1
                       for k, up in enumerate(simplex.parent) if up >= 0)
            u, v = _numpy_tree_duals(simplex.cmat, cells)
            assert not (np.isnan(u).any() or np.isnan(v).any())  # the basis spans
            assert np.array_equal(simplex.duals[:m], u) and np.array_equal(simplex.duals[m:], v)
            basis = np.zeros((m, n), dtype=bool)
            basis[tuple(np.array(cells).T)] = True
            assert not (simplex.x > 0)[~basis].any()
            checked.append(1)

        monkeypatch.setattr(oc._TransportationSimplex, "_rewalk", checked_rewalk)
        result = oc.solve_lp(*self.instance())
        assert result.meta["pivots"] == 1783
        assert len(checked) == 1783
        assert result.primal == 0.00916843888957359
        assert result.dual == 0.009168438889573596

    def test_pivot_budget_raises_with_residual(self):
        rho, g, cost = self.instance()
        a, b = oc._marginals(rho, g)
        cmat = oc._cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
        simplex = oc._TransportationSimplex(cmat, a, b)
        with pytest.raises(ConvergenceError) as info:
            simplex.pivot_until_optimal(max_pivots=5)
        assert math.isfinite(info.value.residual) and info.value.residual > 0.0


def _weights(size):
    # small integer weights give zero-mass cells and tied partial sums
    return st.lists(st.integers(0, 6), min_size=size, max_size=size).filter(any)


@st.composite
def lp_instances(draw, d):
    n = draw(st.integers(4, 24)) if d == 1 else (draw(st.integers(4, 5)), draw(st.integers(4, 5)))
    grid = Grid(d, 0.0, 1.0, n)
    rho = as_density(grid, np.reshape(draw(_weights(grid.num_cells)), grid.shape)).normalized()
    g = as_density(grid, np.reshape(draw(_weights(grid.num_cells)), grid.shape)).normalized()
    cost = power_cost(draw(st.sampled_from([1.5, 2.0, 3.0])), grid.cost_radius)
    return rho, g, cost


def _check_lp(result):
    a = result.source.values.reshape(-1) * result.source.grid.cell_volume
    b = result.target.values.reshape(-1) * result.target.grid.cell_volume
    assert np.abs(result.coupling.sum(axis=1) - a).max() <= 1e-12
    assert np.abs(result.coupling.sum(axis=0) - b).max() <= 1e-12
    assert abs(result.gap) <= 1e-8 * (1.0 + abs(result.primal))
    result.validate()


class TestSolveLPProperties:
    @settings(max_examples=60, deadline=None)
    @given(instance=lp_instances(d=1))
    def test_1d_start_is_optimal_and_exact(self, instance):
        rho, g, cost = instance
        result = oc.solve_lp(rho, g, cost)
        _check_lp(result)
        assert result.meta["pivots"] == 0
        exact, _ = oc.solve_exact_1d(rho, g, cost)
        assert abs(result.primal - exact.primal) <= 1e-12 * abs(exact.primal) + 1e-18

    @settings(max_examples=25, deadline=None)
    @given(instance=lp_instances(d=2))
    def test_2d(self, instance):
        _check_lp(oc.solve_lp(*instance))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_2d_rectangular_matches_highs(self, data):
        # source and target grids of different cell counts: m != n rows and columns
        shapes = st.tuples(st.integers(4, 5), st.integers(4, 5))
        source = Grid(2, 0.0, 1.0, data.draw(shapes))
        target = Grid(2, 0.0, 1.0,
                      data.draw(shapes.filter(lambda s: s[0] * s[1] != source.num_cells)))
        rho, g = (as_density(grid, np.reshape(data.draw(_weights(grid.num_cells)), grid.shape)).normalized()
                  for grid in (source, target))
        cost = power_cost(data.draw(st.sampled_from([1.5, 2.0, 3.0])),
                          max(source.cost_radius, target.cost_radius))
        result = oc.solve_lp(rho, g, cost)
        _check_lp(result)

        from scipy.optimize import linprog

        a, b = oc._marginals(rho, g)
        m, n = len(a), len(b)
        cmat = oc._cost_matrix(cost, source.cell_centers(), target.cell_centers())
        rows = np.kron(np.eye(m), np.ones(n))
        cols = np.kron(np.ones(m), np.eye(n))
        highs = linprog(cmat.reshape(-1), A_eq=np.vstack([rows, cols]),
                        b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
        assert highs.status == 0
        assert abs(result.primal - highs.fun) <= 1e-9 * abs(highs.fun)


class TestSoftmin:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("n", [96, 64])
    def test_matches_scipy_logsumexp(self, n, axis):
        grid, rho, _ = random_pair(n=n)
        cost = power_cost(1.5, grid.cost_radius)
        centers = grid.cell_centers()
        cmat = oc._cost_matrix(cost, centers, centers)
        eps = 1e-4  # pot / eps overflows exp without the max shift
        pot = np.random.default_rng(n).normal(scale=0.05, size=n)
        with np.errstate(divide="ignore"):
            logw = np.log(rho.values.reshape(-1) * grid.cell_volume)
        logw[[0, n // 3, n - 1]] = -np.inf  # zero-mass weights
        dead = n // 2
        if axis == 0:
            cmat[:, dead] = np.inf  # all -inf slice for output `dead`
        else:
            cmat[dead, :] = np.inf
        shape = (-1, 1) if axis == 0 else (1, -1)
        with np.errstate(divide="ignore"):
            want = -eps * logsumexp((pot.reshape(shape) - cmat) / eps + logw.reshape(shape),
                                    axis=axis)
        got = oc.softmin(cmat, pot, logw, eps, axis)
        assert got.shape == (n,)
        assert got[dead] == np.inf
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestSeparableSoftmin:
    """The axis-by-axis sweep of the 2-d quadratic cost against the dense ``softmin``."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("source, target", [
        (Grid(2, 0.0, 1.0, 16), Grid(2, 0.0, 1.0, 16)),
        (Grid(2, [0.0, -0.5], [1.0, 1.0], [8, 12]), Grid(2, [0.25, 0.0], [1.5, 0.75], [10, 6])),
    ], ids=["16x16", "8x12-10x6"])
    def test_matches_dense_kernel(self, source, target, axis):
        cost = power_cost(2.0, 4.0)
        cmat = oc._cost_matrix(cost, source.cell_centers(), target.cell_centers())
        factors = oc._axis_factors(source, target)
        summed = source if axis == 0 else target
        rng = np.random.default_rng(summed.num_cells + axis)
        eps = 1e-4  # (pot - C) / eps overflows exp without the shift
        pot = rng.normal(scale=0.1, size=summed.num_cells)
        logw = np.log(rng.uniform(0.5, 1.0, size=summed.shape))
        logw[1, :] = -np.inf  # a zero-weight slice of the first stage
        logw[3, 2] = -np.inf
        # an infinite cost slice on the last axis: every output it reaches is +inf
        if axis == 0:
            factors[1][:, 4] = np.inf
            cmat.reshape(*source.shape, *target.shape)[:, :, :, 4] = np.inf
        else:
            factors[1][4, :] = np.inf
            cmat.reshape(*source.shape, *target.shape)[:, 4, :, :] = np.inf
        want = oc.softmin(cmat, pot, logw.reshape(-1), eps, axis)
        got = oc._separable_softmin(factors, pot, logw.reshape(-1), eps, axis)
        dead = want == np.inf
        assert got.shape == want.shape
        assert dead.any() and np.array_equal(got == np.inf, dead)
        assert np.isfinite(want[~dead]).all()
        np.testing.assert_allclose(got[~dead], want[~dead], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_all_zero_weights_give_inf(self, axis):
        grid = Grid(2, 0.0, 1.0, (6, 5))
        factors = oc._axis_factors(grid, grid)
        logw = np.full(grid.num_cells, -np.inf)
        got = oc._separable_softmin(factors, np.zeros(grid.num_cells), logw, 1e-3, axis)
        assert np.array_equal(got, np.full(grid.num_cells, np.inf))


def unfloored_log_sum_exp(z, axis):
    """``oc._log_sum_exp`` without its exp floor: the reference the floor must not move."""
    zmax = z.max(axis=axis, keepdims=True)
    zmax[~np.isfinite(zmax)] = 0.0
    z -= zmax
    with np.errstate(divide="ignore"):
        return np.log(np.exp(z, out=z).sum(axis=axis)) + np.squeeze(zmax, axis)


class TestExpFloor:
    """The floored log-sum-exp kernel and both softmins against the unfloored form, bit for bit.

    Every input sits at eps = 1e-4, where most shifted exponents fall far
    below the floor, and carries -inf weights, an all -inf slice and a NaN.
    """

    @pytest.mark.parametrize("axis", [0, 1])
    def test_log_sum_exp(self, axis):
        rng = np.random.default_rng(5 + axis)
        z = rng.normal(scale=0.2, size=(70, 90)) / 1e-4
        z -= z.max(axis=axis, keepdims=True)  # each slice's maximum is 0
        assert np.mean(z < -709.0) > 0.3
        near = rng.random(z.shape) < 0.3  # around the floor and exp's subnormal range
        z[near] = rng.choice([-699.9, -700.0, -705.0, -708.3, -720.0, -745.0], size=near.sum())
        z[rng.random(z.shape) < 0.1] = -np.inf
        if axis == 0:
            z[:, 3] = -np.inf
        else:
            z[3, :] = -np.inf
        z[11, 17] = np.nan
        got = oc._log_sum_exp(z.copy(), axis)
        want = unfloored_log_sum_exp(z.copy(), axis)
        assert got[3] == -np.inf
        assert np.isnan(got[17 if axis == 0 else 11])
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_softmin(self, axis, monkeypatch):
        grid, rho, _ = random_pair(n=96)
        cmat = oc._cost_matrix(power_cost(1.5, grid.cost_radius), grid.cell_centers(),
                               grid.cell_centers())
        pot = np.random.default_rng(axis).normal(scale=0.05, size=96)
        logw = np.log(rho.values.reshape(-1) * grid.cell_volume)
        logw[[0, 40, 95]] = -np.inf
        if axis == 0:
            cmat[:, 50] = np.inf  # all -inf slice for output 50
            cmat[20, 60] = np.nan
        else:
            cmat[50, :] = np.inf
            cmat[60, 20] = np.nan
        with np.errstate(over="ignore"):  # a NaN slice is not shifted
            got = oc.softmin(cmat, pot, logw, 1e-4, axis)
            monkeypatch.setattr(oc, "_log_sum_exp", unfloored_log_sum_exp)
            want = oc.softmin(cmat, pot, logw, 1e-4, axis)
        assert got[50] == np.inf and np.isnan(got[60])
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_separable_softmin(self, axis, monkeypatch):
        grid = Grid(2, 0.0, 1.0, 16)
        factors = oc._axis_factors(grid, grid)
        rng = np.random.default_rng(10 + axis)
        pot = rng.normal(scale=0.1, size=grid.num_cells)
        logw = np.log(rng.uniform(0.5, 1.0, size=grid.shape))
        logw[1, :] = -np.inf  # an all -inf slice of the first stage
        logw[3, 2] = -np.inf
        factors[1][2, 5] = np.nan
        with np.errstate(over="ignore"):  # a NaN slice is not shifted
            got = oc._separable_softmin(factors, pot, logw.reshape(-1), 1e-4, axis)
            monkeypatch.setattr(oc, "_log_sum_exp", unfloored_log_sum_exp)
            want = oc._separable_softmin(factors, pot, logw.reshape(-1), 1e-4, axis)
        assert np.isnan(got).any() and np.isfinite(got).any()
        assert np.array_equal(got, want, equal_nan=True)


class TestEntropicKernelDispatch:
    """2-d p = 2 solves sweep axis by axis; every other solve uses the dense kernel."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"dense": 0, "separable": 0}
        dense, separable = oc.softmin, oc._separable_softmin

        def counted_dense(*args):
            calls["dense"] += 1
            return dense(*args)

        def counted_separable(*args):
            calls["separable"] += 1
            return separable(*args)

        monkeypatch.setattr(oc, "softmin", counted_dense)
        monkeypatch.setattr(oc, "_separable_softmin", counted_separable)
        return calls

    @pytest.mark.parametrize("d, p, kernel", [
        (2, 2.0, "separable"),
        (2, 1.5, "dense"),
        (1, 2.0, "dense"),
    ])
    def test_kernel_calls(self, calls, d, p, kernel):
        grid = Grid(d, 0.0, 1.0, 6 if d == 2 else 32)
        rho, g = random_smooth_density(grid, 1), random_smooth_density(grid, 2)
        result = oc.solve_entropic(rho, g, power_cost(p, grid.cost_radius), 1e-2)
        assert result.meta["kernel"] == kernel
        other = "dense" if kernel == "separable" else "separable"
        assert calls == {kernel: 2 * result.meta["iterations"], other: 0}


class TestSolveEntropic:
    def test_identity_small_eps_is_near_diagonal(self):
        grid, rho, _ = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        result = oc.solve_entropic(rho, rho, cost, eps_final=3e-5)
        dx = grid.spacing[0]
        assert result.primal <= float(cost.profile(np.array([2 * dx]))[0])

    def test_oracle_equivalence_small_eps(self):
        grid, rho, g = random_pair(n=128)
        cost = power_cost(1.5, grid.cost_radius)
        exact, _ = oc.solve_exact_1d(rho, g, cost)
        result = oc.solve_entropic(rho, g, cost, eps_final=3e-5)
        assert result.primal == pytest.approx(exact.primal, rel=1e-3)

    def test_marginals_are_exact_after_rounding(self):
        grid, rho, g = random_pair(n=128)
        cost = power_cost(1.5, grid.cost_radius)
        result = oc.solve_entropic(rho, g, cost, eps_final=1e-4)
        a = rho.values * grid.cell_volume
        b = g.values * grid.cell_volume
        assert np.abs(result.coupling.sum(axis=1) - a).sum() <= 1e-12
        assert np.abs(result.coupling.sum(axis=0) - b).sum() <= 1e-12

    def test_decreasing_eps_tightens_primal(self):
        grid, rho, g = random_pair(n=128)
        cost = power_cost(1.5, grid.cost_radius)
        lp = oc.solve_lp(rho, g, cost)
        excess = []
        for eps in (4e-4, 1e-4, 3e-5):
            r = oc.solve_entropic(rho, g, cost, eps_final=eps)
            excess.append(r.primal - lp.primal)
        assert excess[0] > excess[1] > excess[2] > 0

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(oc, "_MAX_SWEEPS", 3)
        grid, rho, g = random_pair(n=128)
        cost = power_cost(1.5, grid.cost_radius)
        with pytest.raises(ConvergenceError) as err:
            oc.solve_entropic(rho, g, cost, eps_final=3e-5)
        assert np.isfinite(err.value.residual)

    def test_parameter_validation(self):
        grid, rho, g = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        with pytest.raises(ParameterError):
            oc.solve_entropic(rho, g, cost, eps_final=0.0)

    def test_schedule_is_the_shared_ladder(self):
        grid, rho, g = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        result = oc.solve_entropic(rho, g, cost, eps_final=1e-4)
        cmax = float(oc._cost_matrix(cost, grid.cell_centers(), grid.cell_centers()).max())
        assert result.meta["schedule"] == oc._eps_ladder(1e-4, cmax)
        assert result.meta["schedule"] == [1e-4 * 4.0**k for k in range(4, -1, -1)]


def _check_entropic(result):
    assert result.meta["raw_marginal_residual"] <= 1e-7
    assert result.gap >= oc._GAP_FLOOR
    result.validate()


_BATCH_2D = fivegrad.BatchSpec(seeds=(0,), d=2)


class TestSolveEntropicRegressions:
    """2-d batch pairs at the default width and ten times it; 11 of the 24 stalled overrelaxed."""

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_8x8_batch_instances_converge(self, seed, p, eps):
        rho, g = fivegrad.instance_densities(_BATCH_2D, seed, 8)
        _check_entropic(oc.solve_entropic(rho, g, power_cost(p, rho.grid.cost_radius), eps))

    def test_16x16_p15_seed1_converges(self):
        rho, g = fivegrad.instance_densities(_BATCH_2D, 1, 16)
        _check_entropic(oc.solve_entropic(rho, g, power_cost(1.5, rho.grid.cost_radius), 1e-4))


@st.composite
def smooth_instances(draw):
    grid = Grid(2, 0.0, 1.0, (draw(st.integers(4, 5)), draw(st.integers(4, 5))))
    rho = random_smooth_density(grid, draw(st.integers(0, 2**31 - 1)))
    g = random_smooth_density(grid, draw(st.integers(0, 2**31 - 1)))
    cost = power_cost(draw(st.sampled_from([1.5, 2.0, 3.0])), grid.cost_radius)
    return rho, g, cost


class TestSolveEntropicProperties:
    @settings(max_examples=30, deadline=None)
    @given(instance=smooth_instances(), eps=st.sampled_from([1e-2, 1e-3]))
    def test_2d(self, instance, eps):
        rho, g, cost = instance
        result = oc.solve_entropic(rho, g, cost, eps)
        _check_entropic(result)
        phi, _ = oc.canonical_pair(cost, result.phi, rho.grid, g.grid)
        np.testing.assert_allclose(phi, result.phi, rtol=0.0, atol=1e-12)

    @pytest.mark.xfail(raises=ConvergenceError, strict=True,
                       reason="zero-mass cells and tied costs: the mixed iterates drift "
                              "along the (f + c, g - c) gauge until f loses its precision")
    def test_degenerate_integer_weights(self):
        grid = Grid(2, 0.0, 1.0, (5, 5))
        rho = as_density(grid, np.array([[0, 5, 4, 5, 6], [5, 0, 1, 4, 4], [6, 2, 3, 1, 1],
                                         [2, 6, 3, 3, 0], [1, 5, 3, 0, 3]], float)).normalized()
        g = as_density(grid, np.array([[0, 5, 4, 5, 6], [5, 0, 1, 1, 2], [3, 4, 4, 6, 1],
                                       [2, 6, 1, 3, 3], [0, 5, 3, 0, 2]], float)).normalized()
        oc.solve_entropic(rho, g, power_cost(1.5, grid.cost_radius), 1e-3)


class TestFixedPoint:
    @staticmethod
    def affine(A, c):
        def step(x):
            fx = A @ x + c
            return fx, float(np.abs(fx - x).sum()), None
        return step

    def test_linear_map_near_unit_spectral_radius(self):
        # the plain iteration contracts by 0.999 per sweep; the mixing solves
        # the 3-d affine problem from a handful of differences
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        A = q @ np.diag([0.999, -0.6, 0.3]) @ q.T
        c = np.array([1.0, -2.0, 0.5])
        x, residual, sweeps, _ = oc._fixed_point(self.affine(A, c), np.zeros(3), 1e-10, 1000)
        assert residual <= 1e-10
        assert sweeps <= 20
        np.testing.assert_allclose(x, np.linalg.solve(np.eye(3) - A, c), rtol=0.0, atol=1e-6)

    def test_minus_inf_entries_pass_through(self):
        # entry 0 is -inf in every update; entry 1 starts at -inf, which the
        # map pulls back to a finite value
        A = np.array([[0.9, 0.05, 0.0], [0.05, 0.8, 0.1], [0.0, 0.1, 0.7]])
        c = np.array([1.0, 2.0, -1.0])

        def step(x):
            fx = np.full(4, -np.inf)
            fx[1:] = A @ np.where(np.isfinite(x[1:]), x[1:], 0.0) + c
            return fx, float(np.abs(fx[1:] - x[1:]).sum()), None

        x0 = np.array([-np.inf, -np.inf, 0.0, 0.0])
        x, residual, sweeps, _ = oc._fixed_point(step, x0, 1e-12, 200)
        assert residual <= 1e-12
        assert x[0] == -np.inf
        np.testing.assert_allclose(x[1:], np.linalg.solve(np.eye(3) - A, c), rtol=1e-10)

    def test_non_finite_mix_takes_the_plain_step(self, monkeypatch):
        A = np.array([[0.5, 0.2], [0.1, 0.6]])
        c = np.array([1.0, 1.0])
        plain = [np.zeros(2)]
        while np.abs(A @ plain[-1] + c - plain[-1]).sum() > 1e-10:
            plain.append(A @ plain[-1] + c)
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda a, b, rcond=None: (np.full(a.shape[1], np.nan),))
        x, residual, sweeps, _ = oc._fixed_point(self.affine(A, c), plain[0], 1e-10, 1000)
        assert sweeps == len(plain)
        np.testing.assert_array_equal(x, plain[-1])

    def test_non_finite_residual_falls_back_to_plain_update(self):
        # every mixed point reports a non-finite residual; _fixed_point must go
        # back to the plain update it mixed from and still converge
        A = np.array([[0.5, 0.2], [0.1, 0.6]])
        c = np.array([1.0, 1.0])
        calls, updates = [], []

        def step(x):
            mixed = bool(calls) and not any(np.array_equal(x, u) for u in updates)
            calls.append(x)
            updates.append(A @ x + c)
            return updates[-1], math.inf if mixed else float(np.abs(updates[-1] - x).sum()), None

        x, residual, _, _ = oc._fixed_point(step, np.zeros(2), 1e-10, 1000)
        assert residual <= 1e-10
        rejected = [k for k in range(1, len(calls))
                    if not any(np.array_equal(calls[k], u) for u in updates[:k])]
        assert rejected
        for k in rejected:
            np.testing.assert_array_equal(calls[k + 1], updates[k - 1])


class TestTransportMap:
    def test_identity_map_from_constant_potential(self):
        grid, rho, _ = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        mf = oc.transport_map_from_potential(np.zeros(grid.shape), cost, rho)
        np.testing.assert_allclose(mf.points, grid.cell_centers(), atol=1e-12)
        assert mf.max_clip_distance == 0.0

    def test_shifted_uniform_matches_quantile_oracle(self):
        grid = Grid(1, 0.0, 1.0, 64)
        cost = power_cost(2.0, grid.cost_radius)
        xs = grid.cell_centers()[:, 0]
        rho = as_density(grid, np.where(xs < 0.5, 2.0, 0.0))
        g = as_density(grid, np.where(xs >= 0.5, 2.0, 0.0))
        lp = oc.solve_lp(rho, g, cost)
        mf = oc.transport_map_from_potential(lp.phi, cost, rho)
        _, oracle = oc.solve_exact_1d(rho, g, cost)
        # compare away from the support edge where one-sided stencils act
        idx = np.where(rho.values > 0)[0][2:-2]
        err = np.abs(mf.points[idx, 0] - oracle.points[idx, 0])
        assert err.max() <= 2 * grid.spacing[0]

    def test_masked_values_lie_in_box(self):
        grid, rho, g = random_pair(seeds=(2, 6))
        cost = power_cost(1.5, grid.cost_radius)
        lp = oc.solve_lp(rho, g, cost)
        mf = oc.transport_map_from_potential(lp.phi, cost, rho)
        assert np.all(grid.contains(mf.points[mf.mask]))

    def test_non_c_concave_potential_raises(self):
        grid = Grid(1, 0.0, 1.0, 64)
        cost = power_cost(2.0, 1.0)  # gradient range [0, 1]
        rho = random_smooth_density(grid, 1)
        steep = 10.0 * grid.cell_centers()[:, 0]
        with pytest.raises(RangeError):
            oc.transport_map_from_potential(steep.reshape(grid.shape), cost, rho)


    def test_gradient_clamp_scales_only_overshooting_cells(self):
        grid = Grid(1, 0.0, 1.0, 64)
        cost = power_cost(2.0, 1.0)  # gradient range [0, 1]
        x = grid.cell_centers()[:, 0]
        phi = np.where(x < 0.5, -0.25 * x, -0.125 - 4.0 * (x - 0.5))
        clamped, norms, wmax = oc._clamped_gradient(phi.reshape(grid.shape), cost, grid)
        raw = gradient(phi.reshape(grid.shape), grid).components.reshape(-1, 1)
        assert wmax == cost.grad_range()
        np.testing.assert_array_equal(norms, np.abs(raw[:, 0]))
        inside = norms <= wmax
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(clamped[inside], raw[inside])
        np.testing.assert_allclose(clamped[~inside, 0], -wmax, rtol=1e-15)


class TestMapConsistency:
    def test_identity_residuals_vanish(self):
        grid, rho, _ = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        result, mf = oc.solve_exact_1d(rho, rho, cost)
        report = oc.map_consistency_check(result.phi, result.psi, mf, cost, rho)
        assert report.median_psi <= 1e-8
        assert report.median_phi <= 1e-8

    def test_residuals_small_on_smooth_pair(self):
        grid = Grid(1, 0.0, 1.0, 256)
        cost = power_cost(2.0, grid.cost_radius)
        rho = random_smooth_density(grid, 1)
        g = random_smooth_density(grid, 2)
        lp = oc.solve_lp(rho, g, cost)
        mf = oc.transport_map_from_potential(lp.phi, cost, rho)
        report = oc.map_consistency_check(lp.phi, lp.psi, mf, cost, rho)
        assert report.median_psi <= 5.0 / 256
        assert report.median_phi <= 5.0 / 256

    def test_deterministic(self):
        grid, rho, g = random_pair()
        cost = power_cost(1.5, grid.cost_radius)
        reports = []
        for _ in range(2):
            lp = oc.solve_lp(rho, g, cost)
            mf = oc.transport_map_from_potential(lp.phi, cost, rho)
            reports.append(oc.map_consistency_check(lp.phi, lp.psi, mf, cost, rho))
        np.testing.assert_array_equal(reports[0].residual_psi, reports[1].residual_psi)
        np.testing.assert_array_equal(reports[0].residual_phi, reports[1].residual_phi)


class TestSerialization:
    def test_round_trip_meta_and_files(self, tmp_path):
        grid, rho, g = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        result, mf = oc.solve_exact_1d(rho, g, cost)
        out = tmp_path / "run"
        oc.write_result_dir(out, result, mf)
        for name in ("coupling.csv", "phi.csv", "psi.csv", "map.csv", "meta"):
            assert (out / name).exists()
        meta = oc.read_meta(out / "meta")
        assert meta["solver"] == "exact1d"
        assert float(meta["primal"]) == pytest.approx(result.primal, abs=1e-15)
        nonzeros = sum(1 for _ in open(out / "coupling.csv")) - 1
        assert nonzeros == np.count_nonzero(result.coupling)

    def test_rewrite_is_byte_identical(self, tmp_path):
        grid, rho, g = random_pair(seeds=(5, 12))
        cost = power_cost(1.5, grid.cost_radius)
        result, mf = oc.solve_exact_1d(rho, g, cost)
        oc.write_result_dir(tmp_path / "a", result, mf)
        oc.write_result_dir(tmp_path / "b", result, mf)
        for name in ("coupling.csv", "phi.csv", "psi.csv", "map.csv", "meta"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

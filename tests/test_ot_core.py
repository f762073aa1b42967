"""Tests for the transport solvers, c-transforms, and map assembly."""

import dataclasses
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from otlab import fivegrad, jko
from otlab import ot_core as oc
from otlab.cost import RadialCost, grad_h_star, power_cost, tabulated_cost
from otlab.errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    InputError,
    OTLabError,
    ParameterError,
    RangeError,
    ShapeError,
)
from otlab.geometry import DensityField, Grid, gradient, normalize, random_smooth_density


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

    def test_mismatched_dimensions_rejected(self):
        cost = power_cost(2.0, 2.0)
        # the eval grid's points come first in the cost matrix
        with pytest.raises(ShapeError, match="2-d.*1-d"):
            oc.c_transform(cost, np.zeros(4), Grid(1, 0.0, 1.0, 4), Grid(2, 0.0, 1.0, 4))


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
    """Each solve builds its cost matrix exactly once; a canonical pair builds only blocks."""

    @pytest.fixture
    def count(self, monkeypatch):
        """The entry count of every ``_cost_matrix`` build, in build order."""
        calls = []
        build = oc._cost_matrix

        def counted(cost, xs, ys):
            calls.append(len(xs) * len(ys))
            return build(cost, xs, ys)

        monkeypatch.setattr(oc, "_cost_matrix", counted)
        return calls

    @pytest.mark.parametrize("solve", [
        lambda rho, g, cost: oc.solve_lp(rho, g, cost),
        lambda rho, g, cost: oc.solve_entropic(rho, g, cost, eps_final=1e-2),
        lambda rho, g, cost: oc.solve_exact_1d(rho, g, cost),
    ], ids=["solve_lp", "solve_entropic", "solve_exact_1d"])
    def test_one_matrix_1d(self, count, solve):
        grid, rho, g = random_pair(n=32)
        solve(rho, g, power_cost(1.5, grid.cost_radius))
        assert len(count) == 1

    @pytest.mark.parametrize("solve", [
        lambda rho, g, cost, cmat: oc.solve_lp(rho, g, cost, cmat=cmat),
        lambda rho, g, cost, cmat: oc.solve_entropic(rho, g, cost, eps_final=1e-2, cmat=cmat),
    ], ids=["solve_lp", "solve_entropic"])
    def test_given_matrix_is_not_rebuilt(self, count, solve):
        # the batch shares one matrix among a (p, n)'s seeds; a solve that rebuilt it
        # would give the same bits at twice the cost
        grid, rho, g = random_pair(n=32)
        cost = power_cost(1.5, grid.cost_radius)
        cmat = oc._cost_matrix(cost, grid.cell_centers(), grid.cell_centers())
        solve(rho, g, cost, cmat)
        assert count == [32 * 32]

    def test_canonical_pair_builds_blocks_only(self, count):
        # two blocked c-transforms of a 256 x 256 pair: two row blocks each,
        # and the same bits as the double transform on the full matrix
        grid = Grid(1, 0.0, 1.0, 256)
        cost = power_cost(1.5, grid.cost_radius)
        raw = np.random.default_rng(4).normal(size=grid.shape)
        phi, psi = oc.canonical_pair(cost, raw, grid, grid)
        assert count == [oc._BLOCK_ENTRIES] * 4
        cmat = oc._cost_matrix(cost, grid.cell_centers(), grid.cell_centers())
        want_phi, want_psi = oc._canonical_pair_from_matrix(cmat, raw)
        assert np.array_equal(phi, want_phi) and np.array_equal(psi, want_psi)

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
        rho = DensityField(grid, np.where(xs < 0.5, 2.0, 0.0))
        g = DensityField(grid, np.where(xs >= 0.5, 2.0, 0.0))
        result, map_field = oc.solve_exact_1d(rho, g, cost)
        mask = map_field.mask
        err = np.abs(map_field.points[mask, 0] - (xs[mask] + 0.5))
        assert err.max() <= grid.spacing[0]

    def test_coupling_mass_is_one(self):
        grid, rho, g = random_pair()
        cost = power_cost(1.5, grid.cost_radius)
        result, _ = oc.solve_exact_1d(rho, g, cost)
        assert result.coupling.sum() == pytest.approx(1.0, abs=1e-10)

    def test_oversized_pair_is_refused_before_its_matrix(self):
        # 4097 cells a side: the matrix alone would take 134 MB
        grid = Grid(1, 0.0, 1.0, 4097)
        uniform = DensityField(grid, np.ones(grid.shape))
        cost = power_cost(2.0, grid.cost_radius)

        def refused():
            with pytest.raises(CapacityError, match="4097 x 4097"):
                oc.solve_exact_1d(uniform, uniform, cost)

        assert _traced_peak(refused) < 5e6

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
        rho1 = normalize(DensityField(grid, bump))
        g1 = normalize(DensityField(grid, target))
        rho2 = normalize(DensityField(grid, np.roll(bump, 1)))
        g2 = normalize(DensityField(grid, np.roll(target, 1)))
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
        uniform = normalize(DensityField(grid, np.ones(4)))
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

    # each case sets up at the real limit and returns the call that the lowered limit refuses
    @pytest.mark.parametrize("refused", [
        lambda rho, g, cost: partial(oc.solve_lp, rho, g, cost),
        lambda rho, g, cost: partial(oc.solve_exact_1d, rho, g, cost),
        lambda rho, g, cost: partial(oc.solve_entropic, rho, g, cost, eps_final=1e-2),
        lambda rho, g, cost: oc.solve_lp(rho, g, cost).validate,
        lambda rho, g, cost: partial(jko.run_jko, rho, jko.JKOConfig(
            p=2.0, tau=1e-3, steps=1, energy=jko.entropy_energy())),
    ], ids=["solve_lp", "solve_exact_1d", "solve_entropic", "validate", "run_jko"])
    def test_capacity_limit(self, monkeypatch, refused):
        # the one limit lives in _cost_matrix, which every dense entry point builds through
        grid, rho, g = random_pair(n=16)
        call = refused(rho, g, power_cost(2.0, grid.cost_radius))
        monkeypatch.setattr(oc, "_DENSE_CAPACITY", 100)
        with pytest.raises(CapacityError, match="^instance size 16 x 16 exceeds the limit$"):
            call()

    def test_mass_mismatch_rejected(self):
        grid, rho, g = random_pair()
        cost = power_cost(2.0, grid.cost_radius)
        heavier = DensityField(grid, g.values * 1.5)
        with pytest.raises(InputError):
            oc.solve_lp(rho, heavier, cost)

    def test_mismatched_dimensions_rejected(self):
        rho = random_smooth_density(Grid(1, 0.0, 1.0, 16), 3)
        g = random_smooth_density(Grid(2, 0.0, 1.0, 4), 4)
        with pytest.raises(ShapeError, match="1-d.*2-d"):
            oc.solve_lp(rho, g, power_cost(2.0, 2.0))


def _numpy_tree_duals(cmat, cells):
    """Reference walk of the basis tree spanned by ``cells`` on numpy scalars.

    The walk starts at the simplex's root, column 0, with v_0 = c_00: the
    staircase's gauge u_0 = 0. Unreached rows and columns stay NaN.
    """
    m, n = cmat.shape
    rows = [[] for _ in range(m)]
    cols = [[] for _ in range(n)]
    for i, j in cells:
        rows[i].append(j)
        cols[j].append(i)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    v[0] = cmat[0, 0] - 0.0  # c_00 - u_0
    stack = [("c", 0)]
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


def _simplex(cmat, staircase):
    """A transportation simplex started from ``staircase``, its tolerance from the two-pass max |c_ij|."""
    tol = 1e-11 * (1.0 + max(float(cmat.max()), -float(cmat.min())))
    return oc._TransportationSimplex(cmat, staircase.tree(cmat), tol)


def _basis(simplex):
    """The rooted basis tree as a dict from cell to the flow it holds: one cell per node below the root."""
    m = simplex.m
    return {((k, up - m) if k < m else (up, k - m)): simplex.flow[k]
            for k, up in enumerate(simplex.parent) if up >= 0}


def _fill_path(staircase):
    """The staircase cells (i, j) in fill order."""
    return [divmod(k, staircase.n) for k in staircase.cells.tolist()]


def _sequential_tree(cmat, path):
    """The staircase walk one cell at a time on plain floats: (duals, parent), rooted at row 0.

    A row step reaches row i through column j; the first cell and every
    column step reach column j from row i.
    """
    m, n = cmat.shape
    dual, parent = [0.0] * (m + n), [-1] * (m + n)
    prev_i = 0
    for i, j in path:
        if i != prev_i:
            node, up = i, m + j
            prev_i = i
        else:
            node, up = m + j, i
        dual[node] = float(cmat[i, j]) - dual[up]
        parent[node] = up
    return np.array(dual), parent


def _check_tree(simplex):
    """The simplex's tree is a strongly feasible basis rooted at column 0, its duals walked bit for bit.

    Every row can send flow to the root: a cell of zero flow hangs a row,
    or a column with nothing below it.
    """
    m, n, parent = simplex.m, simplex.n, simplex.parent
    assert parent[m] == -1 and simplex.depth[m] == 0 and simplex.flow[m] == 0.0
    assert all((k < m) != (up < m) and simplex.depth[k] == simplex.depth[up] + 1
               for k, up in enumerate(parent) if up >= 0)
    assert [sorted(kids) for kids in simplex.children] == \
        [[k for k, up in enumerate(parent) if up == node] for node in range(m + n)]
    cells = list(_basis(simplex))
    assert len(set(cells)) == m + n - 1
    u, v = _numpy_tree_duals(simplex.cmat, cells)
    assert not (np.isnan(u).any() or np.isnan(v).any())  # the basis spans
    assert np.array_equal(simplex.duals[:m], u) and np.array_equal(simplex.duals[m:], v)
    assert min(simplex.flow) >= 0.0
    assert all(k < m or not simplex.children[k]
               for k, mass in enumerate(simplex.flow) if mass == 0.0 and k != m)


@st.composite
def staircase_instances(draw):
    """(cmat, a, b): zero masses, 1 x n and m x 1 shapes, tied integer and zero costs."""
    sizes = st.integers(1, 9)
    m, n = draw(st.one_of(st.tuples(st.just(1), sizes), st.tuples(sizes, st.just(1)),
                          st.tuples(sizes, sizes)))
    a = np.array(draw(_weights(m)), float)
    b = np.array(draw(_weights(n)), float)
    if draw(st.booleans()):
        entries = st.integers(0, 3).map(float)
    else:
        entries = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    cmat = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n) + 0.0
    return cmat, a, b * (a.sum() / b.sum())


class TestValidateRejectsNaN:
    """Every check of ``validate`` raises on NaN, which fails every comparison."""

    @pytest.mark.parametrize("name, match", [
        ("phi", "potentials violate"),
        ("psi", "potentials violate"),
        ("masses", "row sums"),
        ("dual", "duality gap"),
    ], ids=["phi", "psi", "masses", "dual"])
    def test_nan_raises(self, name, match):
        grid, rho, g = random_pair(n=16)
        result = oc.solve_lp(rho, g, power_cost(2.0, grid.cost_radius))
        result.validate()
        value = getattr(result, name)
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.flat[value.size // 2] = np.nan
        else:
            value = np.nan
        with pytest.raises(OTLabError, match=match):
            dataclasses.replace(result, **{name: value}).validate()


class TestStaircaseDuals:
    """The start duals walked off the staircase equal a tree search bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(instance=staircase_instances())
    def test_matches_sequential_walk(self, instance):
        cmat, a, b = instance
        staircase = oc._Staircase(a, b)
        want_duals, want_parent = _sequential_tree(cmat, _fill_path(staircase))
        duals, parent, _ = staircase.tree(cmat)
        assert duals.tobytes() == want_duals.tobytes()
        assert parent.tolist() == want_parent
        simplex = _simplex(cmat, staircase)
        m = simplex.m
        # rooted at column 0, the staircase keeps its cells, its parents and
        # its walk's duals bit for bit
        want_parent[0], want_parent[m] = m, -1
        assert simplex.parent == want_parent
        assert simplex.duals.tobytes() == want_duals.tobytes()
        _check_tree(simplex)
        # each staircase cell's mass sits on the lower node of its tree arc
        cells, masses = simplex.support()
        want_cells, want_masses = staircase.support()
        assert np.array_equal(cells, want_cells) and np.array_equal(masses, want_masses)

    def test_rows_below_a_zero_mass_last_column_keep_their_mass(self):
        # rounding leaves mass in row 3 as the fill spends column 0; the last
        # column holds none but takes it, so every row keeps its mass and
        # row 4 hangs from a column that hangs by positive flow
        a = np.array([2.0, 1.0, 4.0, 2.0, 0.0])
        a = a / a.sum() * 0.7
        b = np.array([a.sum(), 0.0])
        staircase = oc._Staircase(a, b)
        assert _fill_path(staircase)[-3:] == [(3, 0), (3, 1), (4, 1)]
        assert staircase.moves[-2] > 0.0 and staircase.moves[-1] == 0.0
        rows = np.bincount(staircase.cells // 2, weights=staircase.moves, minlength=5)
        assert np.array_equal(rows, a)
        cmat = np.arange(10.0).reshape(5, 2)
        assert staircase.tree(cmat)[1][4] == 5 + 1
        simplex = _simplex(cmat, staircase)
        assert simplex.parent[4] == 5 + 1 and simplex.flow[5 + 1] == staircase.moves[-2]
        _check_tree(simplex)

    @staticmethod
    def check(cost, source, target, a, b):
        cmat = oc._cost_matrix(cost, source.cell_centers(), target.cell_centers())
        staircase = oc._Staircase(np.asarray(a, float), np.asarray(b, float))
        simplex = _simplex(cmat, staircase)
        u, v = simplex.duals[:simplex.m], simplex.duals[simplex.m:]
        assert sorted(_basis(simplex)) == sorted(_fill_path(staircase))
        want_u, want_v = _numpy_tree_duals(cmat, _fill_path(staircase))
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
        return staircase

    @pytest.mark.parametrize("a, b", [
        # equal partial sums: the fill empties a row and a column at once
        ([0.25, 0.25, 0.25, 0.25], [0.5, 0.125, 0.125, 0.25]),
        ([0.125, 0.375, 0.25, 0.25, 0.0], [0.5, 0.0, 0.25, 0.25]),
        ([0.0, 0.5, 0.0, 0.5], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]),
    ])
    def test_degenerate_staircase(self, a, b):
        source, target = Grid(1, 0.0, 1.0, len(a)), Grid(1, 0.0, 1.0, len(b))
        staircase = self.check(power_cost(1.5, 1.0), source, target, a, b)
        assert staircase.cells.size == len(a) + len(b) - 1
        assert (staircase.moves == 0.0).any()  # a basic cell that holds no mass

    @pytest.mark.parametrize("d, n", [(1, 96), (2, 8)])
    def test_random_marginals(self, d, n):
        grid = Grid(d, 0.0, 1.0, n)
        a = random_smooth_density(grid, 3).values.reshape(-1) * grid.cell_volume
        b = random_smooth_density(grid, 4).values.reshape(-1) * grid.cell_volume
        cost = power_cost(3.0, grid.cost_radius)
        self.check(cost, grid, grid, a, b * (a.sum() / b.sum()))


class TestLPRegression:
    """The 2-d 8x8 LP of the transport benchmark: seed 0, p = 2, a random pair."""

    @staticmethod
    def instance(n=8):
        grid = Grid(2, [0.0, 0.0], [1.0, 1.0], [n, n])
        cost = power_cost(2.0, grid.cost_radius)
        return random_smooth_density(grid, 0), random_smooth_density(grid, 1), cost

    def test_pivots_and_duals_pinned(self, monkeypatch):
        checked = []
        rewalk = oc._TransportationSimplex._rewalk

        def checked_rewalk(simplex, *tops):
            rewalk(simplex, *tops)
            _check_tree(simplex)
            checked.append(1)

        monkeypatch.setattr(oc._TransportationSimplex, "_rewalk", checked_rewalk)
        result = oc.solve_lp(*self.instance())
        assert result.meta["pivots"] == 342
        assert len(checked) == 1 + 342  # the start tree's walk, then one per pivot
        assert result.primal == 0.009168438889573588
        assert result.dual == 0.009168438889573596

    def test_pivot_budget_raises_with_residual(self):
        rho, g, cost = self.instance()
        a, b = oc._marginals(rho, g)
        cmat = oc._cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
        simplex = _simplex(cmat, oc._Staircase(a, b))
        with pytest.raises(ConvergenceError) as info:
            simplex.pivot_until_optimal(max_pivots=5)
        assert math.isfinite(info.value.residual) and info.value.residual > 0.0

    # 5 rows per block: the 64 rows make 12 blocks and a ragged last block of
    # 4, and each 8-row pricing block is read in pieces of 5 and 3 rows
    RAGGED_BLOCK_ENTRIES = 5 * 64

    def test_pinned_under_ragged_row_blocks(self, monkeypatch):
        monkeypatch.setattr(oc, "_BLOCK_ENTRIES", self.RAGGED_BLOCK_ENTRIES)
        assert oc._row_blocks(64, 64)[-1] == (60, 64)
        self.test_pivots_and_duals_pinned(monkeypatch)

    def test_pivot_budget_residual_covers_every_block(self, monkeypatch):
        monkeypatch.setattr(oc, "_BLOCK_ENTRIES", self.RAGGED_BLOCK_ENTRIES)
        rho, g, cost = self.instance()
        a, b = oc._marginals(rho, g)
        cmat = oc._cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
        simplex = _simplex(cmat, oc._Staircase(a, b))
        entered, pivot = [], simplex._pivot
        simplex._pivot = lambda i, j: (entered.append(i), pivot(i, j))
        with pytest.raises(ConvergenceError) as info:
            simplex.pivot_until_optimal(max_pivots=5)
        m, n = cmat.shape
        reduced = cmat - simplex.duals[:m, None] - simplex.duals[None, m:]
        # the last pass scans the 8-row pricing blocks from the one after
        # the fifth entering cell's, and stops in the first with a negative
        negative = (reduced < -simplex.tol).reshape(8, -1).any(axis=1)
        stopped = next(block % 8 for block in range(entered[-1] // 8 + 1, entered[-1] // 8 + 9)
                       if negative[block % 8])
        # the most negative reduced cost lies outside that block
        assert int(reduced.argmin()) // n // 8 != stopped
        assert info.value.residual == float(-reduced.min())

    def test_batch_pair_p3_finishes(self):
        # the 2-d batch pair of seed 5 at 8x8: p = 1.5, 2 and 3 take 340, 300
        # and 347 pivots; under Bland's rule they took 4818, 2571 and, for
        # p = 3, more than the budget of 6400
        rho, g = fivegrad.instance_densities(fivegrad.BatchSpec(seeds=(5,), d=2), 5, 8)
        result = oc.solve_lp(rho, g, power_cost(3.0, rho.grid.cost_radius))
        _check_lp(result)
        assert result.meta["pivots"] == 347

    @pytest.mark.parametrize("n", [12, 16])
    def test_resized_example_finishes(self, n):
        # under Bland's rule 12x12 took 12108 pivots and 16x16 ran out of its budget
        result = oc.solve_lp(*self.instance(n))
        _check_lp(result)
        assert 0 < result.meta["pivots"] <= 50 * 2 * n * n


def _weights(size):
    # small integer weights give zero-mass cells and tied partial sums
    return st.lists(st.integers(0, 6), min_size=size, max_size=size).filter(any)


@st.composite
def lp_instances(draw, d, axis_cells=(4, 5)):
    """(rho, g, cost) on one grid of integer weights: 4 to 24 cells in 1-d, ``axis_cells`` per axis in 2-d."""
    axis = st.integers(*axis_cells)
    n = draw(st.integers(4, 24)) if d == 1 else (draw(axis), draw(axis))
    grid = Grid(d, 0.0, 1.0, n)
    rho = normalize(DensityField(grid, np.reshape(draw(_weights(grid.num_cells)), grid.shape)))
    g = normalize(DensityField(grid, np.reshape(draw(_weights(grid.num_cells)), grid.shape)))
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

    @settings(max_examples=40, deadline=None)
    @given(instance=lp_instances(d=2, axis_cells=(4, 7)))
    def test_2d(self, instance):
        # zero-mass cells and tied partial sums make degenerate bases; every
        # solve ends within its pivot budget at HiGHS's optimum
        result = oc.solve_lp(*instance)
        _check_lp(result)
        highs = _highs_primal(*instance)
        assert abs(result.primal - highs) <= 1e-12 * abs(highs)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_2d_rectangular_matches_highs(self, data):
        # source and target grids of different cell counts: m != n rows and columns
        shapes = st.tuples(st.integers(4, 5), st.integers(4, 5))
        source = Grid(2, 0.0, 1.0, data.draw(shapes))
        target = Grid(2, 0.0, 1.0,
                      data.draw(shapes.filter(lambda s: s[0] * s[1] != source.num_cells)))
        rho, g = (normalize(DensityField(grid, np.reshape(data.draw(_weights(grid.num_cells)),
                                                          grid.shape)))
                  for grid in (source, target))
        cost = power_cost(data.draw(st.sampled_from([1.5, 2.0, 3.0])),
                          max(source.cost_radius, target.cost_radius))
        result = oc.solve_lp(rho, g, cost)
        _check_lp(result)
        highs = _highs_primal(rho, g, cost)
        assert abs(result.primal - highs) <= 1e-9 * abs(highs)


class TestProductPairs:
    """Product marginals under the separable p = 2 cost: the 2-d LP is two 1-d LPs.

    The axis projections of any coupling couple the factor marginals, so
    its cost is at least the sum of the two 1-d optima, which the product
    of the 1-d plans attains; the potentials are phi_1 + phi_2. At these
    sizes the dense HiGHS oracle no longer fits.
    """

    @pytest.mark.parametrize("n", [12, 16])
    def test_matches_two_1d_solves(self, n):
        axis = Grid(1, 0.0, 1.0, n)
        grid = Grid(2, [0.0, 0.0], [1.0, 1.0], [n, n])
        f1, f2, g1, g2 = (random_smooth_density(axis, seed) for seed in (1, 2, 3, 4))
        rho = normalize(DensityField(grid, np.outer(f1.values, f2.values)))
        g = normalize(DensityField(grid, np.outer(g1.values, g2.values)))
        result = oc.solve_lp(rho, g, power_cost(2.0, grid.cost_radius))
        _check_lp(result)
        assert result.meta["pivots"] > 0
        cost = power_cost(2.0, axis.cost_radius)
        first, second = oc.solve_lp(f1, g1, cost), oc.solve_lp(f2, g2, cost)
        assert abs(result.primal - (first.primal + second.primal)) <= 1e-12 * result.primal
        assert np.ptp(result.phi - (first.phi[:, None] + second.phi[None, :])) <= 1e-12


def _highs_primal(rho, g, cost):
    """The optimal transport cost by scipy's HiGHS on the dense LP."""
    from scipy.optimize import linprog

    a, b = oc._marginals(rho, g)
    m, n = len(a), len(b)
    cmat = oc._cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    highs = linprog(cmat.reshape(-1), A_eq=np.vstack([rows, cols]),
                    b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert highs.status == 0
    return highs.fun


@st.composite
def convex_costs(draw, radius):
    """A power cost with p in [1.2, 4] or a PCHIP-tabulated convex profile r^2/2 + c r^4 + shift."""
    if draw(st.booleans()):
        return power_cost(draw(st.floats(1.2, 4.0)), radius)
    r = np.linspace(0.0, radius, 256)
    c, shift = draw(st.floats(0.0, 2.0)), draw(st.floats(-1.0, 0.0))
    return tabulated_cost(r, r**2 / 2.0 + c * r**4 + shift, radius)


@st.composite
def lp_1d_unequal_instances(draw):
    """(rho, g, cost) on 1-d grids of m != n cells over different boxes, with zero-mass cells."""
    m, n = draw(st.tuples(st.integers(4, 24), st.integers(4, 24)).filter(lambda s: s[0] != s[1]))
    lower = draw(st.floats(-0.3, 0.3))
    source, target = Grid(1, 0.0, 1.0, m), Grid(1, lower, lower + draw(st.floats(0.5, 1.2)), n)
    rho, g = (normalize(DensityField(grid, np.array(draw(_weights(grid.num_cells)), float)))
              for grid in (source, target))
    return rho, g, draw(convex_costs(2.0))


def _column_verdict(cmat, u, v, tol):
    """The certificate's test: some column minimum of C - u lies below v - tol."""
    return bool(((cmat - u[:, None]).min(axis=0) - v < -tol).any())


def _dense_verdict(cmat, u, v, tol):
    """The cell-by-cell test: some reduced cost c_ij - u_i - v_j lies below -tol."""
    return bool((cmat - u[:, None] - v[None, :] < -tol).any())


class TestSolveLP1D:
    """In 1-d with a convex cost the LP is its start staircase: no pivot and no dense plan."""

    @settings(max_examples=80, deadline=None)
    @given(instance=lp_1d_unequal_instances(), shift=st.floats(0.0, 2.0), seed=st.integers(0, 2**16))
    def test_staircase_is_the_solve(self, instance, shift, seed):
        rho, g, cost = instance
        result = oc.solve_lp(rho, g, cost)
        assert result.meta["pivots"] == 0

        a, b = oc._marginals(rho, g)
        staircase = oc._Staircase(a, b)
        cmat = oc._cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
        m, n = cmat.shape
        duals = staircase.tree(cmat)[0]
        u, v = duals[:m], duals[m:]
        psi = (cmat - u[:, None]).min(axis=0)
        phi = (cmat - psi[None, :]).min(axis=1)
        assert np.array_equal(result.psi.reshape(-1), psi)
        assert np.array_equal(result.phi.reshape(-1), phi)

        held = staircase.moves != 0.0
        assert np.array_equal(result.cells, staircase.cells[held])
        assert np.array_equal(result.masses, staircase.moves[held])
        plan = np.zeros((m, n))
        plan[np.divmod(staircase.cells, n)] = staircase.moves
        assert np.array_equal(result.coupling, plan)
        assert result.primal == oc.solve_exact_1d(rho, g, cost)[0].primal
        # both read the held cells' costs off C: the profile at |x - y| has the same bits
        ii, jj = np.divmod(result.cells, n)
        xs, ys = rho.grid.cell_centers()[:, 0], g.grid.cell_centers()[:, 0]
        assert result.primal == float((result.masses * cost.profile(np.abs(xs[ii] - ys[jj]))).sum())

        tol = 1e-11 * (1.0 + np.abs(cmat).max())
        assert not _dense_verdict(cmat, u, v, tol)
        # shifts of v near tol put basic reduced costs on either side of -tol
        rng = np.random.default_rng(seed)
        shifted = v + shift * tol * (rng.random(n) < 0.5)
        assert _column_verdict(cmat, u, shifted, tol) == _dense_verdict(cmat, u, shifted, tol)

    @settings(max_examples=60, deadline=None)
    @given(instance=lp_1d_unequal_instances())
    def test_matches_highs(self, instance):
        # an oracle that shares no code with the staircase, which both
        # solve_lp and solve_exact_1d sum
        rho, g, cost = instance
        highs = _highs_primal(rho, g, cost)
        assert abs(oc.solve_lp(rho, g, cost).primal - highs) <= 1e-9 * abs(highs)

    def test_concave_cost_falls_back_to_pivoting(self, monkeypatch):
        # for the concave profile sqrt(r) the monotone staircase is not optimal
        source, target = Grid(1, 0.0, 1.0, 12), Grid(1, 0.1, 1.2, 9)
        rho, g = random_smooth_density(source, 5), random_smooth_density(target, 6)
        cost = RadialCost(np.sqrt, lambda r: 0.5 / np.sqrt(r), 2.0)
        a, b = oc._marginals(rho, g)
        cmat = oc._cost_matrix(cost, source.cell_centers(), target.cell_centers())
        staircase = oc._Staircase(a, b)
        duals = staircase.tree(cmat)[0]
        u, v = duals[:len(a)], duals[len(a):]
        tol = 1e-11 * (1.0 + oc._largest_abs_cost(cmat, source.cell_centers(), target.cell_centers()))
        assert _column_verdict(cmat, u, v, tol) and _dense_verdict(cmat, u, v, tol)

        built = _count_simplices(monkeypatch)
        result = oc.solve_lp(rho, g, cost)
        assert len(built) == 1
        assert result.meta["pivots"] > 0
        staircase_cost = oc._support_cost(*staircase.support(), cmat)
        highs = _highs_primal(rho, g, cost)
        assert abs(result.primal - highs) <= 1e-9 * abs(highs)
        assert result.primal < staircase_cost - 1e-9 * staircase_cost


class TestSimplexTolerance:
    """From the cell centers, the 1-d bound on |C| reads O(m) entries and equals the two-pass formula bit for bit."""

    # r^2/2 + r^4/4 - 100 is negative on the whole ball, so -C.min() decides the 1-d bound
    RADII = np.linspace(0.0, 3.0, 256)

    @pytest.mark.parametrize("cost", [
        power_cost(1.5, 3.0),
        power_cost(3.0, 3.0),
        tabulated_cost(RADII, RADII**2 / 2.0 + RADII**4 / 4.0 - 100.0, 3.0),
    ], ids=["power-1.5", "power-3", "tabulated-negative"])
    @pytest.mark.parametrize("source, target", [
        (Grid(1, 0.0, 1.0, 64), Grid(1, 0.0, 1.0, 64)),
        (Grid(1, 0.0, 1.0, 48), Grid(1, 0.1, 1.3, 31)),
        (Grid(1, 0.0, 1.0, 5), Grid(1, 1.2, 1.9, 7)),  # every y right of every x
        (Grid(1, 0.3, 0.9, 7), Grid(1, -1.5, 0.2, 40)),  # every y left of every x
        (Grid(1, 0.3, 0.9, 9), Grid(1, -1.0, 2.0, 13)),  # the xs inside the ys
    ], ids=["same", "offset", "right", "left", "inside"])
    def test_matches_dense_formula(self, cost, source, target):
        xs, ys = source.cell_centers(), target.cell_centers()
        cmat = oc._cost_matrix(cost, xs, ys)
        assert oc._largest_abs_cost(cmat, xs, ys) == max(float(cmat.max()), -float(cmat.min()))
        if cost.family == "tabulated":
            assert -cmat.min() > abs(cmat.max())


def _dense_certificate(simplex):
    """Reference pivoting on dense reduced costs and a dense basis; returns (entering cells, basis, u, v, psi).

    Entering: C is cut into blocks of isqrt(m) rows, scanned cyclically
    from the block after the last entering cell's; the first block with a
    reduced cost below -tol enters its least one, first in row-major order.
    Leaving: the ratio test of the perturbed problem in which every row
    supplies (m + n) eps more and every column but the root, column 0,
    demands eps more. Of the cycle's cells that give up mass, the one whose
    perturbed flow is least leaves; the perturbation makes it unique. The
    basis is a dict from cell to flow, its duals walked from the root after
    each pivot, and psi_j = min_i (c_ij - u_i) over the final duals.
    """
    cmat, m, n = simplex.cmat, simplex.m, simplex.n
    basis = _basis(simplex)
    u, v = simplex.duals[:m].copy(), simplex.duals[m:].copy()
    rows, entering, first = math.isqrt(m), [], 0
    blocks = range(0, m, rows)
    while True:
        reduced = cmat - u[:, None] - v[None, :]
        for block in range(first, first + len(blocks)):
            start = blocks[block % len(blocks)]
            part = reduced[start:start + rows]
            k = int(part.argmin())
            if part.flat[k] < -simplex.tol:
                break
        else:
            return entering, basis, u, v, (cmat - u[:, None]).min(axis=0)
        first = block % len(blocks) + 1
        ei, ej = divmod(start * n + k, n)
        entering.append((ei, ej))
        # the cycle: the tree path from column ej to row ei, its cells
        # alternately giving up mass and taking it
        path = _tree_path(basis, ("c", ej), ("r", ei))
        gives, takes = path[::2], path[1::2]
        keys = {cell: (basis[cell], _perturbation(basis, m, n, cell)) for cell in gives}
        out = min(gives, key=keys.get)
        assert list(keys.values()).count(keys[out]) == 1
        theta = basis[out]
        for cell in gives:
            basis[cell] -= theta
        for cell in takes:
            basis[cell] += theta
        del basis[out]
        basis[ei, ej] = theta
        u, v = _numpy_tree_duals(cmat, basis)


def _reach(cells, source):
    """{node: the node it was reached from} over the nodes ("r", i) / ("c", j) that ``cells`` join to ``source``."""
    adjacent = {}
    for i, j in cells:
        adjacent.setdefault(("r", i), []).append(("c", j))
        adjacent.setdefault(("c", j), []).append(("r", i))
    back, stack = {source: None}, [source]
    while stack:
        node = stack.pop()
        for other in adjacent.get(node, []):
            if other not in back:
                back[other] = node
                stack.append(other)
    return back


def _tree_path(cells, source, target):
    """The cells on the tree path from node ``source`` to node ``target``, in order."""
    back, path, node = _reach(cells, target), [], source
    while back[node] is not None:
        up = back[node]
        path.append((node[1], up[1]) if node[0] == "r" else (up[1], node[1]))
        node = up
    return path


def _perturbation(basis, m, n, cell):
    """The eps coefficient of a basic cell's flow in the perturbed problem.

    Cutting the cell leaves a side without the root, column 0, holding R
    rows and C columns, whose perturbed net supply is ((m + n) R - C) eps;
    the cell carries it out of that side if the side holds the cell's row.
    """
    rooted = _reach(set(basis) - {cell}, ("c", 0))
    rows = m - sum(kind == "r" for kind, _ in rooted)
    cols = m + n - len(rooted) - rows
    supply = (m + n) * rows - cols
    return supply if ("r", cell[0]) not in rooted else -supply


class TestBlockedCertificate:
    """Under row blocks that split the pricing blocks, pivots and certificate match a dense reference bit for bit."""

    @staticmethod
    def check(instance):
        rho, g, cost = instance
        a, b = oc._marginals(rho, g)
        cmat = oc._cost_matrix(cost, rho.grid.cell_centers(), g.grid.cell_centers())
        m, n = cmat.shape
        want_cells, want_basis, want_u, want_v, want_psi = _dense_certificate(
            _simplex(cmat, oc._Staircase(a, b)))
        want_phi = (cmat - want_psi[None, :]).min(axis=1)
        # pieces one row shorter than a pricing block split every one of them
        height = math.isqrt(m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oc, "_BLOCK_ENTRIES", (height - 1) * n)
            assert len(oc._row_blocks(height, n)) > 1
            simplex = _simplex(cmat, oc._Staircase(a, b))
            cells, pivot = [], simplex._pivot
            simplex._pivot = lambda i, j: (cells.append((i, j)), pivot(i, j), _check_tree(simplex))
            _, psi = simplex.pivot_until_optimal(max_pivots=50 * (m + n))
            u, v = simplex.duals[:m], simplex.duals[m:]
            built = _count_simplices(patch)
            result = oc.solve_lp(rho, g, cost, cmat=cmat)
        assert cells == want_cells
        assert _basis(simplex) == want_basis
        for got, want in ((u, want_u), (v, want_v), (psi, want_psi)):
            assert np.array_equal(got, want)
        if built:
            assert result.meta["pivots"] == len(want_cells)
        else:
            # a certified staircase, which may still admit pivots once rows
            # are hung from column 0, is its own solve: its potentials are
            # the dense c-transforms of the staircase's own u
            assert result.meta["pivots"] == 0
            want_psi = (cmat - oc._Staircase(a, b).tree(cmat)[0][:m, None]).min(axis=0)
            want_phi = (cmat - want_psi[None, :]).min(axis=1)
        assert np.array_equal(result.psi.reshape(-1), want_psi)
        assert np.array_equal(result.phi.reshape(-1), want_phi)

    @settings(max_examples=30, deadline=None)
    @given(instance=lp_instances(d=1))
    def test_1d(self, instance):
        self.check(instance)

    @settings(max_examples=30, deadline=None)
    @given(instance=lp_instances(d=2))
    def test_2d(self, instance):
        self.check(instance)

    def test_row_blocks_cover_the_rows(self, monkeypatch):
        assert oc._row_blocks(512, 512) == [(s, s + 64) for s in range(0, 512, 64)]
        assert oc._row_blocks(3, 2**16) == [(0, 1), (1, 2), (2, 3)]  # a row wider than a block
        monkeypatch.setattr(oc, "_BLOCK_ENTRIES", 3 * 10)
        assert oc._row_blocks(10, 10) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_column_min_matches_dense(self, monkeypatch):
        monkeypatch.setattr(oc, "_BLOCK_ENTRIES", 3 * 7)
        rng = np.random.default_rng(4)
        cmat, vals = rng.normal(size=(10, 7)), rng.normal(size=10)
        assert np.array_equal(oc._column_min(cmat, vals), (cmat - vals[:, None]).min(axis=0))


def _count_simplices(monkeypatch) -> list:
    """A list that gains one entry for every ``_TransportationSimplex`` built from now on."""
    built, init = [], oc._TransportationSimplex.__init__

    def counted(simplex, *args):
        built.append(simplex)
        init(simplex, *args)

    monkeypatch.setattr(oc._TransportationSimplex, "__init__", counted)
    return built


def _traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedMemory:
    """At n = 512 with a given cost matrix no step of the 1-d LP builds an m x n array.

    C takes 2 MB, and a row block of ``_row_blocks`` 256 KB, one eighth of it.
    """

    @pytest.fixture(scope="class")
    def instance(self):
        grid, rho, g = random_pair(n=512)
        cost = power_cost(2.0, grid.cost_radius)
        return rho, g, cost, oc._cost_matrix(cost, grid.cell_centers(), grid.cell_centers())

    def test_solve_lp_peak(self, instance):
        # the coupling stays on the staircase's cells: the peak is validate's
        # two block temporaries (0.27 C measured)
        rho, g, cost, cmat = instance
        assert _traced_peak(lambda: oc.solve_lp(rho, g, cost, cmat=cmat)) <= 3 * cmat.nbytes / 8

    def test_canonical_pair_peak(self, instance):
        cmat = instance[3]
        phi = np.linspace(0.0, 1.0, cmat.shape[0])
        assert _traced_peak(lambda: oc._canonical_pair_from_matrix(cmat, phi)) <= cmat.nbytes / 4

    def test_simplex_steps_peak(self, instance, monkeypatch):
        # measured: the staircase walk takes 0.06 C and its certificate, the
        # tree and one c-transform, 0.16 C; a certified solve builds no
        # simplex, so no dense plan, and validating adds far less than C
        rho, g, cost, cmat = instance
        a, b = oc._marginals(rho, g)
        assert _traced_peak(lambda: oc._Staircase(a, b)) <= cmat.nbytes / 8
        staircase = oc._Staircase(a, b)

        def certify():
            return oc._column_min(cmat, staircase.tree(cmat)[0][:cmat.shape[0]])

        assert _traced_peak(certify) <= cmat.nbytes / 4
        built = _count_simplices(monkeypatch)
        result = oc.solve_lp(rho, g, cost, cmat=cmat)
        assert result.meta["pivots"] == 0 and not built
        assert _traced_peak(lambda: result.validate(cmat)) <= cmat.nbytes / 2

    def test_cost_matrix_peak(self):
        # the (N, M, d) differences are freed before the profile runs: the
        # radii and the profile's output are alive at once (2.0 C measured)
        grid = Grid(1, 0.0, 1.0, 2048)
        cost = power_cost(1.5, grid.cost_radius)
        nbytes = 8 * grid.num_cells**2
        centers = grid.cell_centers()
        assert _traced_peak(lambda: oc._cost_matrix(cost, centers, centers)) <= 2.2 * nbytes


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
    """Sweeps of ``_AnchoredKernel`` on the separable 2-d quadratic cost against the dense ``softmin``."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("source, target", [
        (Grid(2, 0.0, 1.0, 16), Grid(2, 0.0, 1.0, 16)),
        (Grid(2, [0.0, -0.5], [1.0, 1.0], [8, 12]), Grid(2, [0.25, 0.0], [1.5, 0.75], [10, 6])),
    ], ids=["16x16", "8x12-10x6"])
    def test_matches_dense_kernel(self, source, target, axis):
        cost = power_cost(2.0, 4.0)
        cmat = oc._cost_matrix(cost, source.cell_centers(), target.cell_centers())
        summed = source if axis == 0 else target
        rng = np.random.default_rng(summed.num_cells + axis)
        eps = 1e-4  # (pot - C) / eps overflows exp without the shift
        pot = rng.normal(scale=0.1, size=summed.num_cells)
        logw = np.log(rng.uniform(0.5, 1.0, size=summed.shape))
        logw[1, :] = -np.inf  # a zero-weight slice
        logw[3, 2] = -np.inf
        logw = logw.reshape(-1)
        # an infinite cost slice on the last output axis: every output it
        # reaches is +inf, so each sweep is the exact softmin and keeps no K
        dead_cmat = cmat.copy()
        if axis == 0:
            dead_cmat.reshape(*source.shape, *target.shape)[:, :, :, 4] = np.inf
        else:
            dead_cmat.reshape(*source.shape, *target.shape)[:, 4, :, :] = np.inf
        drifts = [0.0, 1.0, 30.0, 1.0, 1000.0, 0.0]  # in units of eps
        for c in (cmat, dead_cmat):
            kernel = oc._AnchoredKernel(c)
            for drift in drifts:
                swept = pot + drift * eps * rng.standard_normal(pot.size)
                want = oc.softmin(c, swept, logw, eps, axis)
                TestAnchoredKernel.check(kernel(swept, logw, eps, axis), want, eps)
            dead = want == np.inf
            if c is cmat:
                assert not dead.any() and kernel.reanchors < kernel.sweeps
            else:
                assert dead.any() and np.isfinite(want[~dead]).all()
                assert kernel.reanchors == kernel.sweeps == len(drifts)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_all_zero_weights_give_inf(self, axis):
        grid = Grid(2, 0.0, 1.0, (6, 5))
        centers = grid.cell_centers()
        kernel = oc._AnchoredKernel(oc._cost_matrix(power_cost(2.0, grid.cost_radius),
                                                    centers, centers))
        pot, logw = np.zeros(grid.num_cells), np.full(grid.num_cells, -np.log(grid.num_cells))
        assert np.isfinite(kernel(pot, logw, 1e-3, axis)).all()  # an anchor with a K
        got = kernel(pot, np.full(grid.num_cells, -np.inf), 1e-3, axis)
        assert np.array_equal(got, np.full(grid.num_cells, np.inf))


def unfloored_log_sum_exp(z, axis):
    """``oc._log_sum_exp`` without its exp floor: the reference the floor must not move."""
    zmax = z.max(axis=axis, keepdims=True)
    zmax[~np.isfinite(zmax)] = 0.0
    z -= zmax
    with np.errstate(divide="ignore"):
        return np.log(np.exp(z, out=z).sum(axis=axis)) + np.squeeze(zmax, axis)


class TestExpFloor:
    """The floored log-sum-exp kernel and ``softmin`` against the unfloored form, bit for bit.

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
        got = oc.softmin(cmat, pot, logw, 1e-4, axis)
        monkeypatch.setattr(oc, "_log_sum_exp", unfloored_log_sum_exp)
        with np.errstate(over="ignore"):  # the reference does not shift a NaN slice
            want = oc.softmin(cmat, pot, logw, 1e-4, axis)
        assert got[50] == np.inf and np.isnan(got[60])
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nan_cell_gives_nan_without_overflow(self, axis):
        # potentials of 1 at eps = 1e-3 put exponents near 1000 next to the
        # NaN: an unshifted slice would overflow exp
        grid = Grid(2, 0.0, 1.0, 4)
        centers = grid.cell_centers()
        cmat = oc._cost_matrix(power_cost(2.0, grid.cost_radius), centers, centers)
        pot = np.linspace(0.5, 1.0, 16)
        logw = np.full(16, np.log(1.0 / 16))
        clean = oc.softmin(cmat, pot, logw, 1e-3, axis)
        cmat[5, 9] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oc.softmin(cmat, pot, logw, 1e-3, axis)
        nan = np.isnan(got)
        assert nan.any() and not nan.all()
        assert np.array_equal(got[~nan], clean[~nan])


class TestAnchoredKernel:
    """The anchored dense kernel against the exact ``softmin``, call by call.

    Costs lie in [0, 1], potentials start in [-1, 1] and widths in
    [1e-3, 1], so a drift of 1000 eps leaves output sums far below
    ``_ANCHOR_FLOOR`` and forces a re-anchor.
    """

    @staticmethod
    def check(got, want, eps):
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        error = np.abs(got[finite] - want[finite])
        assert (error <= 1e-12 * (np.abs(want[finite]) + eps)).all(), error.max()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_softmin(self, data):
        m, n = data.draw(st.integers(1, 8), "m"), data.draw(st.integers(1, 8), "n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        cmat = rng.uniform(0.0, 1.0, (m, n))
        if data.draw(st.integers(0, 3), "inf column") == 0:
            cmat[:, rng.integers(n)] = np.inf  # an all -inf slice: +inf out of axis 0
        eps = 10.0 ** data.draw(st.floats(-3.0, 0.0), "log10 eps")
        pots = [rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, n)]
        with np.errstate(divide="ignore"):
            logws = [np.log(rng.integers(0, 4, size) / 3.0) for size in (m, n)]  # -inf: no mass
        kernel = oc._AnchoredKernel(cmat)
        for _ in range(data.draw(st.integers(1, 12), "calls")):
            axis = data.draw(st.integers(0, 1), "axis")
            drift = data.draw(st.sampled_from([0.0, 1.0, 30.0, 1000.0]), "drift / eps")
            pot = pots[axis] + drift * eps * rng.standard_normal(pots[axis].size)
            dead = data.draw(st.sampled_from(["none", "one", "all"]), "-inf potentials")
            if dead == "one":
                pot[rng.integers(pot.size)] = -np.inf
            elif dead == "all":
                pot[:] = -np.inf
            width = eps * data.draw(st.sampled_from([1.0, 1.0, 2.0]), "width / eps")
            want = oc.softmin(cmat, pot, logws[axis], width, axis)
            self.check(kernel(pot, logws[axis], width, axis), want, width)
            pots[axis] = pot
            pots[1 - axis] = np.where(np.isfinite(want), want, 0.0)  # the next sweep's input

    @staticmethod
    def quadratic(n):
        grid = Grid(1, 0.0, 1.0, n)
        centers = grid.cell_centers()
        return oc._cost_matrix(power_cost(2.0, grid.cost_radius), centers, centers)

    def test_reanchors_on_a_new_width_and_on_a_large_drift(self):
        cmat = self.quadratic(64)
        pot, logw = np.zeros(64), np.full(64, -np.log(64))
        kernel = oc._AnchoredKernel(cmat)
        g = kernel(pot, logw, 1e-3, 0)
        for _ in range(3):  # a Sinkhorn loop keeps its anchor
            pot = kernel(g, logw, 1e-3, 1)
            g = kernel(pot, logw, 1e-3, 0)
        assert (kernel.sweeps, kernel.reanchors) == (7, 1)
        kernel(pot, logw, 1e-4, 0)
        assert kernel.reanchors == 2
        # a tilt of 1000 eps across the grid: the far rows that now dominate
        # column 0 meet entries of K far below exp(-575) there
        tilted = pot + 0.1 * np.linspace(0.0, 1.0, 64)
        self.check(kernel(tilted, logw, 1e-4, 0), oc.softmin(cmat, tilted, logw, 1e-4, 0), 1e-4)
        assert kernel.reanchors == 3

    def test_empty_entries_keep_the_anchor(self):
        # cells without mass get a finite anchor from the other side, so a
        # Sinkhorn loop with zero weights on both sides re-anchors once
        cmat = self.quadratic(48)
        weights = np.ones(48)
        weights[[0, 7, 30]] = 0.0
        with np.errstate(divide="ignore"):
            logw = np.log(weights / weights.sum())
        kernel = oc._AnchoredKernel(cmat)
        f = np.where(weights > 0, 0.0, -np.inf)
        for _ in range(5):
            g = kernel(f, logw, 1e-3, 0)
            self.check(g, oc.softmin(cmat, f, logw, 1e-3, 0), 1e-3)
            f_next = kernel(g, logw[::-1], 1e-3, 1)
            self.check(f_next, oc.softmin(cmat, g, logw[::-1], 1e-3, 1), 1e-3)
            f = np.where(weights > 0, f_next, -np.inf)
        assert kernel.reanchors == 1
        assert np.isfinite(kernel.alpha).all() and np.isfinite(kernel.beta).all()

    def test_holds_one_matrix(self):
        # C is 512 KB. A re-anchor's softmin buffer becomes K, and the old K
        # is freed before the next re-anchor allocates; a sweep's
        # temporaries are vectors
        cmat = self.quadratic(256)
        pot, logw = np.zeros(256), np.full(256, -np.log(256))
        kernel = oc._AnchoredKernel(cmat)

        def two_anchors():
            kernel(pot, logw, 1e-3, 0)
            return kernel(pot, logw, 2e-3, 0)

        assert _traced_peak(two_anchors) <= 1.25 * cmat.nbytes
        g = kernel(pot, logw, 2e-3, 0)
        assert _traced_peak(lambda: kernel(g, logw, 2e-3, 1)) <= cmat.nbytes / 16
        assert kernel.reanchors == 2


class TestEntropicSweeps:
    @pytest.mark.parametrize("d, p", [(2, 2.0), (2, 1.5), (1, 2.0)])
    def test_every_sweep_is_an_anchored_kernel_call(self, monkeypatch, d, p):
        # the exact softmin runs only at the kernel's re-anchors, which the
        # meta counts
        calls = {"sweeps": 0, "reanchors": 0}
        sweep, reanchor = oc._AnchoredKernel.__call__, oc._AnchoredKernel._reanchor

        def counted_sweep(kernel, *args):
            calls["sweeps"] += 1
            return sweep(kernel, *args)

        def counted_reanchor(kernel, *args):
            calls["reanchors"] += 1
            return reanchor(kernel, *args)

        monkeypatch.setattr(oc._AnchoredKernel, "__call__", counted_sweep)
        monkeypatch.setattr(oc._AnchoredKernel, "_reanchor", counted_reanchor)
        grid = Grid(d, 0.0, 1.0, 6 if d == 2 else 32)
        rho, g = random_smooth_density(grid, 1), random_smooth_density(grid, 2)
        result = oc.solve_entropic(rho, g, power_cost(p, grid.cost_radius), 1e-2)
        assert calls == {"sweeps": 2 * result.meta["iterations"],
                         "reanchors": result.meta["reanchors"]}


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

    def test_coupling_is_the_rounded_plans_support(self):
        # cells are the plan's nonzero entries in row-major order, and the
        # dense primal is read off the support's scatter bit for bit
        grid, rho, g = random_pair(n=64)
        cost = power_cost(1.5, grid.cost_radius)
        result = oc.solve_entropic(rho, g, cost, eps_final=1e-4)
        plan = result.coupling
        assert np.array_equal(result.cells, np.flatnonzero(plan))
        assert (result.masses > 0.0).all()
        cmat = oc._cost_matrix(cost, grid.cell_centers(), grid.cell_centers())
        assert result.primal == float((plan * cmat).sum())

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
        for width in (np.inf, np.nan):
            with pytest.raises(ParameterError, match="finite"):
                oc.solve_entropic(rho, g, cost, eps_final=width)

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

    def test_degenerate_integer_weights(self):
        # zero-mass cells and tied costs. With exact softmin sweeps the mixed
        # iterates drifted along the (f + c, g - c) gauge until f lost its
        # precision (ConvergenceError). On the anchored kernel's rounding the
        # solve converges in 6491 sweeps; the drift itself is not mended, and
        # Anderson paths swing with the last bits of a sweep.
        grid = Grid(2, 0.0, 1.0, (5, 5))
        rho = normalize(DensityField(grid, np.array([[0, 5, 4, 5, 6], [5, 0, 1, 4, 4], [6, 2, 3, 1, 1],
                                                     [2, 6, 3, 3, 0], [1, 5, 3, 0, 3]], float)))
        g = normalize(DensityField(grid, np.array([[0, 5, 4, 5, 6], [5, 0, 1, 1, 2], [3, 4, 4, 6, 1],
                                                   [2, 6, 1, 3, 3], [0, 5, 3, 0, 2]], float)))
        _check_entropic(oc.solve_entropic(rho, g, power_cost(1.5, grid.cost_radius), 1e-3))


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


def list_fixed_point(step, x0, tol, cap):
    """The Anderson loop with its history kept as lists of points, re-differenced each sweep."""
    x, plain, live = x0, None, None
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
            del updates[:-oc._ANDERSON_DEPTH - 1], residuals[:-oc._ANDERSON_DEPTH - 1]
            x, plain = fx, None
            d_res = np.diff(residuals, axis=0).T
            if d_res.size and np.isfinite(d_res).all():
                gamma = np.linalg.lstsq(d_res, residuals[-1], rcond=None)[0]
                mixed = updates[-1] - np.diff(updates, axis=0).T @ gamma
                if np.isfinite(mixed).all():
                    x, plain = fx.copy(), fx
                    x[live] = mixed
    return x, residual, sweeps, extra


class TestFixedPointOracle:
    """``_fixed_point`` against the list-based loop: the same x bits, residual and sweeps."""

    @staticmethod
    def random_map(seed, n=12, dead=(), nan_at=(), spikes=()):
        # x <- tanh(A x) + c, which the plain iteration takes 70-180 sweeps
        # to solve to 1e-13 on seeds 0-5, so the mixing does the work;
        # ``dead`` holds (first, last, entries) that are -inf in the updates
        # of sweeps first..last, ``nan_at`` the sweeps that report a NaN
        # residual, and ``spikes`` (sweep, value) pairs that set entry 0 of
        # that sweep's update, which the residual then does not see
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = 1.5 * q @ np.diag(rng.uniform(-0.98, 0.98, n)) @ q.T
        c = rng.standard_normal(n)
        sweep = [0]

        def step(x):
            sweep[0] += 1
            fx = np.tanh(A @ np.where(np.isfinite(x), x, 0.0)) + c
            for first, last, entries in dead:
                if first <= sweep[0] <= last:
                    fx[list(entries)] = -np.inf
            fx[0] = dict(spikes).get(sweep[0], fx[0])
            both = np.isfinite(fx) & np.isfinite(x)
            both[0] &= not spikes
            residual = math.nan if sweep[0] in nan_at else float(np.abs(fx - x)[both].sum())
            return fx, residual, sweep[0]
        return step

    @staticmethod
    def assert_same_run(make_step, x0, tol, cap):
        want = list_fixed_point(make_step(), x0.copy(), tol, cap)
        got = oc._fixed_point(make_step(), x0.copy(), tol, cap)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1] or (math.isnan(got[1]) and math.isnan(want[1]))
        assert got[2:] == want[2:]
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_every_entry_live(self, seed):
        x, residual, sweeps, _ = self.assert_same_run(
            lambda: self.random_map(seed), np.zeros(12), 1e-13, 400)
        assert residual <= 1e-13 and sweeps > 2 * oc._ANDERSON_DEPTH

    @pytest.mark.parametrize("seed", range(4))
    def test_minus_inf_in_x_and_in_its_updates(self, seed):
        x0 = np.zeros(12)
        x0[[1, 7]] = -np.inf
        x, _, _, _ = self.assert_same_run(
            lambda: self.random_map(seed, dead=[(1, 10**6, (3, 7))]), x0, 1e-13, 400)
        assert np.isneginf(x[[3, 7]]).all() and np.isfinite(x[1])

    @pytest.mark.parametrize("seed", range(4))
    def test_live_set_changes_mid_run(self, seed):
        dead = [(4, 11, (0, 5)), (9, 20, (2,)), (26, 30, (5, 6, 11))]
        self.assert_same_run(lambda: self.random_map(seed, dead=dead), np.zeros(12), 1e-13, 400)

    @pytest.mark.parametrize("seed", range(4))
    def test_nan_residual_restarts(self, seed):
        self.assert_same_run(lambda: self.random_map(seed, nan_at=(3, 9, 10, 17)),
                             np.zeros(12), 1e-13, 400)

    @pytest.mark.parametrize("seed", range(4))
    def test_overflowing_differences_skip_the_mix(self, seed):
        # a jump of entry 0 from 1e308 to -1e308 overflows its difference;
        # the mix waits until that difference has left the history
        self.assert_same_run(lambda: self.random_map(seed, spikes=[(5, 1e308), (6, -1e308)]),
                             np.zeros(12), 1e-13, 400)

    @pytest.mark.parametrize("cap", [1, 2, 6, 7, 13])
    def test_cap_hit(self, cap):
        dead = [(5, 8, (4,))]
        _, residual, sweeps, _ = self.assert_same_run(
            lambda: self.random_map(cap, dead=dead, nan_at=(3,)), np.zeros(12), 1e-13, cap)
        assert sweeps == cap and residual > 1e-13

    def test_no_live_entry(self):
        self.assert_same_run(lambda: self.random_map(0, n=3, dead=[(1, 4, (0, 1, 2))]),
                             np.zeros(3), 1e-13, 50)


class TestOverWidths:
    def test_warm_caps_then_the_last_cap_each_width_seeding_the_next(self, monkeypatch):
        calls = []
        real = oc._fixed_point

        def spy(step, x0, tol, cap):
            out = real(step, x0, tol, cap)
            calls.append((step.keywords["eps"], x0, cap, out))
            return out

        monkeypatch.setattr(oc, "_fixed_point", spy)

        def step(x, eps):
            fx = 0.5 * x + eps
            return fx, float(np.abs(fx - x).sum()), eps

        levels = [16.0, 4.0, 1.0]
        x, residual, sweeps, extra = oc._over_widths(step, np.zeros(2), levels, 1e-12, 7)
        assert [c[0] for c in calls] == levels
        assert [c[2] for c in calls] == [oc._WARM_CAP, oc._WARM_CAP, 7]
        for prev, nxt in zip(calls, calls[1:]):
            assert nxt[1] is prev[3][0]
        assert x is calls[-1][3][0] and extra == 1.0
        assert residual == calls[-1][3][1]
        assert sweeps == sum(c[3][2] for c in calls)


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
        rho = DensityField(grid, np.where(xs < 0.5, 2.0, 0.0))
        g = DensityField(grid, np.where(xs >= 0.5, 2.0, 0.0))
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


    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_off_mask_cells_keep_their_centers(self, p):
        # zero mass on x < 1/4 and on y < 0, a target box reaching past the
        # source box: off the mask the exact map's T(x) is y_0 < 0, which the
        # box would clip by 0.47, but both maps hold the cell center there and
        # take their largest clip over the masked cells only
        source, target = Grid(1, 0.0, 1.0, 16), Grid(1, -0.5, 1.0, 24)
        xs, ys = source.cell_centers()[:, 0], target.cell_centers()[:, 0]
        rho = normalize(DensityField(source, np.where(xs > 0.25, 1.0 + xs, 0.0)))
        g = normalize(DensityField(target, np.where(ys > 0.0, 2.0 - ys, 0.0)))
        cost = power_cost(p, 1.5)
        result, exact_map = oc.solve_exact_1d(rho, g, cost)
        lp = oc.solve_lp(rho, g, cost)
        potential_map = oc.transport_map_from_potential(lp.phi, cost, rho)
        centers = source.cell_centers()
        for mf in (exact_map, potential_map):
            assert mf.mask.tolist() == (xs > 0.25).tolist()
            assert np.array_equal(mf.points[~mf.mask], centers[~mf.mask])
        # every masked value of the monotone map lies in [0, 1]: nothing to clip
        assert exact_map.max_clip_distance == 0.0
        clamped = oc._clamped_gradient(lp.phi, cost, source)[0]
        raw = (centers - grad_h_star(cost, clamped))[potential_map.mask]
        assert potential_map.max_clip_distance == float(np.abs(source.clip(raw) - raw).max()) > 0.0

    def test_exact_map_is_clipped_to_the_target_box(self):
        # T maps into the target's box: with the target on [-0.5, 1] the
        # monotone map sends the first source cells below 0, where the
        # source's box [0, 1] used to clip them to 0 (by up to 0.42)
        source, target = Grid(1, 0.0, 1.0, 16), Grid(1, -0.5, 1.0, 24)
        rho, g = random_smooth_density(source, 3), random_smooth_density(target, 4)
        cost = power_cost(2.0, 1.5)
        _, exact_map = oc.solve_exact_1d(rho, g, cost)
        values = exact_map.points[exact_map.mask, 0]
        assert exact_map.mask.all()
        assert exact_map.max_clip_distance == 0.0
        assert np.all(values != 0.0) and values.min() < -0.4
        assert exact_map.target is target

    def test_gradient_clamp_scales_only_overshooting_cells(self):
        grid = Grid(1, 0.0, 1.0, 64)
        cost = power_cost(2.0, 1.0)  # gradient range [0, 1]
        x = grid.cell_centers()[:, 0]
        phi = np.where(x < 0.5, -0.25 * x, -0.125 - 4.0 * (x - 0.5))
        clamped, norms, wmax = oc._clamped_gradient(phi.reshape(grid.shape), cost, grid)
        raw = gradient(phi.reshape(grid.shape), grid).reshape(-1, 1)
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

import itertools

import numpy as np
import pytest

from otlab.errors import DegenerateInputError, ParameterError, ShapeError
from otlab.geometry import (
    DensityField,
    Grid,
    boundary_cells_and_normals,
    bump_density,
    gradient,
    interp_multilinear,
    normalize,
    random_smooth_density,
    read_field_csv,
    tv_norm,
    write_field_csv,
    write_rows,
)


def unit_grid(n=8):
    return Grid(1, 0.0, 1.0, n)


def tent_density(grid):
    # triangle of unit mass on [0,1]: slope +-4, analytic integral of |rho'| is 4
    x = grid.axis_centers(0)
    return DensityField(grid, np.maximum(0.0, 2.0 - np.abs(4.0 * x - 2.0)))


class TestGrid:
    def test_basic_derived_quantities(self):
        g = Grid(1, 0.0, 1.0, 8)
        assert g.spacing == (0.125,)
        assert g.cell_volume == 0.125
        assert g.axis_centers(0)[0] == pytest.approx(0.0625)

    def test_enclosing_radius_and_cost_radius(self):
        g1 = Grid(1, 0.0, 1.0, 8)
        assert g1.enclosing_radius == pytest.approx(0.5)
        assert g1.cost_radius == pytest.approx(1.0)
        g2 = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
        assert g2.enclosing_radius == pytest.approx(np.sqrt(2) / 2)
        assert g2.cost_radius == pytest.approx(np.sqrt(2))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            Grid(3, 0.0, 1.0, 8)
        with pytest.raises(ParameterError):
            Grid(1, 1.0, 0.0, 8)
        with pytest.raises(ParameterError):
            Grid(1, 0.0, 1.0, 3)

    @pytest.mark.parametrize("d, n", [(1, 4096**2 + 1), (2, 4097), (2, 20000), (1, 10**30)],
                             ids=["1d", "2d-4097", "2d-20000", "1d-1e30"])
    def test_more_cells_than_the_limit_rejected(self, d, n):
        # refused from the counts alone, before any array of that size exists
        with pytest.raises(ParameterError, match=f"grid of {n**d} cells exceeds the limit"):
            Grid(d, 0.0, 1.0, n)

    def test_grid_at_the_limit_accepted(self):
        assert Grid(2, 0.0, 1.0, 4096).num_cells == 4096**2
        assert Grid(2, 0.0, 1.0, (4, 4096**2 // 4)).num_cells == 4096**2

    @pytest.mark.parametrize("lower, upper", [
        (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), ((0.0, 0.0), (1.0, np.inf)),
    ])
    def test_non_finite_bounds_rejected(self, lower, upper):
        with pytest.raises(ParameterError, match="finite"):
            Grid(np.ndim(upper) + 1, lower, upper, 8)

    def test_cell_centers_row_major(self):
        g = Grid(2, (0.0, 0.0), (1.0, 2.0), (4, 4))
        pts = g.cell_centers()
        assert pts.shape == (16, 2)
        # row-major: y varies fastest
        assert pts[0, 0] == pts[1, 0]
        assert pts[1, 1] > pts[0, 1]


class TestGradient:
    def test_affine_exact_interior_1d(self):
        g = unit_grid(8)
        x = g.axis_centers(0)
        vf = gradient(x, g)
        # interior central differences are exact for affine data
        assert vf[1:-1, 0] == pytest.approx(np.ones(6), abs=1e-14)

    def test_constant_is_zero(self):
        g = unit_grid(8)
        vf = gradient(np.full(8, 3.7), g)
        assert np.all(vf == 0.0)

    def test_quadratic_interior_error(self):
        # oracle: d/dx x^2 = 2x; frozen bound from the analytic derivative
        g = unit_grid(256)
        x = g.axis_centers(0)
        vf = gradient(x**2, g)
        err = np.abs(vf[1:-1, 0] - 2.0 * x[1:-1])
        assert err.max() <= 1e-3

    def test_linearity(self):
        g = unit_grid(16)
        rng = np.random.default_rng(0)
        f1, f2 = rng.standard_normal((2, 16))
        lhs = gradient(2.0 * f1 - 3.0 * f2, g)
        rhs = 2.0 * gradient(f1, g) - 3.0 * gradient(f2, g)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_2d_affine(self):
        g = Grid(2, (0.0, 0.0), (1.0, 1.0), (8, 8))
        pts = g.cell_centers().reshape(8, 8, 2)
        f = 2.0 * pts[..., 0] - 1.5 * pts[..., 1]
        comp = gradient(f, g)
        assert comp[1:-1, 1:-1, 0] == pytest.approx(np.full((6, 6), 2.0), abs=1e-13)
        assert comp[1:-1, 1:-1, 1] == pytest.approx(np.full((6, 6), -1.5), abs=1e-13)

    def test_shape_mismatch(self):
        g = unit_grid(8)
        with pytest.raises(ShapeError):
            gradient(np.zeros(9), g)

    @pytest.mark.parametrize("grid", [unit_grid(8), Grid(2, (0.0, 0.0), (1.0, 2.0), (5, 6))])
    def test_returns_plain_array_of_grid_shape_plus_d(self, grid):
        comp = gradient(np.zeros(grid.shape), grid)
        assert type(comp) is np.ndarray
        assert comp.shape == grid.shape + (grid.d,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("grid", [unit_grid(8), Grid(2, (0.0, 0.0), (1.0, 1.0), (6, 6))])
    def test_non_finite_value_raises(self, grid, bad):
        vals = np.zeros(grid.shape)
        vals[(2,) * grid.d] = bad
        with pytest.raises(ShapeError, match="gradient entries must be finite"):
            gradient(vals, grid)


class TestTVNorm:
    def test_constant_zero(self):
        g = unit_grid(8)
        assert tv_norm(DensityField(g, np.full(8, 1.0))) == 0.0

    def test_tent_matches_analytic(self):
        f = tent_density(unit_grid(512))
        assert tv_norm(f) == pytest.approx(4.0, rel=0.02)

    def test_homogeneity(self):
        f = tent_density(unit_grid(64))
        scaled = DensityField(f.grid, 2.5 * f.values)
        assert tv_norm(scaled) == pytest.approx(2.5 * tv_norm(f), rel=1e-12)

    def test_zero_iff_constant(self):
        g = unit_grid(8)
        vals = np.full(8, 0.3)
        assert tv_norm(DensityField(g, vals)) == 0.0
        bumped = vals.copy()
        bumped[3] += 1e-3
        assert tv_norm(DensityField(g, bumped)) > 0.0

    def test_refinement_differences_shrink(self):
        tvs = [tv_norm(tent_density(unit_grid(n))) for n in (64, 128, 256, 512)]
        diffs = [abs(b - a) for a, b in zip(tvs, tvs[1:])]
        assert diffs[0] > diffs[1] > diffs[2]
        assert abs(tvs[-1] - 4.0) < abs(tvs[0] - 4.0)


class TestNormalize:
    def test_two_cell_example(self):
        g = Grid(1, 0.0, 2.0, 4)  # not used; explicit 2-cell case below needs n>=4
        # values (2,2,..) on unit-volume cells scale to equal weights
        gg = Grid(1, 0.0, 4.0, 4)
        f = normalize(DensityField(gg, np.array([2.0, 2.0, 2.0, 2.0])))
        assert f.values == pytest.approx(np.full(4, 0.25))
        assert f.mass == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        g = unit_grid(16)
        f = normalize(DensityField(g, np.random.default_rng(1).uniform(0.5, 2.0, 16)))
        again = normalize(f)
        assert again.values == pytest.approx(f.values, abs=1e-15)

    def test_preserves_ratios(self):
        g = unit_grid(8)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        f = normalize(DensityField(g, vals))
        assert f.values[1] / f.values[0] == pytest.approx(2.0)

    def test_random_positive_mass_one(self):
        g = unit_grid(32)
        f = normalize(DensityField(g, np.random.default_rng(2).uniform(0.1, 1.0, 32)))
        assert abs(f.mass - 1.0) <= 1e-12

    def test_zero_field_raises(self):
        g = unit_grid(8)
        with pytest.raises(DegenerateInputError):
            normalize(DensityField(g, np.zeros(8)))


class TestRandomSmoothDensity:
    def test_deterministic(self):
        g = unit_grid(64)
        f1 = random_smooth_density(g, seed=7)
        f2 = random_smooth_density(g, seed=7)
        assert np.array_equal(f1.values, f2.values)

    def test_floor_keeps_positive(self):
        g = unit_grid(64)
        f = random_smooth_density(g, seed=3)
        assert f.values.min() > 0.0

    def test_mass_one(self):
        g = unit_grid(128)
        f = random_smooth_density(g, seed=7)
        assert abs(f.mass - 1.0) <= 1e-12

    def test_2d(self):
        g = Grid(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
        f = random_smooth_density(g, seed=11)
        assert abs(f.mass - 1.0) <= 1e-12
        assert f.values.min() > 0.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            random_smooth_density(unit_grid(8), seed=-1)


def former_cli_bump(grid, floor=0.05, sharpness=80.0, center=None):
    """The bump expression as the command line wrote it before geometry held it."""
    center = np.atleast_1d(np.asarray(
        np.add(grid.lower, grid.upper) / 2 if center is None else center, dtype=float))
    sq = ((grid.cell_centers() - center[None, :]) ** 2).sum(axis=1)
    vals = floor + np.exp(-sharpness * sq)
    return normalize(DensityField(grid, vals.reshape(grid.shape)))


class TestBumpDensity:
    @pytest.mark.parametrize("grid, params", [
        (Grid(1, -1.0, 3.0, 33), {}),
        (Grid(1, 0.0, 1.0, 96), {"center": 0.3}),
        (Grid(1, 0.0, 1.0, 96), {"floor": 0.0, "center": [0.7]}),
        (Grid(2, (0.0, 0.0), (1.0, 2.0), (12, 9)), {}),
        (Grid(2, (0.0, 0.0), (1.0, 2.0), (12, 9)), {"floor": 1e-3, "center": [0.3, 0.6]}),
    ], ids=["1d", "1d-center", "1d-center-list", "2d", "2d-center"])
    def test_same_bits_as_the_former_cli_expression(self, grid, params):
        got = bump_density(grid, **params)
        assert np.array_equal(got.values, former_cli_bump(grid, **params).values)
        assert abs(got.mass - 1.0) <= 1e-12

    def test_same_bits_on_the_unit_interval(self):
        # the flows' bumps: every resolution, floor and sharpness they run at
        for n, floor, sharpness in itertools.product((8, 24, 48, 96, 128, 512),
                                                     (0.0, 1e-3, 0.05, 0.1), (20.0, 80.0)):
            grid = unit_grid(n)
            got = bump_density(grid, floor, sharpness).values
            assert np.array_equal(got, former_cli_bump(grid, floor, sharpness).values)

    @pytest.mark.parametrize("params, key", [
        ({"floor": -0.1}, "floor"),
        ({"floor": np.nan}, "floor"),
        ({"sharpness": 0.0}, "sharpness"),
        ({"sharpness": -1.0}, "sharpness"),
        ({"center": [0.25, 0.75]}, "center"),
        ({"center": [[0.5]]}, "center"),
    ], ids=["floor-negative", "floor-nan", "sharpness-zero", "sharpness-negative",
            "center-length", "center-shape"])
    def test_bad_parameter_rejected_by_name(self, params, key):
        with pytest.raises(ParameterError, match=f"^{key} must"):
            bump_density(unit_grid(16), **params)

    def test_zero_mass_bump_rejected(self):
        # centered far off the box with no floor: exp underflows to 0 on every cell
        with pytest.raises(DegenerateInputError, match="zero total mass"):
            bump_density(unit_grid(16), floor=0.0, sharpness=1e6, center=5.0)


class TestBoundary:
    def test_1d_two_endpoints(self):
        cells, normals, areas = boundary_cells_and_normals(unit_grid(8))
        assert cells.tolist() == [0, 7]
        assert normals.tolist() == [[-1.0], [1.0]]
        assert areas.sum() == pytest.approx(2.0)

    def test_2d_unit_square_perimeter(self):
        g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
        cells, normals, areas = boundary_cells_and_normals(g)
        assert cells.shape == (16,) and normals.shape == (16, 2) and areas.shape == (16,)
        assert areas.sum() == pytest.approx(4.0)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0)
        # outward: each normal points from the box center towards its cell
        centers = g.cell_centers()[cells] - 0.5
        assert np.all((centers * normals).sum(axis=1) > 0)

    def test_2d_bigger_box(self):
        g = Grid(2, (0.0, 0.0), (2.0, 2.0), (8, 8))
        _, _, areas = boundary_cells_and_normals(g)
        assert areas.sum() == pytest.approx(8.0)


class TestCSV:
    def test_roundtrip_1d(self, tmp_path):
        g = unit_grid(8)
        f = random_smooth_density(g, seed=5)
        path = tmp_path / "rho.csv"
        write_field_csv(path, g, f.values)
        back = DensityField(*read_field_csv(path))
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_roundtrip_2d(self, tmp_path):
        g = Grid(2, (0.0, -1.0), (1.0, 1.0), (4, 6))
        vals = np.random.default_rng(0).uniform(0.0, 1.0, (4, 6))
        path = tmp_path / "field.csv"
        write_field_csv(path, g, vals)
        g2, vals2 = read_field_csv(path)
        # bounds are reconstructed from cell centers, exact only up to rounding
        assert g2.n == g.n
        assert g2.lower == pytest.approx(g.lower, abs=1e-14)
        assert g2.upper == pytest.approx(g.upper, abs=1e-14)
        assert np.array_equal(vals2, vals)

    def test_header_layout(self, tmp_path):
        g = Grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
        path = tmp_path / "f.csv"
        write_field_csv(path, g, np.zeros((4, 4)))
        first = path.read_text().splitlines()[0]
        assert first == "x,y,value"

    @pytest.mark.parametrize("grid", [Grid(1, -0.3, 0.7, 9), Grid(2, (0.0, -1.0), (1.0, 1.0), (4, 6))],
                             ids=["1d", "2d"])
    def test_same_bytes_as_write_rows(self, tmp_path, grid):
        specials = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, float("nan"), float("inf"), 0.1]
        vals = np.random.default_rng(1).standard_normal(grid.num_cells)
        vals[:len(specials)] = specials
        vals = vals.reshape(grid.shape)
        write_field_csv(tmp_path / "field.csv", grid, vals, value_header="rho")
        header = ["x", "y"][:grid.d] + ["rho"]
        rows = ([*c, v] for c, v in zip(grid.cell_centers().tolist(), vals.reshape(-1).tolist()))
        write_rows(tmp_path / "rows.csv", [header, *rows])
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("rows, error", [
        ([("x", "value"), (0.125, 1.0), (0.375, "abc"), (0.625, 1.0), (0.875, 1.0)],
         ParameterError),
        ([], ParameterError),
        ([("x", "value"), (0.125, 1.0), (0.375, 1.0, 2.0), (0.625, 1.0), (0.875, 1.0)],
         ShapeError),
        ([("x", "value"), (0.125, 1.0), (0.375,), (0.625, 1.0), (0.875, 1.0)], ShapeError),
        # uniform spacing from first to last center would reach outside [0, 1]
        ([("x", "value"), *((x, 1.0) for x in (0.1, 0.2, 0.7, 0.9))], ParameterError),
        ([("x", "value"), *((x, 1.0) for x in (0.375, 0.125, 0.625, 0.875))], ParameterError),
        ([("x", "value")], ParameterError),
        ([("x", "y", "value"), *((x, y, 1.0) for x in (0.1, 0.2, 0.7, 0.9)
                                 for y in (0.125, 0.375, 0.625, 0.875))], ParameterError),
        # y outer, x inner: column-major
        ([("x", "y", "value"), *((x, y, 1.0) for y in (0.125, 0.375, 0.625, 0.875)
                                 for x in (0.125, 0.375, 0.625, 0.875))], ParameterError),
    ], ids=["non_numeric", "empty", "long_row", "short_row", "off_grid_1d",
            "unsorted_1d", "header_only", "off_grid_2d", "column_major_2d"])
    def test_malformed_file_rejected(self, tmp_path, rows, error):
        path = tmp_path / "field.csv"
        write_rows(path, rows)
        with pytest.raises(error):
            read_field_csv(path)


class TestWriteRows:
    @pytest.mark.parametrize("row, line", [
        ((np.float64(0.1), 2.5), b"0.1,2.5"),
        ((np.int64(3), 7), b"3,7"),
        ((np.bool_(True), False), b"1,0"),
        ((-0.0,), b"-0.0"),
        ((1e-300, np.float32(0.5)), b"1e-300,0.5"),
        ((float("nan"),), b"nan"),
        (("# error: step 1: a, b",), b"# error: step 1: a, b"),
    ])
    def test_exact_text(self, tmp_path, row, line):
        path = tmp_path / "rows.csv"
        write_rows(path, [("a", "b"), row])
        data = path.read_bytes()
        assert data == b"a,b\n" + line + b"\n"
        assert b"\r" not in data


class TestInterp:
    def test_exact_on_centers(self):
        g = unit_grid(8)
        vals = np.random.default_rng(4).standard_normal(8)
        pts = g.cell_centers()
        out = interp_multilinear(g, vals, pts)
        assert out == pytest.approx(vals, abs=1e-14)

    def test_linear_reproduction_2d(self):
        g = Grid(2, (0.0, 0.0), (1.0, 1.0), (8, 8))
        pts = g.cell_centers().reshape(8, 8, 2)
        vals = 1.0 + 2.0 * pts[..., 0] - 0.5 * pts[..., 1]
        query = np.array([[0.4, 0.6], [0.21, 0.33]])
        out = interp_multilinear(g, vals, query)
        expected = 1.0 + 2.0 * query[:, 0] - 0.5 * query[:, 1]
        assert out == pytest.approx(expected, abs=1e-12)

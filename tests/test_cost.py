"""Tests for radial costs: gradients, conjugate inversion, smoothing, curvature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otlab.cost import (
    HFunction,
    _invert_dprofile,
    grad_h,
    grad_h_star,
    grad_H,
    mollify,
    power_cost,
    power_h_function,
    semiconcavity_constant,
    tabulated_cost,
)
from otlab.errors import DomainError, ParameterError, RangeError


class TestPowerCost:
    def test_rejects_exponent_at_most_one(self):
        with pytest.raises(ParameterError):
            power_cost(1.0, radius=2.0)
        with pytest.raises(ParameterError):
            power_cost(0.5, radius=2.0)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_exponent(self, p):
        with pytest.raises(ParameterError):
            power_cost(p, radius=2.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ParameterError):
            power_cost(2.0, radius=0.0)
        r = np.linspace(0.0, 2.0, 9)
        for radius in (-1.0, np.nan):
            with pytest.raises(ParameterError, match="radius must be positive"):
                tabulated_cost(r, r**2 / 2.0, radius=radius)

    def test_evaluates_profile(self):
        cost = power_cost(3.0, radius=8.0)
        # h((2, 0)) = 2^3 / 3 at the norm 2
        norms = np.sqrt((np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 2.0]]) ** 2).sum(axis=-1))
        assert cost.profile(norms) == pytest.approx([8.0 / 3.0, 1.0 / 3.0, 8.0 / 3.0])

    def test_grad_range_is_derivative_at_radius(self):
        cost = power_cost(3.0, radius=2.0)
        assert cost.grad_range() == pytest.approx(4.0)


class TestGradH:
    def test_cubic_cost_at_axis_point(self):
        # p'(r) = r^2, so grad at (2, 0) is (4, 0)
        cost = power_cost(3.0, radius=8.0)
        np.testing.assert_allclose(grad_h(cost, np.array([2.0, 0.0])), [4.0, 0.0])

    def test_zero_at_origin(self):
        cost = power_cost(1.5, radius=2.0)
        np.testing.assert_array_equal(grad_h(cost, np.zeros(2)), np.zeros(2))

    def test_parallel_to_argument(self):
        cost = power_cost(2.5, radius=4.0)
        z = np.array([0.6, -0.8])
        g = grad_h(cost, z)
        cross = g[0] * z[1] - g[1] * z[0]
        assert abs(cross) < 1e-14
        assert np.dot(g, z) > 0

    def test_rejects_points_outside_ball(self):
        cost = power_cost(2.0, radius=1.0)
        with pytest.raises(DomainError):
            grad_h(cost, np.array([1.5, 0.0]))

    def test_batch_shape(self):
        cost = power_cost(2.0, radius=4.0)
        pts = np.array([[1.0, 0.0], [0.0, -2.0], [0.0, 0.0]])
        out = grad_h(cost, pts)
        assert out.shape == pts.shape
        np.testing.assert_allclose(out, pts)  # quadratic cost: identity


class TestGradHStar:
    def test_cubic_cost_inverts_gradient(self):
        cost = power_cost(3.0, radius=8.0)
        np.testing.assert_allclose(
            grad_h_star(cost, np.array([4.0, 0.0])), [2.0, 0.0], atol=1e-12
        )

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_analytic_inverse(self, p):
        # for the power family the inverse radius is w^(1/(p-1))
        cost = power_cost(p, radius=4.0)
        rng = np.random.default_rng(42)
        w = rng.uniform(0.0, cost.grad_range(), size=(1000, 1))
        pts = np.concatenate([w, np.zeros_like(w)], axis=1)
        r_bisect = np.sqrt((grad_h_star(cost, pts) ** 2).sum(axis=1))
        r_exact = w[:, 0] ** (1.0 / (p - 1.0))
        assert np.abs(r_bisect - r_exact).max() < 1e-10

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_round_trip_relative_error(self, p):
        cost = power_cost(p, radius=4.0)
        rng = np.random.default_rng(7)
        w = rng.uniform(0.0, cost.grad_range(), size=(1000, 2))
        w *= rng.uniform(0.0, 1.0, size=(1000, 1))  # vary direction and norm
        norms = np.sqrt((w**2).sum(axis=1))
        keep = norms <= cost.grad_range()
        w = w[keep]
        back = grad_h(cost, grad_h_star(cost, w))
        rel = np.sqrt(((back - w) ** 2).sum(axis=1)) / np.maximum(
            np.sqrt((w**2).sum(axis=1)), 1e-300
        )
        assert rel.max() < 1e-8

    def test_zero_maps_to_zero(self):
        cost = power_cost(1.5, radius=2.0)
        np.testing.assert_array_equal(grad_h_star(cost, np.zeros(2)), np.zeros(2))

    def test_rejects_arguments_beyond_gradient_range(self):
        cost = power_cost(2.0, radius=1.0)  # gradient range is [0, 1]
        with pytest.raises(RangeError):
            grad_h_star(cost, np.array([1.001, 0.0]))

    def test_tolerates_range_boundary_roundoff(self):
        cost = power_cost(2.0, radius=1.0)
        w = np.array([1.0 * (1.0 + 5e-10), 0.0])
        out = grad_h_star(cost, w)
        assert np.sqrt((out**2).sum()) <= 1.0 + 1e-9


class TestMollify:
    def test_rejects_bad_parameters(self):
        cost = power_cost(2.0, radius=1.0)
        with pytest.raises(ParameterError):
            mollify(cost, 0.3)  # eps >= R/4
        with pytest.raises(ParameterError):
            mollify(cost, 0.0)

    def test_quadratic_gradient_invariant(self):
        # smoothing a quadratic leaves its derivative unchanged: the bump is
        # even, so the linear term integrates exactly under symmetric rules
        cost = power_cost(2.0, radius=4.0)
        smoothed = mollify(cost, 0.2)
        r = np.linspace(0.0, 4.0, 313)
        dev = np.abs(smoothed.dprofile(r) - cost.dprofile(r)).max()
        assert dev <= 1e-8

    def test_kink_smoothing_deviation_shrinks_with_eps(self):
        cost = power_cost(1.5, radius=4.0)
        r = np.linspace(0.0, 4.0, 1001)
        devs = []
        for eps in (0.2, 0.1, 0.05):
            smoothed = mollify(cost, eps)
            devs.append(np.abs(smoothed.dprofile(r) - cost.dprofile(r)).max())
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.05

    def test_smoothed_derivative_vanishes_at_origin(self):
        # odd cancellation is exact in the symmetric quadrature
        cost = power_cost(1.5, radius=4.0)
        smoothed = mollify(cost, 0.1)
        assert abs(float(smoothed.dprofile(np.array([0.0]))[0])) < 1e-12

    def test_smoothed_cost_supports_conjugate_round_trip(self):
        cost = mollify(power_cost(1.5, radius=4.0), 0.1)
        w = np.array([[0.5, 0.0], [0.0, 1.2], [0.3, 0.4]])
        back = grad_h(cost, grad_h_star(cost, w))
        np.testing.assert_allclose(back, w, rtol=1e-8, atol=1e-12)


class TestSemiconcavity:
    def test_quartic_cost_on_unit_ball(self):
        # max p'' = 3 r^2 = 3 at r = 1, times the 10% margin
        bound = semiconcavity_constant(power_cost(4.0, 1.0))
        assert bound == pytest.approx(3.3, rel=1e-3)

    def test_quadratic_cost(self):
        bound = semiconcavity_constant(power_cost(2.0, 1.0))
        assert bound == pytest.approx(1.1, rel=1e-9)

    def test_smoothed_kinked_cost_is_finite(self):
        cost = mollify(power_cost(1.5, radius=4.0), 0.1)
        bound = semiconcavity_constant(cost)
        assert np.isfinite(bound) and bound > 0


class TestHFunction:
    def test_rejects_exponent_at_most_one(self):
        with pytest.raises(ParameterError):
            power_h_function(1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ParameterError):
            power_h_function(2.0, delta0=-1e-3)

    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_rejects_non_finite_exponent(self, q):
        # q = inf gave grad_H = [0, inf] at |z| = 0.5 and 2
        with pytest.raises(ParameterError, match="finite"):
            power_h_function(q)

    @pytest.mark.parametrize("delta0", [np.inf, np.nan])
    def test_rejects_non_finite_threshold(self, delta0):
        # a NaN threshold made grad_H vanish everywhere, so every
        # five-gradients integrand built on it would read 0 and pass
        with pytest.raises(ParameterError, match="finite"):
            power_h_function(2.0, delta0=delta0)
        with pytest.raises(ParameterError, match="finite"):
            HFunction(np.sign, delta0)

    def test_gradient_zero_at_origin_and_below_threshold(self):
        hfun = power_h_function(1.5, delta0=1e-9)
        np.testing.assert_array_equal(grad_H(hfun, np.zeros(2)), np.zeros(2))
        np.testing.assert_array_equal(
            grad_H(hfun, np.array([1e-10, 0.0])), np.zeros(2)
        )

    def test_gradient_is_nonnegative_multiple_of_argument(self):
        hfun = power_h_function(4.0)
        z = np.array([0.3, -0.4])
        g = grad_H(hfun, z)
        ratio = g / z
        assert ratio[0] == pytest.approx(ratio[1])
        assert ratio[0] >= 0

    def test_scaling_scales_gradient(self):
        hfun = power_h_function(2.0)
        doubled = HFunction(lambda r: 2.0 * hfun.dprofile(r), hfun.delta0)
        z = np.array([[0.5, 0.1], [0.0, -0.2]])
        np.testing.assert_allclose(grad_H(doubled, z), 2.0 * grad_H(hfun, z))


def _radial_batch(d: int, radius: float, delta0: float, seed: int = 3) -> np.ndarray:
    """Rows of norms 1e-300 .. 0.99 radius, with zero rows and rows of norm exactly delta0."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(600, d))
    dirs /= np.sqrt((dirs**2).sum(axis=1))[:, None]
    z = dirs * (10.0 ** rng.uniform(-300, np.log10(0.99 * radius), size=600))[:, None]
    z[::7] = 0.0
    z[3::11, 0] = delta0  # axis rows: |z| == delta0 exactly
    z[3::11, 1:] = 0.0
    return z


def _per_row(z: np.ndarray, scale, floor: float = 0.0) -> np.ndarray:
    """scale(|z|) z row by row where |z| > floor, zero elsewhere."""
    out = np.zeros_like(z)
    for i, row in enumerate(z):
        r = np.sqrt((row**2).sum())
        if r > floor:
            out[i] = row * scale(np.array([r]))[0]
    return out


class TestRadialMap:
    COSTS = {
        "power1.5": lambda: power_cost(1.5, 2.0),
        "power3": lambda: power_cost(3.0, 2.0),
        "mollified": lambda: mollify(power_cost(1.5, 2.0), 0.1),
        "tabulated": lambda: tabulated_cost(np.linspace(0.0, 2.0, 17),
                                            np.linspace(0.0, 2.0, 17) ** 4 / 4.0),
    }

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", sorted(COSTS))
    def test_gradients_equal_per_row_reference_bits(self, name, d):
        cost = self.COSTS[name]()
        z = _radial_batch(d, cost.radius, 1e-4)
        want = _per_row(z, lambda r: cost.dprofile(r) / r)
        assert grad_h(cost, z).tobytes() == want.tobytes()
        wmax = cost.grad_range()
        w = z * (wmax / cost.radius)
        want = _per_row(w, lambda r: _invert_dprofile(cost, np.minimum(r, wmax)) / r)
        assert grad_h_star(cost, w).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("delta0", [0.0, 1e-9, 1e-4])
    def test_weight_gradient_equals_per_row_reference_bits(self, delta0, d):
        base = power_h_function(1.5, delta0=delta0)
        hfun = HFunction(lambda r: 0.7 * base.dprofile(r), base.delta0)
        z = _radial_batch(d, 2.0, delta0)
        want = _per_row(z, lambda r: hfun.dprofile(r) / r, floor=delta0)
        assert grad_H(hfun, z).tobytes() == want.tobytes()
        assert not grad_H(hfun, z)[3::11].any()

    def test_weight_derivative_never_sees_a_zero_norm(self):
        def dprofile(r):
            r = np.asarray(r, dtype=float)
            if np.any(r <= 0):
                raise AssertionError(f"dprofile called at r = {r.min()}")
            return np.sqrt(r)

        hfun = HFunction(dprofile)
        z = np.array([[0.0, 0.0], [3.0, 4.0], [1e-300, 0.0], [-0.0, 0.0], [1e-200, 1e-200]])
        got = grad_H(hfun, z)
        np.testing.assert_array_equal(got[[0, 2, 3, 4]], 0.0)
        np.testing.assert_allclose(got[1], np.array([3.0, 4.0]) / np.sqrt(5.0))
        np.testing.assert_array_equal(grad_H(hfun, np.zeros(2)), np.zeros(2))


class TestTabulatedAndConfig:
    def test_tabulated_matches_sampled_power_cost(self):
        r = np.linspace(0.0, 2.0, 64)
        cost = tabulated_cost(r, r**2 / 2.0, radius=2.0)
        probe = np.linspace(0.05, 1.95, 41)
        np.testing.assert_allclose(cost.dprofile(probe), probe, atol=5e-3)

    @pytest.mark.parametrize("p, samples", [(1.5, 9), (1.5, 65), (1.5, 513), (1.99, 9)])
    def test_tabulated_refuses_sub_quadratic_profiles(self, p, samples):
        # r^p/p with p < 2: the PCHIP end derivative at 0 is positive, and a
        # cubic with p'(0) = 0 on the first interval would have a dipping p'
        r = np.linspace(0.0, 2.0, samples)
        with pytest.raises(ParameterError):
            tabulated_cost(r, r**p / p)

    def test_tabulated_rejects_nonconvex_profile(self):
        r = np.linspace(0.0, 2.0, 32)
        with pytest.raises(ParameterError):
            tabulated_cost(r, np.minimum(r, 1.0), radius=2.0)  # flat beyond r=1


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(min_value=1.2, max_value=4.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    angle=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_conjugate_round_trip_property(p, frac, angle):
    cost = power_cost(p, radius=3.0)
    w = frac * cost.grad_range() * np.array([np.cos(angle), np.sin(angle)])
    back = grad_h(cost, grad_h_star(cost, w))
    assert np.sqrt(((back - w) ** 2).sum()) <= 1e-8 * (1.0 + np.sqrt((w**2).sum()))

"""Radial strictly convex transport costs and radial convex weight functions.

A cost h(z) = p(|z|) is represented by its radial profile p and derivative p'
on [0, R]; strict convexity along rays (p' strictly increasing, p'(0) = 0)
makes every d-dimensional question 1-dimensional: gradients point along z,
the conjugate gradient inverts p' by bisection, and smoothing is a 1-d
convolution of the profile with a bump, computed by quadrature.

The radial convex weights H used by the inequality checks carry an explicit
zero threshold so that grad_H vanishes on (numerically) critical gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, OTLabError, ParameterError, RangeError

__all__ = [
    "RadialCost",
    "HFunction",
    "power_cost",
    "tabulated_cost",
    "power_h_function",
    "grad_h",
    "grad_h_star",
    "mollify",
    "check_mollify_width",
    "semiconcavity_constant",
    "grad_H",
]

_BISECTION_ITERS = 80
_REL_SLACK = 1e-9
_MOLLIFY_ORDER = 32  # Gauss-Legendre points of the mollifier's quadrature
_MONOTONE_SAMPLES = 64  # intervals of the strict-convexity sampling check
_CURVATURE_SAMPLES = 128  # radii of the semiconcavity estimate


@dataclass(frozen=True)
class RadialCost:
    """Cost h(z) = profile(|z|) on the closed ball of the given radius.

    ``profile`` and ``dprofile`` must accept numpy arrays and be evaluable
    somewhat beyond ``radius`` (smoothing needs values on [0, R + eps]).
    """

    profile: Callable = field(repr=False)
    dprofile: Callable = field(repr=False)
    radius: float
    family: str = "custom"
    exponent: float | None = None

    def __post_init__(self):
        if not self.radius > 0:
            raise ParameterError("radius must be positive")

    def grad_range(self) -> float:
        """Largest |grad h| attained on the ball: p'(R)."""
        return float(self.dprofile(np.asarray([self.radius]))[0])


@dataclass(frozen=True)
class HFunction:
    """Radial convex weight, given by its profile derivative defined for r > 0.

    Gradient arguments with |z| <= delta0 map to zero; delta0 > 0 turns the
    measure-zero convention at critical points into a usable discrete rule.
    """

    dprofile: Callable = field(repr=False)
    delta0: float = 0.0

    def __post_init__(self):
        if not 0 <= self.delta0 < np.inf:
            raise ParameterError(f"delta0 must be finite and nonnegative, got {self.delta0}")


def _validate_monotone_derivative(cost: RadialCost) -> None:
    """Sampling check of strict convexity along rays and p'(0) = 0."""
    r = np.linspace(0.0, cost.radius, _MONOTONE_SAMPLES + 1)
    dp = np.asarray(cost.dprofile(r), dtype=float)
    if not np.all(np.isfinite(dp)):
        raise ParameterError("profile derivative is not finite on [0, R]")
    if not np.all(np.diff(dp) > 0):
        raise ParameterError("profile derivative is not strictly increasing on [0, R]")
    scale = max(dp[-1], 1e-300)
    if abs(dp[0]) > 1e-6 * scale:
        raise ParameterError("profile derivative must vanish at r = 0")


def power_cost(p: float, radius: float) -> RadialCost:
    """Cost |z|^p / p for an exponent p > 1."""
    if not 1 < p < np.inf:
        raise ParameterError(f"power-family exponent must be finite and exceed 1, got {p}")

    def profile(r):
        return np.asarray(r, dtype=float) ** p / p

    def dprofile(r):
        return np.asarray(r, dtype=float) ** (p - 1.0)

    return RadialCost(profile, dprofile, float(radius), family="power", exponent=float(p))


def tabulated_cost(radii, values, radius: float | None = None) -> RadialCost:
    """Cost from sampled profile values, interpolated monotonically (PCHIP)."""
    from scipy.interpolate import PchipInterpolator

    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 4:
        raise ParameterError("tabulated cost needs matching 1-d arrays of length >= 4")
    if radii[0] != 0.0 or np.any(np.diff(radii) <= 0):
        raise ParameterError("tabulated radii must start at 0 and increase strictly")
    interp = PchipInterpolator(radii, values, extrapolate=True)
    deriv = interp.derivative()
    cost = RadialCost(
        lambda r: np.asarray(interp(r), dtype=float),
        lambda r: np.asarray(deriv(r), dtype=float),
        float(radius if radius is not None else radii[-1]),
        family="tabulated",
    )
    _validate_monotone_derivative(cost)
    return cost


def power_h_function(q: float, delta0: float = 0.0) -> HFunction:
    """Radial convex weight r^q / q for q > 1 with the zero-threshold rule."""
    if not 1 < q < np.inf:
        raise ParameterError(f"weight exponent must be finite and exceed 1, got {q}")

    def dprofile(r):
        return np.asarray(r, dtype=float) ** (q - 1.0)

    return HFunction(dprofile, float(delta0))


def _radial_map(z, scale: Callable, floor: float = 0.0, bound: float = np.inf,
                out_of_bound: Callable | None = None) -> np.ndarray:
    """scale(|z|) z on rows with |z| > floor, exact zeros on the others.

    The one path of every radial gradient here. Accepts one point of shape
    (d,) or a batch (N, d). If some |z| exceeds ``bound`` beyond round-off
    slack, raises ``out_of_bound(max |z|)``. ``scale`` gets the norms above
    ``floor`` and 1.0 in place of the others, whose products are discarded,
    so a profile derivative defined for r > 0 is never called at 0.
    """
    z = np.asarray(z, dtype=float)
    pts = np.atleast_2d(z)
    r = np.sqrt((pts**2).sum(axis=-1))
    if np.any(r > bound * (1.0 + _REL_SLACK)):
        raise out_of_bound(r.max())
    live = r > floor
    out = np.where(live[:, None], pts * scale(np.where(live, r, 1.0))[:, None], 0.0)
    return out[0] if z.ndim == 1 else out


def grad_h(cost: RadialCost, z) -> np.ndarray:
    """Gradient of the cost: p'(|z|) z / |z|, and 0 at z = 0.

    Accepts one point of shape (d,) or a batch (N, d); raises outside the ball.
    """
    return _radial_map(
        z, lambda r: np.asarray(cost.dprofile(r), dtype=float) / r, bound=cost.radius,
        out_of_bound=lambda r: DomainError(
            f"|z| = {r:.6g} exceeds the cost radius {cost.radius:.6g}"),
    )


def _invert_dprofile(cost: RadialCost, w_norm: np.ndarray) -> np.ndarray:
    """Solve p'(r) = w for each w; closed form for the power family, else bisection.

    Bisection brackets r to absolute accuracy R * 2^-80, which is not enough
    where p'' blows up at 0 (exponents below 2 with w near 0), so the power
    family inverts its own formula r = w^(1/(p-1)) exactly at every scale.
    """
    if cost.family == "power" and cost.exponent is not None:
        return w_norm ** (1.0 / (cost.exponent - 1.0))
    lo = np.zeros_like(w_norm)
    hi = np.full_like(w_norm, cost.radius)
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        below = np.asarray(cost.dprofile(mid), dtype=float) < w_norm
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def grad_h_star(cost: RadialCost, w) -> np.ndarray:
    """Gradient of the convex conjugate: the inverse of grad_h on the ball.

    Finds r with p'(r) = |w| by bisection and returns r w / |w|; arguments
    beyond p'(R) (the range of grad_h) raise.
    """
    wmax = cost.grad_range()
    return _radial_map(
        w, lambda wn: _invert_dprofile(cost, np.minimum(wn, wmax)) / wn, bound=wmax,
        out_of_bound=lambda wn: RangeError(
            f"|w| = {wn:.6g} exceeds the gradient range p'(R) = {wmax:.6g}"),
    )


def grad_H(hfun: HFunction, z) -> np.ndarray:
    """Gradient of the radial weight with the zero convention.

    Returns 0 where |z| <= delta0, else p_H'(|z|) z / |z|; always a
    nonnegative multiple of z.
    """
    return _radial_map(z, lambda r: np.asarray(hfun.dprofile(r), dtype=float) / r,
                       floor=hfun.delta0)


def _bump(u: np.ndarray, eps: float) -> np.ndarray:
    """Unnormalized smooth bump supported in (-eps, eps)."""
    t = np.asarray(u, dtype=float) / eps
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def check_mollify_width(cost: RadialCost, epsilon: float) -> None:
    """Raise ParameterError unless 0 < epsilon < R/4, the widths ``mollify`` accepts."""
    if not (0 < epsilon < cost.radius / 4):
        raise ParameterError(
            f"epsilon must lie in (0, R/4) = (0, {cost.radius / 4:.6g}), got {epsilon}"
        )


def mollify(cost: RadialCost, epsilon: float) -> RadialCost:
    """Smooth the cost by convolution with a bump of support radius epsilon.

    The 1-d convolution of the profile is a fixed ``_MOLLIFY_ORDER``-point
    Gauss-Legendre rule on [-eps, eps], with the bump's mass normalized
    numerically. The base profile is evaluated beyond R by its own formula,
    so the result is valid on all of [0, R].
    """
    check_mollify_width(cost, epsilon)
    nodes, weights = np.polynomial.legendre.leggauss(_MOLLIFY_ORDER)
    u = nodes * epsilon
    w = weights * epsilon * _bump(u, epsilon)
    w = w / w.sum()

    def profile(r):
        r = np.asarray(r, dtype=float)
        return (w * cost.profile(np.abs(r[..., None] - u))).sum(axis=-1)

    def dprofile(r):
        r = np.asarray(r, dtype=float)
        diff = r[..., None] - u
        return (w * np.sign(diff) * cost.dprofile(np.abs(diff))).sum(axis=-1)

    smoothed = RadialCost(
        profile,
        dprofile,
        cost.radius,
        family=f"mollified({cost.family}, eps={epsilon:g})",
        exponent=cost.exponent,
    )
    _validate_monotone_derivative(smoothed)
    return smoothed


def semiconcavity_constant(cost: RadialCost) -> float:
    """Bound the largest eigenvalue of the cost Hessian on the cost's ball.

    For a radial cost those eigenvalues are p''(r) along the ray and p'(r)/r
    across it; p'' is estimated by central differences of p' at sampled radii
    and the maximum, floored at 0, is returned with a 10% safety margin, so
    z -> h(z) - C|z|^2 / 2 is concave on the ball. Meaningful for
    costs that are twice differentiable away from kinks (smoothed costs).
    """
    rad = float(cost.radius)
    r = np.linspace(rad / _CURVATURE_SAMPLES, rad, _CURVATURE_SAMPLES)
    delta = rad / (4.0 * _CURVATURE_SAMPLES)
    second = (
        np.asarray(cost.dprofile(r + delta), dtype=float)
        - np.asarray(cost.dprofile(np.maximum(r - delta, 0.0)), dtype=float)
    ) / (2.0 * delta)
    tangential = np.asarray(cost.dprofile(r), dtype=float) / r
    candidates = np.concatenate([second, tangential])
    if not np.all(np.isfinite(candidates)):
        raise OTLabError("second differences of the cost are not finite")
    return 1.1 * float(max(candidates.max(), 0.0))

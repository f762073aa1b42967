"""Minimizing-movement (JKO) scheme for W_p gradient flows, with a PDE reference.

Each step solves

    rho_{k+1} = argmin  OT_h(rho, rho_k) / tau^(p-1)  +  sum f(rho) vol,

over discrete probability densities, where h(z) = |z|^p / p, so the
transport term is W_p^p / (p tau^(p-1)). The step is computed from the
entropically smoothed step problem

    min_P  <C, P> + eps KL(P | r x b)  +  tau^(p-1) sum f(row mass / vol) vol,

with the column marginal pinned to rho_k and the reference plan the product
of the anchor masses b with the floored prior r, by alternating an exact
column fit of the dual potential (a Sinkhorn half-step) with a pointwise
update of the row potential from the first-order condition
f_i = tilt_i - tau^(p-1) f'(rho_i), closed-form for the entropy energy and
a safeguarded bisection for power energies. The row marginal of the
converged plan is the next iterate.

The step and the pinned evaluation run ``ot_core._scaling``, the entropic
solver's loop, with their own row updates; the self-transport iterates its
symmetric map through ``ot_core._fixed_point``. Cold starts walk
``ot_core._eps_ladder`` with ``ot_core._WARM_CAP`` sweeps per wider width;
every solve stops at ``_INNER_TOL`` within ``_MAX_INNER`` sweeps at eps.

The tilt is the blur correction: smoothing at width eps inflates every
transport value by a self-transport cost that depends on the density, so
the step actually minimized is the corrected objective

    G(rho) = OT_eps(rho, rho_k) - OT_eps(rho, rho) / 2 + tau^(p-1) sum f(rho) vol,

with the concave self term linearized at the anchor -- its gradient there,
the anchor's symmetric self-potential, enters the row update as a fixed
linear price. Without the correction the blur acts like a spurious
potential (strongest where the geometry is asymmetric, e.g. at domain
walls) and even exact fixed points of the flow drift by O(eps); with it
the anchor's blur cancels identically and a stationary density stays put
to solver tolerance. Linearizing a concave term also gives an exact
descent argument: the converged candidate cannot lie above the anchor in
G, which the step verifies explicitly through matched dual evaluations,
damping the move whenever solver tolerance leaves the comparison
ambiguous and returning the anchor when nothing helps.

The smoothing width is a modeling parameter, not only a solver tolerance:
transport between densities on a common grid cannot move mass more cheaply
than h(cell width) per unit, so the unsmoothed discrete step problem pins
every density whose energy gradient is below that quantization threshold,
and the scheme would stall long before the flow equilibrates. A width at
the scale of the squared cell width restores the continuum behavior the
limit PDE has, which is why eps defaults stay near Delta^2 rather than 0.

The scheme discretizes ∂_t u = Δ_q(g(u)) with q = p/(p-1) and g the
diffusion transform of the energy; ``reference_pde_solve`` integrates that
limit PDE with an explicit flux-form finite-difference scheme for
benchmarking (p = 2 with the entropy energy is the heat equation).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .cost import power_cost
from .errors import (
    DomainError,
    InputError,
    ParameterError,
    ProjectionError,
    StepError,
)
from .geometry import DensityField, Grid, write_field_csv, write_rows
from .ot_core import (_WARM_CAP, _cost_matrix, _eps_ladder, _fixed_point, _scaling, log_plan,
                      softmin)

# s log s at s = 0 is the limit 0; the floor keeps the evaluation finite
# without moving the value at any density above it.
_ENTROPY_FLOOR = 1e-12

_DESCENT_SLACK = 1e-10

# descent-check trials; each rejected damped trial halves the move
_DESCENT_TRIALS = 40

# floor of the step problem's reference prior r = max(b, _PRIOR_FLOOR)
_PRIOR_FLOOR = 1e-30

# inner solves: the residual that ends them, their sweep cap at the working width
_INNER_TOL = 1e-8
_MAX_INNER = 4000


@dataclass(frozen=True)
class Energy:
    """Internal energy integrand f and the diffusion transform of the limit PDE.

    ``g`` solves g'(s) = s^(p-1) f''(s) with g(0) = 0, which ties the
    minimizing-movement scheme for this energy to the PDE ∂_t u = Δ_q(g(u)).
    Closed forms, from integrating g' by hand:

      entropy: f(s) = s log s,    f''(s) = 1/s,        g(s) = s^(p-1)/(p-1)
      power:   f(s) = s^m/(m-1),  f''(s) = m s^(m-2),  g(s) = m s^(p+m-2)/(p+m-2)
    """

    kind: str
    f: Callable = field(repr=False)
    f_prime: Callable = field(repr=False)
    g: Callable = field(repr=False)
    g_prime: Callable = field(repr=False)
    m: float | None = None


def entropy_energy() -> Energy:
    def f(s):
        s = np.asarray(s, dtype=float)
        return s * np.log(np.maximum(s, _ENTROPY_FLOOR))

    def f_prime(s):
        return np.log(np.maximum(np.asarray(s, dtype=float), _ENTROPY_FLOOR)) + 1.0

    def g(s, p):
        return np.asarray(s, dtype=float) ** (p - 1.0) / (p - 1.0)

    def g_prime(s, p):
        return np.maximum(np.asarray(s, dtype=float), _ENTROPY_FLOOR) ** (p - 2.0)

    return Energy("entropy", f, f_prime, g, g_prime)


def power_energy(m: float) -> Energy:
    """Power energy f(s) = s^m/(m-1); requires m > 1 (convex, superlinear)."""
    m = float(m)
    if not m > 1:
        raise ParameterError(f"power energy needs m > 1, got {m}")

    def f(s):
        return np.asarray(s, dtype=float) ** m / (m - 1.0)

    def f_prime(s):
        return m * np.asarray(s, dtype=float) ** (m - 1.0) / (m - 1.0)

    def g(s, p):
        return m * np.asarray(s, dtype=float) ** (p + m - 2.0) / (p + m - 2.0)

    def g_prime(s, p):
        return m * np.asarray(s, dtype=float) ** (p + m - 3.0)

    return Energy("power", f, f_prime, g, g_prime, m=m)


def energy_value(rho: DensityField, energy: Energy) -> float:
    """Midpoint-rule internal energy sum f(rho) vol."""
    return float(energy.f(rho.values).sum() * rho.grid.cell_volume)


@dataclass(frozen=True)
class JKOConfig:
    """Scheme parameters: cost exponent, step size, horizon, energy, entropic width.

    ``eps`` is the entropic width of the inner step problem, whose
    ``ot_core._scaling`` solve takes at most ``_MAX_INNER`` sweeps at that
    width and stops once the L1 gap between its plan's row masses and the
    candidate masses is at most ``_INNER_TOL``. A failed descent comparison
    halves the move toward the candidate on each rejected trial; a step
    that cannot help returns the previous iterate unchanged.
    """

    p: float
    tau: float
    steps: int
    energy: Energy
    eps: float = 1e-4

    def __post_init__(self):
        if not self.p > 1:
            raise ParameterError(f"cost exponent must exceed 1, got {self.p}")
        if not self.tau > 0:
            raise ParameterError(f"time step must be positive, got {self.tau}")
        if self.steps < 0:
            raise ParameterError(f"step count must be nonnegative, got {self.steps}")
        if not isinstance(self.energy, Energy):
            raise ParameterError("energy must be an Energy descriptor")
        if not self.eps > 0:
            raise ParameterError("entropic width must be positive")


@dataclass(frozen=True)
class Trajectory:
    """States of one flow run plus per-state diagnostics.

    ``cost[k]`` is the transport term of step k (0 at the initial state) and
    ``residual[k]`` the last inner update size; a non-empty ``error`` marks a
    run aborted at ``len(densities) - 1`` states after the failure.
    """

    densities: tuple
    times: tuple
    tv: tuple
    energy: tuple
    cost: tuple
    residual: tuple
    error: str = ""

    def __post_init__(self):
        k = len(self.densities)
        for name in ("times", "tv", "energy", "cost", "residual"):
            if len(getattr(self, name)) != k:
                raise InputError(f"trajectory field {name} must have {k} entries")

    def __len__(self) -> int:
        return len(self.densities)


@dataclass(frozen=True)
class _StepInfo:
    transport_cost: float
    residual: float
    objective: float
    anchor_objective: float
    inner_iterations: int


def _check_probability(rho: DensityField) -> None:
    if abs(rho.mass - 1.0) > 1e-8:
        raise InputError(f"density mass {rho.mass:.3e} is not 1")


def _power_log_mass(M: np.ndarray, eps: float, T: float, m: float, vol: float) -> np.ndarray:
    """Per-cell root u of eps u + A exp((m-1) u) = M, A = T m / ((m-1) vol^(m-1)).

    u is the log cell mass of the power-energy first-order condition
    f_i = -T f'(a_i / vol); the left side is strictly increasing in u, so a
    sign-safe bisection suffices. Vacuum cells drive u far negative and
    exp(u) underflows to an exact zero.
    """
    A = T * m / ((m - 1.0) * vol ** (m - 1.0))
    k = m - 1.0

    def shifted(u):
        return eps * u + A * np.exp(k * u) - M

    # M/eps always bounds the root from above (the exponential term is
    # positive there, overflow to +inf keeps the sign usable)
    hi = M / eps
    lo = np.minimum(hi - 1.0, -1.0)
    for _ in range(130):
        low_side = shifted(lo) < 0.0
        if low_side.all():
            break
        lo = np.where(low_side, lo, 2.0 * lo - 1.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        neg = shifted(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def _scaling_solve(b_log: np.ndarray, r_log: np.ndarray, cmat: np.ndarray, levels: list,
                   T: float, energy: Energy, vol: float, tilt: np.ndarray, f: np.ndarray):
    """Block dual ascent on min <C,P> + eps KL(P | r x b) + T sum f(row mass / vol) vol - tilt . a.

    The column marginal is pinned to b = exp(b_log); rows are free and
    priced by the energy plus a linear pull tilt per unit mass. The
    reference plan is the product of b with the floored prior
    r = exp(r_log) = max(b, _PRIOR_FLOOR), so the KL term penalizes
    deviation of the row marginal from the anchor instead of its absolute
    entropy; an absolute-entropy reference would add eps/T times the
    entropy to the effective energy and visibly speed up the limit flow.
    The floor keeps rows outside the anchor's support reachable (their
    prior handicap eps log(_PRIOR_FLOOR) vanishes with eps).

    ``_scaling`` runs over the widths ``levels``, its row prox f_i = tilt_i -
    T f'(a_i / vol) closed-form for entropy and bisected for power energies.
    Returns (row masses a, f, g, residual, sweeps), the residual being the
    L1 gap between the row masses of the plan (f, g) and a.
    """
    log_vol = math.log(vol)

    def energy_prox(s, eps):
        M = -s
        if energy.kind == "entropy":
            u = (M + tilt + eps * r_log + T * (log_vol - 1.0)) / (eps + T)
        else:
            u = _power_log_mass(M + tilt + eps * r_log, eps, T, energy.m, vol)
        return eps * (u - r_log) - M, np.exp(u)

    f, g, a, residual, sweeps = _scaling(partial(softmin, cmat), f, r_log, b_log, levels,
                                         energy_prox, _INNER_TOL, _MAX_INNER)
    if not np.isfinite(a).all():
        raise StepError("inner solver produced non-finite masses", residual=residual)
    return a, f, g, residual, sweeps


def _candidate_field(a: np.ndarray, grid: Grid) -> np.ndarray:
    """Row masses to a unit-mass density (the simplex projection)."""
    total = a.sum()
    if not total > 0:
        raise ProjectionError("inner solver produced an empty density")
    return (a / (total * grid.cell_volume)).reshape(grid.shape)


def _dual_value(cmat: np.ndarray, f: np.ndarray, g: np.ndarray, x: np.ndarray, y: np.ndarray,
                x_log: np.ndarray, y_log: np.ndarray, eps: float, ref_mass: float):
    """Dual value f.x + g.y + eps (ref_mass - mass(P)) over cells with mass, and <C,P>.

    P is the plan of (f, g) against the reference exp(x_log) x exp(y_log).
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        plan = np.exp(log_plan(cmat, f, g, x_log, y_log, eps))
    value = (float((f[x > 0] * x[x > 0]).sum()) + float((g[y > 0] * y[y > 0]).sum())
             + eps * (ref_mass - float(plan.sum())))
    return value, float((plan * cmat).sum())


def _pinned_value(a_log: np.ndarray, b_log: np.ndarray, r_log: np.ndarray,
                  cmat: np.ndarray, eps: float, f: np.ndarray):
    """Entropic transport between pinned marginals, against the r x b reference.

    ``_scaling`` fits f for min <C,P> + eps KL(P | r x b) with marginals
    a = exp(a_log), b = exp(b_log) to a row-mass L1 gap of ``_INNER_TOL``.
    Returns (dual value, plan cost <C,P>, f, g, residual, sweeps). The dual
    value f.a + g.b + eps (sum r - mass(P)) is what descent comparisons use;
    one evaluator on both sides cancels its bias.
    """
    a = np.exp(a_log)
    # rows without mass carry f = -inf and no marginal error
    f, g, _, residual, sweeps = _scaling(
        partial(softmin, cmat), np.where(a > 0, f, -np.inf), r_log, b_log, [eps],
        lambda s, eps: (eps * (a_log - r_log) + s, a), _INNER_TOL, _MAX_INNER)
    value, plan_cost = _dual_value(cmat, f, g, a, np.exp(b_log), r_log, b_log, eps,
                                   float(np.exp(r_log).sum()))
    if not math.isfinite(value):
        raise StepError("transport evaluation produced a non-finite value",
                        residual=residual)
    return value, plan_cost, f, g, residual, sweeps


def _sym_solve(a_log: np.ndarray, r_log: np.ndarray, cmat: np.ndarray,
               eps: float, u: np.ndarray, cap: int):
    """Self-transport potential and value for marginal a against the r x r reference.

    ``_fixed_point`` iterates the map u <- F(u) of the symmetric marginal
    condition for min <C,Q> + eps KL(Q | r x r) over plans with both
    marginals a = exp(a_log), to a mass-weighted |F(u) - u| / eps of
    ``_INNER_TOL``; the mixing damps the plain map's oscillation. The minimizer's potential
    is the gradient of a |-> OT_eps(a, a) / 2, which the blur correction and
    the debiased descent comparison need. Returns (dual value, u, residual,
    sweeps); the dual value is 2 u.a + eps (mass(r x r) - mass(Q)).
    """
    a = np.exp(a_log)
    live = a > 0

    def sweep(u):
        fu = eps * (a_log - r_log) + softmin(cmat, u, r_log, eps, 1)
        return fu, float((np.abs(fu - u)[live] * a[live]).sum() / eps), None

    u, residual, sweeps, _ = _fixed_point(sweep, np.where(live, u, -np.inf), _INNER_TOL, cap)
    r_mass = float(np.exp(r_log).sum())
    value, _ = _dual_value(cmat, u, u, a, a, r_log, r_log, eps, r_mass * r_mass)
    if not math.isfinite(value):
        raise StepError("self-transport evaluation produced a non-finite value",
                        residual=residual)
    return value, u, residual, sweeps


def _jko_step_full(rho_k: DensityField, config: JKOConfig,
                   warm: tuple | None = None) -> tuple[DensityField, _StepInfo, tuple | None]:
    grid = rho_k.grid
    if grid.d != 1:
        raise DomainError("the scheme runs on 1-d grids")
    _check_probability(rho_k)
    cost = power_cost(config.p, grid.cost_radius)
    tau_pow = config.tau ** (config.p - 1.0)
    vol = grid.cell_volume

    cmat = _cost_matrix(cost, grid.cell_centers(), grid.cell_centers())
    b = rho_k.values.reshape(-1) * vol
    with np.errstate(divide="ignore"):
        b_log = np.log(b)
    r_log = np.maximum(b_log, math.log(_PRIOR_FLOOR))
    r_mass = float(np.exp(r_log).sum())

    if warm is not None:
        f, u = warm
        levels = [config.eps]
    else:
        f = u = np.zeros(grid.num_cells)
        levels = _eps_ladder(config.eps, float(cmat.max()))

    # anchor self-potential at the working width; its negative gradient is
    # the blur each transport solve at this width would otherwise inject
    iterations = 0
    for index, eps in enumerate(levels):
        cap = _MAX_INNER if index == len(levels) - 1 else _WARM_CAP
        sym_anchor, u, sym_res, sweeps = _sym_solve(b_log, r_log, cmat, eps, u, cap)
        iterations += sweeps
    if not sym_res <= _INNER_TOL:
        raise StepError(
            f"self-potential iteration did not converge at width {config.eps:g}",
            residual=sym_res,
        )
    tilt = np.where(b > 0, u, u[b > 0].min())

    # coarse warm-up widths only seed the potentials; the last width is the
    # one whose minimizer becomes the candidate
    a, f, g, residual, sweeps = _scaling_solve(
        b_log, r_log, cmat, levels, tau_pow, config.energy, vol, tilt, f)
    iterations += sweeps
    if not residual <= _INNER_TOL:
        raise StepError(
            f"inner solver did not converge within {_MAX_INNER} sweeps at width {config.eps:g}",
            residual=residual,
        )
    candidate = _candidate_field(a, grid)

    # descent check for the blur-corrected step objective
    # G(rho) = OT(rho, anchor) - OT(rho, rho)/2 + tau^(p-1) E(rho) at the
    # working width: the anchor's tilt is the linearization of the
    # subtracted self term, so the accepted candidate cannot lie above the
    # anchor (convexity of both transport values); matching evaluators on
    # both sides cancel their biases in the comparison. Two shortcuts keep
    # the fast path at one extra solve: with equal marginals the pinned and
    # self problems share their optimal plan, so the anchor's transport
    # value follows from the self value by a closed-form offset, and the
    # converged step potentials are already optimal for the candidate's
    # pinned problem, so its value reads off them directly. A rejected
    # shortcut trial is re-checked once with the full evaluator before any
    # damping, and a step that cannot help returns the anchor itself.
    live = b > 0
    offset = config.eps * (r_mass - r_mass * r_mass
                           + float((b[live] * (r_log[live] - b_log[live])).sum()))
    g_anchor = 0.5 * sym_anchor + offset + tau_pow * energy_value(rho_k, config.energy)

    value_joint, plan_cost_joint = _dual_value(
        cmat, f, g, candidate.reshape(-1) * vol, b, r_log, b_log, config.eps, r_mass)

    current = rho_k
    transport_current = 0.0
    objective_current = g_anchor
    u_next = u
    f_a = f
    theta = 1.0
    trial_vals = candidate
    shortcut = True
    for _ in range(_DESCENT_TRIALS):
        trial_field = DensityField(grid, trial_vals)
        with np.errstate(divide="ignore"):
            a_log_trial = np.log(trial_vals.reshape(-1) * vol)
        if shortcut:
            g_trial, plan_cost = value_joint, plan_cost_joint
        else:
            g_trial, plan_cost, f_a, _, _, sw = _pinned_value(
                a_log_trial, b_log, r_log, cmat, config.eps, f_a)
            iterations += sw
        sym_trial, u_trial, _, sw = _sym_solve(a_log_trial, r_log, cmat, config.eps, u,
                                               _MAX_INNER)
        iterations += sw
        g_trial += tau_pow * energy_value(trial_field, config.energy) - 0.5 * sym_trial
        if g_trial <= g_anchor + _DESCENT_SLACK * tau_pow:
            current = trial_field
            transport_current = plan_cost / tau_pow
            objective_current = g_trial
            u_next = u_trial
            break
        if shortcut:
            shortcut = False
            continue
        theta *= 0.5
        trial_vals = (1.0 - theta) * rho_k.values + theta * candidate

    return current, _StepInfo(transport_current, residual,
                              objective_current / tau_pow, g_anchor / tau_pow,
                              iterations), (f, u_next)


def jko_step(rho_k: DensityField, config: JKOConfig) -> DensityField:
    """One minimizing-movement step from rho_k.

    The returned density has unit mass, is nonnegative, and never increases
    the step objective beyond solver slack; a step that cannot make progress
    returns rho_k itself (the objective's minimizer may be the anchor, e.g.
    at the uniform fixed point of the entropy flow).
    """
    state, _, _ = _jko_step_full(rho_k, config)
    return state


def run_jko(rho_0: DensityField, config: JKOConfig) -> Trajectory:
    """Iterate the scheme for ``config.steps`` steps, recording diagnostics.

    A step failure stops the run and returns the trajectory up to the last
    good state with the failure recorded in ``error``; partial trajectories
    still satisfy all per-state invariants.
    """
    _check_probability(rho_0)
    densities = [rho_0]
    times = [0.0]
    tv = [rho_0.tv()]
    energies = [energy_value(rho_0, config.energy)]
    costs = [0.0]
    residuals = [0.0]
    error = ""
    warm = None
    for k in range(config.steps):
        try:
            state, info, warm = _jko_step_full(densities[-1], config, warm)
        except StepError as exc:
            error = f"step {k + 1}: {exc}"
            break
        densities.append(state)
        times.append((k + 1) * config.tau)
        tv.append(state.tv())
        energies.append(energy_value(state, config.energy))
        costs.append(info.transport_cost)
        residuals.append(info.residual)
    return Trajectory(
        densities=tuple(densities),
        times=tuple(times),
        tv=tuple(tv),
        energy=tuple(energies),
        cost=tuple(costs),
        residual=tuple(residuals),
        error=error,
    )


def stable_dt(rho: DensityField, p: float, energy: Energy) -> float:
    """Conservative explicit time step 0.2 Δ^q / max-slope for the limit PDE.

    The slope factor is the face-linearized diffusivity (q-1) |Δw|^(q-2)
    g'(u) with w = g(u) and the larger neighbor value of g'(u) per face;
    for q = 2 it reduces to the classical 0.2 Δ^2 / max g'(u).
    """
    if rho.grid.d != 1:
        raise DomainError("the reference solver runs on 1-d grids")
    q = p / (p - 1.0)
    spacing = rho.grid.spacing[0]
    u = rho.values
    w = energy.g(u, p)
    dw = np.abs(np.diff(w))
    gp = energy.g_prime(u, p)
    gp_face = np.maximum(gp[:-1], gp[1:])
    if q == 2.0:
        slope = gp_face
    else:
        active = dw > 0
        slope = np.zeros_like(dw)
        slope[active] = (q - 1.0) * dw[active] ** (q - 2.0) * gp_face[active]
    peak = float(slope.max()) if slope.size else 0.0
    if peak <= 0:
        return float("inf")
    return 0.2 * spacing**q / peak


def reference_pde_solve(rho_0: DensityField, p: float, energy: Energy,
                        dt: float, steps: int, record_every: int = 1) -> Trajectory:
    """Explicit flux-form finite differences for ∂_t u = (|w_x|^(q-2) w_x)_x, w = g(u).

    Zero-flux boundaries conserve mass exactly (telescoping flux sum); the
    time step must respect the conservative stability bound of ``stable_dt``
    evaluated at the initial data. Diffusion only shrinks slopes here, so
    the initial bound is the binding one. ``steps`` explicit steps are
    taken; the trajectory holds the state after every ``record_every``-th
    of them (which must divide ``steps``), the initial state first. Every
    step is checked for blow-up and negative density either way.
    """
    grid = rho_0.grid
    if grid.d != 1:
        raise DomainError("the reference solver runs on 1-d grids")
    if not dt > 0 or steps < 0:
        raise ParameterError("need dt > 0 and steps >= 0")
    if record_every < 1 or steps % record_every != 0:
        raise ParameterError(
            f"record_every = {record_every} must be a positive divisor of steps = {steps}")
    bound = stable_dt(rho_0, p, energy)
    if dt > bound * (1.0 + 1e-12):
        raise ParameterError(
            f"dt = {dt:.3e} violates the stability bound {bound:.3e}"
        )
    q = p / (p - 1.0)
    spacing = grid.spacing[0]
    mass_0 = rho_0.mass

    u = rho_0.values.copy()
    states = [rho_0]
    for step in range(steps):
        dw = np.diff(energy.g(u, p))
        s = dw / spacing
        flux = np.abs(s) ** (q - 2.0) * s if q != 2.0 else s
        flux[dw == 0.0] = 0.0
        div = np.zeros_like(u)
        div[:-1] += flux
        div[1:] -= flux
        u = u + (dt / spacing) * div
        if not np.all(np.isfinite(u)):
            raise ParameterError(f"solution blew up at step {step + 1}; reduce dt")
        if u.min() < -1e-12:
            raise ParameterError(
                f"negative density {u.min():.3e} at step {step + 1}; reduce dt"
            )
        u = np.maximum(u, 0.0)
        if (step + 1) % record_every == 0:
            states.append(DensityField(grid, u))
    drift = abs(states[-1].mass - mass_0)
    if drift > 1e-10:
        raise ParameterError(f"mass drifted by {drift:.3e} across the run")
    return Trajectory(
        densities=tuple(states),
        times=tuple(k * record_every * dt for k in range(len(states))),
        tv=tuple(f.tv() for f in states),
        energy=tuple(energy_value(f, energy) for f in states),
        cost=(0.0,) * len(states),
        residual=(0.0,) * len(states),
    )


def aligned_dt(rho_0: DensityField, config: JKOConfig) -> float:
    """Largest stable dt such that tau and tau/2 are both whole multiples of it."""
    bound = stable_dt(rho_0, config.p, config.energy)
    if not np.isfinite(bound):
        return config.tau / 2.0
    halves = max(1, math.ceil(config.tau / (2.0 * bound)))
    return config.tau / (2.0 * halves)


@dataclass(frozen=True)
class JKOPDEReport:
    """Checkpointed L1 distances between the scheme and the PDE reference."""

    times: tuple
    distances: tuple
    refined_distances: tuple
    tau: float
    dt: float
    refinement_ok: bool

    @property
    def final_distance(self) -> float:
        return self.distances[-1]

    @property
    def refined_final_distance(self) -> float:
        return self.refined_distances[-1]


def _l1_distance(a: DensityField, b: DensityField) -> float:
    return float(np.abs(a.values - b.values).sum() * a.grid.cell_volume)


def jko_vs_pde_report(trajectory: Trajectory, config: JKOConfig, dt: float,
                      refine: bool = True) -> JKOPDEReport:
    """Compare a completed scheme run against the PDE reference at 5 shared checkpoints.

    ``trajectory`` is the ``run_jko`` result for ``config``; the reference
    starts from its first state. ``dt`` must divide tau (and tau/2 when
    ``refine`` is set) so checkpoint times exist in both discretizations;
    ``aligned_dt`` constructs such a step. The refined pass reruns the
    scheme at tau/2 over the same horizon and must not increase the
    final-checkpoint distance.
    """
    rho_0 = trajectory.densities[0]
    if rho_0.grid.d != 1:
        raise DomainError("the comparison runs on 1-d grids")
    if config.steps < 1:
        raise ParameterError("need at least one step to compare")
    ratio = config.tau / dt
    substeps = round(ratio)
    if substeps < 1 or abs(ratio - substeps) > 1e-9 * ratio:
        raise ParameterError(f"dt = {dt:.3e} must divide tau = {config.tau:.3e}")
    if refine and substeps % 2 != 0:
        raise ParameterError("refinement needs tau/dt even so tau/2 stays aligned")
    if trajectory.error:
        raise StepError(f"scheme run failed: {trajectory.error}", residual=float("nan"))
    if len(trajectory) != config.steps + 1:
        raise ParameterError(
            f"trajectory has {len(trajectory)} states, the config asks for {config.steps + 1}"
        )

    k_checks = sorted({round(j * config.steps / 4.0) for j in range(5)})
    reference = reference_pde_solve(rho_0, config.p, config.energy, dt,
                                    steps=config.steps * substeps, record_every=substeps)
    times = tuple(k * config.tau for k in k_checks)
    distances = tuple(
        _l1_distance(trajectory.densities[k], reference.densities[k]) for k in k_checks
    )
    refined_distances = ()
    refinement_ok = True
    if refine:
        half = dataclasses.replace(config, tau=config.tau / 2.0, steps=config.steps * 2)
        traj_half = run_jko(rho_0, half)
        if traj_half.error:
            raise StepError(f"refined run failed: {traj_half.error}", residual=float("nan"))
        refined_distances = tuple(
            _l1_distance(traj_half.densities[2 * k], reference.densities[k]) for k in k_checks
        )
        refinement_ok = refined_distances[-1] <= distances[-1] + 1e-12
    return JKOPDEReport(
        times=times,
        distances=distances,
        refined_distances=refined_distances,
        tau=config.tau,
        dt=dt,
        refinement_ok=refinement_ok,
    )


def write_trajectory_dir(path, trajectory: Trajectory, densities: bool = True) -> None:
    """Write trace.csv (step, time, tv, energy, cost, residual) and state CSVs."""
    os.makedirs(path, exist_ok=True)
    columns = (trajectory.times, trajectory.tv, trajectory.energy, trajectory.cost,
               trajectory.residual)
    rows = [("step", "time", "tv", "energy", "cost", "residual")]
    rows += [(k, *values) for k, values in enumerate(np.column_stack(columns).tolist())]
    if trajectory.error:
        rows.append((f"# error: {trajectory.error}",))
    write_rows(os.path.join(path, "trace.csv"), rows)
    if densities:
        for k, state in enumerate(trajectory.densities):
            write_field_csv(
                os.path.join(path, f"density_{k:04d}.csv"),
                state.grid, state.values, value_header="rho",
            )

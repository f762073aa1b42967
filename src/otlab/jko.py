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
by Newton's method on the Wright omega equation for power energies. The
row marginal of the converged plan is the next iterate.

The step runs ``ot_core._scaling``, the entropic solver's loop, with its
own row update; the self-transport runs its symmetric map through
``ot_core._over_widths``, the width ladder under that loop. Cold starts walk the widths of ``ot_core._eps_ladder``; every solve
stops at ``_INNER_TOL`` within ``_MAX_INNER`` sweeps at eps. All of them
sweep through one ``ot_core._AnchoredKernel`` per flow, whose ``cmat`` is the
flow's cost matrix. Dual values take their plan's mass from the last sweep
(``ot_core._plan_mass``), so a step builds one plan: the accepted
candidate's.

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
G. The step verifies that once, through matched dual evaluations, and a
candidate above the anchor beyond ``_DESCENT_SLACK`` tau^(p-1) is an
inexact solve: the step raises StepError with that margin instead of
moving.

The smoothing width is a modeling parameter, not only a solver tolerance:
transport between densities on a common grid cannot move mass more cheaply
than h(cell width) per unit, so the unsmoothed discrete step problem pins
every density whose energy gradient is below that quantization threshold,
and the scheme would stall long before the flow equilibrates. A width at
the scale of the squared cell width restores the continuum behavior the
limit PDE has, which is why eps defaults stay near Delta^2 rather than 0.

The scheme discretizes ∂_t u = Δ_q(g(u)) with q = p/(p-1) and g the
diffusion transform of the energy. ``jko_vs_pde_report`` benchmarks it
against that limit PDE. For p = 2 with the entropy energy the PDE is the
heat equation, linear, and ``exact_heat_solve`` gives its semi-discrete
solution exactly in time from the cosine eigenbasis of the Neumann
Laplacian; a comparison there takes no dt. Every other (p, energy) takes
the explicit flux-form finite-difference steps of ``reference_pde_solve``
at the step of ``aligned_dt``. Both references return the states at the
checkpoint times.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cost import power_cost
from .errors import DomainError, InputError, ParameterError, StepError
from .geometry import DensityField, Grid, write_field_csv, write_rows
from .ot_core import (_AnchoredKernel, _cost_matrix, _eps_ladder, _over_widths, _plan_mass,
                      _row_blocks, _scaling, log_plan)

# s log s at s = 0 is the limit 0; the floor keeps the evaluation finite
# without moving the value at any density above it.
_ENTROPY_FLOOR = 1e-12

# a step's objective may exceed its anchor's by this times tau^(p-1)
_DESCENT_SLACK = 1e-10

# floor of the step problem's reference prior r = max(b, _PRIOR_FLOOR)
_PRIOR_FLOOR = 1e-30

# inner solves: the residual that ends them, their sweep cap at the working width
_INNER_TOL = 1e-8
_MAX_INNER = 4000

# power-energy prox: below _OMEGA_TAIL the Wright omega function is e^z to
# double precision; Newton's method stops on a step of _NEWTON_STEP_TOL
# relative, which leaves an error below its square, or fails after _NEWTON_CAP
_OMEGA_TAIL = -30.0
_NEWTON_STEP_TOL = 1e-10
_NEWTON_CAP = 50

# the explicit PDE reference of a comparison takes at most this many steps
# over the run's horizon, about 2.5 min at 15 us a step (n <= 512, one Xeon core)
_MAX_REFERENCE_STEPS = 10**7


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
    g: Callable = field(repr=False)
    g_prime: Callable = field(repr=False)
    m: float | None = None


def entropy_energy() -> Energy:
    def f(s):
        s = np.asarray(s, dtype=float)
        return s * np.log(np.maximum(s, _ENTROPY_FLOOR))

    def g(s, p):
        return np.asarray(s, dtype=float) ** (p - 1.0) / (p - 1.0)

    def g_prime(s, p):
        return np.maximum(np.asarray(s, dtype=float), _ENTROPY_FLOOR) ** (p - 2.0)

    return Energy("entropy", f, g, g_prime)


def power_energy(m: float) -> Energy:
    """Power energy f(s) = s^m/(m-1); requires m > 1 (convex, superlinear)."""
    m = float(m)
    if not m > 1:
        raise ParameterError(f"power energy needs m > 1, got {m}")

    def f(s):
        return np.asarray(s, dtype=float) ** m / (m - 1.0)

    def g(s, p):
        return m * np.asarray(s, dtype=float) ** (p + m - 2.0) / (p + m - 2.0)

    def g_prime(s, p):
        return m * np.asarray(s, dtype=float) ** (p + m - 3.0)

    return Energy("power", f, g, g_prime, m=m)


def energy_value(rho: DensityField, energy: Energy) -> float:
    """Midpoint-rule internal energy sum f(rho) vol."""
    return float(energy.f(rho.values).sum() * rho.grid.cell_volume)


@dataclass(frozen=True)
class JKOConfig:
    """Scheme parameters: cost exponent, step size, horizon, energy, entropic width.

    ``eps`` is the entropic width of the inner step problem, whose
    ``ot_core._scaling`` solve takes at most ``_MAX_INNER`` sweeps at that
    width and stops once the L1 gap between its plan's row masses and the
    candidate masses is at most ``_INNER_TOL``. A candidate that fails the
    descent comparison raises StepError; a step never returns the previous
    iterate in its place.
    """

    p: float
    tau: float
    steps: int
    energy: Energy
    eps: float = 1e-4

    def __post_init__(self):
        if not 1 < self.p < np.inf:
            raise ParameterError(f"cost exponent must be finite and exceed 1, got {self.p}")
        if not 0 < self.tau < np.inf:
            raise ParameterError(f"time step must be finite and positive, got {self.tau}")
        if self.steps < 0:
            raise ParameterError(f"step count must be nonnegative, got {self.steps}")
        if not isinstance(self.energy, Energy):
            raise ParameterError("energy must be an Energy descriptor")
        if not 0 < self.eps < np.inf:
            raise ParameterError(f"entropic width must be finite and positive, got {self.eps}")


@dataclass(frozen=True)
class Trajectory:
    """States of one flow run plus per-state diagnostics.

    ``cost[k]`` is the transport term of step k and ``residual[k]`` its scaling
    solve's L1 row-mass gap (both 0 where no step ran); a non-empty ``error``
    marks a run aborted at ``len(densities) - 1`` states after the failure.
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
    inner_iterations: int


def _check_probability(rho: DensityField) -> None:
    if abs(rho.mass - 1.0) > 1e-8:
        raise InputError(f"density mass {rho.mass:.3e} is not 1")


def _power_log_mass(M: np.ndarray, eps: float, T: float, m: float, vol: float) -> np.ndarray:
    """Per-cell root u of eps u + A exp((m-1) u) = M, A = T m / ((m-1) vol^(m-1)).

    u is the log cell mass of the power-energy first-order condition
    f_i = -T f'(a_i / vol). With k = m - 1 and c = log(A k / eps), the root
    is u = (s - c) / k where s solves e^s + s = z, z = c + k M / eps: e^s is
    the Wright omega function of z (Corless et al., Adv. Comput. Math.
    1996). g(s) = e^s + s - z is convex and increasing, so Newton's method
    from s = log(softplus(z)), which is at least the root, falls to it
    monotonically; below z = _OMEGA_TAIL, omega(z) = e^z to double precision
    and s starts at z. It stops once every step is at most _NEWTON_STEP_TOL
    relative to max(1, |s|), and raises StepError after _NEWTON_CAP steps.
    Vacuum cells drive u far negative and exp(u) underflows to an exact
    zero; a non-finite z passes through.
    """
    k = m - 1.0
    c = math.log(T * m / eps) - k * math.log(vol)
    z = c + k * (M / eps)
    s = z.copy()
    live = np.isfinite(z)
    zl = z[live]
    sl = np.where(zl < _OMEGA_TAIL, zl, np.log(np.logaddexp(0.0, np.maximum(zl, _OMEGA_TAIL))))
    for _ in range(_NEWTON_CAP):
        es = np.exp(sl)
        step = (es + sl - zl) / (es + 1.0)
        sl -= step
        if (np.abs(step) <= _NEWTON_STEP_TOL * np.maximum(1.0, np.abs(sl))).all():
            break
    else:
        raise StepError(f"power-energy prox did not converge in {_NEWTON_CAP} Newton steps",
                        residual=float(np.abs(step).max()))
    s[live] = sl
    return (s - c) / k


def _scaling_solve(b_log: np.ndarray, r_log: np.ndarray, kernel, levels: list,
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

    ``_scaling`` runs the sweep kernel ``kernel`` over the widths
    ``levels``, its row prox f_i = tilt_i - T f'(a_i / vol) closed-form for
    entropy and by the Newton iteration of ``_power_log_mass`` for power
    energies. Returns (row masses a, f, g, residual, sweeps, mass of the plan
    (f, g)), the residual being the L1 gap between the row masses of that
    plan and a.
    """
    log_vol = math.log(vol)

    def energy_prox(s, eps):
        M = -s
        if energy.kind == "entropy":
            u = (M + tilt + eps * r_log + T * (log_vol - 1.0)) / (eps + T)
        else:
            u = _power_log_mass(M + tilt + eps * r_log, eps, T, energy.m, vol)
        return eps * (u - r_log) - M, np.exp(u)

    f, g, a, residual, sweeps, plan_mass = _scaling(kernel, f, r_log, b_log, levels,
                                                    energy_prox, _INNER_TOL, _MAX_INNER)
    if not np.isfinite(a).all():
        raise StepError("inner solver produced non-finite masses", residual=residual)
    return a, f, g, residual, sweeps, plan_mass


def _dual_value(f: np.ndarray, g: np.ndarray, x: np.ndarray, y: np.ndarray,
                plan_mass: float, eps: float, ref_mass: float) -> float:
    """Dual value f.x + g.y + eps (ref_mass - plan_mass) over cells with mass.

    ``plan_mass`` is the mass of the plan of (f, g), which the sweep that
    ended the solve of (f, g) measured.
    """
    return (float((f[x > 0] * x[x > 0]).sum()) + float((g[y > 0] * y[y > 0]).sum())
            + eps * (ref_mass - plan_mass))


def _pinned_value(a_log: np.ndarray, b_log: np.ndarray, r_log: np.ndarray, eps: float,
                  f: np.ndarray, kernel):
    """Entropic transport between pinned marginals, against the r x b reference.

    ``_scaling`` on the sweep kernel ``kernel`` fits f for
    min <C,P> + eps KL(P | r x b) with marginals a = exp(a_log),
    b = exp(b_log) to a row-mass L1 gap of ``_INNER_TOL``. Returns
    (dual value, f, g, residual, sweeps). The dual value is
    f.a + g.b + eps (sum r - mass(P)), with mass(P) the row sums of the
    last sweep, so no plan is built. No step calls it: the step's descent
    check reads the candidate's value off the converged step potentials,
    and this full evaluator is the reference the tests hold that shortcut
    against.
    """
    a = np.exp(a_log)
    # rows without mass carry f = -inf and no marginal error
    f, g, _, residual, sweeps, plan_mass = _scaling(
        kernel, np.where(a > 0, f, -np.inf), r_log, b_log, [eps],
        lambda s, eps: (eps * (a_log - r_log) + s, a), _INNER_TOL, _MAX_INNER)
    value = _dual_value(f, g, a, np.exp(b_log), plan_mass, eps, float(np.exp(r_log).sum()))
    if not math.isfinite(value):
        raise StepError("transport evaluation produced a non-finite value",
                        residual=residual)
    return value, f, g, residual, sweeps


def _sym_solve(a_log: np.ndarray, r_log: np.ndarray, levels: list, u: np.ndarray, kernel):
    """Self-transport potential and value for marginal a against the r x r reference.

    ``_over_widths`` iterates the map u <- F(u) of the symmetric marginal
    condition for min <C,Q> + eps KL(Q | r x r) over plans with both
    marginals a = exp(a_log), through the widths ``levels``, to a
    mass-weighted |F(u) - u| / eps of ``_INNER_TOL``; the mixing damps the
    plain map's oscillation. The minimizer's potential is the gradient of
    a |-> OT_eps(a, a) / 2, which the blur correction and the debiased
    descent comparison need. ``kernel`` is the sweep kernel. Returns
    (dual value, u, residual, sweeps); the dual value at the last width is
    2 u.a + eps (mass(r x r) - mass(Q)), where Q, the plan of (u, u), has
    row sums a exp((u - F(u))/eps) at the last sweep.
    """
    a = np.exp(a_log)
    live = a > 0

    def sweep(u, eps):
        fu = eps * (a_log - r_log) + kernel(u, r_log, eps, 1)
        return fu, float((np.abs(fu - u)[live] * a[live]).sum() / eps), fu

    u, residual, sweeps, fu = _over_widths(sweep, np.where(live, u, -np.inf), levels,
                                           _INNER_TOL, _MAX_INNER)
    r_mass = float(np.exp(r_log).sum())
    value = _dual_value(u, u, a, a, _plan_mass(a, u, fu, levels[-1]), levels[-1], r_mass * r_mass)
    if not math.isfinite(value):
        raise StepError("self-transport evaluation produced a non-finite value",
                        residual=residual)
    return value, u, residual, sweeps


def check_scheme_grid(d: int) -> None:
    """Raise unless the scheme runs on a ``d``-dimensional grid; needs no run of the flow."""
    if d != 1:
        raise DomainError("the scheme runs on 1-d grids")


def _step_kernel(grid: Grid, config: JKOConfig) -> _AnchoredKernel:
    """Sweep kernel of the steps of ``config`` on ``grid``; its ``cmat`` is their cost matrix.

    The grid never changes along a flow, so ``run_jko`` builds it once and
    every step's solves share it.
    """
    check_scheme_grid(grid.d)
    cost = power_cost(config.p, grid.cost_radius)
    return _AnchoredKernel(_cost_matrix(cost, grid.cell_centers(), grid.cell_centers()))


def _plan_cost(cmat: np.ndarray, f: np.ndarray, g: np.ndarray, x_log: np.ndarray,
               y_log: np.ndarray, eps: float) -> float:
    """<C, P> of the ``log_plan`` P of (f, g), summed over the row blocks of C.

    No m x n plan is built. Up to ``_BLOCK_ENTRIES`` entries there is one
    block, whose sum is the dense product's sum bit for bit.
    """
    total = 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for start, stop in _row_blocks(*cmat.shape):
            rows = slice(start, stop)
            plan = np.exp(log_plan(cmat[rows], f[rows], g, x_log[rows], y_log, eps))
            total += float((plan * cmat[rows]).sum())
    return total


def _jko_step_full(rho_k: DensityField, config: JKOConfig, warm: tuple | None = None,
                   kernel=None) -> tuple[DensityField, _StepInfo, tuple | None]:
    """One step from rho_k with its diagnostics and the next step's warm start.

    ``kernel`` is the ``_step_kernel`` of rho_k's grid, built here when not
    given. The candidate is accepted when its blur-corrected step objective
    is at most the anchor's plus ``_DESCENT_SLACK`` tau^(p-1); otherwise
    StepError carries the margin (candidate - anchor) / tau^(p-1) as its
    residual. A converged solve whose plan mass differs from the pinned
    column mass by more than ``_INNER_TOL`` lost mass and raises StepError
    with that gap. Only the accepted candidate's plan is evaluated, for its
    transport cost, by ``_plan_cost``.
    """
    grid = rho_k.grid
    kernel = kernel or _step_kernel(grid, config)
    _check_probability(rho_k)
    tau_pow = config.tau ** (config.p - 1.0)
    vol = grid.cell_volume

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
        levels = _eps_ladder(config.eps, float(kernel.cmat.max()))

    # anchor self-potential at the working width; its negative gradient is
    # the blur each transport solve at this width would otherwise inject
    sym_anchor, u, sym_res, iterations = _sym_solve(b_log, r_log, levels, u, kernel)
    if not sym_res <= _INNER_TOL:
        raise StepError(
            f"self-potential iteration did not converge at width {config.eps:g}",
            residual=sym_res,
        )
    tilt = np.where(b > 0, u, u[b > 0].min())

    # coarse warm-up widths only seed the potentials; the last width is the
    # one whose minimizer becomes the candidate
    a, f, g, residual, sweeps, plan_mass = _scaling_solve(
        b_log, r_log, kernel, levels, tau_pow, config.energy, vol, tilt, f)
    iterations += sweeps
    if not residual <= _INNER_TOL:
        raise StepError(
            f"inner solver did not converge within {_MAX_INNER} sweeps at width {config.eps:g}",
            residual=residual,
        )
    # the column fit pins the plan's mass to the anchor's; a solve whose
    # masses all collapsed meets the row-gap test but not this one
    lost = abs(plan_mass - b.sum())
    if not lost <= _INNER_TOL:
        raise StepError(
            f"inner solver lost mass: its plan holds {plan_mass:.3e} against the pinned "
            f"column mass {b.sum():.3e}",
            residual=lost,
        )
    candidate = DensityField(grid, (a / (a.sum() * vol)).reshape(grid.shape))
    a_cand = candidate.values.reshape(-1) * vol

    # descent check for the blur-corrected step objective
    # G(rho) = OT(rho, anchor) - OT(rho, rho)/2 + tau^(p-1) E(rho) at the
    # working width: the anchor's tilt is the linearization of the
    # subtracted self term, so the converged candidate cannot lie above the
    # anchor (convexity of both transport values), and a miss beyond the
    # slack means an inexact solve, raised with its margin. Matching
    # evaluators on both sides cancel their biases in the comparison. Two
    # shortcuts keep the check at one extra solve, the candidate's self
    # solve: with equal marginals the pinned and self problems share their
    # optimal plan, so the anchor's transport value follows from the self
    # value by a closed-form offset, and the converged step potentials are
    # already optimal for the candidate's pinned problem, so its value
    # reads off them directly.
    live = b > 0
    offset = config.eps * (r_mass - r_mass * r_mass
                           + float((b[live] * (r_log[live] - b_log[live])).sum()))
    g_anchor = 0.5 * sym_anchor + offset + tau_pow * energy_value(rho_k, config.energy)
    with np.errstate(divide="ignore"):
        a_log = np.log(a_cand)
    sym_cand, u_next, _, sweeps = _sym_solve(a_log, r_log, [config.eps], u, kernel)
    iterations += sweeps
    g_cand = (_dual_value(f, g, a_cand, b, plan_mass, config.eps, r_mass)
              + (tau_pow * energy_value(candidate, config.energy) - 0.5 * sym_cand))
    if not g_cand <= g_anchor + _DESCENT_SLACK * tau_pow:
        margin = (g_cand - g_anchor) / tau_pow
        raise StepError(
            f"descent check failed: the step objective minus the anchor's is {margin:.3e} "
            f"tau^(p-1), above the slack {_DESCENT_SLACK:g}; the solves are inexact",
            residual=margin,
        )
    transport = _plan_cost(kernel.cmat, f, g, r_log, b_log, config.eps) / tau_pow
    return candidate, _StepInfo(transport, residual, iterations), (f, u_next)


def jko_step(rho_k: DensityField, config: JKOConfig) -> DensityField:
    """One minimizing-movement step from rho_k.

    The returned density has unit mass, is nonnegative, and never increases
    the step objective beyond solver slack; a candidate that would is an
    inexact solve and raises StepError with its margin. At a minimizer of
    the objective, e.g. the uniform fixed point of the entropy flow, the
    candidate stays at rho_k to solver tolerance.
    """
    state, _, _ = _jko_step_full(rho_k, config)
    return state


def run_jko(rho_0: DensityField, config: JKOConfig) -> Trajectory:
    """Iterate the scheme for ``config.steps`` steps, recording diagnostics.

    A step failure stops the run and returns the trajectory up to the last
    good state with the failure recorded in ``error``; partial trajectories
    still satisfy all per-state invariants. Every step shares one sweep
    kernel and its cost matrix, built before the first.
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
    kernel = _step_kernel(rho_0.grid, config) if config.steps else None
    for k in range(config.steps):
        try:
            state, info, warm = _jko_step_full(densities[-1], config, warm, kernel)
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
    for q = 2 it reduces to the classical 0.2 Δ^2 / max g'(u). It reads
    the slopes of ``rho`` alone. For q < 2 the diffusivity grows as slopes
    flatten, so a bound taken at initial data need not bind later on
    (ROADMAP item 13). On the smooth bump of acceptance criterion 9 (n = 128,
    p = 3, tau 1e-3) the bound falls within 15 reference steps to 0.63 of
    its initial value (power energy m = 2: 9.5e-8 to 6.0e-8; entropy: 6.0e-8
    to 3.8e-8), yet the run at the initial bound stays smooth and within
    8e-7 in L1 of a run at a quarter of that dt. For p = 1.5 and p = 2 the
    bound of no later state falls below the initial one.
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
                        dt: float, times) -> tuple:
    """Explicit flux-form finite differences for ∂_t u = (|w_x|^(q-2) w_x)_x, w = g(u).

    Returns the states at ``times``, which must be whole multiples of dt and
    must not decrease; a time of 0 gives rho_0 itself. Zero-flux boundaries
    conserve mass exactly (telescoping flux sum), and every returned state
    raises on a mass drift above 1e-10. dt must be within the conservative
    stability bound of ``stable_dt``, which is checked at rho_0 only. For
    q < 2 that bound need not bind: the diffusivity (q-1)|w_x|^(q-2) grows
    as slopes flatten, and a dt at the initial bound can grow a checkerboard
    that no check here trips (ROADMAP item 13). Every step, returned or not,
    is checked for blow-up and negative density.
    """
    grid = rho_0.grid
    if not dt > 0:
        raise ParameterError(f"need dt > 0, got {dt}")
    counts = []
    for t in times:
        if not t >= 0:
            raise ParameterError(f"times must be nonnegative, got {t}")
        ratio = t / dt
        count = round(ratio)
        if abs(ratio - count) > 1e-9 * ratio:
            raise ParameterError(f"time {t:.3e} is not a whole multiple of dt = {dt:.3e}")
        if counts and count < counts[-1]:
            raise ParameterError(
                f"times must not decrease: {t:.3e} follows {counts[-1] * dt:.3e}")
        counts.append(count)
    bound = stable_dt(rho_0, p, energy)
    if dt > bound * (1.0 + 1e-12):
        raise ParameterError(f"dt = {dt:.3e} violates the stability bound {bound:.3e}")
    q = p / (p - 1.0)
    spacing = grid.spacing[0]

    u = rho_0.values
    step = 0
    states = []
    for count in counts:
        while step < count:
            dw = np.diff(energy.g(u, p))
            # the power runs on moving faces only: |0|^(q-2) divides by zero for q < 2
            moving = dw != 0.0
            s = dw[moving] / spacing
            flux = np.zeros_like(dw)
            flux[moving] = np.abs(s) ** (q - 2.0) * s if q != 2.0 else s
            div = np.zeros_like(u)
            div[:-1] += flux
            div[1:] -= flux
            u = u + (dt / spacing) * div
            step += 1
            if not np.all(np.isfinite(u)):
                raise ParameterError(f"solution blew up at step {step}; reduce dt")
            if u.min() < -1e-12:
                raise ParameterError(f"negative density {u.min():.3e} at step {step}; reduce dt")
            u = np.maximum(u, 0.0)
        if count == 0:
            states.append(rho_0)
            continue
        state = DensityField(grid, u)
        drift = abs(state.mass - rho_0.mass)
        if drift > 1e-10:
            raise ParameterError(f"mass drifted by {drift:.3e} at t = {count * dt:.3e}")
        states.append(state)
    return tuple(states)


def _neumann_cosines(n: int, spacing: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenbasis (V, w, lam) of the cell-centred 3-point Neumann Laplacian on one axis.

    V[k, j] = cos(pi k (j + 1/2) / n) is the DCT-II basis, V^T diag(w) V = I
    with w = 1/n at k = 0 and 2/n above, and the Laplacian is
    V^T diag(-w lam) V with lam_k = (2 - 2 cos(pi k / n)) / spacing^2.
    """
    k = np.arange(n)
    basis = np.cos(np.pi * np.outer(k, k + 0.5) / n)
    weights = np.full(n, 2.0 / n)
    weights[0] = 1.0 / n
    return basis, weights, (2.0 - 2.0 * np.cos(np.pi * k / n)) / spacing**2


def _along_axes(values: np.ndarray, matrices: list) -> np.ndarray:
    """``values`` with ``matrices[a]`` applied along each axis a."""
    for axis, matrix in enumerate(matrices):
        values = np.moveaxis(np.tensordot(matrix, values, axes=(1, axis)), 0, axis)
    return values


def exact_heat_solve(rho_0: DensityField, times) -> tuple:
    """The states exp(t L) rho_0 of the semi-discrete heat flow at ``times``, exact in time.

    L is the cell-centred 3-point Laplacian with zero-flux walls on every
    axis, the operator whose explicit steps ``reference_pde_solve`` takes for
    p = 2 with the entropy energy; this is their dt -> 0 limit. The DCT-II
    cosines diagonalize it per axis (Strang, "The discrete cosine
    transform", SIAM Review 1999), so u(t) = V^T (w exp(-lam t) (V u_0)) on
    each axis with the dense n x n basis of ``_neumann_cosines``. There is
    no step and no stability bound. A time of 0 gives rho_0 itself; every
    other state raises on a negative entry below -1e-12, is clamped at 0,
    and raises on a mass drift above 1e-10.
    """
    grid = rho_0.grid
    axes = [_neumann_cosines(n, h) for n, h in zip(grid.shape, grid.spacing)]
    coefficients = _along_axes(rho_0.values, [basis for basis, _, _ in axes])
    states = []
    for t in times:
        if not t >= 0:
            raise ParameterError(f"times must be nonnegative, got {t}")
        if t == 0:
            states.append(rho_0)
            continue
        decay = np.ones(())
        for _, weights, lam in axes:
            decay = np.multiply.outer(decay, weights * np.exp(-lam * t))
        u = _along_axes(coefficients * decay, [basis.T for basis, _, _ in axes])
        if u.min() < -1e-12:
            raise ParameterError(f"negative density {u.min():.3e} at t = {t:.3e}")
        state = DensityField(grid, np.maximum(u, 0.0))
        drift = abs(state.mass - rho_0.mass)
        if drift > 1e-10:
            raise ParameterError(f"mass drifted by {drift:.3e} at t = {t:.3e}")
        states.append(state)
    return tuple(states)


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
    refinement_ok: bool


def _l1_distance(a: DensityField, b: DensityField) -> float:
    return float(np.abs(a.values - b.values).sum() * a.grid.cell_volume)


def comparison_steps(rho_0: DensityField, config: JKOConfig) -> float | None:
    """The reference step of ``jko_vs_pde_report`` for a run of ``config`` from rho_0.

    Every rule of a scheme-vs-PDE comparison, checked without running the
    flow: the grid is 1-d and there is at least one step. For p = 2 with the
    entropy energy the reference is ``exact_heat_solve``, exact in time, and
    the result is None. Otherwise it is ``aligned_dt``, which is stable at
    rho_0 and divides tau/2, and the explicit reference may take at most
    ``_MAX_REFERENCE_STEPS`` of them over the run's horizon. Raises
    DomainError or ParameterError.
    """
    if rho_0.grid.d != 1:
        raise DomainError("the comparison runs on 1-d grids")
    if config.steps < 1:
        raise ParameterError("need at least one step to compare")
    if config.p == 2.0 and config.energy.kind == "entropy":
        return None
    dt = aligned_dt(rho_0, config)
    count = config.steps * config.tau / dt
    if count > _MAX_REFERENCE_STEPS:
        raise ParameterError(
            f"the explicit reference would take {count:.3g} steps of dt = {dt:.3e}, "
            f"above the cap of {_MAX_REFERENCE_STEPS:.0e}")
    return dt


def jko_vs_pde_report(trajectory: Trajectory, config: JKOConfig,
                      refine: bool = True) -> JKOPDEReport:
    """Compare a completed scheme run against the PDE reference at 5 shared checkpoints.

    ``trajectory`` is the ``run_jko`` result for ``config``; the reference
    starts from its first state. It is ``exact_heat_solve`` for p = 2 with
    the entropy energy, and otherwise ``reference_pde_solve`` with the step
    of ``comparison_steps``. The refined pass reruns the scheme at tau/2
    over the same horizon and must not increase the final-checkpoint
    distance.
    """
    rho_0 = trajectory.densities[0]
    dt = comparison_steps(rho_0, config)
    if trajectory.error:
        raise StepError(f"scheme run failed: {trajectory.error}", residual=float("nan"))
    if len(trajectory) != config.steps + 1:
        raise ParameterError(
            f"trajectory has {len(trajectory)} states, the config asks for {config.steps + 1}"
        )

    k_checks = sorted({round(j * config.steps / 4.0) for j in range(5)})
    times = tuple(k * config.tau for k in k_checks)
    reference = (exact_heat_solve(rho_0, times) if dt is None
                 else reference_pde_solve(rho_0, config.p, config.energy, dt, times))
    distances = tuple(
        _l1_distance(trajectory.densities[k], state) for k, state in zip(k_checks, reference)
    )
    refined_distances = ()
    refinement_ok = True
    if refine:
        half = dataclasses.replace(config, tau=config.tau / 2.0, steps=config.steps * 2)
        traj_half = run_jko(rho_0, half)
        if traj_half.error:
            raise StepError(f"refined run failed: {traj_half.error}", residual=float("nan"))
        refined_distances = tuple(
            _l1_distance(traj_half.densities[2 * k], state)
            for k, state in zip(k_checks, reference)
        )
        refinement_ok = refined_distances[-1] <= distances[-1] + 1e-12
    return JKOPDEReport(
        times=times,
        distances=distances,
        refined_distances=refined_distances,
        refinement_ok=refinement_ok,
    )


def write_trajectory_dir(path, trajectory: Trajectory) -> None:
    """Write trace.csv (step, time, tv, energy, cost, residual) and state CSVs."""
    os.makedirs(path, exist_ok=True)
    columns = (trajectory.times, trajectory.tv, trajectory.energy, trajectory.cost,
               trajectory.residual)
    rows = [("step", "time", "tv", "energy", "cost", "residual")]
    rows += [(k, *values) for k, values in enumerate(np.column_stack(columns).tolist())]
    if trajectory.error:
        rows.append((f"# error: {trajectory.error}",))
    write_rows(os.path.join(path, "trace.csv"), rows)
    for k, state in enumerate(trajectory.densities):
        write_field_csv(
            os.path.join(path, f"density_{k:04d}.csv"),
            state.grid, state.values, value_header="rho",
        )

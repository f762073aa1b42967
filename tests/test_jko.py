"""Tests for the minimizing-movement scheme and its PDE reference."""

import json
import math
import os
import re
import tracemalloc
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from otlab import cli, geometry, jko
from otlab.cost import power_cost
from otlab.errors import (
    DomainError,
    InputError,
    ParameterError,
    StepError,
)
from otlab.geometry import DensityField, Grid, normalize, random_smooth_density
from otlab.ot_core import log_plan, solve_exact_1d

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bump_density(n=128, floor=0.05, sharpness=80.0):
    return geometry.bump_density(Grid(1, 0.0, 1.0, n), floor, sharpness)


def heat_config(steps, **overrides):
    params = dict(p=2.0, tau=1e-3, steps=steps, energy=jko.entropy_energy())
    params.update(overrides)
    return jko.JKOConfig(**params)


@pytest.fixture(scope="module")
def bump_run():
    """One 50-step entropy flow from the sharp bump, shared by the slow tests."""
    rho0 = bump_density()
    return rho0, jko.run_jko(rho0, heat_config(50))


class TestEnergy:
    def test_entropy_value_matches_quadrature(self):
        grid = Grid(1, 0.0, 1.0, 64)
        rho = random_smooth_density(grid, 7)
        expected = float(np.sum(rho.values * np.log(rho.values)) * grid.cell_volume)
        assert jko.energy_value(rho, jko.entropy_energy()) == pytest.approx(expected)

    def test_entropy_value_finite_at_zero_density(self):
        # s log s extends by its limit 0 at s = 0
        grid = Grid(1, 0.0, 1.0, 8)
        vals = np.zeros(8)
        vals[:4] = 2.0
        rho = DensityField(grid, vals)
        value = jko.energy_value(rho, jko.entropy_energy())
        assert math.isfinite(value)
        assert value == pytest.approx(2.0 * math.log(2.0) * 0.5, rel=1e-9)

    def test_power_value_matches_quadrature(self):
        grid = Grid(1, 0.0, 1.0, 64)
        rho = random_smooth_density(grid, 9)
        m = 3.0
        expected = float(np.sum(rho.values**m / (m - 1.0)) * grid.cell_volume)
        assert jko.energy_value(rho, jko.power_energy(m)) == pytest.approx(expected)

    def test_power_exponent_must_exceed_one(self):
        with pytest.raises(ParameterError):
            jko.power_energy(1.0)

    def test_diffusion_transform_entropy_is_identity(self):
        # g'(s) = s^(p-1) f''(s) = s^(p-1) / s = s^(p-2); for p = 2, g(s) = s
        energy = jko.entropy_energy()
        s = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(energy.g(s, 2.0), s)

    def test_diffusion_transform_power_closed_form(self):
        # g'(s) = s^(p-1) m s^(m-2), so g(s) = m s^(p+m-2) / (p+m-2)
        m, p = 2.0, 3.0
        energy = jko.power_energy(m)
        s = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(energy.g(s, p), m * s ** (p + m - 2.0) / (p + m - 2.0))


def decimal_log_mass(M, eps, T, m, vol):
    """Root u of eps u + A exp((m-1) u) = M by bisection in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, MAX_EMAX, MIN_EMIN
        M, eps, T, m, vol = map(Decimal, (M, eps, T, m, vol))
        k = m - 1
        A = T * m / (k * (k * vol.ln()).exp())

        def excess(u):
            return eps * u + A * (k * u).exp() - M

        hi = M / eps  # the exponential term is positive, so the root lies below
        lo = min(hi - 1, Decimal(-1))
        while excess(lo) >= 0:
            lo = 2 * lo - 1
        while hi - lo > Decimal("1e-30") * max(1, abs(lo)):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


class TestPowerProx:
    def test_matches_high_precision_bisection(self):
        # random (eps, T, m, vol) with M/eps over 12 decades of either sign:
        # the lattice reaches z < -30 (the e^z tail) and M/eps > 1e4
        rng = np.random.default_rng(17)
        tails = bigs = 0
        for _ in range(12):
            eps, T = 10 ** rng.uniform(-8, -1), 10 ** rng.uniform(-4, -1)
            m, vol = rng.uniform(1.2, 4.0), 10 ** rng.uniform(-3, -1)
            ratios = np.array([-1e6, -1e3, -40.0, -1.0, 0.0, 0.5, 3.0, 40.0, 2e4, 1e6])
            M = ratios * rng.uniform(0.5, 2.0) * eps
            z = math.log(T * m / eps) - (m - 1) * math.log(vol) + (m - 1) * M / eps
            tails += int((z < jko._OMEGA_TAIL).sum())
            bigs += int((M / eps > 1e4).sum())
            u = jko._power_log_mass(M, eps, T, m, vol)
            want = np.array([decimal_log_mass(x, eps, T, m, vol) for x in M])
            np.testing.assert_allclose(u, want, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(np.exp(u), np.exp(want), rtol=1e-13, atol=0.0)
        assert tails and bigs

    def test_non_finite_entries_pass_through(self):
        u = jko._power_log_mass(np.array([-np.inf, 0.5, np.nan, np.inf]), 1e-4, 1e-3, 2.0, 1e-2)
        assert u[0] == -np.inf and math.isfinite(u[1]) and math.isnan(u[2]) and u[3] == np.inf

    def test_iteration_cap_raises_step_error(self, monkeypatch):
        monkeypatch.setattr(jko, "_NEWTON_CAP", 1)
        with pytest.raises(StepError, match="Newton") as excinfo:
            jko._power_log_mass(np.array([0.0, 1e-3]), 1e-4, 1e-3, 2.0, 1e-2)
        assert excinfo.value.residual > jko._NEWTON_STEP_TOL


class TestConfigValidation:
    def test_accepts_reasonable_settings(self):
        cfg = heat_config(3, eps=1e-5)
        assert cfg.steps == 3 and cfg.eps == 1e-5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"p": 1.0},
            {"p": 0.5},
            {"tau": 0.0},
            {"tau": -1e-3},
            {"steps": -1},
            {"eps": 0.0},
            {"eps": -1e-3},
            {"tau": float("nan")},
            {"p": np.inf},
            {"tau": np.inf},
            {"eps": np.inf},
            {"energy": "entropy"},
        ],
    )
    def test_rejects_out_of_range(self, overrides):
        params = dict(p=2.0, tau=1e-3, steps=3, energy=jko.entropy_energy())
        params.update(overrides)
        with pytest.raises(ParameterError):
            jko.JKOConfig(**params)

    def test_rejects_non_energy(self):
        with pytest.raises(ParameterError):
            heat_config(3, energy="entropy")


class TestJKOStep:
    def test_uniform_anchor_is_fixed_point(self):
        # uniform minimizes the entropy on the box, so the step has nothing
        # to gain by moving
        grid = Grid(1, 0.0, 1.0, 128)
        uniform = DensityField(grid, np.ones(grid.shape))
        after = jko.jko_step(uniform, heat_config(1))
        move = float(np.abs(after.values - uniform.values).sum() * grid.cell_volume)
        assert move <= 1e-6

    def test_bump_step_descends_exact_objective(self):
        # early steps from a sharp bump lower the unsmoothed step objective
        # transport/tau + energy, evaluated by the monotone 1-d solver
        rho0 = bump_density()
        config = heat_config(1)
        cost = power_cost(2.0, rho0.grid.cost_radius)
        after = jko.jko_step(rho0, config)
        exact, _ = solve_exact_1d(after, rho0, cost)
        f_after = exact.primal / config.tau + jko.energy_value(after, config.energy)
        f_before = jko.energy_value(rho0, config.energy)
        assert f_after <= f_before
        # and the move is genuinely of the flow's scale, not a freeze
        move = float(np.abs(after.values - rho0.values).sum() * rho0.grid.cell_volume)
        assert move > 1e-3

    def test_step_mass_is_one(self):
        after = jko.jko_step(bump_density(), heat_config(1))
        assert abs(after.mass - 1.0) <= 1e-10
        assert after.values.min() >= 0.0

    def test_step_objective_never_increases(self):
        # the descent check raises on a candidate above the anchor, so five
        # warm steps that all return each met it
        config = heat_config(1)
        state, warm = bump_density(), None
        for _ in range(5):
            state, info, warm = jko._jko_step_full(state, config, warm)
            assert info.transport_cost > 0.0

    def test_two_dimensional_grid_rejected(self):
        grid = Grid(2, 0.0, 1.0, 8)
        uniform = DensityField(grid, np.ones(grid.shape))
        with pytest.raises(DomainError):
            jko.jko_step(uniform, heat_config(1))

    def test_non_probability_input_rejected(self):
        grid = Grid(1, 0.0, 1.0, 16)
        with pytest.raises(InputError):
            jko.jko_step(DensityField(grid, np.full(grid.shape, 2.0)), heat_config(1))

    def test_non_convergence_raises_step_error_with_residual(self, monkeypatch):
        monkeypatch.setattr(jko, "_MAX_INNER", 2)
        with pytest.raises(StepError) as excinfo:
            jko.jko_step(bump_density(), heat_config(1))
        assert excinfo.value.residual is not None

    def test_step_solve_non_convergence_raises_step_error(self, monkeypatch):
        # with _MAX_INNER lowered the self-potential solve fails first; capping
        # only the scaling solves reaches the step solve's own failure
        real = jko._scaling
        monkeypatch.setattr(jko, "_scaling", lambda *args: real(*args[:-1], 2))
        with pytest.raises(StepError, match="inner solver did not converge") as excinfo:
            jko.jko_step(bump_density(), heat_config(1))
        assert excinfo.value.residual > jko._INNER_TOL


def candidate_evaluation(solves, state):
    """The full pinned evaluator on an accepted step's candidate, as (arguments, result).

    ``solves`` are the step's spied scaling solves as (arguments, result);
    the evaluator starts from the last one's potentials at its last width.
    """
    (b_log, r_log, kernel, levels), f = solves[-1][0][:4], solves[-1][1][1]
    args = (np.log(state.values.reshape(-1) * state.grid.cell_volume), b_log, r_log,
            levels[-1], f, kernel)
    return args, jko._pinned_value(*args)


class TestDescentCheck:
    @pytest.fixture
    def spied_step(self, monkeypatch):
        """One n = 32 bump step; returns (state, its scaling solves as (arguments, result))."""
        spies = self.spy(monkeypatch)
        state, _, _ = jko._jko_step_full(bump_density(n=32), heat_config(1))
        return state, spies["_scaling_solve"]

    @staticmethod
    def spy(monkeypatch):
        """Records the self and scaling solves of jko as (arguments, result)."""
        calls = {"_sym_solve": [], "_scaling_solve": []}
        for name, records in calls.items():
            def wrapped(*args, real=getattr(jko, name), records=records):
                records.append((args, real(*args)))
                return records[-1][1]
            monkeypatch.setattr(jko, name, wrapped)
        return calls

    def test_full_evaluator_matches_shortcut(self, spied_step):
        # the step reads the candidate's pinned value off the converged step
        # potentials; the full pinned evaluator, from those potentials, agrees
        state, solves = spied_step
        (b_log, r_log, kernel, levels), (a, f, g, *_) = solves[-1][0][:4], solves[-1][1]
        eps = levels[-1]
        a_mass = a / a.sum()
        plan = np.exp(log_plan(kernel.cmat, f, g, r_log, b_log, eps))
        shortcut = float(f @ a_mass + g @ np.exp(b_log)
                         + eps * (np.exp(r_log).sum() - plan.sum()))
        (a_log, *_), (value, *_) = candidate_evaluation(solves, state)
        np.testing.assert_allclose(np.exp(a_log), a_mass, rtol=1e-12)
        assert value == pytest.approx(shortcut, rel=1e-12)

    def test_pinned_value_stops_on_row_mass_gap(self, spied_step, monkeypatch):
        # the plan (f, g) has row sums a exp((f - f_next)/eps), so the returned
        # residual is their L1 gap to the pinned masses a = exp(a_log)
        state, solves = spied_step
        args, (_, f, g, residual, _) = candidate_evaluation(solves, state)
        a_log, b_log, r_log, eps = args[:4]
        cmat = args[5].cmat

        def row_gap(f, g):
            plan = np.exp(log_plan(cmat, f, g, r_log, b_log, eps))
            return float(np.abs(plan.sum(axis=1) - np.exp(a_log)).sum())

        # converged: the gap is within tolerance and matches the residual up
        # to the rounding of the row sums of a unit mass
        assert residual <= jko._INNER_TOL
        assert row_gap(f, g) == pytest.approx(residual, rel=1e-12, abs=64 * np.finfo(float).eps)
        # one sweep from zero potentials: a gap far above rounding, matched
        # to 1e-12 relative
        monkeypatch.setattr(jko, "_MAX_INNER", 1)
        _, f, g, residual, _ = jko._pinned_value(*args[:4], np.zeros_like(args[4]), args[5])
        assert residual > 1e-3
        assert row_gap(f, g) == pytest.approx(residual, rel=1e-12)

    def test_descent_miss_raises_with_its_margin(self, monkeypatch):
        # under a slack no candidate meets, the step raises instead of
        # moving; its residual is the margin (G(candidate) - G(anchor)) /
        # tau^(p-1), which full evaluations of both sides reproduce
        monkeypatch.setattr(jko, "_DESCENT_SLACK", -1.0)
        spies = self.spy(monkeypatch)
        rho0, config = bump_density(n=32), heat_config(1)
        with pytest.raises(StepError, match="descent check failed") as excinfo:
            jko._jko_step_full(rho0, config)
        margin = excinfo.value.residual
        assert math.isfinite(margin) and -1.0 < margin < 0.0

        solves = spies["_scaling_solve"]
        (b_log, r_log, kernel, levels), a = solves[-1][0][:4], solves[-1][1][0]
        candidate = normalize(DensityField(rho0.grid, a.reshape(rho0.grid.shape)))
        anchor_self, candidate_self = (result[0] for _, result in spies["_sym_solve"])
        _, (candidate_pinned, *_) = candidate_evaluation(solves, candidate)
        anchor_pinned = jko._pinned_value(b_log, b_log, r_log, levels[-1],
                                          np.zeros_like(b_log), kernel)[0]
        tau_pow = config.tau ** (config.p - 1.0)
        g_candidate = (candidate_pinned - 0.5 * candidate_self
                       + tau_pow * jko.energy_value(candidate, config.energy))
        g_anchor = (anchor_pinned - 0.5 * anchor_self
                    + tau_pow * jko.energy_value(rho0, config.energy))
        assert margin == pytest.approx((g_candidate - g_anchor) / tau_pow, rel=1e-9)

    def test_descent_miss_ends_the_run(self, monkeypatch):
        # run_jko keeps the states before the failed step and names the step
        monkeypatch.setattr(jko, "_DESCENT_SLACK", -1.0)
        traj = jko.run_jko(bump_density(n=32), heat_config(3))
        assert len(traj) == 1
        assert traj.error.startswith("step 1: descent check failed")

    def test_inexact_step_stops_the_run_rather_than_raising_the_energy(self):
        # in each power flow the second step's scaling solve collapses: its
        # plan holds almost no mass against the pinned column mass 1, while
        # its row gap reads converged. In the first, a damped move toward
        # that candidate passed the old backtracking check and raised the
        # energy at steps 2 and 3; in the second, the single descent check
        # accepted the renormalized candidate, all of its mass in the two
        # wall cells, and the energy rose from 1.61 to 11.0. The step now
        # stops the run on the mass it lost.
        flows = [
            (9, 0.009287141426659701, 1.8425334847265427, 0.0023706567271403706,
             2.6891678528300313, 0.00011233741995399319),
            (12, 0.0024565850928513606, 1.891236375033741, 0.0033101295979127807,
             2.6006662604846484, 0.00014317004305827418),
        ]
        for n, floor, p, tau, m, eps in flows:
            config = jko.JKOConfig(p=p, tau=tau, steps=3, energy=jko.power_energy(m), eps=eps)
            traj = jko.run_jko(bump_density(n=n, floor=floor), config)
            assert traj.error.startswith("step 2: inner solver lost mass")
            assert all(later < earlier for earlier, later in zip(traj.energy, traj.energy[1:]))


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@settings(max_examples=15, deadline=None)
@given(p=st.floats(1.5, 4.0), n=st.integers(8, 32), tau=log_uniform(5e-4, 1e-2),
       eps=log_uniform(3e-5, 1e-3), floor=log_uniform(1e-3, 1e-1),
       m=st.none() | st.floats(1.5, 3.0))
def test_small_flows_keep_their_invariants(p, n, tau, eps, floor, m):
    # three steps of an entropy (m None) or power flow from a bump: every
    # state is a probability density and every step either meets the
    # descent check and its solve tolerance or stops the run with a
    # recorded StepError; none escapes run_jko
    energy = jko.entropy_energy() if m is None else jko.power_energy(m)
    config = jko.JKOConfig(p=p, tau=tau, steps=3, energy=energy, eps=eps)
    traj = jko.run_jko(bump_density(n=n, floor=floor), config)
    taken = len(traj) - 1
    if taken == config.steps:
        assert traj.error == ""
    else:
        assert traj.error.startswith(f"step {taken + 1}: ")
    for state in traj.densities:
        assert abs(state.mass - 1.0) <= 1e-10
        assert state.values.min() >= 0.0
    assert all(cost >= 0.0 for cost in traj.cost)
    assert all(residual <= jko._INNER_TOL for residual in traj.residual)


class TestSelfSolves:
    @staticmethod
    def spied_step(monkeypatch):
        """One cold n = 32 bump step; returns the levels of each self solve and,
        for each dual evaluation, its width and the levels of the self solve
        it ran inside (None outside one)."""
        sym_levels, evaluations, inside = [], [], []
        real_sym, real_dual = jko._sym_solve, jko._dual_value

        def sym(*args):
            sym_levels.append(np.atleast_1d(args[2]).tolist())
            inside.append(sym_levels[-1])
            try:
                return real_sym(*args)
            finally:
                inside.pop()

        def dual(*args):
            evaluations.append((args[5], inside[-1] if inside else None))
            return real_dual(*args)

        monkeypatch.setattr(jko, "_sym_solve", sym)
        monkeypatch.setattr(jko, "_dual_value", dual)
        jko._jko_step_full(bump_density(n=32), heat_config(1))
        return sym_levels, evaluations

    def test_accepted_cold_step_solves_each_self_problem_once(self, monkeypatch):
        # the anchor's self solve walks the whole ladder in one call; the
        # descent check adds one self solve and one dual evaluation
        sym_levels, evaluations = self.spied_step(monkeypatch)
        assert len(sym_levels) == 2
        assert len(sym_levels[0]) > 2 and sym_levels[1] == [heat_config(1).eps]
        assert len(evaluations) == 3

    def test_self_value_only_at_the_last_width(self, monkeypatch):
        # no self value is taken at a warm-up width of the anchor's ladder
        _, evaluations = self.spied_step(monkeypatch)
        inner = [(eps, levels) for eps, levels in evaluations if levels is not None]
        assert len(inner) == 2
        assert all(eps == levels[-1] == heat_config(1).eps for eps, levels in inner)


def dense_dual_value(cmat, f, g, x, y, x_log, y_log, eps, ref_mass):
    """f.x + g.y + eps (ref_mass - mass(P)) over cells with mass, P built in full.

    P is the plan of (f, g) against the reference exp(x_log) x exp(y_log).
    """
    plan = np.exp(log_plan(cmat, f, g, x_log, y_log, eps))
    return float(f[x > 0] @ x[x > 0] + g[y > 0] @ y[y > 0] + eps * (ref_mass - plan.sum()))


def step_logs(rho):
    """The step problem's log masses b_log of rho and its floored prior r_log."""
    with np.errstate(divide="ignore"):
        b_log = np.log(rho.values.reshape(-1) * rho.grid.cell_volume)
    return b_log, np.maximum(b_log, math.log(jko._PRIOR_FLOOR))


class TestDualValueIdentity:
    # the self and pinned values read mass(P) off the row sums of their last
    # sweep; the plan built in full must give the same value

    @staticmethod
    def assert_sym_identity(a_log, r_log, levels, kernel):
        """Checks the self value from zero potentials; returns the solve's residual."""
        value, u, residual, _ = jko._sym_solve(a_log, r_log, levels, np.zeros_like(a_log),
                                               kernel)
        a, r_mass = np.exp(a_log), np.exp(r_log).sum()
        want = dense_dual_value(kernel.cmat, u, u, a, a, r_log, r_log, levels[-1],
                                r_mass * r_mass)
        assert value == pytest.approx(want, rel=1e-12)
        return residual

    @staticmethod
    def assert_pinned_identity(a_log, b_log, r_log, eps, f, kernel):
        """Checks the pinned value from potentials f; returns the solve's residual."""
        value, f, g, residual, _ = jko._pinned_value(a_log, b_log, r_log, eps, f, kernel)
        want = dense_dual_value(kernel.cmat, f, g, np.exp(a_log), np.exp(b_log), r_log, b_log,
                                eps, np.exp(r_log).sum())
        assert value == pytest.approx(want, rel=1e-12)
        return residual

    def test_heat_example_first_step(self, monkeypatch):
        # the anchor's self problem over the cold ladder, and the candidate's
        # pinned problem warm-started from the step potentials
        spec = json.loads((CONFIGS / "jko_heat_example.json").read_text())
        grid = cli._grid_from_spec(spec["grid"])
        rho0 = cli._density_from_spec(spec["rho0"], grid, CONFIGS, None, "rho0")
        config = jko.JKOConfig(**{**spec["scheme"], "energy": jko.entropy_energy()})
        kernel = jko._step_kernel(grid, config)
        b_log, r_log = step_logs(rho0)
        levels = jko._eps_ladder(config.eps, float(kernel.cmat.max()))
        self.assert_sym_identity(b_log, r_log, levels, kernel)

        solves, real = [], jko._scaling_solve

        def spy(*args):
            solves.append(real(*args))
            return solves[-1]

        monkeypatch.setattr(jko, "_scaling_solve", spy)
        jko._jko_step_full(rho0, config, kernel=kernel)
        a, f = solves[0][:2]
        self.assert_pinned_identity(np.log(a / a.sum()), b_log, r_log, config.eps, f, kernel)

    def test_zero_mass_rows(self):
        # rows without mass carry -inf potentials and add nothing to either value
        rho = bump_density(n=32)
        vals = rho.values.copy()
        vals[:6] = vals[-3:] = 0.0
        a_log, a_prior = step_logs(normalize(DensityField(rho.grid, vals)))
        assert np.isneginf(a_log).sum() == 9
        b_log, r_log = step_logs(rho)
        eps = 1e-3
        kernel = jko._step_kernel(rho.grid, heat_config(1, eps=eps))
        self.assert_pinned_identity(a_log, b_log, r_log, eps, np.zeros_like(a_log), kernel)
        self.assert_sym_identity(a_log, a_prior, [eps], kernel)

    def test_unconverged_solves(self, monkeypatch):
        # the identity holds at every sweep: two sweeps from zero potentials
        # leave row-mass gaps far above rounding
        monkeypatch.setattr(jko, "_MAX_INNER", 2)
        rho = bump_density(n=32)
        b_log, r_log = step_logs(rho)
        a_log, _ = step_logs(bump_density(n=32, sharpness=20.0))
        eps = heat_config(1).eps
        kernel = jko._step_kernel(rho.grid, heat_config(1))
        assert self.assert_pinned_identity(a_log, b_log, r_log, eps, np.zeros_like(a_log),
                                           kernel) > 1e-3
        assert self.assert_sym_identity(b_log, r_log, [eps], kernel) > 1e-3


class TestRunJKO:
    def test_zero_steps_returns_initial_state(self):
        rho0 = bump_density(n=32)
        traj = jko.run_jko(rho0, heat_config(0))
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.densities[0].values, rho0.values)
        assert traj.error == ""

    def test_trajectory_lengths_and_times(self, bump_run):
        rho0, traj = bump_run
        assert traj.error == ""
        assert len(traj) == 51
        np.testing.assert_allclose(traj.times, [k * 1e-3 for k in range(51)])

    def test_iterates_are_probability_densities(self, bump_run):
        _, traj = bump_run
        for state in traj.densities:
            assert abs(state.mass - 1.0) <= 1e-10
            assert state.values.min() >= 0.0

    def test_tv_nonincreasing_within_slack(self, bump_run):
        rho0, traj = bump_run
        slack = 1e-3 * traj.tv[0]
        for earlier, later in zip(traj.tv, traj.tv[1:]):
            assert later <= earlier + slack

    def test_energy_nonincreasing(self, bump_run):
        _, traj = bump_run
        for earlier, later in zip(traj.energy, traj.energy[1:]):
            assert later <= earlier + 1e-10

    def test_transport_cost_recorded(self, bump_run):
        _, traj = bump_run
        assert traj.cost[0] == 0.0
        assert all(c > 0.0 for c in traj.cost[1:])
        assert all(r <= 1e-8 for r in traj.residual[1:])

    def test_power_flow_runs_clean(self):
        rho0 = bump_density()
        config = jko.JKOConfig(p=3.0, tau=1e-3, steps=20, energy=jko.power_energy(2.0))
        traj = jko.run_jko(rho0, config)
        assert traj.error == ""
        assert len(traj) == 21
        slack = 1e-3 * traj.tv[0]
        for earlier, later in zip(traj.tv, traj.tv[1:]):
            assert later <= earlier + slack
        for state in traj.densities:
            assert abs(state.mass - 1.0) <= 1e-10
            assert state.values.min() >= 0.0

    def test_heat_example_shares_one_kernel_and_rarely_reanchors(self, tmp_path, monkeypatch):
        # the shipped heat flow builds its cost matrix and sweep kernel once;
        # each re-anchor is an exact softmin over C, each other sweep a matvec,
        # and each of its 20 accepted steps builds one plan at the working
        # width, for its cost
        kernels, matrices, plans = [], [], []
        real_kernel, real_matrix, real_plan = jko._AnchoredKernel, jko._cost_matrix, jko.log_plan

        def kernel_spy(*args):
            kernels.append(real_kernel(*args))
            return kernels[-1]

        def matrix_spy(*args):
            matrices.append(real_matrix(*args))
            return matrices[-1]

        def plan_spy(*args):
            plans.append(args[-1])
            return real_plan(*args)

        monkeypatch.setattr(jko, "_AnchoredKernel", kernel_spy)
        monkeypatch.setattr(jko, "_cost_matrix", matrix_spy)
        monkeypatch.setattr(jko, "log_plan", plan_spy)
        assert cli.main(["jko", "--config", str(CONFIGS / "jko_heat_example.json"),
                         "--out", str(tmp_path / "out")]) == 0
        assert len(kernels) == len(matrices) == 1
        assert kernels[0].reanchors <= 0.05 * kernels[0].sweeps
        assert plans == [1e-4] * 20

    @pytest.mark.parametrize("n", [96, 384])
    def test_plan_cost_sums_row_blocks(self, n):
        # one row block up to 2**15 entries gives the dense product's bits;
        # more blocks change only the order of the sum
        rho = bump_density(n=n)
        config = heat_config(1)
        cmat = jko._step_kernel(rho.grid, config).cmat
        b_log, r_log = step_logs(rho)
        rng = np.random.default_rng(n)
        f, g = rng.normal(0.0, 1e-4, (2, n))
        got = jko._plan_cost(cmat, f, g, r_log, b_log, config.eps)
        with np.errstate(under="ignore"):
            want = float((np.exp(log_plan(cmat, f, g, r_log, b_log, config.eps)) * cmat).sum())
        if len(jko._row_blocks(n, n)) == 1:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)

    def test_flow_peak_memory_is_bounded_by_the_cost_matrix(self):
        # a 3-step two-bump flow at n = 384: no m x n plan is built for the
        # accepted step's cost, so the traced peak stays within three cost
        # matrices (4.1 with the dense plan pass)
        grid = Grid(1, 0.0, 1.0, 384)
        x = grid.cell_centers()[:, 0]
        vals = 0.05 + np.exp(-200.0 * (x - 0.3) ** 2) + np.exp(-200.0 * (x - 0.7) ** 2)
        rho0 = normalize(DensityField(grid, vals))
        tracemalloc.start()
        try:
            traj = jko.run_jko(rho0, heat_config(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.error == ""
        assert peak <= 3.0 * grid.num_cells**2 * 8

    def test_step_failure_returns_partial_trajectory(self, monkeypatch):
        monkeypatch.setattr(jko, "_MAX_INNER", 2)
        rho0 = bump_density()
        traj = jko.run_jko(rho0, heat_config(5))
        assert traj.error.startswith("step 1:")
        assert len(traj) == 1


class TestTrajectoryType:
    def test_field_lengths_validated(self):
        grid = Grid(1, 0.0, 1.0, 8)
        rho = DensityField(grid, np.ones(grid.shape))
        with pytest.raises(InputError):
            jko.Trajectory(
                densities=(rho,), times=(0.0, 1.0), tv=(0.0,), energy=(0.0,),
                cost=(0.0,), residual=(0.0,),
            )


class TestStableDt:
    def test_flat_data_unbounded_for_degenerate_diffusion(self):
        # q = 1.5: the face diffusivity carries |dw|^(q-2), which vanishes
        # in the flux at flat data, so no step size is restricted
        grid = Grid(1, 0.0, 1.0, 32)
        uniform = DensityField(grid, np.ones(grid.shape))
        assert jko.stable_dt(uniform, 3.0, jko.power_energy(2.0)) == math.inf
        config = jko.JKOConfig(p=3.0, tau=1e-3, steps=1, energy=jko.power_energy(2.0))
        assert jko.aligned_dt(uniform, config) == pytest.approx(config.tau / 2.0)

    def test_constant_heat_data_keeps_classical_bound(self):
        # q = 2 has a data-independent parabolic bound 0.2 dx^2 / g'
        grid = Grid(1, 0.0, 1.0, 32)
        uniform = DensityField(grid, np.ones(grid.shape))
        expected = 0.2 * grid.spacing[0] ** 2
        assert jko.stable_dt(uniform, 2.0, jko.entropy_energy()) == pytest.approx(expected)

    def test_heat_bound_matches_classical_formula(self):
        # p = 2 + entropy: g(u) = u, so the bound is 0.2 dx^2 / max g'(u) with
        # g' = 1
        grid = Grid(1, 0.0, 1.0, 64)
        rho = random_smooth_density(grid, 3)
        expected = 0.2 * grid.spacing[0] ** 2
        assert jko.stable_dt(rho, 2.0, jko.entropy_energy()) == pytest.approx(expected)

    def test_aligned_dt_divides_tau_evenly(self):
        rho0 = bump_density()
        config = heat_config(10)
        dt = jko.aligned_dt(rho0, config)
        assert dt <= jko.stable_dt(rho0, 2.0, jko.entropy_energy()) * (1 + 1e-12)
        halves = config.tau / (2.0 * dt)
        assert halves == pytest.approx(round(halves))


class TestReferencePDE:
    def test_constant_initial_data_stays_constant(self):
        grid = Grid(1, 0.0, 1.0, 32)
        uniform = DensityField(grid, np.ones(grid.shape))
        (state,) = jko.reference_pde_solve(uniform, 2.0, jko.entropy_energy(),
                                           dt=1e-5, times=(100 * 1e-5,))
        np.testing.assert_allclose(state.values, 1.0, atol=1e-14)

    def test_heat_flattens_bump_and_conserves_mass(self):
        rho0 = bump_density()
        dt = 1e-5
        states = jko.reference_pde_solve(rho0, 2.0, jko.entropy_energy(),
                                         dt=dt, times=(0.0, 500 * dt))
        assert states[0] is rho0
        assert abs(states[-1].mass - 1.0) <= 1e-10
        assert states[-1].values.max() < rho0.values.max()
        assert states[-1].tv() < states[0].tv()

    def test_matches_cosine_series_heat_solution(self):
        # oracle: the zero-flux heat equation on [0, 1] diagonalizes in
        # cosine modes, u(t, x) = 1 + sum a_k exp(-(k pi)^2 t) cos(k pi x),
        # with coefficients sampled from the initial data at cell centers
        # (modes above the grid's Nyquist index alias and must stay out)
        n = 128
        rho0 = bump_density(n=n)
        x = rho0.grid.cell_centers()[:, 0]
        dt = 1e-5
        steps = 1000
        t_final = dt * steps
        (state,) = jko.reference_pde_solve(rho0, 2.0, jko.entropy_energy(), dt, (t_final,))
        modes = np.arange(1, n)
        basis = np.cos(np.outer(modes * math.pi, x))
        coeff = 2.0 * (basis * rho0.values.reshape(1, -1)).mean(axis=1)
        series = 1.0 + (coeff * np.exp(-((modes * math.pi) ** 2) * t_final)) @ basis
        err = np.abs(state.values - series).sum() / n
        assert err <= 1e-4

    def test_self_convergence_under_refinement(self):
        # halving dx and quartering dt changes the t = 0.05 solution by
        # less than 1e-3 in L1 (restricting the fine grid by cell pairing)
        def profile(n):
            grid = Grid(1, 0.0, 1.0, n)
            x = grid.cell_centers()[:, 0]
            vals = 0.05 + np.exp(-80.0 * (x - 0.5) ** 2)
            return normalize(DensityField(grid, vals.reshape(grid.shape)))

        coarse0 = profile(128)
        fine0 = profile(256)
        dt = 1e-5
        (coarse,) = jko.reference_pde_solve(coarse0, 2.0, jko.entropy_energy(),
                                            dt, (5000 * dt,))
        (fine,) = jko.reference_pde_solve(fine0, 2.0, jko.entropy_energy(),
                                          dt / 4.0, (5000 * dt,))
        fine_avg = fine.values.reshape(-1, 2).mean(axis=1)
        l1 = float(np.abs(coarse.values - fine_avg).sum() / 128.0)
        assert l1 <= 1e-3

    def test_flat_faces_below_q_2_do_not_divide_by_zero(self):
        # p = 3 (q = 3/2): |w_x|^(q-2) is singular where w_x = 0, which is
        # every face of a piecewise-constant density but the middle one
        grid = Grid(1, 0.0, 1.0, 32)
        rho0 = DensityField(grid, np.where(np.arange(32) < 16, 1.5, 0.5))
        energy = jko.entropy_energy()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dt = jko.stable_dt(rho0, 3.0, energy)
            (state,) = jko.reference_pde_solve(rho0, 3.0, energy, dt, (dt,))
        # one step moves mass across the middle face only
        after = state.values
        np.testing.assert_array_equal(np.delete(after, [15, 16]), np.delete(rho0.values, [15, 16]))
        assert after[15] < 1.5 and after[16] > 0.5
        assert after[15] + after[16] == pytest.approx(2.0, rel=1e-15)

    def test_dt_beyond_stability_bound_rejected(self):
        rho0 = bump_density()
        bound = jko.stable_dt(rho0, 2.0, jko.entropy_energy())
        with pytest.raises(ParameterError):
            jko.reference_pde_solve(rho0, 2.0, jko.entropy_energy(),
                                    dt=2.0 * bound, times=(20.0 * bound,))

    def test_two_dimensional_grid_rejected(self):
        grid = Grid(2, 0.0, 1.0, 8)
        uniform = DensityField(grid, np.ones(grid.shape))
        with pytest.raises(DomainError):
            jko.reference_pde_solve(uniform, 2.0, jko.entropy_energy(),
                                    dt=1e-6, times=(1e-6,))

    @pytest.mark.parametrize("times, word", [
        ((2.5e-6,), "whole multiple"),
        ((1e-6, -1e-6), "nonnegative"),
        ((2e-6, 1e-6), "not decrease"),
    ], ids=["not-a-multiple", "negative", "decreasing"])
    def test_times_must_be_nondecreasing_multiples_of_dt(self, times, word):
        with pytest.raises(ParameterError, match=word):
            jko.reference_pde_solve(bump_density(n=16), 2.0, jko.entropy_energy(),
                                    dt=1e-6, times=times)


def neumann_laplacian(n, spacing):
    """The cell-centred 3-point Laplacian with zero-flux walls, as a dense matrix."""
    lap = np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
    lap -= np.diag(lap.sum(axis=1))
    return lap / spacing**2


class TestExactHeatSolve:
    @pytest.mark.parametrize("n", [16, 96])
    def test_matches_expm_of_neumann_laplacian(self, n):
        rho0 = bump_density(n=n)
        lap = neumann_laplacian(n, rho0.grid.spacing[0])
        times = (0.002, 0.02, 0.04)
        states = jko.exact_heat_solve(rho0, times)
        assert len(states) == len(times)
        for t, state in zip(times, states):
            oracle = expm(t * lap) @ rho0.values
            np.testing.assert_allclose(state.values, oracle, rtol=0.0, atol=1e-12)

    def test_two_dimensional_grid_is_the_product_of_its_axes(self):
        # the transform runs per axis: on a 6 x 8 grid the flow is the
        # exponential of the Kronecker sum of the two axis Laplacians
        grid = Grid(2, (0.0, 0.0), (1.0, 2.0), (6, 8))
        rho0 = random_smooth_density(grid, 5)
        lap = (np.kron(neumann_laplacian(6, grid.spacing[0]), np.eye(8))
               + np.kron(np.eye(6), neumann_laplacian(8, grid.spacing[1])))
        (state,) = jko.exact_heat_solve(rho0, (0.01,))
        oracle = expm(0.01 * lap) @ rho0.values.reshape(-1)
        np.testing.assert_allclose(state.values.reshape(-1), oracle, rtol=0.0, atol=1e-12)

    def test_explicit_reference_converges_at_first_order(self):
        # the explicit scheme's gap to its dt -> 0 limit shrinks 4x when dt does
        rho0 = bump_density(n=96)
        config = heat_config(10, tau=0.002)
        times = (0.002, 0.01, 0.02)
        exact = jko.exact_heat_solve(rho0, times)
        dt = jko.aligned_dt(rho0, config)

        def gaps(refinement):
            explicit = jko.reference_pde_solve(rho0, 2.0, config.energy, dt / refinement, times)
            return np.array([jko._l1_distance(state, oracle)
                             for state, oracle in zip(explicit, exact)])

        ratio = gaps(4) / gaps(1)
        assert np.all((0.2 <= ratio) & (ratio <= 0.3)), ratio

    def test_mass_is_conserved(self):
        rho0 = bump_density(n=96)
        for state in jko.exact_heat_solve(rho0, (1e-4, 0.01, 0.04, 1.0)):
            assert abs(state.mass - rho0.mass) <= 1e-12
            assert state.values.min() >= 0.0

    def test_uniform_density_stays_put(self):
        grid = Grid(1, 0.0, 1.0, 96)
        uniform = DensityField(grid, np.ones(grid.shape))
        for state in jko.exact_heat_solve(uniform, (0.002, 0.04, 1.0)):
            np.testing.assert_allclose(state.values, 1.0, rtol=0.0, atol=1e-14)

    def test_time_zero_is_the_initial_state(self):
        rho0 = bump_density(n=16)
        assert jko.exact_heat_solve(rho0, (0.0,))[0] is rho0

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            jko.exact_heat_solve(bump_density(n=16), (0.01, -0.01))


@pytest.fixture(scope="module")
def short_run():
    """An 8-step flow from the sharp bump, shared by the comparison tests."""
    config = heat_config(8)
    rho0 = bump_density()
    return rho0, config, jko.run_jko(rho0, config)


@pytest.fixture(scope="module")
def porous_run():
    """An 8-step p = 2 flow of the power energy m = 2, whose reference is explicit."""
    config = heat_config(8, energy=jko.power_energy(2.0))
    rho0 = bump_density(n=64)
    return rho0, config, jko.run_jko(rho0, config)


class TestJKOvsPDEReport:
    def test_initial_checkpoint_distance_is_zero(self, short_run):
        _, config, traj = short_run
        report = jko.jko_vs_pde_report(traj, config, refine=False)
        assert report.times[0] == 0.0
        assert report.distances[0] == 0.0
        assert len(report.times) == 5
        assert report.distances[-1] < 0.05

    def test_heat_comparison_takes_the_exact_reference(self, short_run):
        rho0, config, traj = short_run
        assert jko.comparison_steps(rho0, config) is None
        times = tuple(k * config.tau for k in (0, 2, 4, 6, 8))
        report = jko.jko_vs_pde_report(traj, config, refine=False)
        assert report.times == times
        assert report.distances == tuple(
            jko._l1_distance(traj.densities[k], state)
            for k, state in zip((0, 2, 4, 6, 8), jko.exact_heat_solve(rho0, times)))

    def test_compared_states_are_the_full_reference_states(self, porous_run):
        rho0, config, traj = porous_run
        dt = jko.aligned_dt(rho0, config)
        substeps = round(config.tau / dt)
        args = (rho0, config.p, config.energy, dt)
        full = jko.reference_pde_solve(
            *args, tuple(j * dt for j in range(config.steps * substeps + 1)))
        strided = jko.reference_pde_solve(
            *args, tuple(k * config.tau for k in range(config.steps + 1)))
        assert len(strided) == config.steps + 1
        for k in range(config.steps + 1):
            assert np.array_equal(strided[k].values, full[k * substeps].values)
            assert strided[k].tv() == full[k * substeps].tv()
        report = jko.jko_vs_pde_report(traj, config, refine=False)
        assert report.distances == tuple(
            jko._l1_distance(traj.densities[k], strided[k]) for k in (0, 2, 4, 6, 8))

    def test_comparison_steps_resolve_a_null_dt(self, porous_run):
        rho0, config, _ = porous_run
        assert jko.comparison_steps(rho0, config) == jko.aligned_dt(rho0, config)

    def test_reference_over_the_step_cap_refused(self):
        # the flat tails of a bump on a floor of 1e-3 make the q = 3/2 face
        # diffusivity huge: aligned_dt is about 5e-12, some 8e9 explicit steps
        rho0 = bump_density(n=96, floor=1e-3)
        for energy in (jko.entropy_energy(), jko.power_energy(2.0)):
            config = jko.JKOConfig(p=3.0, tau=2e-3, steps=20, energy=energy)
            with pytest.raises(ParameterError, match="above the cap"):
                jko.comparison_steps(rho0, config)

    def test_negative_density_between_recorded_states_raises(self, porous_run, monkeypatch):
        # past the stability bound the explicit scheme oscillates; the state
        # that turns negative is not one the reference returns
        rho0, config, _ = porous_run
        monkeypatch.setattr(jko, "stable_dt", lambda *args: np.inf)
        times = tuple(k * config.tau for k in range(config.steps + 1))
        with pytest.raises(ParameterError, match="negative density") as failure:
            jko.reference_pde_solve(rho0, config.p, config.energy, config.tau / 10, times)
        assert int(re.search(r"at step (\d+)", str(failure.value)).group(1)) % 10 != 0

    def test_zero_steps_rejected(self):
        rho0 = bump_density(n=16)
        config = heat_config(0)
        with pytest.raises(ParameterError):
            jko.jko_vs_pde_report(jko.run_jko(rho0, config), config)

    def test_trajectory_of_another_config_rejected(self, short_run):
        _, _, traj = short_run
        config = heat_config(4)
        with pytest.raises(ParameterError):
            jko.jko_vs_pde_report(traj, config, refine=False)

    def test_aborted_trajectory_rejected(self, monkeypatch):
        monkeypatch.setattr(jko, "_MAX_INNER", 2)
        rho0 = bump_density()
        config = heat_config(5)
        traj = jko.run_jko(rho0, config)
        assert traj.error
        with pytest.raises(StepError):
            jko.jko_vs_pde_report(traj, config, refine=False)


class TestTrajectoryWriter:
    def test_trace_and_densities_written(self, tmp_path, bump_run):
        _, traj = bump_run
        out = tmp_path / "run"
        jko.write_trajectory_dir(out, traj)
        trace = (out / "trace.csv").read_text()
        lines = trace.strip().split("\n")
        assert lines[0] == "step,time,tv,energy,cost,residual"
        assert len(lines) == 52
        assert sorted(p.name for p in out.glob("density_*.csv"))[0] == "density_0000.csv"
        assert len(list(out.glob("density_*.csv"))) == 51

    def test_rerun_is_byte_identical(self, tmp_path):
        rho0 = bump_density(n=64)
        first = jko.run_jko(rho0, heat_config(3))
        second = jko.run_jko(rho0, heat_config(3))
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        jko.write_trajectory_dir(dir_a, first)
        jko.write_trajectory_dir(dir_b, second)
        assert (dir_a / "trace.csv").read_bytes() == (dir_b / "trace.csv").read_bytes()
        for name in sorted(os.listdir(dir_a)):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_error_annotation_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jko, "_MAX_INNER", 2)
        rho0 = bump_density()
        traj = jko.run_jko(rho0, heat_config(5))
        out = tmp_path / "failed"
        jko.write_trajectory_dir(out, traj)
        trace = (out / "trace.csv").read_text()
        assert "# error: step 1:" in trace
        assert [path.name for path in out.glob("density_*.csv")] == ["density_0000.csv"]

"""Tests for the minimizing-movement scheme and its PDE reference."""

import math
import os
import re

import numpy as np
import pytest

from otlab import jko
from otlab.cost import power_cost
from otlab.errors import (
    DomainError,
    InputError,
    ParameterError,
    StepError,
)
from otlab.geometry import DensityField, Grid, normalize, random_smooth_density
from otlab.ot_core import log_plan, solve_exact_1d


def bump_density(n=128, floor=0.05, sharpness=80.0):
    grid = Grid(1, 0.0, 1.0, n)
    x = grid.cell_centers()[:, 0]
    vals = floor + np.exp(-sharpness * (x - 0.5) ** 2)
    return normalize(DensityField(grid, vals.reshape(grid.shape)))


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
        # the descent guarantee of the step functional, checked through the
        # step's own matched evaluations
        rho0 = bump_density()
        config = heat_config(1)
        state = rho0
        warm = None
        for _ in range(5):
            state, info, warm = jko._jko_step_full(state, config, warm)
            assert info.objective <= info.anchor_objective + 1e-10

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


class TestDescentCheck:
    @pytest.fixture
    def rejected_step(self, monkeypatch):
        """One n = 32 bump step under a slack no trial can meet, with its spied solves.

        Returns (anchor, state, step info, step solves, pinned evaluations),
        each solve or evaluation as (arguments, result).
        """
        monkeypatch.setattr(jko, "_DESCENT_SLACK", -1.0)
        solves, evaluations = [], []

        def spy(real, calls):
            def wrapped(*args):
                calls.append((args, real(*args)))
                return calls[-1][1]
            return wrapped

        monkeypatch.setattr(jko, "_scaling_solve", spy(jko._scaling_solve, solves))
        monkeypatch.setattr(jko, "_pinned_value", spy(jko._pinned_value, evaluations))
        rho0 = bump_density(n=32)
        state, info, _ = jko._jko_step_full(rho0, heat_config(1))
        return rho0, state, info, solves, evaluations

    def test_full_evaluator_matches_shortcut_then_backtracks(self, rejected_step):
        # the slack rejects the shortcut, re-checks the candidate with the
        # full pinned evaluator, then halves the move on every further trial
        # and returns the anchor
        rho0, state, info, solves, evaluations = rejected_step
        assert state is rho0
        assert info.transport_cost == 0.0
        assert len(evaluations) == jko._DESCENT_TRIALS - 1

        # the shortcut is the dual value read off the converged step potentials
        (b_log, r_log, cmat, levels), (a, f, g, _, _) = solves[-1][0][:4], solves[-1][1]
        eps = levels[-1]
        a_mass = a / a.sum()
        plan = np.exp(log_plan(cmat, f, g, r_log, b_log, eps))
        shortcut = float(f @ a_mass + g @ np.exp(b_log)
                         + eps * (np.exp(r_log).sum() - plan.sum()))
        (a_log, *_), (value, *_) = evaluations[0]
        np.testing.assert_allclose(np.exp(a_log), a_mass, rtol=1e-12)
        assert value == pytest.approx(shortcut, rel=1e-12)
        # each later trial halves the move away from the anchor
        moves = [np.abs(np.exp(args[0]) - np.exp(b_log)).sum() for args, _ in evaluations]
        np.testing.assert_allclose(moves[1:6], moves[0] / 2.0 ** np.arange(1, 6), rtol=1e-9)

    def test_pinned_value_stops_on_row_mass_gap(self, rejected_step, monkeypatch):
        # the plan (f, g) has row sums a exp((f - f_next)/eps), so the returned
        # residual is their L1 gap to the pinned masses a = exp(a_log)
        args, (*_, f, g, residual, _) = rejected_step[4][0]
        a_log, b_log, r_log, cmat, eps = args[:5]

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
        *_, f, g, residual, _ = jko._pinned_value(*args[:5], np.zeros_like(args[5]))
        assert residual > 1e-3
        assert row_gap(f, g) == pytest.approx(residual, rel=1e-12)


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
        traj = jko.reference_pde_solve(uniform, 2.0, jko.entropy_energy(),
                                       dt=1e-5, steps=100)
        np.testing.assert_allclose(traj.densities[-1].values, 1.0, atol=1e-14)

    def test_heat_flattens_bump_and_conserves_mass(self):
        rho0 = bump_density()
        dt = 1e-5
        traj = jko.reference_pde_solve(rho0, 2.0, jko.entropy_energy(),
                                       dt=dt, steps=500)
        assert abs(traj.densities[-1].mass - 1.0) <= 1e-10
        assert traj.densities[-1].values.max() < rho0.values.max()
        assert traj.tv[-1] < traj.tv[0]

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
        traj = jko.reference_pde_solve(rho0, 2.0, jko.entropy_energy(), dt, steps)
        modes = np.arange(1, n)
        basis = np.cos(np.outer(modes * math.pi, x))
        coeff = 2.0 * (basis * rho0.values.reshape(1, -1)).mean(axis=1)
        series = 1.0 + (coeff * np.exp(-((modes * math.pi) ** 2) * t_final)) @ basis
        err = np.abs(traj.densities[-1].values - series).sum() / n
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
        coarse = jko.reference_pde_solve(coarse0, 2.0, jko.entropy_energy(),
                                         dt, steps=5000)
        fine = jko.reference_pde_solve(fine0, 2.0, jko.entropy_energy(),
                                       dt / 4.0, steps=20000)
        fine_avg = fine.densities[-1].values.reshape(-1, 2).mean(axis=1)
        l1 = float(np.abs(coarse.densities[-1].values - fine_avg).sum() / 128.0)
        assert l1 <= 1e-3

    def test_dt_beyond_stability_bound_rejected(self):
        rho0 = bump_density()
        bound = jko.stable_dt(rho0, 2.0, jko.entropy_energy())
        with pytest.raises(ParameterError):
            jko.reference_pde_solve(rho0, 2.0, jko.entropy_energy(),
                                    dt=2.0 * bound, steps=10)

    def test_two_dimensional_grid_rejected(self):
        grid = Grid(2, 0.0, 1.0, 8)
        uniform = DensityField(grid, np.ones(grid.shape))
        with pytest.raises(DomainError):
            jko.reference_pde_solve(uniform, 2.0, jko.entropy_energy(),
                                    dt=1e-6, steps=1)

    @pytest.mark.parametrize("record_every", [0, 3])
    def test_record_every_must_divide_steps(self, record_every):
        with pytest.raises(ParameterError, match="record_every"):
            jko.reference_pde_solve(bump_density(n=16), 2.0, jko.entropy_energy(),
                                    dt=1e-6, steps=10, record_every=record_every)


@pytest.fixture(scope="module")
def short_run():
    """An 8-step flow from the sharp bump, shared by the comparison tests."""
    config = heat_config(8)
    rho0 = bump_density()
    return rho0, config, jko.run_jko(rho0, config)


class TestJKOvsPDEReport:
    def test_initial_checkpoint_distance_is_zero(self, short_run):
        rho0, config, traj = short_run
        dt = jko.aligned_dt(rho0, config)
        report = jko.jko_vs_pde_report(traj, config, dt, refine=False)
        assert report.times[0] == 0.0
        assert report.distances[0] == 0.0
        assert len(report.times) == 5
        assert report.final_distance < 0.05

    def test_compared_states_are_the_full_reference_states(self, short_run):
        rho0, config, traj = short_run
        dt = jko.aligned_dt(rho0, config)
        substeps = round(config.tau / dt)
        args = (rho0, config.p, config.energy, dt, config.steps * substeps)
        full = jko.reference_pde_solve(*args)
        strided = jko.reference_pde_solve(*args, record_every=substeps)
        assert len(strided) == config.steps + 1
        for k in range(config.steps + 1):
            assert np.array_equal(strided.densities[k].values,
                                  full.densities[k * substeps].values)
            for name in ("times", "tv", "energy"):
                assert getattr(strided, name)[k] == getattr(full, name)[k * substeps]
        report = jko.jko_vs_pde_report(traj, config, dt, refine=False)
        assert report.distances == tuple(
            jko._l1_distance(traj.densities[k], full.densities[k * substeps])
            for k in (0, 2, 4, 6, 8))

    def test_unstable_dt_raises(self, short_run):
        _, config, traj = short_run
        with pytest.raises(ParameterError, match="stability bound"):
            jko.jko_vs_pde_report(traj, config, dt=config.tau / 10, refine=False)

    def test_negative_density_between_recorded_states_raises(self, short_run, monkeypatch):
        # past the stability bound the explicit scheme oscillates; the state
        # that turns negative is not one the report records
        _, config, traj = short_run
        monkeypatch.setattr(jko, "stable_dt", lambda *args: np.inf)
        with pytest.raises(ParameterError, match="negative density") as failure:
            jko.jko_vs_pde_report(traj, config, dt=config.tau / 10, refine=False)
        assert int(re.search(r"at step (\d+)", str(failure.value)).group(1)) % 10 != 0

    def test_misaligned_dt_rejected(self, short_run):
        _, config, traj = short_run
        with pytest.raises(ParameterError):
            jko.jko_vs_pde_report(traj, config, dt=config.tau / 2.5, refine=False)

    def test_refinement_needs_even_substepping(self):
        rho0 = bump_density(n=16)
        config = heat_config(4)
        traj = jko.run_jko(rho0, config)
        with pytest.raises(ParameterError):
            jko.jko_vs_pde_report(traj, config, dt=config.tau / 81.0, refine=True)

    def test_zero_steps_rejected(self):
        rho0 = bump_density(n=16)
        config = heat_config(0)
        with pytest.raises(ParameterError):
            jko.jko_vs_pde_report(jko.run_jko(rho0, config), config, dt=1e-5)

    def test_trajectory_of_another_config_rejected(self, short_run):
        rho0, _, traj = short_run
        config = heat_config(4)
        with pytest.raises(ParameterError):
            jko.jko_vs_pde_report(traj, config, jko.aligned_dt(rho0, config), refine=False)

    def test_aborted_trajectory_rejected(self, monkeypatch):
        monkeypatch.setattr(jko, "_MAX_INNER", 2)
        rho0 = bump_density()
        config = heat_config(5)
        traj = jko.run_jko(rho0, config)
        assert traj.error
        with pytest.raises(StepError):
            jko.jko_vs_pde_report(traj, config, jko.aligned_dt(rho0, config), refine=False)


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
        jko.write_trajectory_dir(out, traj, densities=False)
        trace = (out / "trace.csv").read_text()
        assert "# error: step 1:" in trace
        assert not list(out.glob("density_*.csv"))

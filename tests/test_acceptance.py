"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Each test computes its criterion end to end at the stated scale, prints a
single ``criterion NN [PASS|FAIL]`` line, and asserts. Expensive shared
state (the 180-instance inequality batch, the heat-flow benchmark) lives in
module-scoped fixtures; the determinism criterion reruns both and compares
the emitted CSV bytes.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from otlab.cost import (
    grad_h,
    grad_h_star,
    mollify,
    power_cost,
    power_h_function,
    semiconcavity_constant,
)
from otlab.fivegrad import (
    _H_DELTA0_FRACTION,
    BatchSpec,
    boundary_conjugate_check,
    five_gradients,
    instance_densities,
    mollification_convergence_experiment,
    refinement_study,
    second_order_check,
    semiconcavity_check,
    summarize,
    verify_batch,
    write_reports_csv,
)
from otlab.geometry import DENSITY_FLOOR, Grid, bump_density, random_smooth_density
from otlab.jko import (
    JKOConfig,
    entropy_energy,
    jko_vs_pde_report,
    power_energy,
    run_jko,
    write_trajectory_dir,
)
from otlab.ot_core import (
    map_consistency_check,
    solve_exact_1d,
    solve_lp,
    transport_map_from_potential,
    weighted_quantile,
)

BATCH_BUDGET_SECONDS = 600.0
HEAT_BUDGET_SECONDS = 300.0


def verdict(number: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{word}] {detail}")
    assert ok, f"criterion {number:02d} failed: {detail}"


def heat_scheme(steps: int = 50) -> JKOConfig:
    return JKOConfig(p=2.0, tau=1e-3, steps=steps, energy=entropy_energy(),
                     eps=1e-4)


@pytest.fixture(scope="module")
def lp_batch():
    spec = BatchSpec(seeds=tuple(range(20)), p_values=(1.5, 2.0, 3.0),
                     q_values=(1.5, 2.0, 4.0), n_values=(128,), solver="lp")
    start = time.monotonic()
    reports = verify_batch(spec)
    elapsed = time.monotonic() - start
    return spec, reports, elapsed


@pytest.fixture(scope="module")
def heat_benchmark(tmp_path_factory):
    rho0 = bump_density(Grid(1, 0.0, 1.0, 128))
    config = heat_scheme()
    start = time.monotonic()
    trajectory = run_jko(rho0, config)
    report = jko_vs_pde_report(trajectory, config, refine=True)
    elapsed = time.monotonic() - start
    out = tmp_path_factory.mktemp("heat") / "run"
    write_trajectory_dir(out, trajectory)
    return rho0, config, trajectory, report, elapsed, out


def test_criterion_01_five_gradients_batch(lp_batch, tmp_path_factory):
    spec, reports, elapsed = lp_batch
    stats = summarize(reports)
    write_reports_csv(tmp_path_factory.mktemp("batch") / "reports.csv", reports)
    every_within = all(r.passed for r in reports) and stats.error_count == 0
    ok = (stats.count == 180 and every_within
          and stats.fraction_nonnegative >= 0.90
          and elapsed <= BATCH_BUDGET_SECONDS)
    verdict(1, ok,
            f"180-instance LP batch: min_lhs={stats.min_lhs:.3e} "
            f"nonnegative={stats.fraction_nonnegative:.3f} "
            f"within_tolerance={stats.fraction_within_tolerance:.3f} "
            f"runtime={elapsed:.1f}s")


def test_criterion_02_refinement_halves_negative_excursions(lp_batch):
    spec, reports, _ = lp_batch
    negatives = sorted((r for r in reports if r.lhs < 0), key=lambda r: r.lhs)[:5]
    if not negatives:
        verdict(2, True, "no negative excursions at n=128; vacuously satisfied")
        return
    fine_spec = dataclasses.replace(spec, solver="auto")
    instances = [(r.seed, r.p, r.q) for r in negatives]
    curves = refinement_study(fine_spec, instances, (128, 512))
    shrunk = []
    for key, (coarse, fine) in curves.items():
        shrunk.append(max(-fine, 0.0) <= 0.5 * (-coarse))
    verdict(2, all(shrunk),
            f"{len(negatives)} negative instances refined to n=512: "
            f"halved={sum(shrunk)}/{len(shrunk)}")


def test_criterion_03_lp_matches_exact_1d():
    grid = Grid(1, 0.0, 1.0, 128)
    spacing = grid.spacing[0]
    worst_rel = 0.0
    worst_map = 0.0
    for p in (1.5, 2.0, 3.0):
        cost = power_cost(p, grid.cost_radius)
        for seed in range(10):
            rho = random_smooth_density(grid, seed)
            g = random_smooth_density(grid, seed + 100)
            exact, exact_map = solve_exact_1d(rho, g, cost)
            lp = solve_lp(rho, g, cost)
            rel = abs(lp.primal - exact.primal) / max(abs(exact.primal), 1e-300)
            worst_rel = max(worst_rel, rel)
            lp_map = transport_map_from_potential(lp.phi, cost, rho)
            mask = exact_map.mask & lp_map.mask
            gap = np.abs(exact_map.points[mask, 0] - lp_map.points[mask, 0])
            weights = rho.values.reshape(-1)[mask]
            worst_map = max(worst_map, weighted_quantile(gap, weights, 0.95))
    ok = worst_rel <= 1e-6 and worst_map <= spacing
    verdict(3, ok,
            f"30 LP-vs-exact pairs: max primal rel diff={worst_rel:.3e}, "
            f"worst mass-weighted 95th map gap={worst_map:.3e} "
            f"(cell width {spacing:.3e})")


def test_criterion_04_conjugate_round_trip():
    rng = np.random.default_rng(42)
    radius = 1.0
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        cost = power_cost(p, radius)
        magnitudes = rng.uniform(1e-6, radius, size=1000)
        signs = rng.choice((-1.0, 1.0), size=1000)
        z = (magnitudes * signs)[:, None]
        back = grad_h_star(cost, grad_h(cost, z))
        rel = np.abs(back - z).reshape(-1) / np.abs(z).reshape(-1)
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-8
    verdict(4, ok,
            f"1000 points per p in (1.5, 2, 3): "
            f"max relative round-trip error={worst:.3e}")


def test_criterion_05_mollification():
    radius = 1.0
    widths = (0.2, 0.1, 0.05)
    z = np.linspace(-0.7, 0.7, 801)[:, None]
    z = z[np.abs(z[:, 0]) > 1e-9]

    quad = power_cost(2.0, radius)
    quad_dev = max(
        float(np.abs(grad_h(mollify(quad, eps), z) - grad_h(quad, z)).max())
        for eps in widths
    )

    steep = power_cost(1.5, radius)
    base_grad = grad_h(steep, z)
    sup_devs = [float(np.abs(grad_h(mollify(steep, eps), z) - base_grad).max())
                for eps in widths]
    sup_monotone = all(b <= a + 1e-12 for a, b in zip(sup_devs, sup_devs[1:]))

    grid = Grid(1, 0.0, 1.0, 64)
    rho = random_smooth_density(grid, 3)
    g = random_smooth_density(grid, 4)
    report = mollification_convergence_experiment(
        rho, g, power_cost(1.5, grid.cost_radius), widths)
    measures = report.deviation_measures
    measure_monotone = all(b <= a + 1e-12 for a, b in zip(measures, measures[1:]))

    ok = quad_dev <= 1e-8 and sup_monotone and measure_monotone
    verdict(5, ok,
            f"quadratic gradient deviation={quad_dev:.3e}; p=1.5 sup deviations "
            f"{[f'{d:.3e}' for d in sup_devs]} nonincreasing={sup_monotone}; "
            f"map-deviation measures {list(measures)} "
            f"nonincreasing={measure_monotone}")


def test_criterion_06_proof_identity_diagnostics():
    n = 256
    grid = Grid(1, 0.0, 1.0, n)
    cost = power_cost(2.0, grid.cost_radius)
    bound = semiconcavity_constant(cost)
    median_cap = 5.0 / n
    worst_median = 0.0
    second_order_ok = []
    semiconcavity_ok = []
    for seed in range(5):
        rho = random_smooth_density(grid, seed)
        g = random_smooth_density(grid, seed + 100)
        result, map_field = solve_exact_1d(rho, g, cost)
        consistency = map_consistency_check(result.phi, result.psi, map_field,
                                            cost, rho)
        worst_median = max(worst_median, consistency.median_psi,
                           consistency.median_phi)
        curvature = second_order_check(result.phi, result.psi, map_field, rho,
                                       bound)
        second_order_ok.append(curvature.passed)
        semiconcavity_ok.append(semiconcavity_check(result.phi, bound, grid).passed)
    ok = (worst_median <= median_cap and all(second_order_ok)
          and all(semiconcavity_ok))
    verdict(6, ok,
            f"5 seeds at n=256, p=2: worst map-consistency median="
            f"{worst_median:.3e} (cap {median_cap:.3e}), second-order passes="
            f"{sum(second_order_ok)}/5, semiconcavity passes="
            f"{sum(semiconcavity_ok)}/5")


def test_criterion_07_boundary_flux():
    n = 128
    spec = BatchSpec(seeds=tuple(range(10)), n_values=(n,))
    p_cycle = (1.5, 2.0, 3.0)
    q_cycle = (1.5, 2.0, 4.0)
    flux_ok = []
    conjugate_ok = []
    worst_flux_margin = np.inf
    for seed in range(10):
        p = p_cycle[seed % 3]
        q = q_cycle[seed % 3]
        rho, g = instance_densities(spec, seed, n)
        assert float(rho.values.min()) > 0 and float(g.values.min()) > 0
        grid = rho.grid
        cost = power_cost(p, grid.cost_radius)
        result, _ = solve_exact_1d(rho, g, cost)
        hfun = power_h_function(q, delta0=_H_DELTA0_FRACTION * 2.0
                                * grid.enclosing_radius)
        (_, _, flux), = five_gradients(rho, g, result.phi, result.psi, [hfun])
        floor_level = -1e-2 * (rho.tv() + g.tv())
        flux_ok.append(flux >= floor_level)
        worst_flux_margin = min(worst_flux_margin, flux - floor_level)
        check = boundary_conjugate_check(rho, result.phi, cost, floor=DENSITY_FLOOR)
        conjugate_ok.append(check.passed and check.cell_count > 0)
    ok = all(flux_ok) and all(conjugate_ok)
    verdict(7, ok,
            f"10 positive-density instances: flux bound passes="
            f"{sum(flux_ok)}/10 (worst margin {worst_flux_margin:.3e}), "
            f"boundary conjugate passes={sum(conjugate_ok)}/10")


def test_criterion_08_heat_benchmark(heat_benchmark):
    _, config, trajectory, report, elapsed, _ = heat_benchmark
    final_ok = report.distances[-1] <= 0.05
    refine_ok = report.refinement_ok
    tv = trajectory.tv
    tv_slack = 1e-3 * tv[0]
    tv_ok = all(b <= a + tv_slack for a, b in zip(tv, tv[1:]))
    energy = trajectory.energy
    descent_ok = all(b <= a + 1e-10 for a, b in zip(energy, energy[1:]))
    ok = (trajectory.error == "" and final_ok and refine_ok and tv_ok
          and descent_ok and elapsed <= HEAT_BUDGET_SECONDS)
    verdict(8, ok,
            f"heat flow n=128 tau=1e-3 t=0.05: final L1="
            f"{report.distances[-1]:.4f} (cap 0.05), halved-tau L1="
            f"{report.refined_distances[-1]:.4f} nonincreasing={refine_ok}, "
            f"tv nonincreasing={tv_ok}, descent every step={descent_ok}, "
            f"runtime={elapsed:.1f}s")


def test_criterion_09_general_p_smoke():
    rho0 = bump_density(Grid(1, 0.0, 1.0, 128))
    config = JKOConfig(p=3.0, tau=1e-3, steps=20, energy=power_energy(2.0),
                       eps=1e-4)
    trajectory = run_jko(rho0, config)
    clean = trajectory.error == "" and len(trajectory) == 21
    tv = trajectory.tv
    tv_ok = all(b <= a + 1e-3 * tv[0] for a, b in zip(tv, tv[1:]))
    prob_ok = all(
        abs(d.mass - 1.0) <= 1e-10 and float(d.values.min()) >= 0.0
        for d in trajectory.densities
    )
    ok = clean and tv_ok and prob_ok
    verdict(9, ok,
            f"p=3 power-energy flow, 20 steps: completed={clean}, "
            f"tv nonincreasing={tv_ok}, probability iterates={prob_ok}")


def test_criterion_10_determinism(lp_batch, heat_benchmark, tmp_path):
    spec, reports, _ = lp_batch
    first_csv = tmp_path / "first_reports.csv"
    second_csv = tmp_path / "second_reports.csv"
    write_reports_csv(first_csv, reports)
    write_reports_csv(second_csv, verify_batch(spec))
    batch_same = first_csv.read_bytes() == second_csv.read_bytes()

    rho0, config, _, _, _, first_dir = heat_benchmark
    second_dir = tmp_path / "heat_rerun"
    write_trajectory_dir(second_dir, run_jko(rho0, config))
    names = sorted(q.name for q in Path(first_dir).iterdir())
    rerun_names = sorted(q.name for q in second_dir.iterdir())
    heat_same = names == rerun_names and all(
        (Path(first_dir) / name).read_bytes() == (second_dir / name).read_bytes()
        for name in names
    )
    ok = batch_same and heat_same
    verdict(10, ok,
            f"reruns byte-identical: inequality batch CSV={batch_same}, "
            f"heat trajectory files ({len(names)})={heat_same}")

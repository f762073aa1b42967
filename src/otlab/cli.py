"""Deterministic experiment runner: every pipeline as a subcommand.

Subcommands (``otlab <name> --config file.json --out dir``):

- ``solve-ot``       one transport solve, serialized result directory
- ``verify-5g``      gradient-inequality batch, reports CSV + summary line
- ``jko``            minimizing-movement run, trace.csv + state CSVs
- ``mollify-study``  cost-mollification map convergence, CSV
- ``ctransform``     c-transform of a potential stored in a field CSV

Configs are JSON objects with a strict schema: unknown keys anywhere are
rejected (exit 2), so a typo cannot silently fall back to a default.
Relative paths inside a config resolve against the config file's directory.
A top-level ``"seed"`` (overridable with ``--seed``) feeds any density spec
of kind "random" that does not carry its own seed. Outputs are pure
functions of (config, seed): reruns produce byte-identical files, and every
output directory gets a ``manifest`` recording the config hash, the seed,
and the tool version.

Exit codes: 0 success/pass, 2 configuration error, 3 numerical/solver
error, 4 acceptance failure (a verification subcommand ran but its check
failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cost import cost_from_config
from .errors import ConfigError, OTLabError
from .fivegrad import (
    BatchSpec,
    mollification_convergence_experiment,
    summarize,
    verify_batch,
    write_reports_csv,
)
from .geometry import (
    DensityField,
    Grid,
    density_from_csv,
    normalize,
    random_smooth_density,
    read_field_csv,
    write_field_csv,
    write_rows,
)
from .jko import (
    JKOConfig,
    aligned_dt,
    energy_from_config,
    jko_vs_pde_report,
    run_jko,
    write_trajectory_dir,
)
from .ot_core import (
    c_transform,
    default_mass_threshold,
    solve_entropic,
    solve_exact_1d,
    solve_lp,
    transport_map_from_potential,
    write_result_dir,
)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_SOLVER = 3
_EXIT_FAILED = 4


# ---------------------------------------------------------------------------
# config plumbing


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where} is missing required key '{key}'")
    return mapping[key]


def _check_numbers(mapping: dict, where: str, integer: bool, scalars=(), lists=(),
                   either=()) -> None:
    """``scalars`` keys hold one JSON number, ``lists`` keys a list of them and
    ``either`` keys one of the two forms; bools never pass."""
    numeric, one, several = (((int,), "an integer", "integers") if integer
                             else ((int, float), "a real number", "real numbers"))
    for key in (k for k in (*scalars, *lists, *either) if k in mapping):
        many = key in lists or (key in either and type(mapping[key]) is list)
        values = mapping[key] if many else [mapping[key]]
        if type(values) is not list or any(type(v) not in numeric for v in values):
            want = (f"{one} or a list of {several}" if key in either
                    else "a list of " + several if many else one)
            raise ConfigError(f"{where} key '{key}' must be {want}, got {mapping[key]!r}")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _grid_from_spec(spec: dict) -> Grid:
    _check_keys(spec, {"d", "lower", "upper", "n"}, "grid spec")
    d = _require(spec, "d", "grid spec")
    lower = _require(spec, "lower", "grid spec")
    upper = _require(spec, "upper", "grid spec")
    n = _require(spec, "n", "grid spec")
    _check_numbers(spec, "grid spec", True, ("d",), either=("n",))
    _check_numbers(spec, "grid spec", False, either=("lower", "upper"))
    try:
        return Grid(d, lower, upper, n)
    except OTLabError as exc:
        raise ConfigError(f"invalid grid spec: {exc}") from exc


def _density_from_spec(spec: dict, grid: Grid, base_dir: Path,
                       default_seed, label: str) -> DensityField:
    _check_keys(spec, {"kind", "seed", "mode_count", "floor", "sharpness",
                       "center", "path"}, f"{label} spec")
    kind = _require(spec, "kind", f"{label} spec")
    if kind == "uniform":
        _check_keys(spec, {"kind"}, f"uniform {label} spec")
        volume = float(np.prod([hi - lo for lo, hi in zip(grid.lower, grid.upper)]))
        return DensityField(grid, np.full(grid.shape, 1.0 / volume))
    if kind == "random":
        _check_keys(spec, {"kind", "seed", "mode_count", "floor"}, f"random {label} spec")
        seed = spec.get("seed", default_seed)
        if seed is None:
            raise ConfigError(
                f"random {label} spec needs a 'seed' (or a top-level config seed)")
        try:
            return random_smooth_density(grid, int(seed),
                                         mode_count=int(spec.get("mode_count", 3)),
                                         floor=float(spec.get("floor", 0.1)))
        except OTLabError as exc:
            raise ConfigError(f"invalid random {label} spec: {exc}") from exc
    if kind == "bump":
        _check_keys(spec, {"kind", "floor", "sharpness", "center"}, f"bump {label} spec")
        floor = float(spec.get("floor", 0.05))
        sharpness = float(spec.get("sharpness", 80.0))
        if floor < 0 or sharpness <= 0:
            raise ConfigError(f"bump {label} spec needs floor >= 0 and sharpness > 0")
        center = spec.get("center", [0.5 * (lo + hi) for lo, hi in
                                     zip(grid.lower, grid.upper)])
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (grid.d,):
            raise ConfigError(f"bump {label} center must have {grid.d} coordinates")
        sq = ((grid.cell_centers() - center[None, :]) ** 2).sum(axis=1)
        vals = floor + np.exp(-sharpness * sq)
        return normalize(DensityField(grid, vals.reshape(grid.shape)))
    if kind == "file":
        _check_keys(spec, {"kind", "path"}, f"file {label} spec")
        path = base_dir / _require(spec, "path", f"file {label} spec")
        try:
            density = density_from_csv(path)
        except (OSError, OTLabError) as exc:
            raise ConfigError(f"cannot read {label} file {path}: {exc}") from exc
        if not _grids_compatible(density.grid, grid):
            raise ConfigError(
                f"{label} file grid does not match the configured grid")
        return DensityField(grid, density.values)
    raise ConfigError(f"unknown {label} kind {kind!r}")


def _grids_compatible(got: Grid, want: Grid) -> bool:
    """Same layout up to the float noise of a CSV center round-trip."""
    if got.d != want.d or got.n != want.n:
        return False
    for a in range(want.d):
        scale = want.upper[a] - want.lower[a]
        if abs(got.lower[a] - want.lower[a]) > 1e-9 * scale:
            return False
        if abs(got.upper[a] - want.upper[a]) > 1e-9 * scale:
            return False
    return True


def _write_manifest(out: Path, subcommand: str, config: dict, seed) -> None:
    write_rows(out / "manifest", [
        [f"subcommand={subcommand}"],
        [f"config_hash={_config_hash(config)}"],
        [f"seed={'' if seed is None else seed}"],
        [f"tool=otlab {__version__}"],
    ])


def _prepare_out(out_dir: str) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        write_rows(probe, [])
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve_ot(config: dict, out: Path, base_dir: Path, seed) -> int:
    _check_keys(config, {"seed", "grid", "cost", "rho", "g", "solver",
                         "write_map"}, "solve-ot config")
    grid = _grid_from_spec(_require(config, "grid", "config"))
    cost = cost_from_config(_require(config, "cost", "config"), grid.cost_radius)
    rho = _density_from_spec(_require(config, "rho", "config"), grid, base_dir,
                             seed, "rho")
    g = _density_from_spec(_require(config, "g", "config"), grid, base_dir,
                           None if seed is None else seed + 1, "g")

    solver_spec = config.get("solver", {"method": "exact1d"})
    _check_keys(solver_spec, {"method", "eps_final", "mass_threshold"}, "solver spec")
    method = solver_spec.get("method", "exact1d")
    if method not in ("exact1d", "lp", "entropic"):
        raise ConfigError(f"unknown solver method {method!r}")
    if method != "entropic" and "eps_final" in solver_spec:
        raise ConfigError("eps_final only applies to the entropic solver")
    _check_numbers(solver_spec, "solver spec", False, ("eps_final", "mass_threshold"))
    write_map = config.get("write_map", True)
    if type(write_map) is not bool:
        raise ConfigError(
            f"solve-ot config key 'write_map' must be true or false, got {write_map!r}")

    threshold = float(solver_spec.get("mass_threshold", default_mass_threshold(grid)))
    map_field = None
    if method == "exact1d":
        result, map_field = solve_exact_1d(rho, g, cost, mass_threshold=threshold)
    elif method == "lp":
        result = solve_lp(rho, g, cost)
    else:
        result = solve_entropic(rho, g, cost,
                                eps_final=float(solver_spec.get("eps_final", 1e-4)))
    if map_field is None and write_map:
        map_field = transport_map_from_potential(result.phi, cost, rho,
                                                 mass_threshold=threshold)
    write_result_dir(out, result, map_field if write_map else None)
    print(f"solve-ot: solver={result.solver} primal={result.primal:.12e} "
          f"gap={result.gap:.3e}")
    return _EXIT_OK


def cmd_verify_5g(config: dict, out: Path, base_dir: Path, seed) -> int:
    _check_keys(config, {"seed", "batch"}, "verify-5g config")
    batch = _require(config, "batch", "config")
    allowed = {"seeds", "p_values", "q_values", "n_values", "d", "solver",
               "bounds", "floor", "mode_count", "entropic_eps"}
    _check_keys(batch, allowed, "batch spec")
    if "seeds" not in batch:
        raise ConfigError("batch spec is missing required key 'seeds'")
    _check_numbers(batch, "batch spec", True, ("d", "mode_count"), ("seeds", "n_values"))
    _check_numbers(batch, "batch spec", False, ("floor", "entropic_eps"), ("p_values", "q_values"))
    bounds = batch.get("bounds")
    if bounds is not None and (type(bounds) is not list or any(
            type(pair) is not list or any(type(v) not in (int, float) for v in pair)
            for pair in bounds)):
        raise ConfigError("batch spec key 'bounds' must be null or a list of "
                          f"[lo, hi] lists of real numbers, got {bounds!r}")
    kwargs = dict(batch)
    kwargs["seeds"] = tuple(kwargs["seeds"])
    for key in ("p_values", "q_values", "n_values"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if bounds is not None:
        kwargs["bounds"] = tuple(tuple(pair) for pair in bounds)
    try:
        spec = BatchSpec(**kwargs)
    except OTLabError as exc:
        raise ConfigError(f"invalid batch spec: {exc}") from exc

    reports = verify_batch(spec)
    write_reports_csv(out / "reports.csv", reports)
    stats = summarize(reports)
    all_passed = all(r.passed for r in reports) and stats.error_count == 0
    print(f"verify-5g: instances={stats.count} errors={stats.error_count} "
          f"min_lhs={stats.min_lhs:.6e} nonnegative={stats.fraction_nonnegative:.3f} "
          f"within_tolerance={stats.fraction_within_tolerance:.3f} "
          f"{'PASS' if all_passed else 'FAIL'}")
    return _EXIT_OK if all_passed else _EXIT_FAILED


def cmd_jko(config: dict, out: Path, base_dir: Path, seed) -> int:
    _check_keys(config, {"seed", "grid", "rho0", "scheme", "write_densities",
                         "compare_pde"}, "jko config")
    grid = _grid_from_spec(_require(config, "grid", "config"))
    rho0 = _density_from_spec(_require(config, "rho0", "config"), grid, base_dir,
                              seed, "rho0")

    scheme = _require(config, "scheme", "config")
    allowed = {"p", "tau", "steps", "energy", "eps", "inner_tol", "max_inner"}
    _check_keys(scheme, allowed, "scheme spec")
    for key in ("p", "tau", "steps", "energy"):
        _require(scheme, key, "scheme spec")
    _check_numbers(scheme, "scheme spec", True, ("steps", "max_inner"))
    _check_numbers(scheme, "scheme spec", False, ("p", "tau", "eps", "inner_tol"))
    kwargs = dict(scheme)
    kwargs["energy"] = energy_from_config(kwargs["energy"])
    try:
        jko_config = JKOConfig(**kwargs)
    except OTLabError as exc:
        raise ConfigError(f"invalid scheme spec: {exc}") from exc

    trajectory = run_jko(rho0, jko_config)
    write_trajectory_dir(out, trajectory,
                         densities=bool(config.get("write_densities", True)))
    if trajectory.error:
        print(f"jko: aborted after {len(trajectory) - 1} steps: {trajectory.error}",
              file=sys.stderr)
        return _EXIT_SOLVER

    compare = config.get("compare_pde")
    if compare is not None:
        _check_keys(compare, {"dt", "refine"}, "compare_pde spec")
        refine = bool(compare.get("refine", False))
        dt = compare.get("dt")
        dt = aligned_dt(rho0, jko_config) if dt is None else float(dt)
        report = jko_vs_pde_report(trajectory, jko_config, dt, refine=refine)
        columns = [report.times, report.distances]
        header = ["time", "distance"]
        if refine:
            columns.append(report.refined_distances)
            header.append("refined_distance")
        write_rows(out / "pde_compare.csv", [header, *zip(*columns)])
        print(f"jko: steps={jko_config.steps} final_tv={trajectory.tv[-1]:.6f} "
              f"pde_distance={report.final_distance:.6f}")
    else:
        print(f"jko: steps={jko_config.steps} final_tv={trajectory.tv[-1]:.6f}")
    return _EXIT_OK


def cmd_mollify_study(config: dict, out: Path, base_dir: Path, seed) -> int:
    _check_keys(config, {"seed", "grid", "cost", "rho", "g", "eps_sequence",
                         "solver"}, "mollify-study config")
    grid = _grid_from_spec(_require(config, "grid", "config"))
    cost = cost_from_config(_require(config, "cost", "config"), grid.cost_radius)
    rho = _density_from_spec(_require(config, "rho", "config"), grid, base_dir,
                             seed, "rho")
    g = _density_from_spec(_require(config, "g", "config"), grid, base_dir,
                           None if seed is None else seed + 1, "g")
    eps_sequence = _require(config, "eps_sequence", "config")
    if not isinstance(eps_sequence, list) or not eps_sequence:
        raise ConfigError("eps_sequence must be a non-empty list of widths")
    widths = [float(e) for e in eps_sequence]
    if any(e2 >= e1 for e1, e2 in zip(widths, widths[1:])):
        raise ConfigError("eps_sequence must decrease strictly")
    solver = config.get("solver", "exact1d")
    if solver not in ("lp", "exact1d"):
        raise ConfigError(f"unknown mollify-study solver {solver!r}")

    report = mollification_convergence_experiment(rho, g, cost, widths,
                                                  solver=solver)
    write_rows(out / "mollify.csv", [
        ("epsilon", "deviation_measure", "lp_distance"),
        *zip(report.epsilons, report.deviation_measures, report.lp_distances),
    ])
    print(f"mollify-study: widths={len(report.epsilons)} "
          f"monotone={'yes' if report.monotone_ok else 'no'} "
          f"final={'yes' if report.final_ok else 'no'} "
          f"{'PASS' if report.passed else 'FAIL'}")
    return _EXIT_OK if report.passed else _EXIT_FAILED


def cmd_ctransform(config: dict, out: Path, base_dir: Path, seed) -> int:
    _check_keys(config, {"seed", "cost", "potential_csv", "eval_grid"},
                "ctransform config")
    path = base_dir / _require(config, "potential_csv", "config")
    try:
        value_grid, values = read_field_csv(path)
    except (OSError, OTLabError) as exc:
        raise ConfigError(f"cannot read potential file {path}: {exc}") from exc
    eval_grid = value_grid
    if "eval_grid" in config:
        eval_grid = _grid_from_spec(config["eval_grid"])
    radius = max(value_grid.cost_radius, eval_grid.cost_radius)
    cost = cost_from_config(_require(config, "cost", "config"), radius)
    transform = c_transform(cost, values, value_grid, eval_grid)
    write_field_csv(out / "transform.csv", eval_grid, transform,
                    value_header="value")
    print(f"ctransform: cells={eval_grid.num_cells} "
          f"min={float(transform.min()):.6e} max={float(transform.max()):.6e}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# driver

_COMMANDS = {
    "solve-ot": cmd_solve_ot,
    "verify-5g": cmd_verify_5g,
    "jko": cmd_jko,
    "mollify-study": cmd_mollify_study,
    "ctransform": cmd_ctransform,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otlab",
        description="Deterministic transport/flow experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's top-level seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = args.seed if args.seed is not None else config.get("seed")
        if seed is not None and (not isinstance(seed, int) or seed < 0):
            raise ConfigError("seed must be a nonnegative integer")
        out = _prepare_out(args.out)
        base_dir = Path(args.config).resolve().parent
        code = _COMMANDS[args.subcommand](config, out, base_dir, seed)
        _write_manifest(out, args.subcommand, config, seed)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OTLabError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

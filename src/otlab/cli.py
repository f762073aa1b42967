"""Deterministic experiment runner: every pipeline as a subcommand.

Subcommands (``otlab <name> --config file.json --out dir``):

- ``solve-ot``       one transport solve, serialized result directory (always
                     with map.csv)
- ``verify-5g``      gradient-inequality batch, reports CSV + summary line
- ``jko``            minimizing-movement run, trace.csv + every state's
                     density CSV
- ``mollify-study``  cost-mollification map convergence, CSV
- ``ctransform``     c-transform of a potential stored in a field CSV

Configs are JSON objects checked once against the strict schema below:
an unknown key, a missing key or a value of the wrong JSON type anywhere
exits 2 with its key path named, so a typo is never read as a default or
cast into another value. Relative paths inside a config resolve against
the config file's directory.
In the configs of solve-ot, jko and mollify-study, which draw densities, a
top-level ``"seed"`` (overridable with their ``--seed``) feeds any density
spec of kind "random" that does not carry its own seed; verify-5g and
ctransform take neither. Outputs are pure functions of (config, seed):
reruns produce byte-identical files, and every output directory gets a
``manifest`` recording the config hash, the seed, and the tool version.

Exit codes: 0 success/pass, 2 configuration error, 3 numerical/solver
error, 4 acceptance failure (a verification subcommand ran but its check
failed). A configuration error removes the output directory, and any of
its parents, that the run created; a directory that existed is left as it
was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .cost import RadialCost, power_cost, tabulated_cost
from .errors import ConfigError, DomainError, OTLabError, ParameterError
from .fivegrad import (
    BatchSpec,
    check_mollification,
    mollification_convergence_experiment,
    summarize,
    verify_batch,
    write_reports_csv,
)
from .geometry import (
    DensityField,
    Grid,
    normalize,
    random_smooth_density,
    read_field_csv,
    write_field_csv,
    write_rows,
)
from .jko import (
    Energy,
    JKOConfig,
    check_scheme_grid,
    comparison_steps,
    entropy_energy,
    jko_vs_pde_report,
    power_energy,
    run_jko,
    write_trajectory_dir,
)
from .ot_core import (
    c_transform,
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
# config schema: every key of every config and its JSON type, in one place


def _where(name: str, path: tuple) -> str:
    """Names a section or key in an error message, with its key path if nested."""
    return f"{name} at '{'.'.join(path)}'" if path else name


@dataclass(frozen=True)
class _Type:
    """A JSON value type: ``accepts`` tests a value, ``want``/``plural`` name the type."""

    accepts: Callable[[object], bool]
    want: str
    plural: str


@dataclass(frozen=True)
class _Section:
    """A JSON object with some of ``keys`` and all of ``required``; a tagged section maps
    each value of its string key ``tag`` (absent: ``default``) to a variant section."""

    name: str
    keys: dict
    required: tuple = ()
    tag: str | None = None
    default: str | None = None


def _check(spec, value, path: tuple, where: str) -> None:
    """Raise ConfigError if ``value``, found at key ``path``, does not fit ``spec``."""
    if isinstance(spec, _Type):
        if not spec.accepts(value):
            raise ConfigError(f"{where} must be {spec.want}, got {value!r}")
    elif type(value) is not dict:
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    elif spec.tag is not None:
        if spec.tag not in value and spec.default is None:
            raise ConfigError(f"{_where(spec.name, path)} is missing required key '{spec.tag}'")
        choice = value.get(spec.tag, spec.default)
        if type(choice) is not str or choice not in spec.keys:
            at = _where(f"{spec.name} key '{spec.tag}'", (*path, spec.tag))
            raise ConfigError(f"{at} must be one of {sorted(spec.keys)}, got {choice!r}")
        rest = {key: item for key, item in value.items() if key != spec.tag}
        _check(spec.keys[choice], rest, path, where)
    else:
        here = _where(spec.name, path)
        unknown = sorted(set(value) - set(spec.keys))
        if unknown:
            raise ConfigError(f"unknown keys in {here}: {unknown}")
        missing = [key for key in spec.required if key not in value]
        if missing:
            raise ConfigError(f"{here} is missing required key '{missing[0]}'")
        for key, item in value.items():
            sub = (*path, key)
            _check(spec.keys[key], item, sub,
                   _where(f"{spec.name} key '{key}'", sub if path else ()))


# exact type matches: a JSON bool is a Python int but never passes as a number;
# a real number is finite (Python's JSON reader takes NaN and Infinity) and
# within the float range, so that float() of it cannot overflow
_INT = _Type(lambda v: type(v) is int, "an integer", "integers")
_REAL = _Type(lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
              "a real number", "real numbers")
_BOOL = _Type(lambda v: type(v) is bool, "true or false", "booleans")
_STR = _Type(lambda v: type(v) is str, "a string", "strings")


def _list_of(item: _Type) -> _Type:
    return _Type(lambda v: type(v) is list and all(map(item.accepts, v)),
                 f"a list of {item.plural}", f"lists of {item.plural}")


def _one_or_list(item: _Type) -> _Type:
    many = _list_of(item)
    return _Type(lambda v: item.accepts(v) or many.accepts(v),
                 f"{item.want} or {many.want}", f"{item.plural} or {many.plural}")


def _tagged(name: str, tag: str, variants: dict, default: str | None = None) -> _Section:
    """Tagged section whose variants are ``{value: (keys, required)}``."""
    return _Section(name, {value: _Section(f"{value} {name}", keys, required)
                           for value, (keys, required) in variants.items()},
                    tag=tag, default=default)


def _density(label: str) -> _Section:
    return _tagged(f"{label} spec", "kind", {
        "uniform": ({}, ()),
        "random": ({"seed": _INT, "mode_count": _INT, "floor": _REAL}, ()),
        "bump": ({"floor": _REAL, "sharpness": _REAL, "center": _one_or_list(_REAL)}, ()),
        "file": ({"path": _STR}, ("path",)),
    })


_GRID = _Section("grid spec", {
    "d": _INT, "lower": _one_or_list(_REAL), "upper": _one_or_list(_REAL),
    "n": _one_or_list(_INT)}, ("d", "lower", "upper", "n"))
_COST = _tagged("cost spec", "family", {
    "power": ({"p": _REAL}, ("p",)),
    "tabulated": ({"radii": _list_of(_REAL), "values": _list_of(_REAL)}, ("radii", "values")),
})
_SOLVER = _tagged("solver spec", "method", {
    "exact1d": ({}, ()),
    "lp": ({}, ()),
    "entropic": ({"eps_final": _REAL}, ()),
}, default="exact1d")

_SOLVE_OT_CONFIG = _Section("solve-ot config", {
    "seed": _INT, "grid": _GRID, "cost": _COST, "rho": _density("rho"),
    "g": _density("g"), "solver": _SOLVER,
}, ("grid", "cost", "rho", "g"))
_BATCH = _Section("batch spec", {
    "seeds": _list_of(_INT), "p_values": _list_of(_REAL), "q_values": _list_of(_REAL),
    "n_values": _list_of(_INT), "d": _INT, "solver": _STR, "entropic_eps": _REAL},
    ("seeds",))
_VERIFY_5G_CONFIG = _Section("verify-5g config", {"batch": _BATCH}, ("batch",))
_JKO_CONFIG = _Section("jko config", {
    "seed": _INT, "grid": _GRID, "rho0": _density("rho0"),
    "scheme": _Section("scheme spec", {
        "p": _REAL, "tau": _REAL, "steps": _INT, "eps": _REAL,
        "energy": _tagged("energy spec", "kind", {
            "entropy": ({}, ()), "power": ({"m": _REAL}, ("m",))}),
    }, ("p", "tau", "steps", "energy")),
    "compare_pde": _Section("compare_pde spec", {"refine": _BOOL}),
}, ("grid", "rho0", "scheme"))
_MOLLIFY_STUDY_CONFIG = _Section("mollify-study config", {
    "seed": _INT, "grid": _GRID, "cost": _COST, "rho": _density("rho"),
    "g": _density("g"), "eps_sequence": _list_of(_REAL),
}, ("grid", "cost", "rho", "g", "eps_sequence"))
_CTRANSFORM_CONFIG = _Section("ctransform config", {
    "cost": _COST, "potential_csv": _STR, "eval_grid": _GRID,
}, ("cost", "potential_csv"))


# ---------------------------------------------------------------------------
# config loading and builders from checked config values


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _grid_from_spec(spec: dict) -> Grid:
    try:
        return Grid(spec["d"], spec["lower"], spec["upper"], spec["n"])
    except OTLabError as exc:
        raise ConfigError(f"invalid grid spec: {exc}") from exc


def _cost_from_spec(spec: dict, radius: float) -> RadialCost:
    family = spec["family"]
    try:
        if family == "power":
            return power_cost(spec["p"], radius)
        return tabulated_cost(spec["radii"], spec["values"], radius)
    except OTLabError as exc:
        raise ConfigError(f"invalid {family} cost spec: {exc}") from exc


def _energy_from_spec(spec: dict) -> Energy:
    return power_energy(spec["m"]) if spec["kind"] == "power" else entropy_energy()


def _density_from_spec(spec: dict, grid: Grid, base_dir: Path,
                       default_seed, label: str) -> DensityField:
    kind = spec["kind"]
    if kind == "uniform":
        volume = float(np.prod([hi - lo for lo, hi in zip(grid.lower, grid.upper)]))
        return DensityField(grid, np.full(grid.shape, 1.0 / volume))
    if kind == "random":
        seed = spec.get("seed", default_seed)
        if seed is None:
            raise ConfigError(f"random {label} spec needs a 'seed' (or a top-level config seed)")
        try:
            return random_smooth_density(grid, seed, mode_count=spec.get("mode_count", 3),
                                         floor=spec.get("floor", 0.1))
        except OTLabError as exc:
            raise ConfigError(f"invalid random {label} spec: {exc}") from exc
    if kind == "bump":
        floor = spec.get("floor", 0.05)
        sharpness = spec.get("sharpness", 80.0)
        if floor < 0 or sharpness <= 0:
            raise ConfigError(f"bump {label} spec needs floor >= 0 and sharpness > 0")
        center = np.atleast_1d(np.asarray(
            spec.get("center", np.add(grid.lower, grid.upper) / 2), dtype=float))
        if center.shape != (grid.d,):
            raise ConfigError(f"bump {label} center must have {grid.d} coordinates")
        sq = ((grid.cell_centers() - center[None, :]) ** 2).sum(axis=1)
        vals = floor + np.exp(-sharpness * sq)
        try:
            return normalize(DensityField(grid, vals.reshape(grid.shape)))
        except OTLabError as exc:
            raise ConfigError(f"invalid bump {label} spec: {exc}") from exc
    path = base_dir / spec["path"]
    try:
        density = DensityField(*read_field_csv(path))
    except (OSError, OTLabError) as exc:
        raise ConfigError(f"cannot read {label} file {path}: {exc}") from exc
    if not _grids_compatible(density.grid, grid):
        raise ConfigError(f"{label} file grid does not match the configured grid")
    return DensityField(grid, density.values)


def _grids_compatible(got: Grid, want: Grid) -> bool:
    """Same layout up to the float noise of a CSV center round-trip."""
    if (got.d, got.n) != (want.d, want.n):
        return False
    slack = 1e-9 * np.subtract(want.upper, want.lower)
    return bool(np.all(np.abs(np.subtract(got.lower, want.lower)) <= slack)
                and np.all(np.abs(np.subtract(got.upper, want.upper)) <= slack))


def _write_manifest(out: Path, subcommand: str, config: dict, seed) -> None:
    write_rows(out / "manifest", [
        [f"subcommand={subcommand}"],
        [f"config_hash={_config_hash(config)}"],
        [f"seed={'' if seed is None else seed}"],
        [f"tool=otlab {__version__}"],
    ])


def _first_missing(path: Path) -> Path | None:
    """The outermost directory of ``path`` that does not exist yet, or None."""
    return next((p for p in (*reversed(path.parents), path) if not p.exists()), None)


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
# subcommands; each receives a config its schema has already checked


def cmd_solve_ot(config: dict, out: Path, base_dir: Path, seed) -> int:
    grid = _grid_from_spec(config["grid"])
    cost = _cost_from_spec(config["cost"], grid.cost_radius)
    rho = _density_from_spec(config["rho"], grid, base_dir, seed, "rho")
    g = _density_from_spec(config["g"], grid, base_dir,
                           None if seed is None else seed + 1, "g")
    solver_spec = config.get("solver", {})
    method = solver_spec.get("method", _SOLVER.default)
    eps_final = solver_spec.get("eps_final", 1e-4)
    if not eps_final > 0:
        raise ConfigError(f"solver eps_final must be > 0, got {eps_final!r}")
    if method == "exact1d" and grid.d != 1:
        raise ConfigError(f"solver exact1d runs on 1-d grids, not {grid.d}-d")
    if method == "exact1d":
        result, map_field = solve_exact_1d(rho, g, cost)
    else:
        result = (solve_lp(rho, g, cost) if method == "lp"
                  else solve_entropic(rho, g, cost, eps_final=eps_final))
        map_field = transport_map_from_potential(result.phi, cost, rho)
    write_result_dir(out, result, map_field)
    print(f"solve-ot: solver={result.solver} primal={result.primal:.12e} "
          f"gap={result.gap:.3e}")
    return _EXIT_OK


def cmd_verify_5g(config: dict, out: Path, base_dir: Path, seed) -> int:
    try:
        spec = BatchSpec(**config["batch"])
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
    grid = _grid_from_spec(config["grid"])
    rho0 = _density_from_spec(config["rho0"], grid, base_dir, seed, "rho0")
    scheme = config["scheme"]
    try:
        jko_config = JKOConfig(**{**scheme, "energy": _energy_from_spec(scheme["energy"])})
    except OTLabError as exc:
        raise ConfigError(f"invalid scheme spec: {exc}") from exc
    compare = config.get("compare_pde")
    if compare is not None:
        refine = compare.get("refine", False)
        try:
            comparison_steps(rho0, jko_config)
        except (DomainError, ParameterError) as exc:
            raise ConfigError(f"invalid compare_pde spec: {exc}") from exc
    try:
        check_scheme_grid(grid.d)
    except DomainError as exc:
        raise ConfigError(f"invalid grid spec: {exc}") from exc

    trajectory = run_jko(rho0, jko_config)
    write_trajectory_dir(out, trajectory)
    if trajectory.error:
        print(f"jko: aborted after {len(trajectory) - 1} steps: {trajectory.error}",
              file=sys.stderr)
        return _EXIT_SOLVER

    if compare is not None:
        report = jko_vs_pde_report(trajectory, jko_config, refine=refine)
        columns = [report.times, report.distances]
        header = ["time", "distance"]
        if refine:
            columns.append(report.refined_distances)
            header.append("refined_distance")
        write_rows(out / "pde_compare.csv", [header, *zip(*columns)])
        print(f"jko: steps={jko_config.steps} final_tv={trajectory.tv[-1]:.6f} "
              f"pde_distance={report.distances[-1]:.6f}")
    else:
        print(f"jko: steps={jko_config.steps} final_tv={trajectory.tv[-1]:.6f}")
    return _EXIT_OK


def cmd_mollify_study(config: dict, out: Path, base_dir: Path, seed) -> int:
    grid = _grid_from_spec(config["grid"])
    cost = _cost_from_spec(config["cost"], grid.cost_radius)
    widths = config["eps_sequence"]
    try:
        check_mollification(grid.d, cost, widths)
    except (DomainError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc
    rho = _density_from_spec(config["rho"], grid, base_dir, seed, "rho")
    g = _density_from_spec(config["g"], grid, base_dir,
                           None if seed is None else seed + 1, "g")

    report = mollification_convergence_experiment(rho, g, cost, widths)
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
    path = base_dir / config["potential_csv"]
    try:
        value_grid, values = read_field_csv(path)
    except (OSError, OTLabError) as exc:
        raise ConfigError(f"cannot read potential file {path}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"cannot read potential file {path}: potential values must be finite")
    eval_grid = value_grid
    if "eval_grid" in config:
        eval_grid = _grid_from_spec(config["eval_grid"])
    if eval_grid.d != value_grid.d:
        raise ConfigError(f"eval_grid is {eval_grid.d}-d but the potential grid is "
                          f"{value_grid.d}-d")
    # diagonal of the smallest box holding both grids: every pair lies within it
    radius = float(np.hypot.reduce(np.subtract(np.maximum(value_grid.upper, eval_grid.upper),
                                               np.minimum(value_grid.lower, eval_grid.lower))))
    cost = _cost_from_spec(config["cost"], radius)
    transform = c_transform(cost, values, value_grid, eval_grid)
    write_field_csv(out / "transform.csv", eval_grid, transform,
                    value_header="value")
    print(f"ctransform: cells={eval_grid.num_cells} "
          f"min={float(transform.min()):.6e} max={float(transform.max()):.6e}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# driver

# subcommand -> (command, root section of its config)
_COMMANDS = {
    "solve-ot": (cmd_solve_ot, _SOLVE_OT_CONFIG),
    "verify-5g": (cmd_verify_5g, _VERIFY_5G_CONFIG),
    "jko": (cmd_jko, _JKO_CONFIG),
    "mollify-study": (cmd_mollify_study, _MOLLIFY_STUDY_CONFIG),
    "ctransform": (cmd_ctransform, _CTRANSFORM_CONFIG),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otlab",
        description="Deterministic transport/flow experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, schema) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        if "seed" in schema.keys:  # a subcommand whose config reads no seed takes no flag
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the config's top-level seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, schema = _COMMANDS[args.subcommand]
    created = _first_missing(Path(args.out))  # what this run creates, and removes on a config error
    try:
        config = _load_config(args.config)
        _check(schema, config, (), "config root")
        seed = config.get("seed") if getattr(args, "seed", None) is None else args.seed
        if seed is not None and seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        out = _prepare_out(args.out)
        base_dir = Path(args.config).resolve().parent
        code = command(config, out, base_dir, seed)
        _write_manifest(out, args.subcommand, config, seed)
        return code
    except ConfigError as exc:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OTLabError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

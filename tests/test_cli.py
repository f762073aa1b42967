"""End-to-end tests for the command-line entry point.

Every test drives ``otlab.cli.main`` with a JSON config written to a tmp
directory and checks the exit code, the emitted files, and determinism.
The shipped example configs under ``configs/`` are exercised against a
committed golden meta file so a behavioural regression in any layer below
the CLI shows up as a value change here.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from otlab import cli, jko
from otlab.cost import power_cost
from otlab.errors import StepError
from otlab.geometry import (
    DensityField,
    Grid,
    random_smooth_density,
    read_field_csv,
    write_field_csv,
)
from otlab.jko import energy_value, entropy_energy, power_energy
from otlab.ot_core import c_transform, read_meta

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIGS = REPO_ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
NAN, INF = float("nan"), float("inf")
# a bump centered far off the unit box: exp underflows to 0 on every cell
ZERO_MASS_BUMP = {"kind": "bump", "floor": 0.0, "sharpness": 1e6, "center": 5.0}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def solve_config(**overrides) -> dict:
    payload = {
        "seed": 7,
        "grid": {"d": 1, "lower": 0.0, "upper": 1.0, "n": 48},
        "cost": {"family": "power", "p": 2.0},
        "rho": {"kind": "random"},
        "g": {"kind": "random"},
        "solver": {"method": "exact1d"},
    }
    payload.update(overrides)
    return payload


def ctransform_config() -> dict:
    return {"cost": {"family": "power", "p": 2.0},
            "potential_csv": str(CONFIGS / "ctransform_potential.csv")}


def base_config(command: str) -> dict:
    return {"solve-ot": solve_config, "jko": TestJKO().jko_config,
            "mollify-study": TestMollifyStudy().moll_config,
            "verify-5g": TestVerify5G().batch_config, "ctransform": ctransform_config}[command]()


def with_value(payload: dict, path: str, value) -> dict:
    """``payload`` with ``value`` at the dotted key path, creating missing sections."""
    *sections, key = path.split(".")
    node = payload
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return payload


# CSV files that ``geometry.read_field_csv`` must reject
MALFORMED_CSV = {
    "non_numeric_cell": "x,value\n0.125,1.0\n0.375,abc\n0.625,1.0\n0.875,1.0\n",
    "empty": "",
    "ragged_row": "x,value\n0.125,1.0\n0.375,1.0,2.0\n0.625,1.0\n0.875,1.0\n",
    "off_grid_centers": "x,value\n0.1,1.0\n0.2,1.0\n0.7,1.0\n0.9,1.0\n",
}


class TestSolveOT:
    def test_identical_marginals_cost_zero(self, tmp_path, capsys):
        payload = solve_config(rho={"kind": "uniform"}, g={"kind": "uniform"})
        del payload["seed"]  # no density reads it
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 0
        meta = read_meta(out / "meta")
        assert abs(float(meta["primal"])) < 1e-12
        assert "solve-ot:" in capsys.readouterr().out

    def test_emits_result_files_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 0
        for name in ("coupling.csv", "phi.csv", "psi.csv", "map.csv", "meta",
                     "manifest"):
            assert (out / name).exists(), name

    @pytest.mark.parametrize("grid", [
        {"n": 16.5},
        {"n": "16"},
        {"d": 1.0},
        {"lower": "0"},
        {"d": 2, "lower": [0.0, 0.0], "upper": [1.0, True], "n": [8, 8]},
        {"d": 2, "lower": [0.0, 0.0], "upper": [1.0, 1.0], "n": [8, 8.5]},
    ])
    def test_mistyped_grid_value_exits_2(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path, solve_config(
            grid={"d": 1, "lower": 0.0, "upper": 1.0, "n": 48, **grid}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "grid spec key" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", [
        {"method": "entropic", "eps_final": "x"},
        {"method": "entropic", "eps_final": True},
    ])
    def test_mistyped_solver_value_exits_2(self, tmp_path, capsys, solver):
        cfg = write_config(tmp_path, solve_config(solver=solver))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "solver spec key" in capsys.readouterr().err

    @pytest.mark.parametrize("write_map", ["no", 0, None])
    def test_mistyped_write_map_exits_2(self, tmp_path, capsys, write_map):
        cfg = write_config(tmp_path, solve_config(write_map=write_map))
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 2
        assert "write_map" in capsys.readouterr().err
        assert not (out / "map.csv").exists()

    def test_entropic_solver_dispatch(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(
            solver={"method": "entropic", "eps_final": 1e-4}))
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 0
        meta = read_meta(out / "meta")
        assert meta["solver"] == "entropic"
        # each width re-anchors at least once, and never more than it sweeps
        reanchors = int(meta["reanchors"])
        assert len(meta["schedule"].split(";")) <= reanchors <= 2 * int(meta["iterations"])

    def test_rho_from_density_file(self, tmp_path):
        grid = Grid(1, 0.0, 1.0, 48)
        write_field_csv(tmp_path / "rho.csv", grid, random_smooth_density(grid, 5).values)
        cfg = write_config(tmp_path, solve_config(
            rho={"kind": "file", "path": "rho.csv"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 0

    def test_density_file_grid_mismatch_rejected(self, tmp_path, capsys):
        grid = Grid(1, 0.0, 1.0, 32)
        write_field_csv(tmp_path / "rho.csv", grid, random_smooth_density(grid, 5).values)
        cfg = write_config(tmp_path, solve_config(
            rho={"kind": "file", "path": "rho.csv"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "grid" in capsys.readouterr().err

    def test_malformed_density_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "rho.csv").write_text(MALFORMED_CSV["off_grid_centers"])
        cfg = write_config(tmp_path, solve_config(
            grid={"d": 1, "lower": 0.0, "upper": 1.0, "n": 4},
            rho={"kind": "file", "path": "rho.csv"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "uniform row-major grid" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "x,value\n0.125,1.0\n0.375,-1.0\n0.625,1.0\n0.875,1.0\n"],
        ids=["missing", "negative"])
    def test_unreadable_density_file_exits_2(self, tmp_path, capsys, content):
        # a file that is missing, or whose values are no density, is a config error
        if content is not None:
            (tmp_path / "rho.csv").write_text(content)
        cfg = write_config(tmp_path, solve_config(
            grid={"d": 1, "lower": 0.0, "upper": 1.0, "n": 4},
            rho={"kind": "file", "path": "rho.csv"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "config error: cannot read rho file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_solver_error_exits_3(self, tmp_path, capsys):
        # 4097 cells squared is past the LP's capacity: refused before any cost matrix is built
        cfg = write_config(tmp_path, solve_config(
            grid={"d": 1, "lower": 0.0, "upper": 1.0, "n": 4097}, solver={"method": "lp"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err.startswith("solver error: CapacityError:")

    @pytest.mark.parametrize("command", ["solve-ot", "jko"])
    def test_grid_past_the_dense_limit_exits_3(self, tmp_path, capsys, command):
        # 4097 cells: solve-ot's default exact 1-d solve and the flow are refused
        # before their 4097 x 4097 cost matrix, 134 MB, is allocated
        payload = base_config(command)
        payload.pop("solver", None)
        payload["grid"]["n"] = 4097
        cfg = write_config(tmp_path, payload)
        tracemalloc.start()
        try:
            assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 3
            assert tracemalloc.get_traced_memory()[1] < 5e6
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "solver error: CapacityError: instance size 4097 x 4097 exceeds the limit\n")

    def test_tabulated_cost_matches_power(self, tmp_path):
        # r^2/2 sampled at 257 radii on [0, 2] solves the p = 2 power LP to its last digits
        radii = np.linspace(0.0, 2.0, 257)
        costs = {"power": {"family": "power", "p": 2.0},
                 "tabulated": {"family": "tabulated", "radii": radii.tolist(),
                               "values": (radii**2 / 2.0).tolist()}}
        metas = {}
        for name, cost in costs.items():
            cfg = write_config(tmp_path, solve_config(
                grid={"d": 1, "lower": 0.0, "upper": 1.0, "n": 64}, cost=cost,
                solver={"method": "lp"}), name=f"{name}.json")
            assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / name) == 0
            metas[name] = read_meta(tmp_path / name / "meta")
        assert metas["tabulated"]["cost_family"] == "tabulated"
        assert float(metas["tabulated"]["primal"]) == pytest.approx(
            float(metas["power"]["primal"]), rel=1e-12)

    def test_shipped_example_matches_golden_meta(self, tmp_path):
        # the shipped 1-d exact solve: its meta and its sparse coupling must not change by a bit
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", CONFIGS / "solve_ot_example.json",
                       "--out", out) == 0
        assert (out / "meta").read_bytes() == (GOLDEN / "solve_ot_example_meta").read_bytes()
        assert ((out / "coupling.csv").read_bytes()
                == (GOLDEN / "solve_ot_example_coupling.csv").read_bytes())

    def test_shipped_2d_lp_example_matches_golden_meta(self, tmp_path):
        # the shipped 8x8 pivoting LP (342 pivots): its meta and the support
        # of its pivoted plan must not change by a bit
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", CONFIGS / "solve_ot_2d_lp_example.json",
                       "--out", out) == 0
        assert (out / "meta").read_bytes() == (GOLDEN / "solve_ot_2d_lp_example_meta").read_bytes()
        assert ((out / "coupling.csv").read_bytes()
                == (GOLDEN / "solve_ot_2d_lp_example_coupling.csv").read_bytes())

    def test_shipped_2d_lp_16_example_matches_golden_meta(self, tmp_path):
        # the same pair at 16x16 (2732 pivots), past where Bland's rule ran out of its budget
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", CONFIGS / "solve_ot_2d_lp_16_example.json",
                       "--out", out) == 0
        assert ((out / "meta").read_bytes()
                == (GOLDEN / "solve_ot_2d_lp_16_example_meta").read_bytes())

    @pytest.mark.parametrize("solver", [
        {"method": "exact1d", "mass_threshold": float("nan")},
        {"method": "lp", "mass_threshold": -1e-6},
        {"method": "exact1d", "mass_threshold": float("inf")},
        {"method": "entropic", "eps_final": 0},
        {"method": "entropic", "eps_final": float("nan")},
        {"method": "entropic", "eps_final": -1e-3},
        {"method": "entropic", "eps_final": float("inf")},
    ])
    def test_bad_solver_number_exits_2(self, tmp_path, capsys, monkeypatch, solver):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the solver numbers were checked")

        for name in ("solve_exact_1d", "solve_lp", "solve_entropic"):
            monkeypatch.setattr(cli, name, no_solve)
        cfg = write_config(tmp_path, solve_config(solver=solver))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        key = "mass_threshold" if "mass_threshold" in solver else "eps_final"
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("solver", [None, {"method": "exact1d"}], ids=["default", "explicit"])
    def test_exact1d_on_2d_grid_exits_2(self, tmp_path, capsys, monkeypatch, solver):
        # the exact 1-d solver's grid refusal needs only the config: exit 2
        # before any solve, and no output directory left behind
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(cli, "solve_exact_1d", no_solve)
        payload = solve_config(grid={"d": 2, "lower": 0.0, "upper": 1.0, "n": 8})
        if solver is None:
            del payload["solver"]
        else:
            payload["solver"] = solver
        cfg = write_config(tmp_path, payload)
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1-d" in err
        assert not (tmp_path / "out").exists()

    def test_zero_mass_bump_exits_2(self, tmp_path, capsys):
        # a bump that vanishes on every cell cannot be normalized: a config
        # error, not a solver error, and no output directory left behind
        cfg = write_config(tmp_path, solve_config(rho=ZERO_MASS_BUMP))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bump rho spec:") and "zero total mass" in err
        assert not (tmp_path / "out").exists()

    def test_shipped_2d_entropic_example_matches_golden_meta(self, tmp_path):
        # this pins the anchored kernel's Anderson trajectory, not only its
        # optimum: one ulp more on every kernel output moves this primal by
        # 1.9e-7 relative (1021 sweeps become 816), far beyond rtol 1e-9, so
        # any change to the bits of ``_AnchoredKernel`` or ``_fixed_point``
        # fails here; the sweep and re-anchor counts must match as well
        self.check_entropic_meta(tmp_path, "solve_ot_2d_entropic_example")

    def test_shipped_1d_entropic_example_matches_golden_meta(self, tmp_path):
        self.check_entropic_meta(tmp_path, "solve_ot_entropic_example")

    @staticmethod
    def check_entropic_meta(tmp_path, name):
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", CONFIGS / f"{name}.json", "--out", out) == 0
        got = read_meta(out / "meta")
        want = read_meta(GOLDEN / f"{name}_meta")
        for key in ("schedule", "iterations", "reanchors"):
            assert got[key] == want[key]
        for key in ("primal", "dual"):
            assert float(got[key]) == pytest.approx(float(want[key]), rel=1e-9)

    def test_shipped_heat_example_matches_golden_tv_and_distances(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("jko", "--config", CONFIGS / "jko_heat_example.json", "--out", out) == 0

        def column(path, index):
            return [float(row.split(",")[index]) for row in path.read_text().splitlines()[1:]]

        final_tv = column(out / "trace.csv", 2)[-1]
        assert final_tv == pytest.approx(column(GOLDEN / "jko_heat_example_trace.csv", 2)[-1],
                                         rel=1e-9)
        np.testing.assert_allclose(column(out / "pde_compare.csv", 1),
                                   column(GOLDEN / "jko_heat_example_pde_compare.csv", 1),
                                   rtol=1e-9)


class TestConfigErrors:
    @pytest.mark.parametrize("overrides", [
        {"solver": {"method": "entropic", "eps_final": float("nan")}},
        {"grid": {"d": 1, "lower": 1.0, "upper": 0.0, "n": 48}},
        {"cost": {"family": "power", "p": 0.5}},
        {"rho": {"kind": "bump", "floor": -0.1}},
    ], ids=["eps_final", "grid", "cost", "density"])
    def test_config_error_removes_the_out_dir_it_created(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, solve_config(**overrides))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "new" / "out") == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "new").exists()

    def test_config_error_keeps_an_existing_out_dir(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier").write_text("kept\n")
        cfg = write_config(tmp_path, solve_config(
            solver={"method": "entropic", "eps_final": float("nan")}))
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 2
        assert run_cli("solve-ot", "--config", cfg, "--out", out / "sub") == 2
        assert [p.name for p in out.iterdir()] == ["earlier"]
        assert (out / "earlier").read_text() == "kept\n"

    def test_invalid_cost_exponent_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(cost={"family": "power", "p": 0.5}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "exponent" in capsys.readouterr().err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(solvr={"method": "lp"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "solvr" in capsys.readouterr().err

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(
            grid={"d": 1, "lower": 0.0, "upper": 1.0, "n": 48, "spacing": 0.1}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "spacing" in capsys.readouterr().err

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        payload = solve_config()
        del payload["grid"]
        cfg = write_config(tmp_path, payload)
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "grid" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "binary.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_root_exits_2(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2, 3]")
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("solve-ot", "--config", tmp_path / "nope.json",
                       "--out", tmp_path / "out") == 2

    def test_unwritable_out_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write_config(tmp_path, solve_config())
        assert run_cli("solve-ot", "--config", cfg, "--out", blocker / "sub") == 2

    def test_random_density_without_seed_exits_2(self, tmp_path, capsys):
        payload = solve_config()
        del payload["seed"]
        cfg = write_config(tmp_path, payload)
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "new" / "out") == 2
        assert capsys.readouterr().err == \
            "config error: random rho spec needs a top-level 'seed' or --seed\n"
        assert not (tmp_path / "new").exists()

    def test_negative_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(seed=-1))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2

    def test_unknown_solver_method_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(solver={"method": "simplex"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2

    def test_unknown_density_kind_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(rho={"kind": "gaussian"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2


    # pytest names a mapping or list value by its index in this list, so a
    # case is replaced in place and the cases after it keep their names
    @pytest.mark.parametrize("command, path, value, key", [
        ("jko", "compare_pde", 5, "compare_pde"),
        ("jko", "compare_pde.refine", "no", "refine"),
        ("jko", "rho0.sharpness", "x", "sharpness"),
        ("jko", "scheme.energy", {"kind": "power", "m": "x"}, "m"),
        ("jko", "scheme.energy", {"kind": "power", "m": True}, "m"),
        ("jko", "scheme.energy", {"kind": "power", "m": "2"}, "m"),
        ("jko", "seed", True, "seed"),
        ("solve-ot", "cost.p", "2", "p"),
        ("solve-ot", "cost", {"family": "tabulated", "radii": "abc",
                              "values": [0.0, 0.5, 2.0, 4.5]}, "radii"),
        ("solve-ot", "g", {"kind": "bump", "center": "x"}, "center"),
        ("solve-ot", "g", {"kind": "bump", "sharpness": True}, "sharpness"),
        ("solve-ot", "rho", {"kind": "file", "path": 5}, "path"),
        ("jko", "rho0.floor", "0.05", "floor"),
        ("jko", "rho0.center", [0.5, "x"], "center"),
        ("solve-ot", "g", {"kind": "bump", "floor": True}, "floor"),
        ("solve-ot", "seed", True, "seed"),
        ("mollify-study", "eps_sequence", ["a"], "eps_sequence"),
        ("mollify-study", "eps_sequence", [0.2, "0.1"], "eps_sequence"),
    ])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, command, path, value, key):
        cfg = write_config(tmp_path, with_value(base_config(command), path, value))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"'{key}'" in err and "must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, path, spec, word", [
        ("solve-ot", "cost", {"family": "power", "p": 2.0, "extra": 1}, "extra"),
        ("solve-ot", "cost", {"family": "gaussian"}, "gaussian"),
        ("solve-ot", "cost", {"family": "power"}, "'p'"),
        ("jko", "scheme.energy", {"kind": "entropy", "m": 2.0}, "'m'"),
        ("jko", "scheme.energy", {"kind": "power", "m": 2.0, "q": 1.0}, "'q'"),
        ("jko", "scheme.energy", {"kind": "porous"}, "porous"),
        ("jko", "scheme.energy", {"kind": "power"}, "'m'"),
        ("jko", "scheme.energy", {"kind": "power", "m": 1.0}, "m > 1"),
        ("solve-ot", "cost", {"p": 2.0}, "'family'"),
    ])
    def test_bad_cost_or_energy_spec_exits_2(self, tmp_path, capsys, command, path,
                                             spec, word):
        cfg = write_config(tmp_path, with_value(base_config(command), path, spec))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rho, key", [
        ({"kind": "bump", "floor": -0.1}, "floor"),
        ({"kind": "bump", "sharpness": 0.0}, "sharpness"),
        ({"kind": "bump", "center": [0.25, 0.75]}, "center"),
    ], ids=["floor", "sharpness", "center"])
    def test_bad_bump_spec_exits_2(self, tmp_path, capsys, rho, key):
        cfg = write_config(tmp_path, solve_config(rho=rho))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bump rho") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, path, value, where", [
        ("solve-ot", "cost", {"family": "tabulated", "radii": [0.0, NAN, 1.0, 2.0],
                              "values": [0.0, 0.5, 2.0, 4.5]}, "cost.radii"),
        ("solve-ot", "grid.upper", INF, "grid.upper"),
        ("solve-ot", "cost.p", INF, "cost.p"),
        ("solve-ot", "cost.p", 10**400, "cost.p"),  # an integer beyond the float range
        ("solve-ot", "rho", {"kind": "bump", "floor": NAN}, "rho.floor"),
        ("solve-ot", "rho", {"kind": "bump", "sharpness": NAN}, "rho.sharpness"),
        ("solve-ot", "rho", {"kind": "bump", "center": NAN}, "rho.center"),
        ("verify-5g", "batch.entropic_eps", INF, "batch.entropic_eps"),
        ("jko", "scheme.tau", INF, "scheme.tau"),
    ], ids=["radius-nan", "upper-inf", "p-inf", "p-int-overflow", "floor-nan",
            "sharpness-nan", "center-nan", "entropic-eps-inf", "tau-inf"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, path, value, where):
        # Python's JSON reader takes NaN and Infinity; the schema refuses them as numbers
        cfg = write_config(tmp_path, with_value(base_config(command), path, value))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"at '{where}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, path, value", [
        ("solve-ot", "solver.mass_threshold", 1e-9),
        ("solve-ot", "write_map", True),
        ("verify-5g", "batch.bounds", [[0.0, 1.0]]),
        ("verify-5g", "batch.floor", 0.1),
        ("verify-5g", "batch.mode_count", 3),
        ("jko", "write_densities", True),
        ("mollify-study", "solver", "exact1d"),
        ("jko", "compare_pde.dt", None),
        ("verify-5g", "seed", 7),
        ("ctransform", "seed", 7),
        ("solve-ot", "rho.seed", 7),
        ("solve-ot", "g.mode_count", 3),
        ("mollify-study", "rho.floor", 0.1),
    ], ids=["mass_threshold", "write_map", "bounds", "floor", "mode_count",
            "write_densities", "solver", "compare_pde.dt", "verify-5g-seed", "ctransform-seed",
            "random-seed", "random-mode_count", "random-floor"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, command, path, value):
        # each of these keys once took only the value every run uses; now,
        # even at that value, it is refused like any other unknown key
        cfg = write_config(tmp_path, with_value(base_config(command), path, value))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "new" / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown keys in")
        assert f"['{path.split('.')[-1]}']" in err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["verify-5g", "ctransform"])
    def test_seed_flag_of_a_subcommand_without_densities_exits_2(self, tmp_path, capsys,
                                                                  command):
        # neither subcommand draws a random density, so a seed would change nothing
        cfg = write_config(tmp_path, base_config(command))
        with pytest.raises(SystemExit) as exited:
            run_cli(command, "--config", cfg, "--out", tmp_path / "new" / "out", "--seed", 1)
        assert exited.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_null_compare_pde_exits_2(self, tmp_path, capsys):
        # an absent compare_pde is the one way to ask for no comparison
        cfg = write_config(tmp_path, with_value(base_config("jko"), "compare_pde", None))
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "new" / "out") == 2
        assert "'compare_pde' must be a mapping, got None" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_error_names_nested_key_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(rho={"kind": "bump", "floor": "x"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "bump rho spec key 'floor' at 'rho.floor' must be a real number" \
            in capsys.readouterr().err

    def test_negative_batch_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"batch": {"seeds": [-1], "n_values": [16],
                                                "solver": "lp"}})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "config error: invalid batch spec: batch seeds must be nonnegative" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_density_seed_exits_2(self, tmp_path, capsys):
        # the run's seed is the one density seed; a negative flag overrides a valid key
        cfg = write_config(tmp_path, solve_config())
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "new" / "out",
                       "--seed", -1) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command, overrides", [
        ("solve-ot", {"rho": {"kind": "uniform"}, "g": {"kind": "bump"}}),
        ("jko", {}),
        ("mollify-study", {"rho": {"kind": "uniform"}, "g": {"kind": "uniform"}}),
    ], ids=["solve-ot", "jko", "mollify-study"])
    @pytest.mark.parametrize("given", ["key", "flag"])
    def test_seed_no_density_reads_exits_2(self, tmp_path, capsys, command, overrides, given):
        payload = {**base_config(command), **overrides, "seed": 5}
        flag = []
        if given == "flag":
            del payload["seed"]
            flag = ["--seed", 5]
        cfg = write_config(tmp_path, payload)
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "new" / "out", *flag) == 2
        assert "seed 5 is read by no density spec" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_seed_to_the_shipped_heat_flow_exits_2(self, tmp_path, capsys):
        # its one density is a bump, so a seed would only have been written to the manifest
        assert run_cli("jko", "--config", CONFIGS / "jko_heat_example.json",
                       "--out", tmp_path / "new" / "out", "--seed", 5) == 2
        assert "read by no density spec" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command, overrides", [
        ("verify-5g", {"batch": {"seeds": [0], "n_values": [300_000_000], "solver": "lp"}}),
        ("solve-ot", {"grid": {"d": 2, "lower": [0.0, 0.0], "upper": [1.0, 1.0],
                               "n": [20000, 20000]}}),
    ], ids=["verify-5g", "solve-ot-2d"])
    def test_oversized_grid_exits_2_before_any_array(self, tmp_path, capsys, command,
                                                      overrides):
        # each grid is refused from its cell count; drawing its densities would take GBs
        cfg = write_config(tmp_path, {**base_config(command), **overrides})
        tracemalloc.start()
        try:
            assert run_cli(command, "--config", cfg, "--out", tmp_path / "new" / "out") == 2
            assert tracemalloc.get_traced_memory()[1] < 5e6
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid ") and "cells exceeds the limit" in err
        assert not (tmp_path / "new").exists()


class TestManifest:
    def test_contents(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 0
        lines = (out / "manifest").read_text().splitlines()
        entries = dict(line.split("=", 1) for line in lines)
        assert entries["subcommand"] == "solve-ot"
        assert len(entries["config_hash"]) == 64
        assert int(entries["config_hash"], 16) >= 0
        assert entries["seed"] == "7"
        assert entries["tool"].startswith("otlab ")

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out,
                       "--seed", 9) == 0
        entries = dict(line.split("=", 1) for line
                       in (out / "manifest").read_text().splitlines())
        assert entries["seed"] == "9"

    def test_hash_tracks_config_content(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("solve-ot", "--config", write_config(tmp_path, solve_config()),
                "--out", out_a)
        run_cli("solve-ot", "--config",
                write_config(tmp_path, solve_config(seed=8), name="other.json"),
                "--out", out_b)
        hash_a = (out_a / "manifest").read_text().splitlines()[1]
        hash_b = (out_b / "manifest").read_text().splitlines()[1]
        assert hash_a != hash_b


class TestDeterminism:
    def test_solve_ot_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("solve-ot", "--config", cfg, "--out", out_a) == 0
        assert run_cli("solve-ot", "--config", cfg, "--out", out_b) == 0
        for name in ("coupling.csv", "phi.csv", "psi.csv", "map.csv", "meta",
                     "manifest"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("solve-ot", "--config", cfg, "--out", out_a)
        run_cli("solve-ot", "--config", cfg, "--out", out_b, "--seed", 9)
        meta_a = read_meta(out_a / "meta")
        meta_b = read_meta(out_b / "meta")
        assert float(meta_a["primal"]) != float(meta_b["primal"])


class TestVerify5G:
    def batch_config(self) -> dict:
        return {"batch": {"seeds": [0, 1], "p_values": [2.0], "q_values": [2.0],
                          "n_values": [48], "solver": "lp"}}

    def test_shipped_lp_batch_matches_golden_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("verify-5g", "--config", CONFIGS / "verify_5g_lp_example.json",
                       "--out", out) == 0
        want = (GOLDEN / "verify_5g_lp_example_reports.csv").read_bytes()
        assert (out / "reports.csv").read_bytes() == want

    def test_shipped_2d_batch_matches_golden_reports(self, tmp_path):
        # the entropic solves follow an Anderson trajectory, so, as for the
        # 2-d entropic meta, the floats are held to rtol 1e-9 and the rest exactly
        out = tmp_path / "out"
        assert run_cli("verify-5g", "--config", CONFIGS / "verify_5g_2d_example.json",
                       "--out", out) == 0
        got, want = ([line.split(",") for line in path.read_text().splitlines()]
                     for path in (out / "reports.csv", GOLDEN / "verify_5g_2d_example_reports.csv"))
        assert got[0] == want[0] and len(got) == len(want)
        for got_row, want_row in zip(got[1:], want[1:]):
            assert got_row[:5] + got_row[-1:] == want_row[:5] + want_row[-1:]
            assert [float(v) for v in got_row[5:-1]] == pytest.approx(
                [float(v) for v in want_row[5:-1]], rel=1e-9)

    def test_passing_batch_exits_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.batch_config())
        out = tmp_path / "out"
        assert run_cli("verify-5g", "--config", cfg, "--out", out) == 0
        assert (out / "reports.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_reports_csv_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.batch_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("verify-5g", "--config", cfg, "--out", out_a) == 0
        assert run_cli("verify-5g", "--config", cfg, "--out", out_b) == 0
        csv_a = (out_a / "reports.csv").read_bytes()
        assert csv_a == (out_b / "reports.csv").read_bytes()
        assert csv_a.splitlines()[0].startswith(b"seed,")

    def test_failed_instance_exits_4(self, tmp_path, monkeypatch, capsys):
        real_verify = cli.verify_batch

        def with_one_failure(spec):
            reports = list(real_verify(spec))
            reports[0] = dataclasses.replace(reports[0], passed=False)
            return reports

        monkeypatch.setattr(cli, "verify_batch", with_one_failure)
        cfg = write_config(tmp_path, self.batch_config())
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 4
        assert "FAIL" in capsys.readouterr().out

    def test_missing_seeds_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"batch": {"p_values": [2.0]}})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("key", ["p_values", "q_values", "n_values"])
    def test_empty_batch_list_exits_2(self, tmp_path, capsys, key):
        # an empty lattice would check nothing and still print PASS
        batch = {"seeds": [0], "p_values": [2.0], "q_values": [2.0], "n_values": [16], key: []}
        cfg = write_config(tmp_path, {"batch": batch})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "invalid batch spec" in err and key in err

    def test_unknown_batch_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"batch": {"seeds": [0], "kappa": 0.1}})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("entropic_eps", 0),
        ("solver", "exact1d"),  # solve-ot's exact 1-d method is no batch solver
    ])
    def test_bad_batch_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"batch": {"seeds": [0], "n_values": [16], key: value}})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "invalid batch spec" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("batch", [
        {"seeds": 5},
        {"seeds": [0], "d": 1.0},
        {"seeds": [0], "n_values": [16.5]},
        {"seeds": [0], "solver": 1},
        {"seeds": [0], "entropic_eps": "1e-4"},
    ])
    def test_mistyped_batch_value_exits_2(self, tmp_path, capsys, batch):
        cfg = write_config(tmp_path, {"batch": {"n_values": [16], **batch}})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "must be" in capsys.readouterr().err

    def test_auto_error_row_names_resolved_solver(self, tmp_path):
        cfg = write_config(tmp_path, {"batch": {"seeds": [0], "n_values": [5000],
                                                "solver": "auto"}})
        out = tmp_path / "out"
        assert run_cli("verify-5g", "--config", cfg, "--out", out) == 4
        header, row = (out / "reports.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["solver"] == "lp"
        assert cells["lhs"] == "nan"
        assert cells["pass"] == "0"


class TestJKO:
    def jko_config(self, **scheme_overrides) -> dict:
        scheme = {"p": 2.0, "tau": 0.004, "steps": 3,
                  "energy": {"kind": "entropy"}, "eps": 1e-4}
        scheme.update(scheme_overrides)
        return {
            "grid": {"d": 1, "lower": 0.0, "upper": 1.0, "n": 48},
            "rho0": {"kind": "bump", "floor": 0.05, "sharpness": 80.0},
            "scheme": scheme,
        }

    def test_run_emits_trace_and_densities(self, tmp_path):
        cfg = write_config(tmp_path, self.jko_config())
        out = tmp_path / "missing" / "nested" / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,time,tv,energy,cost,residual"
        assert len(trace) == 5
        for k in range(4):
            assert (out / f"density_{k:04d}.csv").exists()

    def test_trace_tv_nonincreasing(self, tmp_path):
        cfg = write_config(tmp_path, self.jko_config(steps=6))
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        tv = [float(row.split(",")[2]) for row in rows]
        slack = 1e-3 * tv[0]
        assert all(b <= a + slack for a, b in zip(tv, tv[1:]))

    def test_zero_steps_single_state(self, tmp_path):
        cfg = write_config(tmp_path, self.jko_config(steps=0))
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 2
        assert (out / "density_0000.csv").exists()
        assert not (out / "density_0001.csv").exists()

    def test_pde_comparison_csv(self, tmp_path):
        payload = self.jko_config(steps=4)
        payload["compare_pde"] = {"refine": False}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        rows = (out / "pde_compare.csv").read_text().splitlines()
        assert rows[0] == "time,distance"
        assert len(rows) == 6
        assert float(rows[1].split(",")[1]) == 0.0

    def test_pde_comparison_refined_csv(self, tmp_path):
        payload = self.jko_config(steps=4)
        payload["compare_pde"] = {"refine": True}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        rows = [row.split(",") for row in (out / "pde_compare.csv").read_text().splitlines()]
        assert rows[0] == ["time", "distance", "refined_distance"]
        assert len(rows) == 6 and all(len(row) == 3 for row in rows)
        assert float(rows[1][1]) == float(rows[1][2]) == 0.0

    def test_failed_step_exits_3_with_error_in_trace(self, tmp_path, capsys, monkeypatch):
        def failing_step(*args, **kwargs):
            raise StepError("inner solver did not converge", residual=1.0)

        monkeypatch.setattr(jko, "_jko_step_full", failing_step)
        cfg = write_config(tmp_path, self.jko_config())
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 3
        assert "jko: aborted after 0 steps: step 1:" in capsys.readouterr().err
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 3  # the header, the initial state and the error
        assert trace[-1] == "# error: step 1: inner solver did not converge"

    @pytest.mark.parametrize("scheme, d, word", [
        ({"steps": 0}, 1, "at least one step"),
        ({}, 2, "1-d"),
    ], ids=["steps0", "2d"])
    def test_misaligned_pde_dt_exits_2(self, tmp_path, capsys, monkeypatch, scheme, d, word):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran before compare_pde was checked")

        monkeypatch.setattr(cli, "run_jko", no_flow)
        # a nonlinear limit PDE, so the explicit reference applies
        payload = self.jko_config(**{"steps": 4, "energy": {"kind": "power", "m": 2.0},
                                     **scheme})
        payload["grid"] = {"d": d, "lower": 0.0, "upper": 1.0, "n": 8 if d == 2 else 48}
        payload["compare_pde"] = {"refine": False}
        cfg = write_config(tmp_path, payload)
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "compare_pde" in err and word in err
        assert not (tmp_path / "out").exists()

    def test_reference_over_the_step_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # on a bump over a floor of 1e-3 the p = 3 reference would take some
        # 8e9 explicit steps: refused before the flow, not after it
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran before compare_pde was checked")

        monkeypatch.setattr(cli, "run_jko", no_flow)
        payload = self.jko_config(p=3.0, tau=2e-3, steps=20)
        payload["grid"]["n"] = 96
        payload["rho0"]["floor"] = 1e-3
        payload["compare_pde"] = {"refine": False}
        cfg = write_config(tmp_path, payload)
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid compare_pde spec:") and "above the cap" in err
        assert not (tmp_path / "out").exists()

    def test_2d_grid_without_compare_pde_exits_2(self, tmp_path, capsys, monkeypatch):
        # the scheme's grid refusal needs only the grid spec: exit 2 before
        # the flow, and no output directory left behind
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran before the grid was checked")

        monkeypatch.setattr(cli, "run_jko", no_flow)
        payload = self.jko_config()
        payload["grid"] = {"d": 2, "lower": 0.0, "upper": 1.0, "n": 8}
        cfg = write_config(tmp_path, payload)
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "grid" in err and "1-d" in err
        assert not (tmp_path / "out").exists()

    def test_zero_mass_bump_exits_2(self, tmp_path, capsys):
        payload = self.jko_config()
        payload["rho0"] = ZERO_MASS_BUMP
        cfg = write_config(tmp_path, payload)
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bump rho0 spec:") and "zero total mass" in err
        assert not (tmp_path / "out").exists()

    def test_invalid_scheme_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, self.jko_config(tau=-0.1))
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("key, value", [
        ("steps", "3"),
        ("steps", 2.5),
        ("eps", True),
        ("tau", "0.002"),
    ])
    def test_mistyped_scheme_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, self.jko_config(**{key: value}))
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("inner_tol", 1e-8), ("max_inner", 4000)])
    def test_inner_solver_key_exits_2(self, tmp_path, capsys, key, value):
        # the inner solves' tolerance and sweep cap are constants of the scheme
        cfg = write_config(tmp_path, self.jko_config(**{key: value}))
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2
        assert key in capsys.readouterr().err

    def test_unknown_energy_kind_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, self.jko_config(energy={"kind": "quartic"}))
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("spec, energy", [
        ({"kind": "entropy"}, entropy_energy()),
        ({"kind": "power", "m": 2.5}, power_energy(2.5)),
    ])
    def test_energy_spec_sets_traced_energy(self, tmp_path, spec, energy):
        cfg = write_config(tmp_path, self.jko_config(steps=0, energy=spec))
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        traced = float((out / "trace.csv").read_text().splitlines()[1].split(",")[3])
        state = DensityField(*read_field_csv(out / "density_0000.csv"))
        assert traced == energy_value(state, energy)

    def test_trace_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.jko_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("jko", "--config", cfg, "--out", out_a) == 0
        assert run_cli("jko", "--config", cfg, "--out", out_b) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


class TestMollifyStudy:
    def moll_config(self, **overrides) -> dict:
        payload = {
            "seed": 3,
            "grid": {"d": 1, "lower": 0.0, "upper": 1.0, "n": 48},
            "cost": {"family": "power", "p": 1.5},
            "rho": {"kind": "random"},
            "g": {"kind": "random"},
            "eps_sequence": [0.2, 0.1, 0.05],
        }
        payload.update(overrides)
        return payload

    def test_quadratic_cost_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.moll_config(
            cost={"family": "power", "p": 2.0}))
        out = tmp_path / "out"
        assert run_cli("mollify-study", "--config", cfg, "--out", out) == 0
        rows = (out / "mollify.csv").read_text().splitlines()
        assert rows[0] == "epsilon,deviation_measure,lp_distance"
        assert len(rows) == 4
        assert "PASS" in capsys.readouterr().out

    def test_shipped_example_matches_golden(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("mollify-study", "--config", CONFIGS / "mollify_example.json",
                       "--out", out) == 0
        want = (GOLDEN / "mollify_example_mollify.csv").read_bytes()
        assert (out / "mollify.csv").read_bytes() == want

    def test_2d_grid_exits_2(self, tmp_path, capsys, monkeypatch):
        # the experiment's grid refusal needs only the config: exit 2 before
        # any solve, and no output directory left behind
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran before the grid was checked")

        monkeypatch.setattr(cli, "mollification_convergence_experiment", no_study)
        cfg = write_config(tmp_path, self.moll_config(
            grid={"d": 2, "lower": 0.0, "upper": 1.0, "n": 8}))
        assert run_cli("mollify-study", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1-d" in err
        assert not (tmp_path / "out").exists()

    def test_empty_eps_sequence_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.moll_config(eps_sequence=[]))
        assert run_cli("mollify-study", "--config", cfg, "--out",
                       tmp_path / "out") == 2
        assert "non-empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nondecreasing_eps_sequence_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.moll_config(eps_sequence=[0.05, 0.1]))
        assert run_cli("mollify-study", "--config", cfg, "--out",
                       tmp_path / "out") == 2
        assert "decrease strictly" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("widths", [[1, 0.5], [0.1, 0.0]])
    def test_width_outside_quarter_radius_exits_2(self, tmp_path, capsys, widths):
        cfg = write_config(tmp_path, self.moll_config(eps_sequence=widths))
        assert run_cli("mollify-study", "--config", cfg, "--out",
                       tmp_path / "out") == 2
        assert "config error: invalid eps_sequence width" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_report_exits_4(self, tmp_path, monkeypatch, capsys):
        real = cli.mollification_convergence_experiment

        def failing(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, passed=False, final_ok=False)

        monkeypatch.setattr(cli, "mollification_convergence_experiment", failing)
        cfg = write_config(tmp_path, self.moll_config())
        assert run_cli("mollify-study", "--config", cfg, "--out",
                       tmp_path / "out") == 4
        assert "FAIL" in capsys.readouterr().out


class TestCTransform:
    def test_matches_direct_call(self, tmp_path):
        grid = Grid(1, 0.0, 1.0, 32)
        x = grid.axis_centers(0)
        values = 0.05 * np.sin(2 * np.pi * x)
        write_field_csv(tmp_path / "pot.csv", grid, values)
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 2.0},
            "potential_csv": "pot.csv",
        })
        out = tmp_path / "out"
        assert run_cli("ctransform", "--config", cfg, "--out", out) == 0

        rows = (out / "transform.csv").read_text().splitlines()[1:]
        got = np.array([float(r.split(",")[1]) for r in rows])
        cost = power_cost(2.0, grid.cost_radius)
        want = c_transform(cost, values, grid, grid)
        assert np.allclose(got, want, atol=0.0)

    def test_non_quadratic_power_cost_matches_direct_call(self, tmp_path):
        grid = Grid(1, 0.0, 1.0, 32)
        values = 0.05 * np.cos(2 * np.pi * grid.axis_centers(0))
        write_field_csv(tmp_path / "pot.csv", grid, values)
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 1.5},
            "potential_csv": "pot.csv",
        })
        out = tmp_path / "out"
        assert run_cli("ctransform", "--config", cfg, "--out", out) == 0
        rows = (out / "transform.csv").read_text().splitlines()[1:]
        got = np.array([float(r.split(",")[1]) for r in rows])
        want = c_transform(power_cost(1.5, grid.cost_radius), values, grid, grid)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(MALFORMED_CSV))
    def test_malformed_potential_file_exits_2(self, tmp_path, capsys, name):
        (tmp_path / "pot.csv").write_text(MALFORMED_CSV[name])
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 2.0},
            "potential_csv": "pot.csv",
        })
        assert run_cli("ctransform", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "cannot read potential file" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_potential_exits_2(self, tmp_path, capsys, cell):
        (tmp_path / "pot.csv").write_text(f"x,value\n0.125,0.0\n0.375,{cell}\n"
                                          "0.625,0.0\n0.875,0.0\n")
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 2.0},
            "potential_csv": "pot.csv",
        })
        assert run_cli("ctransform", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "potential values must be finite" in capsys.readouterr().err

    def test_mistyped_eval_grid_exits_2(self, tmp_path, capsys):
        write_field_csv(tmp_path / "pot.csv", Grid(1, 0.0, 1.0, 32), np.zeros(32))
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 2.0},
            "potential_csv": "pot.csv",
            "eval_grid": {"d": 1, "lower": 0.0, "upper": 1.0, "n": 16.5},
        })
        assert run_cli("ctransform", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "grid spec key 'n'" in capsys.readouterr().err

    def test_shipped_example_matches_golden(self, tmp_path):
        # pins the blocked min-plus c-transform's bits
        out = tmp_path / "out"
        assert run_cli("ctransform", "--config", CONFIGS / "ctransform_example.json",
                       "--out", out) == 0
        want = (GOLDEN / "ctransform_example_transform.csv").read_bytes()
        assert (out / "transform.csv").read_bytes() == want

    def test_separate_eval_grid(self, tmp_path):
        grid = Grid(1, 0.0, 1.0, 32)
        write_field_csv(tmp_path / "pot.csv", grid,
                        np.zeros(32))
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 2.0},
            "potential_csv": "pot.csv",
            "eval_grid": {"d": 1, "lower": 0.0, "upper": 1.0, "n": 64},
        })
        out = tmp_path / "out"
        assert run_cli("ctransform", "--config", cfg, "--out", out) == 0
        rows = (out / "transform.csv").read_text().splitlines()
        assert len(rows) == 65

    def test_eval_grid_beyond_the_value_box(self, tmp_path):
        # the pairs span the union box [0, 1.5]; neither box's own diagonal holds them
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 1.5},
            "potential_csv": str(CONFIGS / "ctransform_potential.csv"),
            "eval_grid": {"d": 1, "lower": 0.5, "upper": 1.5, "n": 32},
        })
        out = tmp_path / "out"
        assert run_cli("ctransform", "--config", cfg, "--out", out) == 0
        rows = (out / "transform.csv").read_text().splitlines()[1:]
        got = np.array([float(r.split(",")[1]) for r in rows])
        value_grid, values = read_field_csv(CONFIGS / "ctransform_potential.csv")
        want = c_transform(power_cost(1.5, 2.0), values, value_grid, Grid(1, 0.5, 1.5, 32))
        assert np.array_equal(got, want)

    def test_mismatched_eval_grid_dimension_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 1.5},
            "potential_csv": str(CONFIGS / "ctransform_potential.csv"),
            "eval_grid": {"d": 2, "lower": 0.0, "upper": 1.0, "n": 4},
        })
        assert run_cli("ctransform", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "2-d" in err and "1-d" in err

    def test_missing_potential_file_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 2.0},
            "potential_csv": "absent.csv",
        })
        assert run_cli("ctransform", "--config", cfg, "--out",
                       tmp_path / "out") == 2


# file-name prefix -> subcommand of a shipped config, the same map CI loops over
SHIPPED_PREFIXES = {"solve_ot_": "solve-ot", "verify_5g_": "verify-5g", "jko_": "jko",
                    "mollify_": "mollify-study", "ctransform_": "ctransform"}


def shipped_command(name: str):
    return next((c for p, c in SHIPPED_PREFIXES.items() if name.startswith(p)), None)


class TestShippedConfigs:
    @pytest.mark.parametrize("name,command", [
        (path.name, shipped_command(path.name)) for path in sorted(CONFIGS.glob("*.json"))
    ])
    def test_examples_parse_and_run(self, tmp_path, name, command):
        assert command is not None, f"{name} has no known subcommand prefix"
        assert run_cli(command, "--config", CONFIGS / name,
                       "--out", tmp_path / "out") == 0


class TestImportGraph:
    def test_cli_import_leaves_scipy_special_out(self):
        # the solvers run on numpy alone; scipy.special would add setup
        # time and resident memory to every CLI run
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
        probe = "import sys, otlab.cli; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"

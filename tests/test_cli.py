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
from pathlib import Path

import numpy as np
import pytest

from otlab import cli
from otlab.cost import power_cost
from otlab.geometry import (
    Grid,
    density_from_csv,
    density_to_csv,
    random_smooth_density,
    write_field_csv,
)
from otlab.jko import energy_value, entropy_energy, power_energy
from otlab.ot_core import c_transform, read_meta

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIGS = REPO_ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def base_config(command: str) -> dict:
    return {"solve-ot": solve_config, "jko": TestJKO().jko_config,
            "mollify-study": TestMollifyStudy().moll_config}[command]()


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
        cfg = write_config(tmp_path, solve_config(rho={"kind": "uniform"},
                                                  g={"kind": "uniform"}))
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

    def test_write_map_false_skips_map(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(write_map=False))
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 0
        assert not (out / "map.csv").exists()

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
        {"method": "exact1d", "mass_threshold": "abc"},
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
        assert meta["kernel"] == "dense"

    def test_entropic_2d_quadratic_meta_names_separable_kernel(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(
            grid={"d": 2, "lower": [0.0, 0.0], "upper": [1.0, 1.0], "n": [6, 6]},
            solver={"method": "entropic", "eps_final": 1e-2}))
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", cfg, "--out", out) == 0
        assert read_meta(out / "meta")["kernel"] == "separable"

    def test_rho_from_density_file(self, tmp_path):
        grid = Grid(1, 0.0, 1.0, 48)
        density_to_csv(tmp_path / "rho.csv", random_smooth_density(grid, 5))
        cfg = write_config(tmp_path, solve_config(
            rho={"kind": "file", "path": "rho.csv"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 0

    def test_density_file_grid_mismatch_rejected(self, tmp_path, capsys):
        grid = Grid(1, 0.0, 1.0, 32)
        density_to_csv(tmp_path / "rho.csv", random_smooth_density(grid, 5))
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

    def test_shipped_example_matches_golden_meta(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", CONFIGS / "solve_ot_example.json",
                       "--out", out) == 0
        got = read_meta(out / "meta")
        want = read_meta(GOLDEN / "solve_ot_example_meta")
        assert abs(float(got["primal"]) - float(want["primal"])) < 1e-8
        assert abs(float(got["dual"]) - float(want["dual"])) < 1e-8
        assert got["solver"] == want["solver"]

    def test_shipped_2d_entropic_example_matches_golden_meta(self, tmp_path):
        # sweep counts swing with the last bits of the Anderson mix, so the
        # golden values are compared to rtol 1e-9 and the counts not at all
        out = tmp_path / "out"
        assert run_cli("solve-ot", "--config", CONFIGS / "solve_ot_2d_entropic_example.json",
                       "--out", out) == 0
        got = read_meta(out / "meta")
        want = read_meta(GOLDEN / "solve_ot_2d_entropic_example_meta")
        assert (got["schedule"], got["kernel"]) == (want["schedule"], want["kernel"])
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
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(seed=-1))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2

    def test_unknown_solver_method_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(solver={"method": "simplex"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2

    def test_unknown_density_kind_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(rho={"kind": "gaussian"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2


    @pytest.mark.parametrize("command, path, value, key", [
        ("jko", "write_densities", "no", "write_densities"),
        ("jko", "compare_pde.refine", "no", "refine"),
        ("jko", "compare_pde.dt", "x", "dt"),
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
        ("solve-ot", "rho.mode_count", 2.5, "mode_count"),
        ("solve-ot", "rho.seed", 1.7, "seed"),
        ("solve-ot", "rho.floor", "x", "floor"),
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
    ])
    def test_bad_cost_or_energy_spec_exits_2(self, tmp_path, capsys, command, path,
                                             spec, word):
        cfg = write_config(tmp_path, with_value(base_config(command), path, spec))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
        assert word in capsys.readouterr().err

    def test_error_names_nested_key_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(rho={"kind": "random", "floor": "x"}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "random rho spec key 'floor' at 'rho.floor' must be a real number" \
            in capsys.readouterr().err

    def test_negative_density_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(rho={"kind": "random", "seed": -1}))
        assert run_cli("solve-ot", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "seed must be nonnegative" in capsys.readouterr().err


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
                          "n_values": [48], "solver": "exact1d"}}

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

    def test_unknown_batch_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"batch": {"seeds": [0], "kappa": 0.1}})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("bounds", [[1.0, 0.0]]),
        ("bounds", [[0.5, 0.5]]),
        ("bounds", [[0.0, 1.0, 2.0]]),
        ("floor", 0),
        ("floor", -0.1),
        ("mode_count", 0),
        ("entropic_eps", 0),
    ])
    def test_bad_batch_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"batch": {"seeds": [0], "n_values": [16], key: value}})
        assert run_cli("verify-5g", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "invalid batch spec" in capsys.readouterr().err

    @pytest.mark.parametrize("batch", [
        {"seeds": 5},
        {"seeds": [0], "mode_count": "3"},
        {"seeds": [0], "n_values": [16.5]},
        {"seeds": [0], "bounds": 5},
        {"seeds": [0], "bounds": [[0, "a"]]},
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

    def test_write_densities_false(self, tmp_path):
        payload = self.jko_config()
        payload["write_densities"] = False
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        assert (out / "trace.csv").exists()
        assert not (out / "density_0000.csv").exists()

    def test_pde_comparison_csv(self, tmp_path):
        payload = self.jko_config(steps=4)
        payload["compare_pde"] = {"dt": None, "refine": False}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("jko", "--config", cfg, "--out", out) == 0
        rows = (out / "pde_compare.csv").read_text().splitlines()
        assert rows[0] == "time,distance"
        assert len(rows) == 6
        assert float(rows[1].split(",")[1]) == 0.0

    def test_misaligned_pde_dt_exits_3(self, tmp_path, capsys):
        payload = self.jko_config(steps=4)
        payload["compare_pde"] = {"dt": 0.003}
        cfg = write_config(tmp_path, payload)
        assert run_cli("jko", "--config", cfg, "--out", tmp_path / "out") == 3
        assert "divide" in capsys.readouterr().err

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
        assert traced == energy_value(density_from_csv(out / "density_0000.csv"), energy)

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

    def test_empty_eps_sequence_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, self.moll_config(eps_sequence=[]))
        assert run_cli("mollify-study", "--config", cfg, "--out",
                       tmp_path / "out") == 2

    def test_nondecreasing_eps_sequence_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, self.moll_config(eps_sequence=[0.05, 0.1]))
        assert run_cli("mollify-study", "--config", cfg, "--out",
                       tmp_path / "out") == 2

    @pytest.mark.parametrize("widths", [[1, 0.5], [0.1, 0.0]])
    def test_width_outside_quarter_radius_exits_2(self, tmp_path, capsys, widths):
        cfg = write_config(tmp_path, self.moll_config(eps_sequence=widths))
        assert run_cli("mollify-study", "--config", cfg, "--out",
                       tmp_path / "out") == 2
        assert "config error: invalid eps_sequence width" in capsys.readouterr().err

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

    def test_missing_potential_file_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "cost": {"family": "power", "p": 2.0},
            "potential_csv": "absent.csv",
        })
        assert run_cli("ctransform", "--config", cfg, "--out",
                       tmp_path / "out") == 2


class TestShippedConfigs:
    @pytest.mark.parametrize("name,command", [
        ("solve_ot_example.json", "solve-ot"),
        ("solve_ot_2d_entropic_example.json", "solve-ot"),
        ("solve_ot_2d_lp_example.json", "solve-ot"),
        ("verify_5g_example.json", "verify-5g"),
        ("jko_heat_example.json", "jko"),
        ("mollify_example.json", "mollify-study"),
        ("ctransform_example.json", "ctransform"),
    ])
    def test_examples_parse_and_run(self, tmp_path, name, command):
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

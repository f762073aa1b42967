"""The three benchmark workloads: generated inputs, one pass of CLI calls, output checks.

A workload is prepared once per process from the seed. One pass runs its
``otlab`` subcommands in-process through ``otlab.cli.main`` into a fresh
output tree; ``check`` then reads that tree back and returns what the pass
attempted, what failed and which output checks did not hold.

Operations per pass, the unit of ``attempted`` and ``failed``:

- ``heat-flow``: the 20 flow steps plus the PDE comparison (21).
- ``inequality-batch``: the 360 batch instances.
- ``transport-2d``: the 8x8 LP solve plus the two 2-d batch instances (3).

A failed output check marks its operation failed. A check that belongs to
no single operation (the 90% nonnegative share, the report row count) is
reported as a problem, which makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("heat-flow", "inequality-batch", "transport-2d")

HEAT_CONFIG = Path("configs") / "jko_heat_example.json"
HEAT_PDE_BAR = 0.05          # criterion 8: final scheme-to-PDE L1 distance
HEAT_TV_SLACK = 1e-3         # criterion 8: TV may rise by at most this share of TV(0)
BATCH_SEEDS = 20
BATCH_NONNEGATIVE_SHARE = 0.90   # criterion 1
LP_RELATIVE_GAP = 1e-8
# The 2-d instances are pinned to instance seed 0, whatever the run seed.
# Seed-drawn 2-d pairs differ up to 17x in entropic solve time (0.8 s when
# the 8x8 solve converges, 14 s when it does not, seeds 0-3), which would
# swamp any bound. Seed 0 is the pair on which the 8x8 default-width solve
# hits the known non-convergence, so a fix to it shows in this workload.
TRANSPORT_INSTANCE_SEED = 0
TRANSPORT_ENTROPIC_EPS = 1e-4    # BatchSpec's documented default, pinned


class PassAborted(RuntimeError):
    """A CLI call crashed or returned an exit code the workload does not allow."""


@dataclass
class PassResult:
    attempted: int
    failed: int
    ref_err: float
    problems: list = field(default_factory=list)


@dataclass
class Workload:
    calls: list          # [(argv without --out, output subdir, allowed exit codes)]
    warmup_calls: list   # same shape, tiny inputs, run once before timing
    check: object        # check(out_dir, exit_codes) -> PassResult

    def run_pass(self, main, out: Path) -> list:
        """Run every call of one pass into ``out``; return the exit codes."""
        return _run_calls(main, self.calls, out)

    def warm_up(self, main, out: Path) -> None:
        _run_calls(main, self.warmup_calls, out)


def _run_calls(main, calls, out: Path) -> list:
    codes = []
    for argv, subdir, allowed in calls:
        code = main(argv + ["--out", str(out / subdir)])
        if code not in allowed:
            raise PassAborted(f"`otlab {' '.join(argv)}` exited {code}, "
                              f"expected one of {sorted(allowed)}")
        codes.append(code)
    return codes


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _write_config(path: Path, config: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return str(path)


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# heat-flow: the shipped JKO example, flow plus PDE comparison


def _heat_flow(root: Path, configs: Path, seed: int) -> Workload:
    shipped = root / HEAT_CONFIG
    config = json.loads(shipped.read_text())
    steps = int(config["scheme"]["steps"])
    tiny = json.loads(json.dumps(config))
    tiny["grid"]["n"] = 24
    tiny["scheme"]["steps"] = 2
    warm = _write_config(configs / "warm_jko.json", tiny)

    def check(out: Path, codes: list) -> PassResult:
        problems = []
        text = (out / "jko" / "trace.csv").read_text().splitlines()
        errors = [line for line in text if line.startswith("#")]
        rows = list(csv.DictReader(line for line in text if not line.startswith("#")))
        done = len(rows) - 1
        failed_steps = steps - done
        if errors or len(rows) != steps + 1:
            problems.append(f"trace.csv has {len(rows)} rows (want {steps + 1}) "
                            f"and {len(errors)} error lines")
        tv = [float(r["tv"]) for r in rows]
        slack = HEAT_TV_SLACK * tv[0]
        rises = sum(1 for a, b in zip(tv, tv[1:]) if b > a + slack)
        if rises:
            problems.append(f"TV increased on {rises} steps")
        pde = _read_rows(out / "jko" / "pde_compare.csv")
        distance = float(pde[-1]["distance"])
        pde_failed = int(not distance <= HEAT_PDE_BAR)
        if pde_failed:
            problems.append(f"final PDE distance {distance:.6f} > {HEAT_PDE_BAR}")
        return PassResult(attempted=steps + 1,
                          failed=min(steps, failed_steps + rises) + pde_failed,
                          ref_err=distance, problems=problems)

    return Workload(
        calls=[(["jko", "--config", str(shipped)], "jko", {0})],
        warmup_calls=[(["jko", "--config", warm], "jko", {0})],
        check=check,
    )


# ---------------------------------------------------------------------------
# inequality-batch: criteria 1 and 2's lattice in one verify-5g call


def _negative_share(rows: list) -> float:
    lhs = [float(r["lhs"]) for r in rows]
    good = [v for v in lhs if not math.isnan(v)]
    return sum(1 for v in good if v < 0) / len(good) if good else 1.0


def _inequality_batch(root: Path, configs: Path, seed: int) -> Workload:
    seeds = [BATCH_SEEDS * seed + k for k in range(BATCH_SEEDS)]
    batch = {"seeds": seeds, "p_values": [1.5, 2.0, 3.0],
             "q_values": [1.5, 2.0, 4.0], "n_values": [128, 512], "solver": "lp"}
    expected = len(seeds) * 3 * 3 * 2
    cfg = _write_config(configs / "batch.json", {"batch": batch})
    warm = _write_config(configs / "warm_batch.json", {"batch": {
        "seeds": [0], "n_values": [16], "solver": "lp"}})

    def check(out: Path, codes: list) -> PassResult:
        problems = []
        rows = _read_rows(out / "batch" / "reports.csv")
        failed = sum(1 for r in rows if r["pass"] != "1")
        missing = max(0, expected - len(rows))
        if len(rows) != expected:
            problems.append(f"reports.csv has {len(rows)} rows, want {expected}")
        if failed:
            problems.append(f"{failed} instances outside tolerance or in error")
        negative = _negative_share(rows)
        if not 1.0 - negative >= BATCH_NONNEGATIVE_SHARE:
            problems.append(f"nonnegative share {1.0 - negative:.3f} "
                            f"< {BATCH_NONNEGATIVE_SHARE}")
        return PassResult(attempted=expected, failed=failed + missing,
                          ref_err=negative, problems=problems)

    return Workload(
        calls=[(["verify-5g", "--config", cfg], "batch", {0})],
        warmup_calls=[(["verify-5g", "--config", warm], "batch", {0})],
        check=check,
    )


# ---------------------------------------------------------------------------
# transport-2d: a 2-d LP solve and the 2-d batch at the default entropic width


def _transport_2d(root: Path, configs: Path, seed: int) -> Workload:
    def solve_ot(n: int) -> dict:
        return {"seed": TRANSPORT_INSTANCE_SEED,
                "grid": {"d": 2, "lower": [0.0, 0.0], "upper": [1.0, 1.0], "n": [n, n]},
                "cost": {"family": "power", "p": 2.0},
                "rho": {"kind": "random"}, "g": {"kind": "random"},
                "solver": {"method": "lp"}}

    def verify(n_values: list, eps: float) -> dict:
        return {"batch": {"seeds": [TRANSPORT_INSTANCE_SEED], "n_values": n_values,
                          "d": 2, "solver": "auto", "entropic_eps": eps}}

    lp_cfg = _write_config(configs / "lp_2d.json", solve_ot(8))
    batch_cfg = _write_config(configs / "batch_2d.json",
                              verify([8, 16], TRANSPORT_ENTROPIC_EPS))
    warm_lp = _write_config(configs / "warm_lp_2d.json", solve_ot(4))
    warm_batch = _write_config(configs / "warm_batch_2d.json", verify([4], 5e-2))

    def check(out: Path, codes: list) -> PassResult:
        problems = []
        meta = dict(line.split("=", 1) for line in
                    (out / "lp" / "meta").read_text().splitlines() if "=" in line)
        rel_gap = abs(float(meta["gap"])) / (1.0 + abs(float(meta["primal"])))
        lp_failed = int(not rel_gap <= LP_RELATIVE_GAP)
        if lp_failed:
            problems.append(f"LP relative gap {rel_gap:.3e} > {LP_RELATIVE_GAP}")
        rows = {int(r["n"]): r for r in _read_rows(out / "batch" / "reports.csv")}
        if sorted(rows) != [8, 16]:
            problems.append(f"2-d reports cover n={sorted(rows)}, want [8, 16]")
        if rows.get(16, {}).get("pass") != "1":
            problems.append("the 16x16 instance did not pass")
        # The 8x8 instance may fail only as a solver error (known
        # non-convergence, reported with lhs=nan); a computed LHS below
        # tolerance would be a wrong result.
        small = rows.get(8, {})
        if small.get("pass") != "1" and small.get("lhs") != "nan":
            problems.append("the 8x8 instance computed an LHS outside tolerance")
        want_code = 0 if all(r["pass"] == "1" for r in rows.values()) else 4
        if codes[1] != want_code:
            problems.append(f"verify-5g exited {codes[1]}, want {want_code}")
        failed = lp_failed + sum(1 for n in (8, 16) if rows.get(n, {}).get("pass") != "1")
        return PassResult(attempted=3, failed=failed,
                          ref_err=_negative_share(list(rows.values())),
                          problems=problems)

    return Workload(
        calls=[(["solve-ot", "--config", lp_cfg], "lp", {0}),
               (["verify-5g", "--config", batch_cfg], "batch", {0, 4})],
        warmup_calls=[(["solve-ot", "--config", warm_lp], "lp", {0}),
                      (["verify-5g", "--config", warm_batch], "batch", {0})],
        check=check,
    )


_BUILDERS = {
    "heat-flow": _heat_flow,
    "inequality-batch": _inequality_batch,
    "transport-2d": _transport_2d,
}


def prepare(name: str, root: Path, configs: Path, seed: int) -> Workload:
    """Generate the workload's configs under ``configs`` from ``seed``."""
    return _BUILDERS[name](root, configs, seed)

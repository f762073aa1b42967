"""otlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload heat-flow --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
``src``. Workloads (see ``workloads.py`` and ``baseline.json``):
``heat-flow``, ``inequality-batch``, ``transport-2d``.

The run starts ``SETUP_PROBES`` processes that only set up (import otlab,
numpy and scipy, generate the configs), then one worker process that sets
up, warms up on tiny inputs and times passes of the workload's CLI calls,
with BLAS/OpenMP threads capped at the number of usable cores.

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. It prints each metric with its unit, the
environment, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with sample counts, per-pass records and output digests, goes to
``.perfbench_run/results/``, and a traced run's spans next to it.

The run is incorrect when an output check fails, a CLI call crashes or
exits with a code its workload does not allow, two passes write different
output trees, or two traced passes disagree on a count. It exits non-zero
without a result when the checkout lacks the program or BENCHMARK.json
and this file disagree on the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0     # the whole run, probes included
REQUIRED = ("BENCHMARK.json", "src/otlab/cli.py", "configs/jko_heat_example.json")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    caps = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = caps
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _start_worker(args, work: Path, extra: list, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return (seconds from start to inputs ready, result)."""
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--work", str(work), "--result", str(result_path),
            "--workload", args.workload, "--seed", str(args.seed)] + extra
    with open(work / "worker.log", "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_worker_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result_path.exists():
        tail = (work / "worker.log").read_text()[-2000:]
        raise BenchError(f"worker exited {code}:\n{tail}")
    result = json.loads(result_path.read_text())
    return result["ready"] - started, result


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _median_metric(values: list, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def _count_unit(name: str) -> str:
    if name.endswith("logsumexp.bytes"):
        return "bytes_computed"     # from array sizes, not measured traffic
    return "bytes" if name.endswith(".bytes") else "count"


def _per_layer(passes: list) -> tuple[dict, list]:
    """Every per-layer metric of the traced passes, and counts that differ between them."""
    base = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in base))
    metrics = {"trace.overhead_s": {"value": overhead, "unit": "s", "samples": len(traced)}}
    problems = []
    for name in traced[0]["layer_seconds"]:
        metrics[name] = _median_metric([p["layer_seconds"][name] for p in traced], "s")
        if name.endswith(("p50_s", "p90_s")):
            layer = name.rsplit(".", 1)[0]
            metrics[name]["spans_per_pass"] = traced[0]["layer_counts"][f"{layer}.calls"]
    for name in traced[0]["layer_counts"]:
        values = [p["layer_counts"][name] for p in traced]
        if len(set(values)) != 1:
            problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = {"value": values[0], "unit": _count_unit(name), "samples": len(values)}
    return metrics, problems


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _select_declared(declared: dict, metrics: dict) -> dict:
    """The metrics BENCHMARK.json declares; each must be measured, with the declared unit."""
    missing = sorted(set(declared) - set(metrics))
    units = sorted(n for n in declared if n in metrics and metrics[n]["unit"] != declared[n])
    if missing or units:
        raise BenchError(f"BENCHMARK.json and the benchmark disagree: "
                         f"not measured={missing} unit mismatch={units}")
    return {name: metrics[name] for name in declared}


def run(args) -> dict:
    for rel in REQUIRED:
        if not (ROOT / rel).is_file():
            raise BenchError(f"{rel} is missing; run from a checkout of the repository")
    deadline = time.monotonic() + TIME_LIMIT_S
    work = RUN_DIR / f"work-{os.getpid()}"
    try:
        return _measure(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: Path, deadline: float) -> dict:
    setups = [_start_worker(args, work / f"probe{k}", ["--setup-only"], deadline)[0]
              for k in range(SETUP_PROBES)]
    spans_path = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}.spans.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--deadline", str(deadline - 20.0)]
    if args.trace:
        extra += ["--spans", str(spans_path)]
    setup, result = _start_worker(args, work / "main", extra, deadline)
    setups.append(setup)

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    if not untraced or (args.trace and len(passes) == len(untraced)):
        raise BenchError(f"no pass completed: {result['aborted']}")
    problems = [f"pass {k}: {msg}" for k, p in enumerate(passes) for msg in p["problems"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if result["aborted"]:
        # the crashed call counts as one attempted and failed operation
        problems.append(f"run aborted: {result['aborted']}")
        attempted += 1
        failed += 1
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"output trees differ between passes: {digests}")

    if args.trace:
        measured, mismatches = _per_layer(passes)
        problems += mismatches
        metrics = _select_declared(_declared("per_layer"), measured)
    else:
        metrics = _select_declared(_declared("end_to_end"), {
            "setup_s": _median_metric(setups, "s"),
            "wall_s": _median_metric([p["wall_s"] for p in untraced], "s"),
            "cpu_s": _median_metric([p["cpu_s"] for p in untraced], "s"),
            "peak_rss_mb": {"value": result["peak_rss_kb"] * 1024 / 1e6, "unit": "MB",
                            "samples": 1},
        })

    # reported with units but not gated: both are 0 on some workloads
    reported = {
        "fail_frac": {"value": failed / attempted, "unit": "ratio",
                      "samples": len(passes), "failed": failed, "attempted": attempted},
        "ref_err": _median_metric([p["ref_err"] for p in passes],
                                  "L1" if args.workload == "heat-flow" else "ratio"),
    }
    env = dict(result["env"], git_commit=_git_commit(), seed=args.seed,
               seconds=args.seconds, trace=args.trace, setup_samples=len(setups),
               passes=len(passes))
    record = {"workload": args.workload, "env": env, "metrics": metrics,
              "reported": reported, "digest": digests[0] if len(digests) == 1 else digests,
              "problems": problems, "absent": result["absent"], "passes": passes}
    out = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"record": record, "correct": not problems,
            "attempted": attempted, "failed": failed}


def _report(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']} seed={env['seed']} trace={env['trace']} "
          f"passes={env['passes']} setup_samples={env['setup_samples']}")
    print("env " + json.dumps({k: env[k] for k in sorted(env)}, sort_keys=True))
    for name, m in list(record["metrics"].items()) + list(record["reported"].items()):
        spans = f" spans_per_pass={m['spans_per_pass']}" if "spans_per_pass" in m else ""
        print(f"metric {name} {m['value']!r} {m['unit']} (samples={m['samples']}{spans})")
    print(f"digest {record['digest']}")
    for name in record["absent"]:
        print(f"absent {name}")
    for problem in record["problems"]:
        print(f"problem {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        outcome = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record = outcome["record"]
    _report(record)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

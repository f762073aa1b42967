"""One benchmark process: set up a workload, warm it up, then time its passes.

Started by ``run.py`` with the BLAS/OpenMP thread caps and ``PYTHONPATH``
already in its environment. Every CLI call runs in this process through
``otlab.cli.main``. The result, including the monotonic time at which the
inputs were ready, goes to ``--result`` as JSON; with ``--spans`` the spans
of the traced passes are written there as CSV when the run ends.

Untraced mode times one pass, then further passes as long as a pass of
median length still ends within ``--seconds``. Traced mode first times one
untraced pass, the base for the tracing overhead, then at least two traced
passes, so that their counts can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import otlab
import otlab.cli

from tracing import Tracer, layer_metrics
from workloads import prepare, tree_digest

MIN_TRACED_PASSES = 2


def _peak_rss_kb() -> int:
    """High-water resident set of this process in kB (VmHWM)."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    caps = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "otlab": otlab.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_caps": {name: os.environ.get(name, "") for name in caps},
    }


def _timed_pass(workload, out: Path) -> dict:
    if out.exists():
        shutil.rmtree(out)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    codes = workload.run_pass(otlab.cli.main, out)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    outcome = workload.check(out, codes)
    return {"wall_s": wall, "cpu_s": cpu, "attempted": outcome.attempted,
            "failed": outcome.failed, "ref_err": outcome.ref_err,
            "problems": outcome.problems, "digest": tree_digest(out)}


def _run(args, workload, work: Path) -> dict:
    out = work / "out"
    workload.warm_up(otlab.cli.main, work / "warm")
    passes, spans, tracer = [], [], None
    start = time.monotonic()

    def more() -> bool:
        traced = sum(1 for p in passes if p["traced"])
        if not passes or (args.trace and traced < MIN_TRACED_PASSES):
            return True
        # start a further pass only if a typical one still ends in time
        typical = statistics.median(p["wall_s"] for p in passes)
        now = time.monotonic()
        return now - start + typical <= args.seconds and now + typical <= args.deadline

    aborted = None
    try:
        while more():
            traced = bool(args.trace) and bool(passes)
            if traced and tracer is None:
                tracer = Tracer()
                tracer.install()
            if tracer is not None:
                tracer.reset()
            record = _timed_pass(workload, out)
            record["traced"] = traced
            if traced:
                record["layer_seconds"], record["layer_counts"] = layer_metrics(
                    tracer.spans, tracer.counts)
                spans.extend([len(passes)] + s for s in tracer.spans)
            passes.append(record)
    except Exception as exc:  # an unexpected exit code or a crash ends the run
        aborted = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.spans and spans:
        with open(args.spans, "w", newline="\n") as fh:
            fh.write("pass,layer,start,end,parent\n")
            for row in spans:
                fh.write(",".join(str(v) for v in row) + "\n")
    return {"passes": passes, "aborted": aborted,
            "absent": sorted(tracer.absent) if tracer is not None else []}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=float("inf"),
                        help="monotonic time after which no optional pass starts")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root, work = Path(args.root), Path(args.work)
    source = Path(otlab.__file__).resolve()
    if (root / "src").resolve() not in source.parents:
        print(f"otlab was imported from {source}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    workload = prepare(args.workload, root, work / "configs", args.seed)
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        result["env"] = _environment()
        result.update(_run(args, workload, work))
        result["peak_rss_kb"] = _peak_rss_kb()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

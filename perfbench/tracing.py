"""Span tracing of otlab's layers from outside the package.

``Tracer.install`` wraps the public functions of each otlab module, plus the
module-level helpers ``run_jko`` looks up at call time, and rebinds each
wrapper in every otlab module namespace that holds the original, since
``cli``, ``fivegrad`` and ``jko`` import their callees by name. A function
a module imported from elsewhere (``logsumexp`` from scipy, ``_cost_matrix``
from ``ot_core`` into ``jko``) is wrapped per call site instead, so each
site gets its own layer name. A target that no longer exists is listed in
``Tracer.absent`` instead of raising, as is a count whose call no longer
carries it.

Each span records its layer, start, end and parent span and is kept in
memory until the run writes it out. Counts are read off arguments and
results at the same boundary.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple


class Count(NamedTuple):
    """A count read off one call: ``read(arguments, result)`` is added to ``<layer>.<key>``."""

    key: str
    read: Callable


# Bytes are computed from array sizes (the input read once, the output
# written once), not measured.
_KERNEL_BYTES = Count("bytes", lambda args, out: args["a"].nbytes + out.nbytes)

# (module, attribute, layer, count or None). Site-scoped targets come first,
# so the home-module rebinding below leaves their wrappers in place.
TARGETS = (
    ("jko", "logsumexp", "jko.logsumexp", _KERNEL_BYTES),
    ("jko", "_cost_matrix", "jko.cost_matrix", None),
    ("ot_core", "logsumexp", "ot_core.logsumexp", _KERNEL_BYTES),
    ("cli", "main", "cli.main", None),
    ("jko", "run_jko", "jko.run_jko", None),
    ("jko", "_jko_step_full", "jko.step",
     Count("sweeps", lambda args, out: out[1].inner_iterations)),
    ("jko", "_sym_solve", "jko.sym_solve", Count("sweeps", lambda args, out: out[3])),
    ("jko", "_scaling_solve", "jko.scaling_solve", Count("sweeps", lambda args, out: out[4])),
    ("jko", "_pinned_value", "jko.pinned_value", None),
    ("jko", "reference_pde_solve", "jko.reference_pde_solve",
     Count("steps", lambda args, out: args["steps"])),
    ("jko", "write_trajectory_dir", "jko.write_trajectory_dir", None),
    ("ot_core", "_cost_matrix", "ot_core.cost_matrix", None),
    ("ot_core", "solve_lp", "ot_core.solve_lp",
     Count("pivots", lambda args, out: out.meta["pivots"])),
    ("ot_core", "solve_entropic", "ot_core.solve_entropic",
     Count("iters", lambda args, out: out.meta["iterations"])),
    ("ot_core", "c_transform", "ot_core.c_transform",
     Count("pairs", lambda args, out: args["value_grid"].num_cells
           * (args["eval_grid"] or args["value_grid"]).num_cells)),
    ("ot_core", "transport_map_from_potential", "ot_core.transport_map_from_potential", None),
    ("ot_core", "write_result_dir", "ot_core.write_result_dir", None),
    ("fivegrad", "verify_batch", "fivegrad.verify_batch", None),
    ("fivegrad", "run_instance", "fivegrad.run_instance",
     Count("fails", lambda args, out: not out.passed)),
    ("fivegrad", "five_gradients_integrand", "fivegrad.five_gradients_integrand", None),
    ("fivegrad", "boundary_flux", "fivegrad.boundary_flux", None),
    ("fivegrad", "write_reports_csv", "fivegrad.write_reports_csv", None),
    ("geometry", "random_smooth_density", "geometry.random_smooth_density", None),
    ("geometry", "write_field_csv", "geometry.write_field_csv",
     Count("bytes", lambda args, out: os.path.getsize(args["path"]))),
    ("cost", "grad_H", "cost.grad_H", None),
    ("cost", "grad_h_star", "cost.grad_h_star", None),
)

# Layers whose raised errors are counted as ``<layer>.fails``.
FAIL_COUNTED = ("ot_core.solve_entropic",)

# Layers whose span durations are reported as p50 and p90.
PERCENTILE_LAYERS = ("jko.step", "fivegrad.run_instance")


class Tracer:
    """In-memory spans and counts of the traced calls."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.absent = set()
        self._stack = []
        self._undo = []

    def _wrap(self, fn, layer, count):
        spans, stack, counts, absent = self.spans, self._stack, self.counts, self.absent
        signature = inspect.signature(fn) if count is not None else None
        fail_key = f"{layer}.fails" if layer in FAIL_COUNTED else None
        count_key = f"{layer}.{count.key}" if count is not None else None

        def traced(*args, **kwargs):
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[2] = perf_counter()
                stack.pop()
                if fail_key:
                    counts[fail_key] += 1
                raise
            record[2] = perf_counter()
            stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    counts[count_key] += int(count.read(bound.arguments, result))
                except (AttributeError, KeyError, IndexError, TypeError):
                    # the call's arguments or result no longer carry the count
                    absent.add(count_key)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "otlab" or name.startswith("otlab."))]
        for module_name, attr, layer, count in TARGETS:
            module = sys.modules.get(f"otlab.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.add(f"otlab.{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, layer, count)
            if getattr(original, "__module__", None) == module.__name__:
                holders = [m for m in modules if vars(m).get(attr) is original]
            else:
                holders = [module]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        """Drop recorded spans and counts, keeping the wrappers installed."""
        self.spans.clear()
        self.counts.clear()


def percentile(values: list, fraction: float) -> float:
    """Inclusive-method percentile; 0.0 for no samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def layer_metrics(spans: list, counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, as (seconds, counts).

    Every layer and count appears, with 0 where the pass never reached it.
    A layer's self time is its duration minus the time its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = defaultdict(list)
    self_time = defaultdict(float)
    for index, (layer, start, end, parent) in enumerate(spans):
        durations[layer].append(end - start)
        self_time[layer] += end - start - child_time[index]

    seconds, tallies = {}, {}
    for _, _, layer, count in TARGETS:
        seconds[f"{layer}.s"] = math.fsum(durations[layer])
        seconds[f"{layer}.self_s"] = self_time[layer]
        tallies[f"{layer}.calls"] = len(durations[layer])
        if count is not None:
            tallies[f"{layer}.{count.key}"] = counts.get(f"{layer}.{count.key}", 0)
    for layer in FAIL_COUNTED:
        tallies[f"{layer}.fails"] = counts.get(f"{layer}.fails", 0)
    for layer in PERCENTILE_LAYERS:
        seconds[f"{layer}.p50_s"] = percentile(durations[layer], 0.5)
        seconds[f"{layer}.p90_s"] = percentile(durations[layer], 0.9)
    tallies["jko.step.count"] = tallies["jko.step.calls"]
    return seconds, tallies

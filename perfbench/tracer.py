"""Span tracer for the traced benchmark run.

``install(tracer)`` wraps the public functions of each toursplit layer
module, plus a few methods named in the layer map, and rebinds every wrapped
name in every loaded toursplit module that binds it (``cli`` and
``splitting`` import ``optimal_tour`` from ``exact`` directly, for example).
Spans stay in memory as ``[name, start, end, parent, meta, error]`` rows and
are written out once, at exit.

The tracer lives only in benchmark child processes; the timed, untraced runs
never import it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

# Layer -> module.  The kernel functions are bound from ``_core`` or
# ``_core_py``, so they are listed by name instead of discovered.
LAYERS = {
    "cli": "toursplit.cli",
    "kernels": "toursplit.kernels",
    "exact": "toursplit.exact",
    "geometry": "toursplit.geometry",
    "splitting": "toursplit.splitting",
    "circle": "toursplit.circle",
}
# ``cli.main`` alone: its self time is the CLI's own work (argparse, file
# parsing, document building, JSON), which wrapping the cmd_* helpers would
# split off.
EXPLICIT = {
    "cli": ("main",),
    "kernels": ("shortest_cycle", "cycle_lengths_by_subset", "min_max_partition"),
}
# A constant-time helper that split_plan calls tens of thousands of times per
# ``bounds`` run; wrapping it would more than double that job's time.
SKIP = {"splitting.equalizing_fraction"}
METHODS = {
    "exact": (("Instance", "distance_matrix"),),
    "geometry": (("ClosedTour", "arclength_of"), ("ClosedTour", "subcurve")),
}


def _kernel_n(args, result):
    return {"n": int(args[1])}


# Values recorded on a span when its call returns.
META = {
    "kernels.shortest_cycle": _kernel_n,
    "kernels.cycle_lengths_by_subset": _kernel_n,
    "kernels.min_max_partition": _kernel_n,
    "geometry.convex_hull": lambda args, result: {"hull": len(result)},
    "splitting.short_diagonal": lambda args, result: {
        "slack": result.length / (args[0].length / math.pi)
    },
    "circle.verify_arc_optimality": lambda args, result: {
        "subsets": result.subsets_checked
    },
    "circle.verify_gap_fill_monotonicity": lambda args, result: {"moves": result},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        meta = META.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, False]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if meta is not None:
                span[4] = meta(args, result)
            return result

        return traced

    def write(self, path: str, job: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"job": job, "spans": self.spans}, handle)


def _public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions wherever a toursplit module binds them."""
    modules = {layer: importlib.import_module(name) for layer, name in LAYERS.items()}
    wrapped = {}
    for layer, module in modules.items():
        for name in EXPLICIT.get(layer) or _public_functions(module):
            if f"{layer}.{name}" in SKIP:
                continue
            original = getattr(module, name)
            wrapped[id(original)] = (original, tracer.wrap(f"{layer}.{name}", original))
        for cls_name, method in METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
    bound = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "toursplit"]
    for module in bound:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

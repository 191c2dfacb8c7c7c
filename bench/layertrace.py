"""Outside-in layer trace of one ``epigraph.cli.run`` call.

The program carries no instrumentation of its own, so the tracer replaces
each public function listed in ``LAYERS`` by a wrapper in every ``epigraph``
module that imported it, and restores the originals afterwards.  A wrapper
records a span (name, start, end, parent span, run id) and, for some
layers, counts.  Spans stay in memory until ``write`` is called.

A span's self time is its duration minus that of its child spans, so the
self times of all spans in one run add up to the run's duration.  Counting
done by the wrappers is recorded as its own ``trace.bookkeeping`` span and
charged to no layer.  A function that a later version removes or renames is
skipped, and its layer then reports zero calls.  A counter that can no longer
read its function's arguments is recorded in ``problems`` rather than
counted as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

import numpy as np

# (layer, module, function): the layer a function's time is charged to
LAYERS = (
    ("cli.run", "epigraph.cli", "run"),
    ("cli.export", "epigraph.cli", "export_slice_csv"),
    ("cli.export", "epigraph.cli", "export_profile_csv"),
    ("cli.export", "epigraph.cli", "write_plot_script"),
    ("solver.cfl", "epigraph.solver", "max_stable_dt"),
    ("solver.boundary", "epigraph.solver", "solve_boundary_field"),
    ("solver.sweep", "epigraph.solver", "solve_shortfall"),
    ("solver.step", "epigraph.solver", "step_backward"),
    ("solver.stencil", "epigraph.solver", "first_differences"),
    ("solver.stencil", "epigraph.solver", "second_difference"),
    ("solver.stencil", "epigraph.solver", "cross_difference"),
    ("model.coeff", "epigraph.model", "eval_coefficients_batch"),
    ("hamiltonian.corner", "epigraph.hamiltonian", "corner_for_eigenvalue"),
    ("fields.interp", "epigraph.fields", "interp_state"),
    ("fields.snapshot", "epigraph.fields", "save_snapshot"),
    ("levelset.extract", "epigraph.levelset", "required_margin_profile"),
)

BOOKKEEPING = "trace.bookkeeping"


def _step_counts(args: dict[str, Any], result: Any) -> dict[str, float]:
    return {"node_control_updates": float(np.size(args["prev"])
                                          * len(args["problem"].controls))}


def _corner_counts(args: dict[str, Any], result: Any) -> dict[str, float]:
    target, arrow, diag = np.broadcast_arrays(args["target"], args["arrow_sq"], args["diag"])
    live = np.count_nonzero((arrow > 0.0) & (target > diag))
    return {"nodes": float(target.size), "live": float(live)}


def _snapshot_counts(args: dict[str, Any], result: Any) -> dict[str, float]:
    return {"bytes": float(sum(os.path.getsize(path) for path in result))}


def _export_counts(args: dict[str, Any], result: Any) -> dict[str, float]:
    return {"bytes": float(os.path.getsize(result))}


_COUNTERS: dict[str, Callable[[dict[str, Any], Any], dict[str, float]]] = {
    "solver.step": _step_counts,
    "hamiltonian.corner": _corner_counts,
    "fields.snapshot": _snapshot_counts,
    "cli.export": _export_counts,
}


class Tracer:
    """Span recorder for the functions in ``LAYERS``."""

    def __init__(self) -> None:
        # span: [run id, layer, start, end, parent index, counts]
        self.spans: list[list[Any]] = []
        self.run_id = ""
        self.problems: set[str] = set()
        self._open: list[int] = []

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counter = _COUNTERS.get(layer)
        signature = inspect.signature(fn)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [self.run_id, layer, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = counter(bound.arguments, result)
                except (KeyError, TypeError, AttributeError, OSError) as exc:
                    # a changed signature loses the counts: say so, never read 0
                    self.problems.add(f"{layer} counts lost: {type(exc).__name__}: {exc}")
                self.spans.append([self.run_id, BOOKKEEPING, span[3],
                                   time.perf_counter(), parent, {}])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run_id: str) -> Iterator[None]:
        """Trace every call made inside the block under ``run_id``."""
        self.run_id = run_id
        modules = [m for name, m in sys.modules.items()
                   if name == "epigraph" or name.startswith("epigraph.")]
        replaced = []
        for layer, module_name, attr in LAYERS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        replaced.append((module, name, original))
        try:
            yield
        finally:
            for module, name, original in reversed(replaced):
                setattr(module, name, original)

    def summary(self, run_id: str) -> dict[str, float]:
        """Per-layer metrics of one traced run (see the benchmark README)."""
        index = [i for i, span in enumerate(self.spans) if span[0] == run_id]
        children: dict[int, float] = defaultdict(float)
        for i in index:
            _, _, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                children[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, float] = defaultdict(float)
        for i in index:
            _, layer, start, end, _, extra = self.spans[i]
            total[layer] += end - start
            own[layer] += end - start - children[i]
            calls[layer] += 1
            for key, value in extra.items():
                counts[f"{layer}.{key}"] += value
        corner_nodes = counts["hamiltonian.corner.nodes"]
        return {
            "trace.solve_s": total["cli.run"],
            "trace.bookkeeping_s": own[BOOKKEEPING],
            "trace.unaccounted_s": total["cli.run"] - sum(own.values()),
            "cli.run_self_s": own["cli.run"],
            "cli.export_s": own["cli.export"],
            "cli.export_bytes": counts["cli.export.bytes"],
            "solver.sweep_s": total["solver.sweep"],
            "solver.sweep_self_s": own["solver.sweep"],
            "solver.boundary_s": total["solver.boundary"],
            "solver.boundary_self_s": own["solver.boundary"],
            "solver.step_calls": calls["solver.step"],
            "solver.step_self_s": own["solver.step"],
            "solver.node_control_updates": counts["solver.step.node_control_updates"],
            "solver.stencil_s": own["solver.stencil"],
            "solver.stencil_calls": calls["solver.stencil"],
            "solver.cfl_s": own["solver.cfl"],
            "solver.cfl_calls": calls["solver.cfl"],
            "model.coeff_s": own["model.coeff"],
            "model.coeff_calls": calls["model.coeff"],
            "hamiltonian.corner_s": own["hamiltonian.corner"],
            "hamiltonian.corner_calls": calls["hamiltonian.corner"],
            "hamiltonian.corner_live_frac": (counts["hamiltonian.corner.live"] / corner_nodes
                                             if corner_nodes else 0.0),
            "fields.interp_s": own["fields.interp"],
            "fields.interp_calls": calls["fields.interp"],
            "fields.snapshot_s": own["fields.snapshot"],
            "fields.snapshot_calls": calls["fields.snapshot"],
            "fields.snapshot_bytes": counts["fields.snapshot.bytes"],
            "levelset.extract_s": own["levelset.extract"],
        }

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as handle:
            for i, (run_id, layer, start, end, parent, extra) in enumerate(self.spans):
                handle.write(json.dumps({"span": i, "run": run_id, "name": layer,
                                         "start": start, "end": end, "parent": parent,
                                         "counts": extra}) + "\n")

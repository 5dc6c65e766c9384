"""Spans recorded around the points where one slabwald module calls another.

Nothing under src/ is edited: while a Tracer is installed, the module-level
names through which callers reach a public function are replaced by timing
wrappers, and the originals are put back afterwards.  Spans are kept in
memory as [name, start, end, parent] and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from slabwald import errors, ewald2d, ewald3d, harness, tuner

# Layers timed per operation ("step" roots) and per set-up ("setup" roots).
STEP_LAYERS = ("ewald3d.solve", "ewald3d.solve_levels", "ewald3d.elc_correction",
               "ewald3d.yb_correction", "ewald3d.fourier3d_energy",
               "ewald2d.build_image_table", "ewald2d.icm_level_sweep",
               "harness.run_sweep")
SETUP_LAYERS = ("tuner.select_all", "errors", "harness.gen_system")


def wrap_points():
    """(module, attribute, layer name) for every cross-module call site."""
    points = [
        (ewald3d, "solve", "ewald3d.solve"),
        (ewald3d, "solve_levels", "ewald3d.solve_levels"),
        (ewald3d, "elc_correction", "ewald3d.elc_correction"),
        (ewald3d, "yb_correction", "ewald3d.yb_correction"),
        (ewald3d, "fourier3d_energy", "ewald3d.fourier3d_energy"),
        (ewald3d, "build_image_table", "ewald2d.build_image_table"),
        (ewald2d, "build_image_table", "ewald2d.build_image_table"),
        (harness, "icm_level_sweep", "ewald2d.icm_level_sweep"),
        (harness, "run_sweep", "harness.run_sweep"),
        (harness, "gen_system", "harness.gen_system"),
        (tuner, "select_all", "tuner.select_all"),
        (tuner, "splitting_error", "errors.splitting_error"),
        (tuner, "total_budget", "errors.total_budget"),
    ]
    for attr, fn in vars(errors).items():
        if (inspect.isfunction(fn) and fn.__module__ == errors.__name__
                and not attr.startswith("_")):
            points.append((errors, attr, f"errors.{attr}"))
    return points


def layer_of(name: str) -> str:
    """All errors.* functions form one layer."""
    return "errors" if name.startswith("errors.") else name


class Tracer:
    """Spans in memory, and the wrappers that record them while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._patches = [(mod, attr, getattr(mod, attr),
                          self._wrap(name, getattr(mod, attr)))
                         for mod, attr, name in wrap_points()]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            self.errors[layer_of(name)] += 1
            raise
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)


def _per_root(spans):
    """For each root span ("step" or "setup"): busy, self and call totals per layer.

    A span counts toward its layer's busy time only when no ancestor belongs to
    the same layer, so nested errors.* calls are not counted twice.  Self time
    is a span's duration minus the durations of its direct children.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    roots: dict[int, dict] = {}
    root_of = [0] * len(spans)
    layers_above: list[frozenset] = [frozenset()] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        layer = layer_of(name)
        if parent < 0:
            root_of[i] = i
            roots[i] = {"kind": name, "busy": Counter(), "self": Counter(),
                        "calls": Counter()}
            continue
        root_of[i] = root_of[parent]
        layers_above[i] = layers_above[parent] | {layer_of(spans[parent][0])}
        agg = roots[root_of[i]]
        agg["calls"][layer] += 1
        if layer not in layers_above[i]:
            agg["busy"][layer] += end - start
            agg["self"][layer] += end - start - child_s[i]
    return list(roots.values())


def median(values) -> float:
    """Median, or 0.0 when there is nothing to take it of."""
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation (per-set-up for SETUP_LAYERS) medians of every layer metric."""
    roots = _per_root(tracer.spans)
    steps = [r for r in roots if r["kind"] == "step"]
    setups = [r for r in roots if r["kind"] == "setup"]
    out: dict[str, float] = {}
    for layers, units in ((STEP_LAYERS, steps), (SETUP_LAYERS, setups)):
        for layer in layers:
            out[f"{layer}.busy_s"] = median([u["busy"][layer] for u in units])
            out[f"{layer}.calls"] = median([u["calls"][layer] for u in units])
            out[f"{layer}.errors"] = float(tracer.errors[layer])
    out["ewald3d.solve.self_s"] = median([u["self"]["ewald3d.solve"] for u in steps])
    out["harness.run_sweep.self_s"] = median(
        [u["self"]["harness.run_sweep"] for u in steps])
    out["ewald3d.real.est_s"] = median(
        [u["self"]["ewald3d.solve"] - u["busy"]["ewald3d.fourier3d_energy"]
         for u in steps])
    return out


def dominant_shares(tracer: Tracer) -> dict[str, float | None]:
    """Medians over traced operations of the share of the layer each workload
    is meant to be dominated by (None where the layer is not called)."""
    steps = [r for r in _per_root(tracer.spans) if r["kind"] == "step"]

    def share(num, den, part="busy"):
        values = [u[part][num] / u["busy"][den] for u in steps if u["busy"][den] > 0]
        return median(values) if values else None

    return {
        "real_plus_fourier_of_solve": share("ewald3d.solve", "ewald3d.solve", part="self"),
        "fourier_of_solve": share("ewald3d.fourier3d_energy", "ewald3d.solve"),
        "elc_of_solve": share("ewald3d.elc_correction", "ewald3d.solve"),
        "icm_of_run_sweep": share("ewald2d.icm_level_sweep", "harness.run_sweep"),
    }

"""Per-layer tracing of navgeo from outside the package.

Each traced function is replaced by a wrapper that records a span around
the call. A module-level function is rebound in every loaded `navgeo`
module that holds it by name (for example `christoffel` in `geometry`,
`sprays`, `transport` and `connection`); a method is replaced on its
class. Nothing under `src/` changes.

Spans nest on one stack: a span's self time is its duration minus the
durations of the traced spans it directly encloses. The program is single
threaded, so spans never overlap.

A function that no longer exists is reported as absent, with its metrics
at 0, so that refactors keep the benchmark running.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

CPS = ("calls", "points", "self_s")
CS = ("calls", "self_s")

# layer (= module) -> [(qualified function name, reported stats)]
TARGETS = {
    "exprlang": [("evaluate", CPS), ("evaluate_dual", CPS)],
    "numkernel": [("rk4_step", CS), ("spd_inverse", CS),
                  ("numeric_rank", CS)],
    "geometry": [("MetricField.value", CPS), ("MetricField.derivatives", CPS),
                 ("christoffel", CPS), ("wind_covariant_jacobian", CPS),
                 ("validate", CPS), ("VectorField.value", CS),
                 ("VectorField.jacobian", CS), ("randers_value", CS),
                 ("indicatrix_points", CS)],
    "connection": [("torsion_components", CS)],
    "sprays": [("natural_spray_values", CPS), ("randers_spray_values", CPS),
               ("riemann_spray_values", CPS),
               ("spray_connection_matrix", CPS),
               ("integrate_geodesic", ("calls", "self_s", "halted")),
               ("compare_sprays", CS), ("geodesic_csv", ("self_s",))],
    "transport": [("natural_transport", CS), ("riemann_transport", CS),
                  ("natural_transport_many", CS),
                  ("riemann_transport_many", CS),
                  ("trajectory_csv", ("self_s",))],
    "holonomy": [("loop_holonomy", CS), ("riemann_holonomy_matrix", CS),
                 ("holonomy_distribution_rank", CS)],
    "classify": [("classification_report", CS),
                 ("torsion_vanishing_test", ("self_s",))],
    "scenarios": [("builtin", CS), ("load_scenario", CS)],
    "cli": [("main", CS)],
}

PACKAGE = "navgeo"
UNITS = {"calls": "count", "points": "count", "self_s": "s",
         "halted": "count"}
# argument whose leading batch shape is counted as "points"
_POINT_ARGS = ("x", "points")


def metric_names() -> list:
    """(name, unit) of every per-layer metric the tracer reports."""
    return [(f"{mod}.{qual}.{stat}", UNITS[stat])
            for mod, funcs in TARGETS.items()
            for qual, stats in funcs for stat in stats]


def _point_index(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None, None
    for name in _POINT_ARGS:
        if name in params:
            return params.index(name), name
    return None, None


def _lead_points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return math.prod(shape[:-1])


def resolve(mod_name: str, qual: str):
    """(owning class or None, attribute, original function or None) of a
    module-level function or a method named `Class.method`."""
    try:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None, qual, None
    cls_name, _, attr = qual.rpartition(".")
    if not cls_name:
        return None, attr, getattr(module, attr, None)
    cls = getattr(module, cls_name, None)
    return cls, attr, vars(cls).get(attr) if cls is not None else None


class Tracer:
    """Installs span-recording wrappers into the loaded navgeo modules."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.stats = {}      # key -> [calls, points, self_s, halted]
        self.absent = []
        self._stack = []
        self._undo = []

    def _wrap(self, key: str, fn, want_points: bool, want_halted: bool):
        rec = self.stats.setdefault(key, [0, 0, 0.0, 0])
        stack = self._stack
        index, name = _point_index(fn) if want_points else (None, None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += span
                rec[0] += 1
                rec[2] += span - child
            if index is not None:
                x = args[index] if len(args) > index else kwargs.get(name)
                rec[1] += (_lead_points(x) if x is not None
                           else int(getattr(result, "n_points", 0)))
            if want_halted and getattr(result, "left_domain", False):
                rec[3] += 1
            return result
        return wrapper

    def install(self) -> None:
        self.absent = []
        loaded = [m for n, m in list(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, funcs in self.targets.items():
            for qual, stats in funcs:
                key = f"{mod_name}.{qual}"
                cls, attr, orig = resolve(mod_name, qual)
                if not callable(orig):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, orig, "points" in stats,
                                     "halted" in stats)
                for owner in [cls] if cls is not None else loaded:
                    for name, val in list(vars(owner).items()):
                        if val is orig:
                            setattr(owner, name, wrapper)
                            self._undo.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict:
        out = {}
        pos = {"calls": 0, "points": 1, "self_s": 2, "halted": 3}
        for mod, funcs in self.targets.items():
            for qual, stats in funcs:
                rec = self.stats.get(f"{mod}.{qual}", [0, 0, 0.0, 0])
                for stat in stats:
                    out[f"{mod}.{qual}.{stat}"] = {"value": rec[pos[stat]],
                                                   "unit": UNITS[stat]}
        return out

"""Layer probes: the cost of one call of a layer at 1 point and at 1000
points, after warm-up, on `sphere_cap` and on the 4D benchmark file.

The gap between the two sizes is the per-call overhead that dominates the
single-point workloads. A probe whose function no longer exists, or no
longer takes the arguments below, is reported as absent.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import resolve
from workloads import SCENARIO_DIR, inner_point, unit_vector, domain_of

PROBE_SCENARIOS = ("sphere_cap", "rot_box_4d")
SIZES = (("us_at_1", None), ("us_at_1000", 1000))

# (module, function, call taking (function, navigation data, x, y))
PROBES = (
    ("exprlang", "evaluate", lambda f, nav, x, y: f(nav.metric.upper[0][0], x)),
    ("geometry", "MetricField.derivatives",
     lambda f, nav, x, y: f(nav.metric, x)),
    ("geometry", "christoffel", lambda f, nav, x, y: f(nav.metric, x)),
    ("geometry", "wind_covariant_jacobian", lambda f, nav, x, y: f(nav, x)),
    ("sprays", "natural_spray_values", lambda f, nav, x, y: f(nav, x, y)),
    ("sprays", "randers_spray_values", lambda f, nav, x, y: f(nav, x, y)),
    ("sprays", "spray_connection_matrix", lambda f, nav, x, y: f(nav, x, y)),
)

BATCH_SECONDS = 0.01
BATCHES = 5


def metric_names() -> list:
    return [(f"probe.{mod}.{fn}.{scen}.{size}", "us")
            for mod, fn, _ in PROBES for scen in PROBE_SCENARIOS
            for size, _ in SIZES]


def _per_call_us(call) -> float:
    call()
    call()
    t0 = time.perf_counter()
    call()
    reps = max(1, int(BATCH_SECONDS / max(time.perf_counter() - t0, 1e-7)))
    per_call = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        per_call.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(per_call)


def _load(name: str):
    from navgeo import scenarios
    if (SCENARIO_DIR / f"{name}.json").is_file():
        return scenarios.load_scenario(str(SCENARIO_DIR / f"{name}.json")).nav
    return scenarios.builtin(name).nav


def run_probes() -> tuple[dict, list]:
    """(metrics, absent probe names)."""
    metrics, absent = {}, []
    for scen in PROBE_SCENARIOS:
        nav = _load(scen)
        dim, dom = domain_of(scen)
        rng = np.random.default_rng(0)
        xs = np.stack([inner_point(rng, dom, 0.8) for _ in range(1000)])
        ys = np.stack([unit_vector(rng, dim) for _ in range(1000)])
        for mod, fn_name, call in PROBES:
            _, _, fn = resolve(mod, fn_name)
            for size, count in SIZES:
                name = f"probe.{mod}.{fn_name}.{scen}.{size}"
                x, y = (xs[0], ys[0]) if count is None else (xs, ys)
                try:
                    value = _per_call_us(lambda: call(fn, nav, x, y))
                except (TypeError, AttributeError):  # gone or re-signatured
                    value = 0.0
                    absent.append(name)
                metrics[name] = {"value": value, "unit": "us"}
    return metrics, absent

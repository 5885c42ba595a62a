"""The benchmark's layer probes name functions of navgeo from outside the
package and report a name that no longer resolves as absent, with metric 0,
instead of failing. This keeps those names from going stale unseen."""

import sys
from pathlib import Path

import numpy as np
import pytest

from navgeo.scenarios import builtin

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import probes
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return probes, tracer


# absent on purpose: the per-step RK4 function was folded into the batched
# integrator, and the field accessors and the SPD inverse were deleted as
# nothing in the package called them; their tracer entries and probes are
# still to be replaced by the live functions (field_jet and the others)
ABSENT_TARGETS = {("numkernel", "rk4_step"), ("numkernel", "spd_inverse"),
                  ("geometry", "MetricField.derivatives"),
                  ("geometry", "wind_covariant_jacobian"),
                  ("geometry", "VectorField.jacobian")}


def test_every_probe_resolves_and_runs(bench_modules):
    probes, tracer = bench_modules
    nav = builtin("sphere_cap").nav
    x, y = np.array([0.2, -0.1]), np.array([0.6, 0.8])
    for mod, name, call in probes.PROBES:
        _, _, fn = tracer.resolve(mod, name)
        if (mod, name) in ABSENT_TARGETS:
            assert fn is None, f"{mod}.{name}"
            continue
        assert callable(fn), f"{mod}.{name}"
        assert np.all(np.isfinite(call(fn, nav, x, y))), f"{mod}.{name}"


def test_every_tracer_target_resolves(bench_modules):
    _, tracer = bench_modules
    absent = {(mod, qual) for mod, funcs in tracer.TARGETS.items()
              for qual, _ in funcs if tracer.resolve(mod, qual)[2] is None}
    assert absent == ABSENT_TARGETS

"""Random curves, loops and vectors inside a chart, shared by the tests.

Kept out of conftest.py so that `tests/` and `bench/tests/`, which each
hold a conftest.py, can be collected in one pytest run.
"""
import numpy as np

from navgeo.transport import AnalyticCurve


def _interior_point(chart, rng, margin):
    lo, hi = chart.bounding_box()
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        if chart.contains(x, margin=margin):
            return x
    raise AssertionError("could not sample an interior point")


def random_curve(chart, rng, margin=0.25):
    """Analytic curve a -> b with a sinusoidal wiggle, kept inside the
    chart; the wiggle vanishes at both endpoints."""
    a = _interior_point(chart, rng, margin)
    b = _interior_point(chart, rng, margin)
    lo, hi = chart.bounding_box()
    amp = 0.08 * (hi - lo)
    for _ in range(60):
        c = rng.uniform(-amp, amp)
        k = rng.integers(1, 3)
        exprs = [
            f"{float(a[i])!r} + {float(b[i] - a[i])!r}*t"
            f" + {float(c[i])!r}*sin({int(k)}*pi*t)"
            for i in range(chart.dim)
        ]
        curve = AnalyticCurve.from_strings(exprs)
        pts = curve.point(np.linspace(0.0, 1.0, 201))
        if np.all(chart.contains(pts, margin=0.01)):
            return curve
        amp = amp / 2.0
    raise AssertionError("could not fit a wiggly curve inside the chart")


def random_loop(chart, rng, margin=0.3):
    """Closed analytic ellipse kept inside the chart."""
    lo, hi = chart.bounding_box()
    span = hi - lo
    for _ in range(200):
        center = _interior_point(chart, rng, margin)
        r = rng.uniform(0.04, 0.12) * span
        phase = rng.uniform(0.0, 2.0 * np.pi)
        exprs = [
            f"{float(center[0])!r} + {float(r[0])!r}"
            f"*cos(2*pi*t + {float(phase)!r})",
            f"{float(center[1])!r} + {float(r[1])!r}"
            f"*sin(2*pi*t + {float(phase)!r})",
        ]
        curve = AnalyticCurve.from_strings(exprs)
        pts = curve.point(np.linspace(0.0, 1.0, 201))
        if np.all(chart.contains(pts, margin=0.01)):
            return curve
    raise AssertionError("could not fit a loop inside the chart")


def random_vectors(rng, count, dim, scale=1.0):
    v = rng.normal(size=(count, dim)) * scale
    # steer well clear of zero: transports and norms need nonzero input
    small = np.linalg.norm(v, axis=1) < 0.1
    v[small] += 0.5
    return v

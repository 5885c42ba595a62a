"""Random curves, loops and vectors inside a chart, and the reference
routes the tests compare navgeo against.

The recursive expression walk here is the reference for the compiled
expression programs of navgeo.exprlang.

Kept out of conftest.py so that `tests/` and `bench/tests/`, which each
hold a conftest.py, can be collected in one pytest run.
"""
import numpy as np

from navgeo import exprlang as xl
from navgeo import numkernel as nk
from navgeo.errors import DomainError
from navgeo.geometry import field_values
from navgeo.sprays import spray_connection_matrix
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


def lie_bracket(xf, yf, step):
    """Lie bracket of two vector fields on (B, m) batches of points of R^m
    by central differences, [X, Y](z) = DY(z) X(z) - DX(z) Y(z); the step
    is scaled down, row by row, for large direction vectors."""

    def fld(z):
        xv, yv = xf(z), yf(z)

        def ddir(f, u):
            s = step / np.maximum(1.0, np.linalg.norm(u, axis=1))[:, None]
            fp, fm = np.split(f(np.concatenate([z + s * u, z - s * u])), 2)
            return (fp - fm) / (2.0 * s)
        return ddir(yf, xv) - ddir(xf, yv)
    return fld


def bracket_tree_oracle(nav, z, depth, step=1e-4):
    """Generations 1..depth of the spray-connection bracket tree at the
    rows of z = (x, y), each field a closure and each bracket evaluating
    its two arguments on its own: the per-node reference for the stacked
    evaluation in navgeo.holonomy."""
    n = nav.dim

    def horizontal(i):
        def fld(w):
            g = spray_connection_matrix(nav, w[:, :n], w[:, n:])
            out = np.zeros_like(w)
            out[:, i] = 1.0
            out[:, n:] = -g[:, :, i]
            return out
        return fld
    base = [horizontal(i) for i in range(n)]
    generations = [base]
    for _ in range(depth - 1):
        prev = generations[-1]
        generations.append([lie_bracket(hf, g, step)
                            for i, hf in enumerate(base)
                            for j, g in enumerate(prev)
                            if prev is not base or j > i])
    return [np.stack([f(z) for f in gen], axis=1) for gen in generations]


def reference_validate(nav, points=None, n_points=10_000, margin=1e-6):
    """The eigenvalue route to navgeo.geometry.validate, as the dict its
    report gives: every sampled metric's eigenvalues decide positivity, and
    the first row whose smallest one is <= 0 is the witness."""
    if points is None:
        points = nav.chart.sample_interior(n_points)
    points = np.asarray(points, dtype=float)
    v = field_values(nav, points)
    eigs = np.linalg.eigvalsh(v.h)
    wnorm = np.sqrt(np.maximum(np.einsum("...i,...i->...", v.W, v.hW), 0.0))
    failures = []
    bad_eig = np.nonzero(eigs.min(axis=-1) <= 0.0)[0]
    if bad_eig.size:
        i = int(bad_eig[0])
        failures.append({"kind": "metric_not_positive",
                         "point": points[i].tolist(),
                         "value": float(eigs[i].min())})
    bad_wind = np.nonzero(wnorm >= 1.0 - margin)[0]
    if bad_wind.size:
        i = int(bad_wind[0])
        failures.append({"kind": "wind_too_strong", "point": points[i].tolist(),
                         "value": float(wnorm[i])})
    return {"passed": not failures, "n_points": len(points),
            "margin": float(margin), "min_metric_eigenvalue": float(eigs.min()),
            "max_wind_norm": float(wnorm.max()),
            "min_lambda": float(v.lam.min()), "failures": failures}


# ---------------------------------------------------------------------------
# the recursive expression walk: the oracle for compiled programs


class _OutOfDomain(Exception):
    """Raised inside a walk with (message, mask of the offending entries)."""


def _apply(fn, arg):
    v = nk.value_of(arg)
    if fn == "log":
        if np.any(v <= 0.0):
            raise _OutOfDomain("log of a nonpositive value", v <= 0.0)
        return nk.log(arg)
    if fn == "sqrt":
        if np.any(v < 0.0):
            raise _OutOfDomain("sqrt of a negative value", v < 0.0)
        return nk.sqrt(arg)
    return getattr(nk, fn)(arg)


def _eval(node, coords):
    if isinstance(node, xl.Num):
        return node.value
    if isinstance(node, xl.Var):
        return coords[node.index]
    if isinstance(node, xl.Binary):
        a = _eval(node.lhs, coords)
        b = _eval(node.rhs, coords)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return a ** b
    if isinstance(node, xl.Neg):
        return -_eval(node.arg, coords)
    return _apply(node.fn, _eval(node.arg, coords))


def walk_sweep(e, x, dual):
    """What navgeo.exprlang.evaluate (dual=False) or evaluate_dual gives
    for an expression or a stack, from one walk per expression over floats,
    arrays or duals: values (..., k) and gradients (..., k, i) or None, the
    same errors raised."""
    exprs = xl._stack(e)
    x = np.asarray(x, dtype=float)
    n, lead = exprs[0].n_vars, x.shape[:-1]
    val = np.empty(lead + (len(exprs),))
    grad = slots = None
    if dual:
        # derivative slots e_i on a leading axis ahead of the batch axes
        seeds = np.eye(n).reshape((n, n) + (1,) * len(lead))
        coords = tuple(nk.Dual(x[..., i], seeds[i]) for i in range(n))
        grad = np.empty(lead + (len(exprs), n))
        slots = np.moveaxis(grad, -1, 0)
    else:
        coords = tuple(x[..., i] for i in range(n))
    with np.errstate(all="ignore"):
        for j, ex in enumerate(exprs):
            try:
                raw = _eval(ex.root, coords)
            except _OutOfDomain as exc:
                xl._require_finite(exprs[:j], x, val[..., :j],
                                   None if grad is None else grad[..., :j, :])
                what, bad = exc.args
                raise DomainError(f"{what} in {ex.source!r} at "
                                  f"{xl._witness(x, bad)}") from None
            if isinstance(raw, nk.Dual):
                val[..., j], slots[..., j] = raw.val, raw.dot
            else:
                val[..., j] = raw
                if dual:
                    slots[..., j] = 0.0
    xl._require_finite(exprs, x, val, grad)
    return val, grad

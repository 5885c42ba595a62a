"""Random curves, loops and vectors inside a chart, and the reference
routes the tests compare navgeo against.

The recursive expression walk over forward-mode dual numbers here is the
reference for the compiled expression programs of navgeo.exprlang, the
LAPACK inverse and einsum Levi-Civita symbols are the reference for the
generated metric lines of navgeo.stages, the four-step route (a sweep,
the metric lines over its columns, einsums) is the reference for the
field programs of navgeo.stages, the einsum sprays are the
reference for the generated float sprays and for the wind terms and grid
kernels of navgeo.sprays and navgeo.classify, and the
dual route through the connection coefficients is the reference for the
closed-form fiber derivatives of the navigation norm (F_y, the spray
connection and the torsion). A dual sweep through the raw derivatives of
h and W, which navgeo's field jet does not keep, is the reference for
dF/dx = F_y Gamma. The point-major Kronecker blocks, kept by
the np.linalg.norm / np.all row rule, are the reference for the
coordinate-major lattice of navgeo.geometry.Chart.sample_interior. The
per-row float loop, each row on its own through one RK4 step rendered
per component from numkernel's tableau text, is the bit-for-bit
reference for the lockstep runners of navgeo.stages: it steps the
natural ODE's tabled stage as a closure per row against
navgeo.stages.table_run (and the metric transport's K v, within
round-off, against its propagators), and the one-stage
float spray of navgeo.stages.geodesic_stage_lines (also the float spray
the einsum sprays check) against navgeo.stages.geodesic_run. The RK4
step maps written out by hand, and scanned, are the bit-for-bit reference
for navgeo.numkernel.rk4_propagators, which applies the tableau's own
step to the identity.

Kept out of conftest.py so that `tests/` and `bench/tests/`, which each
hold a conftest.py, can be collected in one pytest run.
"""
import array
import functools
import math
import struct

import numpy as np

from navgeo import exprlang as xl
from navgeo import numkernel as nk
from navgeo import stages
from navgeo.connection import gamma_matrix, jet_torsion
from navgeo.errors import DomainError, NotPositiveDefinite
from navgeo.geometry import (Ball, _kronecker_alphas, field_jet, field_values,
                             indicatrix)
from navgeo.sprays import ComparisonReport, spray_connection_matrix
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


@functools.lru_cache(maxsize=8)
def float_step(m):
    """step(f, s, v, half, dt, sixth): one RK4 step of dv/dt = f(s, v) from
    half step s over a tuple of m floats (f takes and gives tuples),
    rendered per component from numkernel's tableau text."""
    def per(text):
        return "(" + "".join(stages._SLOT.sub(rf"\1_{i}", text) + ", "
                             for i in range(m)) + ")"

    def names(k):
        return "".join(f"{k}_{i}, " for i in range(m))

    body = [f"{names('v')}= v"] + [
        f"{names(k)}= f(s + {at}, {'v' if arg == 'v' else per(arg)})"
        for k, at, arg in nk._STAGES]
    source = ("def step(f, s, v, half, dt, sixth):\n"
              + "".join(f"    {line}\n" for line in body)
              + f"    return {per(nk._UPDATE)}\n")
    namespace = {}
    exec(compile(source, "<rk4 step>", "exec"), namespace)
    return namespace["step"]


def float_rows(fs, inside=None):
    """A float_run of numkernel.rk4 in which row b runs `float_step` of
    fs[b](s, v) on its own, to its last step or until its new state fails
    inside(v) -> bool; None at the first non-finite state. Rows never
    interact, so that gives the lockstep result."""
    def run(v, steps, sizes, keep):
        step = float_step(v.shape[1])
        rows, runs, stop = [], [], []
        for f, state in zip(fs, v.tolist()):
            state, trail, last = tuple(state), array.array("d", state), steps
            for j in range(steps):
                new = step(f, 2 * j, state, *sizes)
                if not math.isfinite(sum(new)):
                    return None
                if inside is not None and not inside(new):
                    last = j
                    break
                state = new
                if keep:
                    trail.extend(state)
            rows.append(state)
            runs.append(trail)
            stop.append(last)
        return nk.float_result(rows, runs if keep else None, stop)
    return run


def _returns(refs):
    return (None, "return (" + "".join(f"{{{i}}}, " for i in range(len(refs)))
            + ")", tuple(refs))


def geodesic_stage(program, kind):
    """rhs(s, v) -> the tuple (y, -2 G(x, y)) at the state v = (x, y) of
    floats: the lines of navgeo.stages.geodesic_stage_lines for the spray
    `kind` of the fields of `program`, as one float function."""
    v = [f"v{i}" for i in range(2 * program.n)]
    b = xl._Builder(program.n)
    b.lines = b.dlines
    with np.errstate(all="ignore"):
        out = stages.geodesic_stage_lines(program, kind, b, [], v)
    return xl.float_function("rhs", "s, v", [(None, f"{', '.join(v)}, = v", ())]
                             + b.dlines + [_returns(out)])


def geodesic_rows_oracle(spray, v0, steps, dt, keep, inside=None):
    """(v, trajectory or None, stop) of the geodesic equation of the
    navgeo.sprays.Spray `spray` from the states v0 (B, 2n), each row on
    its own through `geodesic_stage` and `float_step`, halting where
    inside(v) -> bool fails; None at a non-finite state."""
    rhs = geodesic_stage(spray.program, spray.kind)
    return float_rows([rhs] * len(v0), inside)(
        np.asarray(v0, dtype=float), steps, (0.5 * dt, dt, dt / 6.0), keep)


def table_stage_rows(n, stage, width):
    """make(tab) -> rhs(s, v): the tabled stage `stage` of navgeo.stages
    (natural_stage_lines, or linear_stage_lines for the metric transport's
    K v) in dimension n as a closure over one curve's stage table tab
    (2N + 1, width), unpacking stage row s of it on every call."""
    b = xl._Builder(n)
    p = [f"p{i}" for i in range(width)]
    v = [f"v{i}" for i in range(n)]
    out = stage(b, p, v)
    lines = ([(None, f"{', '.join(p)}, = unpack(tab, s * {8 * len(p)})", ()),
              (None, f"{', '.join(v)}, = v", ())] + b.dlines + [_returns(out)])
    rhs = xl.float_function(
        "rhs", "tab, s, v", lines,
        names={"unpack": struct.Struct(f"{len(p)}d").unpack_from})
    return lambda tab: functools.partial(rhs, tab)


def table_rows_oracle(stage, flat, rows, v0, keep):
    """(v, trajectory or None, stop) of the ODE of the tabled stage `stage`
    on the stage rows flat (U, 2N + 1, width) of one table per curve,
    batch row b on curve rows[b], each row on its own through the per-row
    stage closure and `float_step`; None at a non-finite state."""
    make = table_stage_rows(v0.shape[1], stage, flat.shape[-1])
    steps = (flat.shape[1] - 1) // 2
    dt = 1.0 / steps
    return float_rows([make(flat[c]) for c in rows])(
        np.asarray(v0, dtype=float), steps, (0.5 * dt, dt, dt / 6.0), keep)


def step_maps_oracle(k, dt):
    """The RK4 step maps (..., N, m, m) of the linear systems
    dv/dt = k[..., s, :, :] v tabled at half steps s = 0 .. 2N, written
    out by hand: step j is P_j = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = k[2j], K2 = k[2j+1] (I + dt/2 K1), K3 = k[2j+1] (I + dt/2 K2) and
    K4 = k[2j+2] (I + dt K3)."""
    eye = np.eye(k.shape[-1])
    start, mid, end = k[..., 0:-1:2, :, :], k[..., 1::2, :, :], k[..., 2::2, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = mid @ (eye + (0.5 * dt) * start)
        k3 = mid @ (eye + (0.5 * dt) * k2)
        k4 = end @ (eye + dt * k3)
        return eye + (dt / 6.0) * (start + 2.0 * k2 + 2.0 * k3 + k4)


def propagators_oracle(k, dt):
    """The inclusive scan of `step_maps_oracle` over the steps, in the
    rounds of numkernel.rk4_propagators: entry j is P_j ... P_0."""
    maps = step_maps_oracle(k, dt)
    span = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while span < maps.shape[1]:
            maps[:, span:] = maps[:, span:] @ maps[:, :-span]
            span *= 2
    return maps


def symmetric_index(n):
    """sym[i, j], the index of entry (i, j) of a symmetric n x n matrix in
    its upper triangle given row by row."""
    iu, ju = np.triu_indices(n)
    sym = np.empty((n, n), dtype=int)
    sym[iu, ju] = sym[ju, iu] = np.arange(len(iu))
    return sym


def raw_jet(nav, x):
    """h, dh[..., k, i, j] = d_k h_ij, W and dW[..., k, i] = d_i W^k at x
    (..., n) from one gradient sweep of the navigation data's stack,
    gathered by the metric's symmetric index: the raw derivatives that
    navgeo.geometry.FieldJet does not keep."""
    m = len(nav.metric.entries)
    val, grad = xl.evaluate_dual(nav.jet_program, x)
    sym = symmetric_index(nav.dim)
    return (val[..., sym], np.moveaxis(grad[..., sym, :], -1, -3),
            val[..., m:], grad[..., m:, :])


# ---------------------------------------------------------------------------
# the four-step route to the field jet: the oracle for the field programs
# of navgeo.stages. A sweep writes val and grad arrays, the metric lines
# run over their columns, an einsum forms M, and h is gathered by the
# symmetric index and hW and lam come from two einsums.

_NOT_SPD = "raise NotPositiveDefinite('metric value is not positive definite')"
_COLUMNS = {stages._PIVOT: f"if not ({{0}} > 0.0).all(): {_NOT_SPD}"}


@functools.lru_cache(maxsize=32)
def metric_kernel(program):
    """kernel(val, grad) -> (hinv (..., n, n), A (..., k, i, j)): the lines
    of navgeo.stages.metric_lines over the columns val[..., j] and
    grad[..., j, k] of a sweep whose first columns are the metric
    `program`'s upper triangle (the first column holding a line's value
    stands for all that do); a pivot that is not positive at some point
    raises NotPositiveDefinite without a witness."""
    n, first = program.n, {}
    walk, b = xl._Builder(n), xl._Builder(n)

    def column(ref, name):
        return (first.setdefault(ref, name) if isinstance(ref, str)
                else stages._nonzero(ref))

    with np.errstate(all="ignore"):
        vals = [column(walk.value(e.root), f"val[..., {j}]")
                for j, e in enumerate(program.exprs)]
        grads = [[column(d, f"grad[..., {j}, {k}]")
                  for k, d in enumerate(walk.gradient(e.root))]
                 for j, e in enumerate(program.exprs)]
        metric = stages.metric_lines(b, stages._symmetric(vals, n),
                                     stages._symmetric(grads, n))
    lines = [(None, f"hinv = zeros(val.shape[:-1] + {(n, n)})", ()),
             (None, f"A = zeros(val.shape[:-1] + {(n,) * 3})", ())]
    body = b.dlines if metric else [(None, _NOT_SPD, ())]
    lines += [(t, _COLUMNS.get(c, c), r) for t, c, r in body]
    for name, refs in zip(("hinv", "A"), metric or ()):
        lines += [(None, f"{name}[..., {str(key)[1:-1]}] = {{0}}", (ref,))
                  for key, ref in refs.items() if ref is not None]
    return xl.float_function(
        "kernel", "val, grad", lines + [(None, "return hinv, A", ())],
        names={"zeros": np.zeros, "NotPositiveDefinite": NotPositiveDefinite})


def _values_of(h, w):
    """h, W, hW and lam from h and W by the two einsums."""
    hw = np.einsum("...ij,...j->...i", h, w)
    return h, w, hw, 1.0 - np.einsum("...i,...i->...", w, hw)


def four_step_field_jet(nav, x):
    """navgeo.geometry.field_jet by the four-step route, as the tuple
    (h, W, hW, lam, hinv, A, M)."""
    m = len(nav.metric.entries)
    val, grad = xl.evaluate_dual(nav.jet_program, x)
    hinv, a = metric_kernel(nav.metric.program)(val, grad)
    w = val[..., m:].copy()
    m_cov = grad[..., m:, :] + np.einsum("...kis,...s->...ki", a, w)
    h = np.take(val, symmetric_index(nav.dim), axis=-1)
    return _values_of(h, w) + (hinv, a, m_cov)


def four_step_metric_value(metric, x):
    """navgeo.geometry.MetricField.value by a value sweep and a gather."""
    return np.take(xl.evaluate(metric.program, x), symmetric_index(metric.dim),
                   axis=-1)


def four_step_field_values(nav, x):
    """navgeo.geometry.field_values from a value sweep of the metric and
    one of the wind, as the tuple (h, W, hW, lam)."""
    return _values_of(four_step_metric_value(nav.metric, x),
                      nav.wind.value(x))


def four_step_christoffel(metric, x):
    """navgeo.geometry.christoffel from a gradient sweep of the metric."""
    return metric_kernel(metric.program)(*xl.evaluate_dual(metric.program,
                                                            x))[1]


def einsum_levi_civita(h, dh):
    """h^-1 by LAPACK and the Levi-Civita symbols A[..., k, i, j] =
    h^kl (d_i h_jl + d_j h_il - d_l h_ij) / 2 by three einsums, from h
    (..., n, n) and dh[..., k, i, j] = d_k h_ij: the reference for
    navgeo.stages.metric_lines."""
    hinv = np.linalg.inv(h)
    t = (np.einsum("...ijl->...lij", dh)
         + np.einsum("...jil->...lij", dh)
         - dh)
    return hinv, 0.5 * np.einsum("...kl,...lij->...kij", hinv, t)


# ---------------------------------------------------------------------------
# the einsum sprays and the full-spray comparison: the oracle for the wind
# terms of navgeo.sprays and the grid kernels of navgeo.classify


def _einsum_ayy(a, y):
    return np.einsum("...kij,...i,...j->...k", a, y, y)


def einsum_riemann_spray(jet, y):
    """A^k_ij y^i y^j / 2 by one einsum."""
    return 0.5 * _einsum_ayy(jet.A, np.asarray(y, dtype=float))


def einsum_natural_spray(jet, y):
    """(A y y - F M y) / 2 by einsums."""
    y = np.asarray(y, dtype=float)
    my = np.einsum("...ki,...i->...k", jet.M, y)
    return 0.5 * (_einsum_ayy(jet.A, y) - jet.norm(y)[..., None] * my)


def einsum_randers_spray(jet, y):
    """The variational spray of the navigation norm from the R/S pieces of
    the lowered wind derivative, every contraction an einsum, grouped
    otherwise than navgeo.sprays.randers_wind_term (which the float code
    of navgeo.stages follows), so that the two routes check each other."""
    y = np.asarray(y, dtype=float)
    dp = np.einsum("...ik,...kj->...ij", jet.h, jet.M)
    dpt = np.swapaxes(dp, -1, -2)
    r, s = 0.5 * (dp + dpt), 0.5 * (dp - dpt)
    w, hinv = jet.W, jet.hinv
    f = jet.norm(y)

    def pieces(t):
        t_j = np.einsum("...i,...ij->...j", w, t)
        t_scalar = np.einsum("...j,...j->...", w, t_j)
        t_up = np.einsum("...ij,...j->...i", hinv, t_j)
        t_0 = np.einsum("...i,...i->...", y, t_j)
        t_i0 = np.einsum("...il,...lj,...j->...i", hinv, t, y)
        t_00 = np.einsum("...i,...ij,...j->...", y, t, y)
        return t_scalar, t_up, t_0, t_i0, t_00

    r_sc, r_up, r_0, _, r_00 = pieces(r)
    _, s_up, _, s_i0, _ = pieces(s)
    fcol = f[..., None]
    return (0.5 * _einsum_ayy(jet.A, y)
            + r_0[..., None] * y
            + 0.5 * r_00[..., None] * w
            - 0.5 * fcol * fcol * (s_up + r_up - r_sc[..., None] * w)
            - fcol * (s_i0 + 0.5 * r_sc[..., None] * y + r_0[..., None] * w)
            - (r_00 / (2.0 * f))[..., None] * y)


def compare_sprays_oracle(jet, points, n_dirs=16, tol_coincide=1e-8,
                          tol_projective=1e-6):
    """navgeo.sprays.jet_compare_sprays from the three full einsum sprays
    and their differences."""
    ys = np.swapaxes(indicatrix(jet, n_dirs), -1, -2)[:, 0]  # (P, D, n)
    g_nat = einsum_natural_spray(jet, ys)
    g_ran = einsum_randers_spray(jet, ys)
    g_rie = einsum_riemann_spray(jet, ys)
    sup_nr = float(np.abs(g_nat - g_ran).max())
    d = g_nat - g_rie
    f = jet.norm(ys)
    denom = f * np.einsum("pdi,pdi->pd", ys, ys)
    phi = -2.0 * np.einsum("pdi,pdi->pd", d, ys) / denom
    phi_hat = phi.mean(axis=1)
    spread = np.abs(phi - phi_hat[:, None]).max(axis=1)
    resid = d + 0.5 * phi_hat[:, None, None] * f[..., None] * ys
    resid_max = float(np.linalg.norm(resid, axis=2).max())
    return ComparisonReport(
        n_points=len(points), n_dirs=n_dirs, sup_natural_vs_randers=sup_nr,
        phi_min=float(phi_hat.min()), phi_max=float(phi_hat.max()),
        phi_mean=float(phi_hat.mean()), phi_spread_max=float(spread.max()),
        projective_residual=resid_max,
        sprays_coincide=bool(sup_nr < tol_coincide),
        projectively_riemannian=bool(spread.max() < 1e-6
                                     and resid_max < tol_projective),
        tol_coincide=tol_coincide, tol_projective=tol_projective,
        phi_hat=phi_hat)


def torsion_residual_oracle(jet, dirs):
    """Sup of |t^k_ij| over every entry of the full torsion array."""
    return float(np.abs(jet_torsion(jet, dirs)).max())


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


def reference_contains(chart, x, margin=0.0):
    """The row rule of navgeo.geometry.Chart.contains: np.linalg.norm of
    x - center over the last axis for a ball, np.all over it for a box."""
    x = np.asarray(x, dtype=float)
    d = chart.domain
    if isinstance(d, Ball):
        return np.linalg.norm(x - d.center, axis=-1) < d.radius * (1.0 - margin)
    half = 0.5 * (d.hi - d.lo) * (1.0 - margin)
    return np.all(np.abs(x - 0.5 * (d.hi + d.lo)) < half, axis=-1)


def lattice_oracle(chart, count, margin=0.0):
    """The point-major route to navgeo.geometry.Chart.sample_interior:
    blocks of (N, n) candidates k * alpha + 0.5 mod 1 over the bounding
    box, kept by reference_contains, each block sized by the share of
    candidates kept so far."""
    lo, hi = chart.bounding_box()
    alpha = _kronecker_alphas(chart.dim)
    kept, have, k, block = [np.empty((0, chart.dim))], 0, 0, max(count, 64)
    while have < count:
        u = np.arange(k, k + block, dtype=float)[:, None] * alpha
        u += 0.5
        u -= np.floor(u)
        u *= hi - lo
        u += lo
        inside = reference_contains(chart, u, margin)
        kept.append(u if inside.all() else u[inside])
        have += len(kept[-1])
        k += block
        block = max(int(1.1 * (count - have) * k / max(have, 1)), 64)
    return np.concatenate(kept)[:count]


# ---------------------------------------------------------------------------
# forward-mode dual numbers


class Dual:
    """First-order dual number ``val + eps * dot`` with ``eps^2 = 0``.

    ``val`` and ``dot`` are floats or broadcast-compatible numpy arrays.
    abs() is deliberately not provided: every field navgeo evaluates is
    smooth, and a silent kink would invalidate the derivative slot.
    """

    __slots__ = ("val", "dot")
    # keep numpy from consuming us elementwise; binary ops fall back to our
    # reflected methods instead
    __array_ufunc__ = None

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return Dual(self.val + other, self.dot)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        return Dual(self.val - other, self.dot)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.dot * other.val + self.val * other.dot)
        return Dual(self.val * other, self.dot * other)

    __rmul__ = __mul__

    # quotients divide, as the value walk does, so both walks agree bitwise
    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.val / other.val
            return Dual(q, (self.dot - q * other.dot) / other.val)
        return Dual(self.val / other, self.dot / other)

    def __rtruediv__(self, other):
        q = other / self.val
        return Dual(q, -q * self.dot / self.val)

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if isinstance(p, Dual):
            # a^b = exp(b log a); needs a > 0
            return exp(p * log(self))
        if isinstance(p, (int, float)) and p == 2:
            return Dual(self.val * self.val, 2.0 * self.val * self.dot)
        v = self.val ** p
        return Dual(v, p * self.val ** (p - 1) * self.dot)

    def __rpow__(self, base):
        return exp(self * np.log(base))


def value_of(x):
    return x.val if isinstance(x, Dual) else x


# elementary functions, generic over float / ndarray / Dual

def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.val), np.cos(x.val) * x.dot)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.val), -np.sin(x.val) * x.dot)
    return np.cos(x)


def exp(x):
    if isinstance(x, Dual):
        v = np.exp(x.val)
        return Dual(v, v * x.dot)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(np.log(x.val), x.dot / x.val)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = np.sqrt(x.val)
        return Dual(s, x.dot / (2.0 * s))
    return np.sqrt(x)


def tanh(x):
    if isinstance(x, Dual):
        t = np.tanh(x.val)
        return Dual(t, (1.0 - t * t) * x.dot)
    return np.tanh(x)


_FUNCS = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt,
          "tanh": tanh}


# ---------------------------------------------------------------------------
# the dual route through the connection: the oracle for the closed-form
# fiber derivatives


def _norm_from_parts(wy, yy, lam):
    """F from the scalar pieces <y,W>_h, <y,y>_h, 1 - |W|_h^2, over
    floats, arrays or duals."""
    return (sqrt(wy * wy + lam * yy) - wy) / lam


def _fiber_duals(jet, y):
    """The fiber components as duals seeding all n fiber directions, their
    derivative axis ahead of the batch axes, and that batch shape."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    lead = np.broadcast_shapes(jet.lam.shape, y.shape[:-1])
    seeds = np.eye(n).reshape((n, n) + (1,) * len(lead))
    return [Dual(y[..., i], seeds[i]) for i in range(n)], lead


def _norm_generic(jet, y_comps):
    """F with the fiber given as a list of generic scalars, every
    contraction spelled out so dual slots ride through untouched."""
    n = len(y_comps)
    wy = sum(y_comps[i] * jet.hW[..., i] for i in range(n))
    yy = sum(y_comps[i] * y_comps[j] * jet.h[..., i, j]
             for i in range(n) for j in range(n))
    return _norm_from_parts(wy, yy, jet.lam)


def _gamma_generic(jet, y_comps):
    """Gamma with the fiber given as a list of generic scalars (floats,
    arrays, or duals). Returns a nested list [k][i]."""
    n = len(y_comps)
    f = _norm_generic(jet, y_comps)
    return [[sum(jet.A[..., k, i, s] * y_comps[s] for s in range(n))
             - f * jet.M[..., k, i] for i in range(n)] for k in range(n)]


def dual_norm_grad(jet, y):
    """F and dF/dy^i from one dual sweep seeding all fiber directions."""
    f = _norm_generic(jet, _fiber_duals(jet, y)[0])
    return f.val, np.moveaxis(f.dot, 0, -1)


def _slots(a, lead):
    """Dual derivative slots from a[..., k] = d/d(k): broadcast over the full
    batch shape `lead` before the k axis moves first, so that a base point
    without batch axes still pairs with every fiber of a batch."""
    return np.moveaxis(np.broadcast_to(a, lead + a.shape[-1:]), -1, 0)


def dual_norm_grad_x(nav, x, y):
    """dF/dx^i at fixed y, from the raw dh and dW of `raw_jet` in one dual
    sweep through <y,W>_h, <y,y>_h and 1 - |W|_h^2."""
    y = np.asarray(y, dtype=float)
    h, dh, w, dw = raw_jet(nav, np.asarray(x, dtype=float))
    hw = np.einsum("...ij,...j->...i", h, w)
    lam0 = 1.0 - np.einsum("...i,...i->...", w, hw)
    lead = np.broadcast_shapes(lam0.shape, y.shape[:-1])
    q = "...kij,...i,...j->...k"  # contracts dh[..., k, i, j] = d_k h_ij
    lam = Dual(lam0, -_slots(
        np.einsum(q, dh, w, w)
        + 2.0 * np.einsum("...ij,...ik,...j->...k", h, dw, w), lead))
    wy = Dual(np.einsum("...i,...i->...", y, hw), _slots(
        np.einsum(q, dh, y, w)
        + np.einsum("...ij,...i,...jk->...k", h, y, dw), lead))
    yy = Dual(np.einsum("...ij,...i,...j->...", h, y, y),
              _slots(np.einsum(q, dh, y, y), lead))
    return np.moveaxis(_norm_from_parts(wy, yy, lam).dot, 0, -1)


def jet_gamma_fiber_jacobian(jet, y):
    """Gamma[..., k, i] and dGamma[..., j, k, i] = d(Gamma^k_i)/d(y^j) from
    one dual sweep through the full coefficient evaluation that seeds all n
    fiber directions at once (no closed-form shortcut)."""
    comps, lead = _fiber_duals(jet, y)
    n = len(comps)
    rows = _gamma_generic(jet, comps)
    gam = np.empty(lead + (n, n))
    dgam = np.empty((n,) + lead + (n, n))
    for k in range(n):
        for i in range(n):
            gam[..., k, i] = rows[k][i].val
            dgam[..., k, i] = rows[k][i].dot
    return gam, np.moveaxis(dgam, 0, -3)


def dual_spray_connection(jet, y):
    """dG^k/dy^j of the natural spray G^k = y^i Gamma^k_i / 2, that is
    (Gamma^k_j + y^i dGamma^k_i/dy^j) / 2, from one dual sweep."""
    y = np.asarray(y, dtype=float)
    gam, dgam = jet_gamma_fiber_jacobian(jet, y)
    return 0.5 * (gam + np.einsum("...jki,...i->...kj", dgam, y))


def torsion_from_duals(nav, x, y):
    """t[..., k, i, j] = dGamma^k_j/dy^i - dGamma^k_i/dy^j via dual sweeps;
    the independent route that cross-checks the closed-form torsion."""
    # axes [..., deriv dir, k, lower]
    dg = jet_gamma_fiber_jacobian(field_jet(nav, x), y)[1]
    term1 = np.einsum("...ikj->...kij", dg)  # dGamma^k_j / dy^i
    term2 = np.einsum("...jki->...kij", dg)  # dGamma^k_i / dy^j
    return term1 - term2


# ---------------------------------------------------------------------------
# consistency routes through the connection coefficients


def covariant_derivative_via_connection(nav, xfield, yfield, x):
    """The covariant derivative of navgeo.connection.covariant_derivative
    assembled from the connection coefficients,
    X^i (dY^k/dx^i + Gamma^k_i(x, Y))."""
    x = np.asarray(x, dtype=float)
    xv = xfield.value(x)
    yv, jy = yfield.value_and_jacobian(x)
    g = gamma_matrix(nav, x, yv)
    return np.einsum("...ki,...i->...k", jy, xv) \
        + np.einsum("...ki,...i->...k", g, xv)


def autoparallel_residual(nav, path):
    """Max norm of the along-path covariant derivative of the velocity,
    D v^k/dt = dv^k/dt + Gamma^k_i(c, v) cdot^i with v = cdot, computed from
    the sampled path by the five-point stencil."""
    dv = nk.central_time_derivative(path.ys, path.dt)
    g = gamma_matrix(nav, path.xs[2:-2], path.ys[2:-2])
    corr = np.einsum("tki,ti->tk", g, path.ys[2:-2])
    return float(np.linalg.norm(dv + corr, axis=1).max())


# ---------------------------------------------------------------------------
# the recursive expression walk: the oracle for compiled programs


class _OutOfDomain(Exception):
    """Raised inside a walk with (message, mask of the offending entries)."""


def _apply(fn, arg):
    v = value_of(arg)
    if fn == "log" and np.any(v <= 0.0):
        raise _OutOfDomain("log of a nonpositive value", v <= 0.0)
    if fn == "sqrt" and np.any(v < 0.0):
        raise _OutOfDomain("sqrt of a negative value", v < 0.0)
    return _FUNCS[fn](arg)


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
        coords = tuple(Dual(x[..., i], seeds[i]) for i in range(n))
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
            if isinstance(raw, Dual):
                val[..., j], slots[..., j] = raw.val, raw.dot
            else:
                val[..., j] = raw
                if dual:
                    slots[..., j] = 0.0
    xl._require_finite(exprs, x, val, grad)
    return val, grad

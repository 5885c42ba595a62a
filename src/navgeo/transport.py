"""Parallel transport along curves: linear (metric) and natural (nonlinear).

Curves are maps of [0, 1] into the chart. Transport runs classical RK4 at
the fixed step 1 / round(1 / dt); all per-point field quantities along a
curve are evaluated before stepping, once per distinct curve object in a
batch, and each (curve, vector) row reads its curve's tables by index at
every stage, so probes sent around one loop share one field table and no
table is copied per probe. The linear transports evaluate no right-hand
side: their RK4 step maps are built from the tabled -A(cdot) at once and
applied in order (`numkernel.rk4_linear`), and the transport matrix is
their ordered product (`numkernel.rk4_propagators`). The natural ODE runs
`numkernel.rk4`, one stacked contraction of the stage table
[-A(cdot); Q; hW^T] per stage plus the scalar norm formula. That is what
makes the acceptance sweeps (hundreds of transports at dt = 1e-3)
affordable.

The natural transport comes in two interchangeable flavors:

  definitional  shift by the wind at the start, transport linearly, shift
                back at the end, scale by the starting norm;
  ode           integrate dv^k/dt + Gamma^k_i(c, v) cdot^i = 0 directly.

They agree to integrator accuracy; keeping both honest and separate is the
point of the two-route tests. The ODE route is the nonlinear oracle, so it
evaluates F at every stage state and never linearises around v0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import exprlang as xl
from . import numkernel as nk
from .errors import CurveLeftDomain, DegenerateNorm, NonFiniteState, ZeroVector
from .geometry import (Chart, FieldJet, MetricField, NavigationData,
                       christoffel, field_jet, randers_value)


# ---------------------------------------------------------------------------
# curves


class AnalyticCurve:
    """Curve with one expression per coordinate in the parameter t;
    point(t) and velocity(t) are vectorized over t arrays."""

    def __init__(self, components: Sequence[xl.Expression]):
        self.components = tuple(components)
        self.dim = len(self.components)

    @classmethod
    def from_strings(cls, exprs: Sequence[str]) -> "AnalyticCurve":
        return cls([xl.parse_with_names(s, ("t",)) for s in exprs])

    def point(self, t):
        return xl.evaluate(self.components, np.asarray(t, dtype=float)[..., None])

    def velocity(self, t):
        grad = xl.evaluate_dual(self.components,
                                np.asarray(t, dtype=float)[..., None])[1]
        return np.ascontiguousarray(grad[..., 0])

    def reversed(self) -> "AnalyticCurve":
        flipped = [xl.Expression(_reverse_param(c.root), c.var_names)
                   for c in self.components]
        return AnalyticCurve(flipped)

    def is_closed(self, tol: float = 1e-12) -> bool:
        return bool(np.linalg.norm(self.point(0.0) - self.point(1.0)) <= tol)


def _reverse_param(node):
    """Substitute t -> 1 - t in an AST."""
    if isinstance(node, xl.Var):
        return xl.Binary("-", xl.Num(1.0), xl.Var(node.index))
    if isinstance(node, xl.Num):
        return node
    if isinstance(node, xl.Neg):
        return xl.Neg(_reverse_param(node.arg))
    if isinstance(node, xl.Binary):
        return xl.Binary(node.op, _reverse_param(node.lhs), _reverse_param(node.rhs))
    return xl.Call(node.fn, _reverse_param(node.arg))


# ---------------------------------------------------------------------------
# results


@dataclass
class TransportResult:
    mode: str
    v_end: np.ndarray
    steps: int
    dt: float
    start: np.ndarray
    end: np.ndarray
    ts: Optional[np.ndarray] = None
    xs: Optional[np.ndarray] = None
    vs: Optional[np.ndarray] = None


def trajectory_csv(result: TransportResult, nav: NavigationData, stream) -> None:
    """Write the recorded trajectory as CSV rows t, x*, v*, F(x, v)."""
    if result.xs is None:
        raise ValueError("transport was run without keep_trajectory")
    n = result.xs.shape[1]
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"v{i + 1}" for i in range(n)] + ["F"])
    rows = np.column_stack([result.ts, result.xs, result.vs,
                            randers_value(nav, result.xs, result.vs)]).tolist()
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n" + "".join(fmt % tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# batched engines


def _steps_from_dt(dt: float) -> int:
    if dt <= 0 or dt > 1:
        raise ValueError("dt must lie in (0, 1]")
    return nk.uniform_steps(1.0, dt)[0]


def _sample_tables(curves: Sequence[AnalyticCurve], steps: int,
                   chart: Optional[Chart]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and velocities of each distinct curve object on the
    half-step grid, and rows[b], the index of batch entry b's curve in them
    (the first curve is the first of them)."""
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    first: dict[int, int] = {}  # curve id -> its index among the distinct
    rows = np.array([first.setdefault(id(c), len(first)) for c in curves])
    distinct = list({id(c): c for c in curves}.values())
    pos = np.stack([c.point(ts) for c in distinct])
    vel = np.stack([c.velocity(ts) for c in distinct])
    if chart is not None:
        inside = chart.contains(pos)
        if not np.all(inside):
            u, j = np.argwhere(~inside)[0]
            raise CurveLeftDomain(
                f"curve sample at t={ts[j]:.6f} lies outside the chart domain "
                f"(point {pos[u, j].tolist()})")
    return pos, vel, rows


def _linear_rhs_tables(a: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """k[..., k, l] = -A^k_il(c) cdot^i per sample, the matrix of the metric
    transport's right-hand side dv/dt = -A(cdot, v)."""
    return -np.einsum("...kil,...i->...kl", a, vel)


def _linear_dt(k: np.ndarray) -> float:
    """The step of tables k (U, 2N + 1, n, n) sampled at the half steps of
    [0, 1]."""
    return 1.0 / ((k.shape[1] - 1) // 2)


def _result(mode: str, pos: np.ndarray, v: np.ndarray,
            traj: Optional[np.ndarray]) -> TransportResult:
    """TransportResult of the first pair of a batch (pos[0] holds its
    curve's samples)."""
    steps = (pos.shape[1] - 1) // 2
    res = TransportResult(mode, v[0], steps, 1.0 / steps, start=pos[0, 0],
                          end=pos[0, -1])
    if traj is not None:
        res.ts = np.linspace(0.0, 1.0, steps + 1)
        res.xs = pos[0, ::2]
        res.vs = traj[0]
    return res


def _riemann(metric: MetricField, curves: Sequence[AnalyticCurve], v0s,
             dt: float, chart: Optional[Chart], keep: bool):
    """(half-step positions of the distinct curves, endpoint values,
    trajectories or None) of the metric transport for a batch of (curve,
    start vector) pairs."""
    pos, vel, rows = _sample_tables(curves, _steps_from_dt(dt), chart)
    k = _linear_rhs_tables(christoffel(metric, pos), vel)
    v, traj = nk.rk4_linear(k, _linear_dt(k),
                            np.atleast_2d(np.asarray(v0s, dtype=float)), rows,
                            keep)
    return pos, v, traj


def riemann_transport_many(metric: MetricField,
                           curves: Sequence[AnalyticCurve],
                           v0s: np.ndarray, dt: float = 1e-3,
                           chart: Optional[Chart] = None) -> np.ndarray:
    """Endpoint values of the metric parallel transport for a batch of
    (curve, start vector) pairs."""
    return _riemann(metric, curves, v0s, dt, chart, keep=False)[1]


def riemann_transport(metric: MetricField, curve: AnalyticCurve, v0,
                      dt: float = 1e-3, chart: Optional[Chart] = None,
                      keep_trajectory: bool = False) -> TransportResult:
    """Parallel transport of v0 along the curve for the metric connection."""
    return _result("riemann", *_riemann(metric, [curve], v0, dt, chart,
                                        keep_trajectory))


def riemann_transport_matrix(metric: MetricField, curve: AnalyticCurve,
                             dt: float = 1e-3,
                             chart: Optional[Chart] = None) -> np.ndarray:
    """Matrix of the (linear) metric transport along the curve, columns =
    transported basis vectors: the ordered product of its RK4 step maps."""
    pos, vel, _ = _sample_tables([curve], _steps_from_dt(dt), chart)
    k = _linear_rhs_tables(christoffel(metric, pos), vel)
    return nk.rk4_propagators(k, _linear_dt(k))[0]


def _natural_tables(jet: FieldJet, vel: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per sample: the stage table [-A(cdot); Q; hW^T] (..., 2n + 1, n) with
    Q = lam h + hW hW^T, so that F(v) = (sqrt(v.Qv) - <hW, v>) / lam, and
    the scalars [M cdot, lam] (..., n + 1)."""
    hw = jet.hW
    q = jet.lam[..., None, None] * jet.h + hw[..., :, None] * hw[..., None, :]
    tab = np.concatenate([_linear_rhs_tables(jet.A, vel), q, hw[..., None, :]],
                         axis=-2)
    mc = np.einsum("...ki,...i->...k", jet.M, vel)  # M^k_i cdot^i
    return tab, np.concatenate([mc, jet.lam[..., None]], axis=-1)


def _natural_stage(tab: np.ndarray, aux: np.ndarray,
                   v: np.ndarray) -> np.ndarray:
    """-A(cdot, v) + F(v) M cdot for a batch v (B, n) from each row's tables
    tab (B, 2n + 1, n) and aux (B, n + 1): one contraction, then the scalar
    norm formula."""
    n = v.shape[1]
    t = np.matmul(tab, v[:, :, None])[:, :, 0]
    f = (np.sqrt((v * t[:, n:-1]).sum(axis=1)) - t[:, -1]) / aux[:, -1]
    return t[:, :n] + f[:, None] * aux[:, :n]


def _run_natural(jet: FieldJet, vel: np.ndarray, rows: np.ndarray,
                 v0: np.ndarray,
                 keep: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The connection ODE dv/dt = -A(cdot, v) + F(v) M cdot over [0, 1] on
    the jet of the half-step samples of the distinct curves; batch row b
    runs on curve rows[b], taking its curve's tables at every stage."""
    # half steps first, so a stage takes its rows from one (U, ...) slice
    tab, aux = (np.moveaxis(a, 1, 0) for a in _natural_tables(jet, vel))
    steps = (len(tab) - 1) // 2
    return nk.rk4(
        lambda s, v: _natural_stage(tab[s].take(rows, 0), aux[s].take(rows, 0),
                                    v),
        v0, steps, 1.0 / steps, keep)[:2]


def _run_definitional(nav: NavigationData, pos: np.ndarray, vel: np.ndarray,
                      rows: np.ndarray, v0: np.ndarray,
                      keep: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Scale to the unit sphere, shift by the wind at the start, transport
    linearly, shift back by the wind at the end, scale back."""
    f0 = randers_value(nav, pos[rows, 0], v0)
    bad = np.flatnonzero(~np.isfinite(f0))
    if bad.size:
        raise NonFiniteState(f"navigation norm of start vector row {bad[0]} "
                             f"{v0[bad[0]].tolist()} is not finite")
    winds = nav.wind.value(pos[:, ::2] if keep else pos[:, [0, -1]])[rows]
    k = _linear_rhs_tables(christoffel(nav.metric, pos), vel)
    u1, utraj = nk.rk4_linear(k, _linear_dt(k), v0 / f0[:, None] - winds[:, 0],
                              rows, keep)
    traj = f0[:, None, None] * (utraj + winds) if keep else None
    return f0[:, None] * (u1 + winds[:, -1]), traj


def _natural(nav: NavigationData, curves: Sequence[AnalyticCurve], v0s,
             method: str, dt: float, keep: bool):
    """(half-step positions of the distinct curves, endpoint values,
    trajectories or None) of the natural transport for a batch of (curve,
    start vector) pairs."""
    v0s = np.atleast_2d(np.asarray(v0s, dtype=float))
    if not np.all(np.any(v0s != 0.0, axis=1)):
        raise ZeroVector("natural transport starts from a nonzero vector")
    pos, vel, rows = _sample_tables(curves, _steps_from_dt(dt), nav.chart)
    if method == "ode":
        v, traj = _run_natural(field_jet(nav, pos), vel, rows, v0s, keep)
    elif method == "definitional":
        v, traj = _run_definitional(nav, pos, vel, rows, v0s, keep)
    else:
        raise ValueError("method must be 'definitional' or 'ode'")
    return pos, v, traj


def natural_transport_many(nav: NavigationData,
                           curves: Sequence[AnalyticCurve],
                           v0s: np.ndarray, method: str = "definitional",
                           dt: float = 1e-3) -> np.ndarray:
    """Endpoint values of the natural transport for a batch of pairs."""
    return _natural(nav, curves, v0s, method, dt, keep=False)[1]


def natural_transport(nav: NavigationData, curve: AnalyticCurve, v0,
                      method: str = "definitional", dt: float = 1e-3,
                      keep_trajectory: bool = False) -> TransportResult:
    """Natural (wind-aware, nonlinear) parallel transport of v0.

    Preserves the navigation norm along the way; positively homogeneous in
    v0 but not additive.
    """
    return _result(f"natural_{method}",
                   *_natural(nav, [curve], v0, method, dt, keep_trajectory))


def corrected_transport(norm: Callable, base: Callable, curve: AnalyticCurve,
                        v0) -> TransportResult:
    """Norm-corrected transport: run `base`, then rescale the endpoint so the
    given norm is preserved exactly.

    norm(x, v) evaluates the Finsler norm; base(curve, v0) returns either a
    TransportResult or a bare endpoint vector.
    """
    v0 = np.asarray(v0, dtype=float)
    f_start = float(norm(curve.point(0.0), v0))
    if f_start == 0.0:
        raise ZeroVector("corrected transport starts from a norm-zero vector")
    raw = base(curve, v0)
    v_base = raw.v_end if isinstance(raw, TransportResult) else np.asarray(raw, dtype=float)
    q = curve.point(1.0)
    f_end = float(norm(q, v_base))
    if f_end <= 0.0:
        raise DegenerateNorm("base transport produced a norm-nonpositive vector")
    scale = f_start / f_end
    steps = raw.steps if isinstance(raw, TransportResult) else 0
    dt = raw.dt if isinstance(raw, TransportResult) else float("nan")
    return TransportResult("corrected", scale * v_base, steps, dt,
                           start=curve.point(0.0), end=q)

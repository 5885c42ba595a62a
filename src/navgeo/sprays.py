"""Geodesic sprays of navigation data and their comparison.

Three sprays live here, all as coefficient functions G^k(x, y) with the
geodesic equation xdd^k = -2 G^k(x, xd):

  riemann   G^k = A^k_ij y^i y^j / 2 for the metric alone;
  natural   the spray of the nonlinear wind connection,
            G^k = (A^k_ij y^i y^j - F y^i A^k_ij W^j - F y^i dW^k/dx^i) / 2,
            which also equals y^i Gamma^k_i / 2 identically;
  randers   the full variational spray of the induced norm, assembled from
            the symmetric/antisymmetric parts of the lowered wind derivative.

Convention pinned throughout (and guarded by the variational residual test):
the lowered wind derivative is D_ij = h_ik (nabla_j W)^k with the derivative
slot SECOND; R = sym D, S = antisym D; contractions with the wind hit the
FIRST slot (T_j = W^i T_ij) and contractions with y follow the displayed
index (T_0 = y^i T_i, T^i_0 = y^j T^i_j, T_00 = y^i y^j T_ij).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numkernel as nk
from .connection import jet_gamma_fiber_jacobian
from .errors import ZeroVector, ZeroVelocity
from .geometry import (FieldJet, MetricField, NavigationData, christoffel,
                       field_jet, indicatrix, randers_value)


@dataclass
class GeodesicPath:
    kind: str
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    dt: float
    left_domain: bool = False


# ---------------------------------------------------------------------------
# spray coefficients on a field jet (fiber axes broadcast against the jet's)


def _ayy(a, y) -> np.ndarray:
    return np.einsum("...kij,...i,...j->...k", a, y, y)


def jet_riemann_spray(jet: FieldJet, y) -> np.ndarray:
    """Metric spray coefficients A^k_ij y^i y^j / 2."""
    return 0.5 * _ayy(jet.A, np.asarray(y, dtype=float))


def jet_natural_spray(jet: FieldJet, y) -> np.ndarray:
    """Natural-connection spray coefficients (A y y - F M y) / 2."""
    y = np.asarray(y, dtype=float)
    my = np.einsum("...ki,...i->...k", jet.M, y)
    return 0.5 * (_ayy(jet.A, y) - jet.norm(y)[..., None] * my)


def rs_split(jet: FieldJet) -> tuple[np.ndarray, np.ndarray]:
    """R = sym D and S = antisym D of the lowered wind derivative
    D_ij = h_ik M^k_j (derivative slot second)."""
    dp = np.einsum("...ik,...kj->...ij", jet.h, jet.M)
    dpt = np.swapaxes(dp, -1, -2)
    return 0.5 * (dp + dpt), 0.5 * (dp - dpt)


def jet_randers_spray(jet: FieldJet, y) -> np.ndarray:
    """Variational spray of the induced norm (zero fibers not allowed)."""
    y = np.asarray(y, dtype=float)
    r, s = rs_split(jet)
    w, hinv = jet.W, jet.hinv
    f = jet.norm(y)

    def pieces(t):
        t_j = np.einsum("...i,...ij->...j", w, t)
        t_scalar = np.einsum("...j,...j->...", w, t_j)
        t_up = np.einsum("...ij,...j->...i", hinv, t_j)
        t_0 = np.einsum("...i,...i->...", y, t_j)
        t_i0 = np.einsum("...il,...lj,...j->...i", hinv, t, y)
        t_00 = np.einsum("...i,...ij,...j->...", y, t, y)
        return t_j, t_scalar, t_up, t_0, t_i0, t_00

    r_j, r_sc, r_up, r_0, r_i0, r_00 = pieces(r)
    s_j, s_sc, s_up, s_0, s_i0, s_00 = pieces(s)
    fcol = f[..., None]
    return (0.5 * _ayy(jet.A, y)
            + r_0[..., None] * y
            + 0.5 * r_00[..., None] * w
            - 0.5 * fcol * fcol * (s_up + r_up - r_sc[..., None] * w)
            - fcol * (s_i0 + 0.5 * r_sc[..., None] * y + r_0[..., None] * w)
            - (r_00 / (2.0 * f))[..., None] * y)


# ---------------------------------------------------------------------------
# spray coefficient fields (batched over leading axes)


def natural_spray_values(nav: NavigationData, x, y) -> np.ndarray:
    """Natural-connection spray coefficients G^k(x, y), batched."""
    return jet_natural_spray(field_jet(nav, x), y)


def riemann_spray_values(metric: MetricField, x, y) -> np.ndarray:
    """Metric spray coefficients, quadratic in y."""
    return 0.5 * _ayy(christoffel(metric, x), np.asarray(y, dtype=float))


def randers_spray_values(nav: NavigationData, x, y) -> np.ndarray:
    """Variational spray of the induced norm (zero fibers not allowed)."""
    return jet_randers_spray(field_jet(nav, x), y)


def jet_spray_connection(jet: FieldJet, y) -> np.ndarray:
    """dG^k/dy^j of the natural spray G^k = y^i Gamma^k_i / 2, that is
    (Gamma^k_j + y^i dGamma^k_i/dy^j) / 2, from one dual sweep."""
    y = np.asarray(y, dtype=float)
    gam, dgam = jet_gamma_fiber_jacobian(jet, y)
    return 0.5 * (gam + np.einsum("...jki,...i->...kj", dgam, y))


def spray_connection_matrix(nav: NavigationData, x, y) -> np.ndarray:
    """Coefficients dG^k/dy^j of the symmetric connection induced by the
    natural spray; see jet_spray_connection.

    Equals the nonlinear connection matrix exactly when torsion vanishes;
    on a rotating wind the two differ measurably.
    """
    return jet_spray_connection(field_jet(nav, x), y)


# ---------------------------------------------------------------------------
# geodesic integration


def integrate_geodesics(spray: Callable, x0s, y0s, time_span: float,
                        dt: float = 1e-3, chart=None,
                        kind: str = "geodesic") -> list[GeodesicPath]:
    """Integrate xdd = -2 G(x, xd) from each row of (x0s, y0s) over
    [0, time_span], all paths in lockstep with a step of about dt that
    lands on time_span.

    A path halts (with left_domain=True) as soon as a step would leave the
    chart domain, while the others run on; each returned path contains
    only interior samples.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    y0s = np.atleast_2d(np.asarray(y0s, dtype=float))
    if not np.all(np.any(y0s != 0.0, axis=1)):
        raise ZeroVector("geodesics need a nonzero initial velocity")
    n = x0s.shape[1]
    steps, dt = nk.uniform_steps(time_span, dt)

    def rhs(s, state):
        x, y = state[:, :n], state[:, n:]
        return np.concatenate([y, -2.0 * spray(x, y)], axis=-1)

    inside = None if chart is None else lambda st: chart.contains(st[:, :n])
    _, traj, stop = nk.rk4(rhs, np.concatenate([x0s, y0s], axis=1), steps,
                           dt, keep=True, inside=inside)
    return [GeodesicPath(kind, dt * np.arange(last + 1), traj[b, :last + 1, :n],
                         traj[b, :last + 1, n:], dt, bool(last < steps))
            for b, last in enumerate(stop)]


def integrate_geodesic(spray: Callable, x0, y0, time_span: float,
                       dt: float = 1e-3, chart=None,
                       kind: str = "geodesic") -> GeodesicPath:
    """integrate_geodesics on a batch of one path."""
    return integrate_geodesics(spray, [x0], [y0], time_span, dt, chart,
                               kind)[0]


def geodesic_csv(path: GeodesicPath, nav: NavigationData, stream) -> None:
    """CSV rows t, x*, y*, F(x, y) along an integrated path."""
    n = path.xs.shape[1]
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"y{i + 1}" for i in range(n)] + ["F"])
    rows = np.column_stack([path.ts, path.xs, path.ys,
                            randers_value(nav, path.xs, path.ys)]).tolist()
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n" + "".join(fmt % tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# variational (Euler-Lagrange) residual


def el_residual(nav: NavigationData, path: GeodesicPath) -> float:
    """Max Euler-Lagrange residual |d/dt dE/dy - dE/dx| over interior samples
    of a path, with energy E = F^2 / 2.

    The time derivative is a five-point central difference on the uniform
    sample grid; the endpoints (two on each side) are skipped. Small for
    variational geodesics, order-one for paths of a non-variational spray.
    """
    if len(path.ts) < 5:
        raise ValueError("path too short for the five-point stencil")
    if np.any(np.all(path.ys == 0.0, axis=-1)):
        raise ZeroVelocity("path has a zero-velocity sample")
    jet = field_jet(nav, path.xs)
    f, fy = jet.norm_and_grad(path.ys)
    ey = f[:, None] * fy
    ex = f[:, None] * jet.norm_grad_x(path.ys)
    dey = nk.central_time_derivative(ey, path.dt)
    resid = dey - ex[2:-2]
    return float(np.linalg.norm(resid, axis=1).max())


def autoparallel_residual(nav: NavigationData, path: GeodesicPath) -> float:
    """Max norm of the along-path covariant derivative of the velocity,
    D v^k/dt = dv^k/dt + Gamma^k_i(c, v) cdot^i with v = cdot, computed from
    the sampled path by the five-point stencil."""
    from .connection import gamma_matrix
    dv = nk.central_time_derivative(path.ys, path.dt)
    g = gamma_matrix(nav, path.xs[2:-2], path.ys[2:-2])
    corr = np.einsum("tki,ti->tk", g, path.ys[2:-2])
    return float(np.linalg.norm(dv + corr, axis=1).max())


# ---------------------------------------------------------------------------
# spray comparison over a grid


@dataclass
class ComparisonReport:
    n_points: int
    n_dirs: int
    sup_natural_vs_randers: float
    phi_min: float
    phi_max: float
    phi_mean: float
    phi_spread_max: float
    projective_residual: float
    sprays_coincide: bool
    projectively_riemannian: bool
    tol_coincide: float
    tol_projective: float
    points: Optional[np.ndarray] = None
    phi_hat: Optional[np.ndarray] = None

    def as_dict(self) -> dict:
        return {
            "n_points": int(self.n_points),
            "n_dirs": int(self.n_dirs),
            "sup_natural_vs_randers": float(self.sup_natural_vs_randers),
            "phi_min": float(self.phi_min),
            "phi_max": float(self.phi_max),
            "phi_mean": float(self.phi_mean),
            "phi_spread_max": float(self.phi_spread_max),
            "projective_residual": float(self.projective_residual),
            "sprays_coincide": bool(self.sprays_coincide),
            "projectively_riemannian": bool(self.projectively_riemannian),
            "tol_coincide": float(self.tol_coincide),
            "tol_projective": float(self.tol_projective),
        }


def compare_sprays(nav: NavigationData, points: Optional[np.ndarray] = None,
                   per_axis: int = 20, n_dirs: int = 16,
                   tol_coincide: float = 1e-8,
                   tol_projective: float = 1e-6,
                   margin: float = 0.05) -> ComparisonReport:
    """Compare the natural spray against the variational one over a grid of
    base points and norm-unit fiber directions.

    Verdicts: sprays_coincide when the sup difference stays below
    tol_coincide; projectively_riemannian when (natural - riemann) fits
    -phi(x) F y / 2 with a per-point factor that is consistent across the
    fiber directions (spread below 1e-6) and residual below tol_projective.
    """
    if points is None:
        points = nav.chart.grid(per_axis, margin)
    points = np.asarray(points, dtype=float)
    return jet_compare_sprays(field_jet(nav, points[:, None, :]), points,
                              n_dirs, tol_coincide, tol_projective)


def jet_compare_sprays(jet: FieldJet, points: np.ndarray, n_dirs: int = 16,
                       tol_coincide: float = 1e-8,
                       tol_projective: float = 1e-6) -> ComparisonReport:
    """compare_sprays on a jet built at points[:, None, :]."""
    ys = indicatrix(jet, n_dirs)  # (P, D, n)
    g_nat = jet_natural_spray(jet, ys)
    g_ran = jet_randers_spray(jet, ys)
    g_rie = jet_riemann_spray(jet, ys)
    sup_nr = float(np.abs(g_nat - g_ran).max())

    d = g_nat - g_rie
    f = jet.norm(ys)  # unit by construction, kept explicit
    denom = f * np.einsum("pdi,pdi->pd", ys, ys)
    phi = -2.0 * np.einsum("pdi,pdi->pd", d, ys) / denom
    phi_hat = phi.mean(axis=1)
    spread = np.abs(phi - phi_hat[:, None]).max(axis=1)
    resid = d + 0.5 * phi_hat[:, None, None] * f[..., None] * ys
    resid_max = float(np.linalg.norm(resid, axis=2).max())

    coincide = sup_nr < tol_coincide
    projective = bool(spread.max() < 1e-6 and resid_max < tol_projective)
    return ComparisonReport(
        n_points=len(points), n_dirs=n_dirs,
        sup_natural_vs_randers=sup_nr,
        phi_min=float(phi_hat.min()), phi_max=float(phi_hat.max()),
        phi_mean=float(phi_hat.mean()), phi_spread_max=float(spread.max()),
        projective_residual=resid_max,
        sprays_coincide=bool(coincide),
        projectively_riemannian=projective,
        tol_coincide=tol_coincide, tol_projective=tol_projective,
        points=points, phi_hat=phi_hat,
    )

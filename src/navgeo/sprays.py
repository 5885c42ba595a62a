"""Geodesic sprays of navigation data and their comparison.

Three sprays live here, all as coefficient functions G^k(x, y) with the
geodesic equation xdd^k = -2 G^k(x, xd). Each is the metric spray
A^k_ij y^i y^j / 2 plus a wind term of its own, defined once:

  riemann   no wind term: the spray of the metric alone;
  natural   the spray of the nonlinear wind connection, wind term
            -F M y / 2 with M = nabla W (natural_wind_term), so that
            G^k = y^i Gamma^k_i / 2 identically;
  randers   the full variational spray of the induced norm, wind term
            assembled from the symmetric/antisymmetric parts of the
            lowered wind derivative (randers_wind_term).

The comparison over a grid never forms A y y: natural - randers and
natural - riemann are differences of wind terms, at one F. Every fiber
contraction on a grid is a batched matmul with the fiber axis as the row
axis, fibers (P, D, n) @ per-point matrices (P, n, m).

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

from . import numkernel as nk, stages
from .errors import ZeroVector, ZeroVelocity
from .geometry import (FieldJet, MetricField, NavigationData, _norm_parts,
                       christoffel, fiber_csv, field_jet, indicatrix)


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


def _fiber_matmul(y, mat) -> np.ndarray:
    """y^i mat[..., i, j] for fibers y (..., n) and per-point matrices mat
    (..., n, m), as a batched matmul with the fiber axis as the row axis.
    A jet built at x[..., None, :] (or at a single point) shares its
    matrices over a whole fiber axis, so ys (P, D, n) @ mat (P, n, m) is
    one (D, n) @ (n, m) product per point; a jet with one base point per
    fiber vector multiplies each fiber as a row of its own."""
    if mat.ndim > 2 and (mat.shape[-3] != 1 or y.ndim < 2):
        return (y[..., None, :] @ mat)[..., 0, :]
    return y @ (mat if mat.ndim == 2 else mat[..., 0, :, :])


def _ayy(a, y) -> np.ndarray:
    return np.einsum("...kij,...i,...j->...k", a, y, y)


def jet_riemann_spray(jet: FieldJet, y) -> np.ndarray:
    """Metric spray coefficients A^k_ij y^i y^j / 2."""
    return 0.5 * _ayy(jet.A, np.asarray(y, dtype=float))


def natural_wind_term(jet: FieldJet, y, f: np.ndarray) -> np.ndarray:
    """-F M y / 2, the natural spray minus the metric one, given F(y)."""
    return -0.5 * f[..., None] * _fiber_matmul(y, np.swapaxes(jet.M, -1, -2))


def rs_split(jet: FieldJet) -> tuple[np.ndarray, np.ndarray]:
    """R = sym D and S = antisym D of the lowered wind derivative
    D_ij = h_ik M^k_j (derivative slot second)."""
    dp = jet.h @ jet.M
    dpt = np.swapaxes(dp, -1, -2)
    return 0.5 * (dp + dpt), 0.5 * (dp - dpt)


def randers_wind_term(jet: FieldJet, y, f: np.ndarray) -> np.ndarray:
    """The variational spray minus the metric one, given F(y) (zero fibers
    not allowed):

        (r_0 - F r / 2 - r_00 / (2 F)) y + (r_00 / 2 + F^2 r / 2 - F r_0) W
            - F^2 (S^i + R^i) / 2 - F S^i_0,

    with R_j = W^i R_ij, r = R_j W^j, R^i = h^ij R_j (and S^i alike),
    r_0 = R_j y^j = (R y)_i W^i, r_00 = (R y)_i y^i and S^i_0 = h^il S_lj y^j.
    """
    r, s = rs_split(jet)
    w, hinv = jet.W, jet.hinv
    r_j = np.einsum("...i,...ij->...j", w, r)
    r_sc = np.einsum("...j,...j->...", w, r_j)[..., None]
    up = np.einsum("...ij,...j->...i", hinv,
                   r_j + np.einsum("...i,...ij->...j", w, s))
    ry = _fiber_matmul(y, r)  # R symmetric: the row y R is R y
    r_0 = np.einsum("...i,...i->...", ry, w)[..., None]
    r_00 = np.einsum("...i,...i->...", ry, y)[..., None]
    s_i0 = _fiber_matmul(y, np.swapaxes(hinv @ s, -1, -2))
    f = f[..., None]
    return ((r_0 - 0.5 * f * r_sc - r_00 / (2.0 * f)) * y
            + (0.5 * r_00 + 0.5 * f * f * r_sc - f * r_0) * w
            - 0.5 * f * f * up - f * s_i0)


def jet_natural_spray(jet: FieldJet, y) -> np.ndarray:
    """Natural-connection spray coefficients (A y y - F M y) / 2."""
    y = np.asarray(y, dtype=float)
    return jet_riemann_spray(jet, y) + natural_wind_term(jet, y, jet.norm(y))


def jet_randers_spray(jet: FieldJet, y) -> np.ndarray:
    """Variational spray of the induced norm (zero fibers not allowed)."""
    y = np.asarray(y, dtype=float)
    return jet_riemann_spray(jet, y) + randers_wind_term(jet, y, jet.norm(y))


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


@dataclass(frozen=True)
class Spray:
    """The spray `kind` ('natural', 'randers' or 'riemann') of navigation
    data: a batched callable G(x, y), which `integrate_geodesics` also runs
    as generated float code on small batches (`geodesic_rhs`)."""

    nav: NavigationData
    kind: str

    def __post_init__(self):
        if self.kind not in ("natural", "randers", "riemann"):
            raise ValueError(f"unknown spray {self.kind!r}")

    def __call__(self, x, y) -> np.ndarray:
        if self.kind == "riemann":
            return riemann_spray_values(self.nav.metric, x, y)
        if self.kind == "natural":
            return natural_spray_values(self.nav, x, y)
        return randers_spray_values(self.nav, x, y)

    def geodesic_rhs(self) -> Callable:
        """rhs(s, v) -> (y, -2 G(x, y)) on a state tuple v = (x, y) of
        floats, from the memo of `stages.geodesic_rhs`."""
        program = (self.nav.metric.program if self.kind == "riemann"
                   else self.nav.jet_program)
        return stages.geodesic_rhs(program, self.kind)


def jet_spray_connection(jet: FieldJet, y) -> np.ndarray:
    """N^k_j = dG^k/dy^j of the natural spray G^k = y^i Gamma^k_i / 2:

        N^k_j = A^k_js y^s - F M^k_j / 2 - (M y)^k F_{y^j} / 2,

    as Gamma depends on y only linearly and through F. Raises
    GradientAtZero at y = 0, where N, 0-homogeneous in y, has no value."""
    y = np.asarray(y, dtype=float)
    f, fy = jet.norm_and_grad(y)
    my = np.einsum("...ki,...i->...k", jet.M, y)
    return (np.einsum("...kjs,...s->...kj", jet.A, y)
            - 0.5 * (f[..., None, None] * jet.M
                     + my[..., :, None] * fy[..., None, :]))


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
    only interior samples. A `Spray` also gives `numkernel.rk4` its float
    form, which small batches run on; any other callable runs on NumPy.
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
    float_rows = float_inside = None
    if isinstance(spray, Spray):
        float_rows = lambda: [spray.geodesic_rhs()] * len(x0s)
        float_inside = None if chart is None else chart.float_contains()
    _, traj, stop = nk.rk4(rhs, np.concatenate([x0s, y0s], axis=1), steps,
                           dt, keep=True, inside=inside,
                           float_rows=float_rows, float_inside=float_inside)
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
    fiber_csv(nav, path.ts, path.xs, path.ys, "y", stream)


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
                   per_axis: Optional[int] = None, n_dirs: int = 16,
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
    """compare_sprays on a jet built at points[:, None, :]. The three
    sprays share A y y / 2, so the differences come from the wind terms
    alone, at F computed once."""
    ys = indicatrix(jet, n_dirs)  # (P, D, n)
    f = _norm_parts(jet, ys, _fiber_matmul(ys, jet.h))[3]  # 1 up to round-off
    d = natural_wind_term(jet, ys, f)  # natural - riemann
    sup_nr = float(np.abs(d - randers_wind_term(jet, ys, f)).max())

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

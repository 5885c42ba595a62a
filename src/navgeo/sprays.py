"""Geodesic sprays of navigation data and their comparison.

Three sprays live here, all as coefficient functions G^k(x, y) with the
geodesic equation xdd^k = -2 G^k(x, xd). Each is the metric spray
A^k_ij y^i y^j / 2 plus a wind term of its own:

  riemann   no wind term: the spray of the metric alone;
  natural   the spray of the nonlinear wind connection, wind term
            -F M y / 2 with M = nabla W (natural_wind_term), so that
            G^k = y^i Gamma^k_i / 2 identically;
  randers   the full variational spray of the induced norm, wind term
            assembled from the symmetric/antisymmetric parts of the
            lowered wind derivative (randers_wind_term).

Each spray is defined once, as the lines of its geodesic equation
(`stages.geodesic_stage_lines`), which `Spray` and the `*_spray_values`
run over NumPy columns (`stages.geodesic_numpy`). Geodesics run them in
lockstep through `numkernel.rk4`: a small batch on floats, a larger one
on NumPy.

The wind terms, grouped as those lines are, are the NumPy kernels of the
grid comparison, which never forms A y y: natural - randers and natural -
riemann are differences of wind terms, at one F. Fibers are the columns
of (p, n, D) arrays over a block of points (`geometry.jet_blocks`), so a
per-point matrix applies to a block's fibers as one batched matmul, and a
contraction over n is a sum over axis -2 with the D fibers contiguous.

Convention pinned throughout (and guarded by the variational residual test):
the lowered wind derivative is D_ij = h_ik (nabla_j W)^k with the derivative
slot SECOND; R = sym D, S = antisym D; contractions with the wind hit the
FIRST slot (T_j = W^i T_ij) and contractions with y follow the displayed
index (T_0 = y^i T_i, T^i_0 = y^j T^i_j, T_00 = y^i y^j T_ij).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exprlang, numkernel as nk, stages
from .connection import jet_gamma
from .errors import ZeroVector, ZeroVelocity
from .geometry import (FieldJet, MetricField, NavigationData, _norm_parts,
                       fiber_csv, fiber_rows, field_jet, grid_jet, indicatrix,
                       jet_blocks)


@dataclass
class GeodesicPath:
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    dt: float
    left_domain: bool = False


# ---------------------------------------------------------------------------
# the wind terms on a field jet, fibers as columns


def _column_dot(u, v) -> np.ndarray:
    """sum_i u_i v_i over the axis -2 of columns (..., n, D), or of a
    per-point vector v (..., n, 1), as (..., 1, D)."""
    return np.einsum("...id,...id->...d", u, v)[..., None, :]


def natural_wind_term(jet: FieldJet, y, f: np.ndarray) -> np.ndarray:
    """-F M y / 2, the natural spray minus the metric one, given F(y):
    fibers as the columns of y (..., n, D), F (..., D), at a jet whose
    points are the leading axes (...)."""
    return -0.5 * f[..., None, :] * (jet.M @ y)


def rs_split(jet: FieldJet) -> tuple[np.ndarray, np.ndarray]:
    """R = sym D and S = antisym D of the lowered wind derivative
    D_ij = h_ik M^k_j (derivative slot second)."""
    dp = jet.h @ jet.M
    dpt = np.swapaxes(dp, -1, -2)
    return 0.5 * (dp + dpt), 0.5 * (dp - dpt)


def randers_wind_term(jet: FieldJet, y, f: np.ndarray) -> np.ndarray:
    """The variational spray minus the metric one, given F(y), fibers as
    columns as in `natural_wind_term` (zero fibers not allowed):

        (r_0 - F r / 2 - r_00 / (2 F)) y + (r_00 / 2 + F^2 r / 2 - F r_0) W
            - F^2 (S^i + R^i) / 2 - F S^i_0,

    with R_j = W^i R_ij, r = R_j W^j, R^i = h^ij R_j (and S^i alike),
    r_0 = R_j y^j = (R y)_i W^i, r_00 = (R y)_i y^i and S^i_0 = h^il S_lj y^j.
    """
    r, s = rs_split(jet)
    w, hinv = jet.W, jet.hinv
    r_j = np.einsum("...i,...ij->...j", w, r)
    r_sc = np.einsum("...j,...j->...", w, r_j)[..., None, None]
    up = np.einsum("...ij,...j->...i", hinv,
                   r_j + np.einsum("...i,...ij->...j", w, s))[..., None]
    w = w[..., None]
    # R y as the row product y R (R is symmetric): the summation order in
    # which the round-off sups that `classify` prints were recorded
    ry = np.swapaxes(np.swapaxes(y, -1, -2) @ r, -1, -2)
    r_0 = _column_dot(ry, w)
    r_00 = _column_dot(ry, y)
    s_i0 = (hinv @ s) @ y
    f = f[..., None, :]
    return ((r_0 - 0.5 * f * r_sc - r_00 / (2.0 * f)) * y
            + (0.5 * r_00 + 0.5 * f * f * r_sc - f * r_0) * w
            - 0.5 * f * f * up - f * s_i0)


# ---------------------------------------------------------------------------
# spray coefficient fields (batched over leading axes)


def _spray(program: exprlang.Program, kind: str, x, y) -> np.ndarray:
    """G(x, y) of the spray `kind` of the fields of `program`, from its
    geodesic equation (y, -2 G) rendered over NumPy columns."""
    run = stages.geodesic_numpy(program, kind)
    return -0.5 * run(x, np.asarray(y, dtype=float))[..., program.n:]


def natural_spray_values(nav: NavigationData, x, y) -> np.ndarray:
    """Natural-connection spray coefficients (A y y - F M y) / 2, batched."""
    return _spray(nav.jet_program, "natural", x, y)


def riemann_spray_values(metric: MetricField, x, y) -> np.ndarray:
    """Metric spray coefficients A y y / 2, quadratic in y."""
    return _spray(metric.program, "riemann", x, y)


def randers_spray_values(nav: NavigationData, x, y) -> np.ndarray:
    """Variational spray of the induced norm (zero fibers not allowed)."""
    return _spray(nav.jet_program, "randers", x, y)


@dataclass(frozen=True)
class Spray:
    """The spray `kind` ('natural', 'randers' or 'riemann') of navigation
    data: a batched callable G(x, y), whose geodesic equation
    `integrate_geodesics` runs."""

    nav: NavigationData
    kind: str

    def __post_init__(self):
        if self.kind not in ("natural", "randers", "riemann"):
            raise ValueError(f"unknown spray {self.kind!r}")

    def __call__(self, x, y) -> np.ndarray:
        return _spray(self.program, self.kind, x, y)

    @property
    def program(self) -> exprlang.Program:
        """The fields the spray reads: the metric's program for 'riemann',
        else the jet program of the navigation data."""
        return (self.nav.metric.program if self.kind == "riemann"
                else self.nav.jet_program)


def jet_spray_connection(jet: FieldJet, y) -> np.ndarray:
    """N^k_j = dG^k/dy^j of the natural spray G^k = y^i Gamma^k_i / 2:

        N^k_j = A^k_js y^s - F M^k_j / 2 - (M y)^k F_{y^j} / 2,

    as Gamma depends on y only linearly and through F. N is
    1-homogeneous in y: A y, F M and (M y) F_y each have degree 1. Raises
    GradientAtZero at y = 0, where F_y has no value."""
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


def integrate_geodesics(spray: Spray, x0s, y0s, time_span: float,
                        dt: float = 1e-3, chart=None) -> list[GeodesicPath]:
    """Integrate xdd = -2 G(x, xd) from each row of (x0s, y0s) over
    [0, time_span], all paths in lockstep with a step of about dt that
    lands on time_span.

    A path halts (with left_domain=True) as soon as a step would leave the
    chart domain, while the others run on; each returned path contains
    only interior samples. The row count picks the rendering of the
    geodesic equation: floats up to `numkernel.SCALAR_ROWS`, else NumPy.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    y0s = np.atleast_2d(np.asarray(y0s, dtype=float))
    if not np.all(np.any(y0s != 0.0, axis=1)):
        raise ZeroVector("geodesics need a nonzero initial velocity")
    n = x0s.shape[1]
    steps, dt = nk.uniform_steps(time_span, dt)
    key = (spray.program, spray.kind)
    inside = None if chart is None else lambda st: chart.contains(st[:, :n])
    float_run = stages.float_run(
        stages.geodesic_run, key,
        inside=None if chart is None else chart.float_contains())
    _, traj, stop = nk.rk4(
        lambda s, v: stages.geodesic_numpy(*key)(v[:, :n], v[:, n:]),
        np.concatenate([x0s, y0s], axis=1), steps, dt, keep=True,
        inside=inside, float_run=float_run)
    return [GeodesicPath(dt * np.arange(last + 1), traj[b, :last + 1, :n],
                         traj[b, :last + 1, n:], dt, bool(last < steps))
            for b, last in enumerate(stop)]


def integrate_geodesic(spray: Spray, x0, y0, time_span: float,
                       dt: float = 1e-3, chart=None) -> GeodesicPath:
    """integrate_geodesics on a batch of one path."""
    return integrate_geodesics(spray, [x0], [y0], time_span, dt, chart)[0]


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
    # F is parallel for the natural connection, dF/dx^i = Gamma^k_i dF/dy^k,
    # so E_x = F F_x = E_y Gamma
    ex = np.einsum("tk,tki->ti", ey, jet_gamma(jet, path.ys))
    dey = nk.central_time_derivative(ey, path.dt)
    resid = dey - ex[2:-2]
    return float(np.linalg.norm(resid, axis=1).max())


# ---------------------------------------------------------------------------
# spray comparison over a grid

TOL_COINCIDE = 1e-8
TOL_PROJECTIVE = 1e-6


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
    phi_hat: Optional[np.ndarray] = None

    def as_dict(self) -> dict:
        """Every field but phi_hat, each a Python int, float or bool."""
        return {k: v for k, v in vars(self).items() if k != "phi_hat"}


def compare_sprays(nav: NavigationData, per_axis: Optional[int] = None,
                   n_dirs: int = 16) -> ComparisonReport:
    """Compare the natural spray against the variational one over the
    chart's grid at margin 0.05 and norm-unit fiber directions.

    Verdicts: sprays_coincide when the sup difference stays below
    TOL_COINCIDE; projectively_riemannian when (natural - riemann) fits
    -phi(x) F y / 2 with a per-point factor that is consistent across the
    fiber directions (spread below 1e-6) and residual below TOL_PROJECTIVE.
    """
    return jet_compare_sprays(grid_jet(nav, nav.chart.grid(per_axis, 0.05)),
                              n_dirs)


def _compare_block(jet: FieldJet, n_dirs: int) -> tuple:
    """(sup |natural - randers|, phi_hat, phi spread, projective residual)
    over one block of points, the fibers as columns (p, n, D)."""
    ys = indicatrix(jet, n_dirs)
    # 1 up to round-off, from the norm on the fiber rows
    f = _norm_parts(fiber_rows(jet), np.swapaxes(ys, -1, -2),
                    np.swapaxes(jet.h @ ys, -1, -2))[3]
    d = natural_wind_term(jet, ys, f)  # natural - riemann
    sup_nr = np.abs(d - randers_wind_term(jet, ys, f)).max()

    denom = f * _column_dot(ys, ys)[:, 0]
    phi = -2.0 * _column_dot(d, ys)[:, 0] / denom
    phi_hat = phi.mean(axis=1)
    spread = np.abs(phi - phi_hat[:, None]).max()
    resid = d + 0.5 * phi_hat[:, None, None] * f[:, None, :] * ys
    return sup_nr, phi_hat, spread, np.sqrt(_column_dot(resid, resid)).max()


def jet_compare_sprays(jet: FieldJet, n_dirs: int = 16) -> ComparisonReport:
    """compare_sprays on a jet at the grid points (P, n), in blocks of at
    most GRID_FIBERS fibers. The three sprays share A y y / 2, so the
    differences come from the wind terms alone, at F computed once."""
    sup_nr, phi_hat, spread, resid = zip(*(
        _compare_block(block, n_dirs) for block in jet_blocks(jet, n_dirs)))
    sup_nr, spread = float(np.max(sup_nr)), float(np.max(spread))
    phi_hat, resid_max = np.concatenate(phi_hat), float(np.max(resid))

    coincide = sup_nr < TOL_COINCIDE
    projective = bool(spread < 1e-6 and resid_max < TOL_PROJECTIVE)
    return ComparisonReport(
        n_points=len(jet.W), n_dirs=n_dirs,
        sup_natural_vs_randers=sup_nr,
        phi_min=float(phi_hat.min()), phi_max=float(phi_hat.max()),
        phi_mean=float(phi_hat.mean()), phi_spread_max=spread,
        projective_residual=resid_max,
        sprays_coincide=bool(coincide),
        projectively_riemannian=projective,
        tol_coincide=TOL_COINCIDE, tol_projective=TOL_PROJECTIVE,
        phi_hat=phi_hat,
    )

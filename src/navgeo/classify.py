"""Sampling-based classification of navigation data.

Each test certifies "numerically indistinguishable from" a special class on
an explicit grid with an explicit tolerance, never a symbolic fact:

  wind_parallel   sup |covariant wind derivative| < tol; equivalent to
                  vanishing torsion and to the transport being metric
                  (Berwald), so those three verdicts must agree;
  wagner          h-length of the wind constant across the grid;
  concircular     covariant wind derivative is a scalar multiple of the
                  identity pointwise; equivalent to the natural spray
                  coinciding with the variational one;
  isotropic_S     symmetric part of the lowered wind derivative is a scalar
                  multiple of the metric pointwise.

A decisive disagreement between equivalent verdicts raises
InconsistentVerdicts: the underlying equivalences are theorems, so a
violation means an implementation bug, not interesting geometry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numkernel as nk
from .errors import InconsistentVerdicts
from .geometry import FieldJet, NavigationData, fiber_directions, field_jet
from .sprays import ComparisonReport, jet_compare_sprays, rs_split


@dataclass
class Verdict:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"passed": bool(self.passed), "residual": float(self.residual),
               "tol": float(self.tol)}
        out.update({k: float(v) for k, v in self.detail.items()})
        return out


def _default_grid(nav: NavigationData, grid,
                  per_axis: Optional[int]) -> np.ndarray:
    if grid is None:
        grid = nav.chart.grid(per_axis, margin=0.05)
    return np.asarray(grid, dtype=float)


def _grid_jet(nav: NavigationData, grid, per_axis: Optional[int]) -> FieldJet:
    """The jet over the grid, with a fiber axis of length one."""
    return field_jet(nav, _default_grid(nav, grid, per_axis)[:, None, :])


def _fiber_directions(nav: NavigationData, n_dirs: int) -> np.ndarray:
    # torsion is 0-homogeneous in the fiber, so the directions need no
    # normalization
    return fiber_directions(nav.dim, n_dirs, np.random.default_rng(11))


# Each verdict reads a jet, so that classification_report evaluates the
# fields once for all of them.

def _wind_parallel(jet: FieldJet, tol: float) -> Verdict:
    """Sup of |entries| of the covariant wind derivative."""
    resid = float(np.abs(jet.M).max())
    return Verdict("wind_parallel", resid < tol, resid, tol)


def _torsion_vanishes(jet: FieldJet, dirs: np.ndarray, tol: float) -> Verdict:
    """Sup of |torsion components| over the points and fiber directions:
    of |F_{y^j} M^k_i - F_{y^i} M^k_j| over the pairs i < j, bitwise the
    sup over every entry of connection.jet_torsion, which is exactly
    antisymmetric in (i, j)."""
    _, fy = jet.norm_and_grad(dirs)
    m = jet.M
    resid = float(np.max([
        np.abs(fy[..., j, None] * m[..., :, i]
               - fy[..., i, None] * m[..., :, j]).max()
        for i, j in zip(*np.triu_indices(m.shape[-1], 1))]))
    return Verdict("torsion_vanishes", resid < tol, resid, tol)


def _wagner(norms: np.ndarray, tol: float) -> Verdict:
    """Spread (max - min) of the h-length of the wind."""
    resid = float(norms.max() - norms.min())
    return Verdict("wagner", resid < tol, resid, tol,
                   detail={"norm_min": norms.min(), "norm_max": norms.max()})


def _concircular(jet: FieldJet, tol: float) -> Verdict:
    """Fit of the covariant wind derivative to a pointwise multiple of the
    identity; the factor estimate is trace/n, exact inside the class."""
    m = jet.M
    n = m.shape[-1]
    phi = np.einsum("...kk->...", m) / n
    dev = m - phi[..., None, None] * np.eye(n)
    resid = float(np.abs(dev).max())
    return Verdict("concircular", resid < tol, resid, tol,
                   detail={"phi_min": phi.min(), "phi_max": phi.max(),
                           "phi_mean": phi.mean()})


def _isotropic_s(jet: FieldJet, tol: float) -> Verdict:
    """Fit of the symmetric lowered wind derivative to a pointwise multiple
    of the metric."""
    r, _ = rs_split(jet)
    phi = np.einsum("...ij,...ij->...", jet.hinv, r) / r.shape[-1]
    dev = r - phi[..., None, None] * jet.h
    resid = float(np.abs(dev).max())
    return Verdict("isotropic_S", resid < tol, resid, tol,
                   detail={"phi_min": phi.min(), "phi_max": phi.max(),
                           "phi_mean": phi.mean()})


def torsion_vanishing_test(nav: NavigationData, grid=None, tol: float = 1e-8,
                           per_axis: Optional[int] = None,
                           n_dirs: int = 8) -> Verdict:
    """Sup of |torsion components| over grid points and fiber directions."""
    return _torsion_vanishes(_grid_jet(nav, grid, per_axis),
                             _fiber_directions(nav, n_dirs), tol)


def concircular_test(nav: NavigationData, grid=None, tol: float = 1e-8,
                     per_axis: Optional[int] = None) -> Verdict:
    """Concircularity verdict over the grid; see _concircular."""
    return _concircular(_grid_jet(nav, grid, per_axis), tol)


def wind_integral_curves(nav: NavigationData, x0s, time_span: float,
                         dt: float = 1e-3) -> list:
    """Integrate the wind flow xd = W(x) from each row of x0s, in lockstep
    with a step of about dt that lands on time_span; a curve stops early at
    the chart edge. Returns one (ts, xs) per start, xs sampled every step."""
    steps, dt = nk.uniform_steps(time_span, dt)
    _, traj, stop = nk.rk4(lambda s, x: nav.wind.value(x), np.atleast_2d(x0s),
                           steps, dt, keep=True, inside=nav.chart.contains)
    return [(dt * np.arange(last + 1), traj[b, :last + 1])
            for b, last in enumerate(stop)]


# ---------------------------------------------------------------------------
# aggregate report


@dataclass
class ClassificationReport:
    wind_parallel: Verdict
    torsion_vanishes: Verdict
    berwald: Verdict
    wagner: Verdict
    concircular: Verdict
    isotropic_S: Verdict
    comparison: ComparisonReport
    n_grid: int

    def as_dict(self) -> dict:
        return {
            "n_grid": int(self.n_grid),
            "wind_parallel": self.wind_parallel.as_dict(),
            "torsion_vanishes": self.torsion_vanishes.as_dict(),
            "berwald": self.berwald.as_dict(),
            "wagner": self.wagner.as_dict(),
            "concircular": self.concircular.as_dict(),
            "isotropic_S": self.isotropic_S.as_dict(),
            "sprays_coincide": bool(self.comparison.sprays_coincide),
            "projectively_riemannian":
                bool(self.comparison.projectively_riemannian),
            "spray_comparison": self.comparison.as_dict(),
        }

    def summary_lines(self) -> list:
        flags = [
            ("wind_parallel", self.wind_parallel),
            ("torsion_vanishes", self.torsion_vanishes),
            ("berwald (= wind_parallel)", self.berwald),
            ("wagner", self.wagner),
            ("concircular", self.concircular),
            ("isotropic_S", self.isotropic_S),
        ]
        lines = [f"classified on {self.n_grid} grid points "
                 "(verdicts mean: numerically indistinguishable from the "
                 "class at the stated tolerance)"]
        for label, v in flags:
            lines.append(f"  {label:28s} {str(v.passed):5s} "
                         f"residual {v.residual:.3e} (tol {v.tol:.1e})")
        lines.append(f"  {'sprays_coincide':28s} "
                     f"{str(self.comparison.sprays_coincide):5s} "
                     f"sup {self.comparison.sup_natural_vs_randers:.3e}")
        lines.append(f"  {'projectively_riemannian':28s} "
                     f"{str(self.comparison.projectively_riemannian):5s} "
                     f"residual {self.comparison.projective_residual:.3e}")
        return lines


def _decisively(verdict_residual: float, tol: float):
    """(clearly in class, clearly out of class) with a factor-10 slack band
    in between where no contradiction is declared."""
    return verdict_residual < 0.1 * tol, verdict_residual > 10.0 * tol


def classification_report(nav: NavigationData, grid=None,
                          per_axis: Optional[int] = None,
                          tol: float = 1e-8, n_dirs: int = 8,
                          comparison: Optional[ComparisonReport] = None) -> ClassificationReport:
    """Run every class test plus the spray comparison and cross-check the
    equivalences the tests are supposed to observe."""
    grid = _default_grid(nav, grid, per_axis)
    jet = field_jet(nav, grid[:, None, :])
    wp = _wind_parallel(jet, tol)
    tv = _torsion_vanishes(jet, _fiber_directions(nav, n_dirs), tol)
    wg = _wagner(np.sqrt(np.einsum("...i,...i->...", jet.W, jet.hW)), tol)
    cc = _concircular(jet, tol)
    iso = _isotropic_s(jet, tol)
    if comparison is None:
        comparison = jet_compare_sprays(jet, grid)
    bw = Verdict("berwald", wp.passed, wp.residual, wp.tol,
                 detail=dict(wp.detail))

    wp_in, wp_out = _decisively(wp.residual, wp.tol)
    tv_in, tv_out = _decisively(tv.residual, tv.tol)
    if (wp_in and tv_out) or (tv_in and wp_out):
        raise InconsistentVerdicts(
            "torsion_vanishes and wind_parallel disagree decisively: "
            f"residuals {tv.residual:.3e} vs {wp.residual:.3e}")
    cc_in, cc_out = _decisively(cc.residual, cc.tol)
    sc_in, sc_out = _decisively(comparison.sup_natural_vs_randers,
                                comparison.tol_coincide)
    if (cc_in and sc_out) or (sc_in and cc_out):
        raise InconsistentVerdicts(
            "concircular and sprays_coincide disagree decisively: "
            f"residuals {cc.residual:.3e} vs "
            f"{comparison.sup_natural_vs_randers:.3e}")

    return ClassificationReport(wind_parallel=wp, torsion_vanishes=tv,
                                berwald=bw, wagner=wg, concircular=cc,
                                isotropic_S=iso, comparison=comparison,
                                n_grid=len(grid))

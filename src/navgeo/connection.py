"""The nonlinear connection induced by navigation data.

The coefficients have one lower index, Gamma[k, i], and are positively
1-homogeneous in the fiber variable but not linear:

    Gamma^k_i(x, y) = A^k_is y^s - F(x, y) (A^k_is W^s + dW^k/dx^i)

where A are the Levi-Civita coefficients of the metric. They are kept
strictly separate from the two-lower-index Christoffel symbols; conflating
the two is the classic way to get silently wrong transports.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import ZeroVector
from .geometry import (FieldJet, MetricField, NavigationData, TangentSample,
                       VectorField, christoffel, field_jet, _norm_from_parts)


@dataclass(frozen=True)
class TorsionEval:
    at: TangentSample
    components: np.ndarray  # t[k, i, j], antisymmetric in (i, j)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.components).max())


# ---------------------------------------------------------------------------
# coefficients on a field jet (fiber axes broadcast against the jet's)


def jet_gamma(jet: FieldJet, y) -> np.ndarray:
    """Gamma[..., k, i] = A^k_is y^s - F M^k_i (zero fibers allowed, where
    the value is zero by homogeneity)."""
    y = np.asarray(y, dtype=float)
    return (np.einsum("...kis,...s->...ki", jet.A, y)
            - jet.norm(y)[..., None, None] * jet.M)


def _gamma_generic(jet: FieldJet, y_comps):
    """Gamma with the fiber given as a list of generic scalars (floats,
    arrays, or duals); every contraction is spelled out so dual slots ride
    through untouched. Returns a nested list [k][i]."""
    n = len(y_comps)
    wy = sum(y_comps[i] * jet.hW[..., i] for i in range(n))
    yy = sum(y_comps[i] * y_comps[j] * jet.h[..., i, j]
             for i in range(n) for j in range(n))
    f = _norm_from_parts(wy, yy, jet.lam)
    return [[sum(jet.A[..., k, i, s] * y_comps[s] for s in range(n))
             - f * jet.M[..., k, i] for i in range(n)] for k in range(n)]


def jet_gamma_fiber_jacobian(jet: FieldJet, y) -> tuple[np.ndarray, np.ndarray]:
    """Gamma[..., k, i] and dGamma[..., j, k, i] = d(Gamma^k_i)/d(y^j) from
    one dual sweep through the full coefficient evaluation that seeds all n
    fiber directions at once (no closed-form shortcut)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    lead = np.broadcast_shapes(jet.lam.shape, y.shape[:-1])
    seeds = np.eye(n).reshape((n, n) + (1,) * len(lead))
    rows = _gamma_generic(jet, [nk.Dual(y[..., i], seeds[i]) for i in range(n)])
    gam = np.empty(lead + (n, n))
    dgam = np.empty((n,) + lead + (n, n))
    for k in range(n):
        for i in range(n):
            gam[..., k, i] = rows[k][i].val
            dgam[..., k, i] = rows[k][i].dot
    return gam, np.moveaxis(dgam, 0, -3)


def jet_torsion(jet: FieldJet, y) -> np.ndarray:
    """t[..., k, i, j] = F_{y^j} M^k_i - F_{y^i} M^k_j; see
    torsion_components."""
    _, fy = jet.norm_and_grad(y)
    m = jet.M
    return (fy[..., None, None, :] * m[..., :, :, None]
            - fy[..., None, :, None] * m[..., :, None, :])


# ---------------------------------------------------------------------------
# Gamma and torsion at points of navigation data


def gamma_matrix(nav: NavigationData, x, y) -> np.ndarray:
    """Gamma[..., k, i] at a batch of tangent samples (zero fibers allowed,
    where the value is zero by homogeneity)."""
    return jet_gamma(field_jet(nav, x), y)


def torsion_components(nav: NavigationData, x, y) -> np.ndarray:
    """t[..., k, i, j] from the closed-form expansion

        t^k_ij = F_{y^j} (nabla_i W)^k - F_{y^i} (nabla_j W)^k,

    (nabla the metric's covariant derivative). Antisymmetric in (i, j) and
    identically zero exactly when the wind is parallel.
    """
    return jet_torsion(field_jet(nav, x), y)


def torsion_from_duals(nav: NavigationData, x, y) -> np.ndarray:
    """t[..., k, i, j] = dGamma^k_j/dy^i - dGamma^k_i/dy^j via dual sweeps;
    the independent route used to cross-check torsion_components."""
    # axes [..., deriv dir, k, lower]
    dg = jet_gamma_fiber_jacobian(field_jet(nav, x), y)[1]
    term1 = np.einsum("...ikj->...kij", dg)  # dGamma^k_j / dy^i
    term2 = np.einsum("...jki->...kij", dg)  # dGamma^k_i / dy^j
    return term1 - term2


def torsion(nav: NavigationData, s: TangentSample) -> TorsionEval:
    if not np.any(s.y):
        raise ZeroVector("torsion needs a nonzero fiber vector")
    return TorsionEval(s, torsion_components(nav, s.x, s.y))


# ---------------------------------------------------------------------------
# covariant derivatives of vector fields


def _levi_civita_derivative(a, xv, yv, jy) -> np.ndarray:
    """X^i (dY^k/dx^i + A^k_is Y^s) from the values of X, Y and dY."""
    return np.einsum("...ki,...i->...k", jy, xv) \
        + np.einsum("...kis,...s,...i->...k", a, yv, xv)


def riemann_covariant_derivative(metric: MetricField, xfield: VectorField,
                                 yfield: VectorField, x) -> np.ndarray:
    """(nabla_X Y)^k = X^i (dY^k/dx^i + A^k_is Y^s) for the metric connection."""
    x = np.asarray(x, dtype=float)
    return _levi_civita_derivative(christoffel(metric, x), xfield.value(x),
                                   *yfield.value_and_jacobian(x))


def covariant_derivative(nav: NavigationData, xfield: VectorField,
                         yfield: VectorField, x) -> np.ndarray:
    """Covariant derivative for the nonlinear connection:

        nabla_X Y = nabla^h_X Y - F(Y) nabla^h_X W.

    Well defined also where Y vanishes (F(0) = 0 kills the correction).
    """
    x = np.asarray(x, dtype=float)
    jet = field_jet(nav, x)
    xv = xfield.value(x)
    yv, jy = yfield.value_and_jacobian(x)
    wind_term = np.einsum("...ki,...i->...k", jet.M, xv)  # nabla^h_X W
    return (_levi_civita_derivative(jet.A, xv, yv, jy)
            - jet.norm(yv)[..., None] * wind_term)


def covariant_derivative_via_connection(nav: NavigationData, xfield: VectorField,
                                        yfield: VectorField, x) -> np.ndarray:
    """Same derivative assembled from the connection coefficients,
    X^i (dY^k/dx^i + Gamma^k_i(x, Y)); used as a consistency route."""
    x = np.asarray(x, dtype=float)
    xv = xfield.value(x)
    yv, jy = yfield.value_and_jacobian(x)
    g = gamma_matrix(nav, x, yv)
    return np.einsum("...ki,...i->...k", jy, xv) \
        + np.einsum("...ki,...i->...k", g, xv)

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

from .errors import ZeroVector
from .geometry import (FieldJet, MetricField, NavigationData, TangentSample,
                       VectorField, christoffel, field_jet)


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


def jet_torsion(jet: FieldJet, y) -> np.ndarray:
    """t[..., k, i, j] = F_{y^j} M^k_i - F_{y^i} M^k_j, with F_y in closed
    form (FieldValues.norm_and_grad); see torsion_components."""
    _, fy = jet.norm_and_grad(y)
    p = fy[..., None, None, :] * jet.M[..., :, :, None]  # F_{y^j} M^k_i
    return p - np.swapaxes(p, -1, -2)


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

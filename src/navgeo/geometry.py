"""Charts, metric and wind fields, field jets, Randers norms, and validation.

Everything here is vectorized over leading batch axes: a point argument may
be a single (n,) vector or any (..., n) stack, and results keep the leading
shape. That convention is what makes transports and grid sweeps cheap.

The geometry depends on the base point only through the 1-jet (h, dh, W,
dW) of the navigation data. `field_jet` evaluates it once per batch of base
points, and fiber-dependent quantities take `(jet, y)`: a jet built at
x[..., None, :] broadcasts over a (..., D, n) batch of fiber vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import exprlang, numkernel as nk
from .errors import GradientAtZero, NavGeoError

# ---------------------------------------------------------------------------
# chart domains


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if np.any(self.hi <= self.lo):
            raise ValueError("box needs lo < hi componentwise")


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("ball needs a positive radius")


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart: dimension plus an open box or ball domain."""

    dim: int
    domain: Box | Ball

    def __post_init__(self):
        if not 2 <= self.dim <= 4:
            raise ValueError("supported dimensions are 2, 3, 4")

    def contains(self, x, margin: float = 0.0):
        """Strict interior test; margin shrinks the domain toward its center."""
        x = np.asarray(x, dtype=float)
        if isinstance(self.domain, Ball):
            r = np.linalg.norm(x - self.domain.center, axis=-1)
            return r < self.domain.radius * (1.0 - margin)
        half = 0.5 * (self.domain.hi - self.domain.lo) * (1.0 - margin)
        center = 0.5 * (self.domain.hi + self.domain.lo)
        return np.all(np.abs(x - center) < half, axis=-1)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(self.domain, Ball):
            return (self.domain.center - self.domain.radius,
                    self.domain.center + self.domain.radius)
        return self.domain.lo, self.domain.hi

    def sample_interior(self, count: int, margin: float = 0.0) -> np.ndarray:
        """Deterministic quasi-random interior points: the first `count`
        points of a Kronecker sequence over the bounding box that lie in
        the (shrunk) domain. The sequence is drawn in blocks, each sized by
        the share of candidates kept so far."""
        lo, hi = self.bounding_box()
        alpha = _kronecker_alphas(self.dim)
        kept, have, k, block = [np.empty((0, self.dim))], 0, 0, max(count, 64)
        while have < count:
            u = np.arange(k, k + block, dtype=float)[:, None] * alpha
            u += 0.5
            u -= np.floor(u)  # the fractional part, as np.mod(u, 1) for u > 0
            u *= hi - lo
            u += lo
            inside = self.contains(u, margin)
            kept.append(u if inside.all() else u[inside])
            have += len(kept[-1])
            k += block
            block = max(int(1.1 * (count - have) * k / max(have, 1)), 64)
        return np.concatenate(kept)[:count]

    def grid(self, per_axis: int, margin: float = 0.02) -> np.ndarray:
        """Cartesian product grid clipped to the (shrunk) domain interior."""
        lo, hi = self.bounding_box()
        # endpoints sit strictly inside the shrunk open domain, not on it
        pad = (0.5 * margin + 1e-9) * (hi - lo)
        axes = [np.linspace(lo[i] + pad[i], hi[i] - pad[i], per_axis)
                for i in range(self.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        inside = mesh[self.contains(mesh, margin)]
        if not len(inside):
            raise NavGeoError(
                f"a grid with per_axis={per_axis} (--per-axis) has no point in the "
                f"{type(self.domain).__name__.lower()} chart within {lo}..{hi}")
        return inside


def _kronecker_alphas(d: int) -> np.ndarray:
    # generalized golden-ratio lattice: phi solves phi^(d+1) = phi + 1
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return np.array([phi ** -(j + 1) for j in range(d)])


# ---------------------------------------------------------------------------
# expression-backed fields


class VectorField:
    """A vector field with one expression per component.

    Serves winds, covariant-derivative arguments, and test fields alike.
    """

    def __init__(self, components: Sequence[exprlang.Expression]):
        self.components = tuple(components)
        self.dim = len(self.components)

    @classmethod
    def from_strings(cls, exprs: Sequence[str], n: int) -> "VectorField":
        return cls([exprlang.parse(s, n) for s in exprs])

    def value(self, x) -> np.ndarray:
        return exprlang.evaluate(self.components, x)

    def jacobian(self, x) -> np.ndarray:
        """J[..., k, i] = d(component k)/d(x^i), via dual evaluation."""
        return self.value_and_jacobian(x)[1]

    def value_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Value [..., k] and Jacobian [..., k, i] from one dual sweep."""
        return exprlang.evaluate_dual(self.components, x)


class MetricField:
    """Symmetric metric field h_ij(x) given by upper-triangle expressions."""

    def __init__(self, upper: Sequence[Sequence[exprlang.Expression]]):
        n = len(upper)
        for i, row in enumerate(upper):
            if len(row) != n - i:
                raise ValueError("upper triangle rows must shrink by one")
        self.dim = n
        self.upper = tuple(tuple(row) for row in upper)
        # the upper triangle row by row, one stack for every sweep, and the
        # index of entry (i, j) in it
        self.entries = tuple(e for row in self.upper for e in row)
        iu, ju = np.triu_indices(n)
        self._sym = np.empty((n, n), dtype=int)
        self._sym[iu, ju] = self._sym[ju, iu] = np.arange(len(self.entries))

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]], n: int) -> "MetricField":
        return cls([[exprlang.parse(s, n) for s in row] for row in rows])

    def value(self, x) -> np.ndarray:
        return self._assemble(exprlang.evaluate(self.entries, x))

    def derivatives(self, x) -> np.ndarray:
        """dh[..., k, i, j] = d(h_ij)/d(x^k), via dual evaluation."""
        return self.value_and_derivatives(x)[1]

    def value_and_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """h[..., i, j] and dh[..., k, i, j] = d(h_ij)/d(x^k) from one dual
        sweep over the upper triangle."""
        return self._assemble(*exprlang.evaluate_dual(self.entries, x))

    def _assemble(self, val: np.ndarray, grad: Optional[np.ndarray] = None):
        """h[..., i, j] from the stacked entry values val[..., m] (with grad
        [..., m, k] also dh[..., k, i, j]), gathered into fresh contiguous
        arrays. The indices are in range by construction, and mode="clip"
        gathers faster than the default bounds-checked mode."""
        h = np.take(val, self._sym, axis=-1, mode="clip")
        if grad is None:
            return h
        return h, np.take(np.swapaxes(grad, -1, -2), self._sym, axis=-1,
                          mode="clip")


@dataclass(frozen=True)
class TangentSample:
    """A base point with a fiber vector attached."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("base point and fiber vector must be 1-d and equal length")


@dataclass(frozen=True)
class NavigationData:
    """A metric field plus a wind field on one chart; the wind must stay
    h-shorter than 1 for the induced norm to be positive (checked by
    validate(), not the constructor)."""

    chart: Chart
    metric: MetricField
    wind: VectorField

    @property
    def dim(self) -> int:
        return self.chart.dim

    def inner(self, x, u, v) -> np.ndarray:
        h = self.metric.value(x)
        return np.einsum("...ij,...i,...j->...", h, np.asarray(u, float), np.asarray(v, float))

    def h_norm(self, x, v) -> np.ndarray:
        return np.sqrt(self.inner(x, v, v))


# ---------------------------------------------------------------------------
# Christoffel symbols and the field jet


def _levi_civita(hinv: np.ndarray, dh: np.ndarray) -> np.ndarray:
    # T[..., l, i, j] = d_i h_jl + d_j h_il - d_l h_ij
    t = (np.einsum("...ijl->...lij", dh)
         + np.einsum("...jil->...lij", dh)
         - dh)
    return 0.5 * np.einsum("...kl,...lij->...kij", hinv, t)


def christoffel(metric: MetricField, x) -> np.ndarray:
    """Levi-Civita coefficients A[..., k, i, j] of the metric field.

    A^k_ij = h^kl (d_i h_jl + d_j h_il - d_l h_ij) / 2, symmetric in (i, j).
    """
    h, dh = metric.value_and_derivatives(x)
    return _levi_civita(nk.spd_inverse(h), dh)


@dataclass(frozen=True)
class FieldValues:
    """h, W, hW = h W and lam = 1 - |W|_h^2 at a batch of base points, with
    the navigation norm on fiber vectors y that broadcast against them."""

    h: np.ndarray
    W: np.ndarray
    hW: np.ndarray
    lam: np.ndarray

    @classmethod
    def of(cls, h, w, **derivatives):
        """Values from h and W; a subclass passes its derivative fields."""
        hw = np.einsum("...ij,...j->...i", h, w)
        return cls(h=h, W=w, hW=hw, lam=1.0 - np.einsum("...i,...i->...", w, hw),
                   **derivatives)

    def norm(self, y) -> np.ndarray:
        """F(x, y); F(x, 0) = 0."""
        return _norm(self.h, self.hW, self.lam, y)

    def norm_and_grad(self, y) -> tuple[np.ndarray, np.ndarray]:
        """F and dF/dy^i from one dual sweep seeding all fiber directions;
        raises at y = 0."""
        y = np.asarray(y, dtype=float)
        if np.any(np.all(y == 0.0, axis=-1)):
            raise GradientAtZero("norm gradient requested at the zero vector")
        hy = np.einsum("...ij,...j->...i", self.h, y)
        wy = nk.Dual(np.einsum("...i,...i->...", y, self.hW),
                     _slots(self.hW, hy.shape[:-1]))
        yy = nk.Dual(np.einsum("...i,...i->...", y, hy),
                     2.0 * _slots(hy, hy.shape[:-1]))
        f = _norm_from_parts(wy, yy, self.lam)
        return np.asarray(f.val), np.moveaxis(f.dot, 0, -1)


def field_values(nav: NavigationData, x) -> FieldValues:
    """The values of nav at x (..., n), from value walks only."""
    return FieldValues.of(nav.metric.value(x), nav.wind.value(x))


@dataclass(frozen=True)
class FieldJet(FieldValues):
    """The 1-jet of navigation data at a batch of base points: the values
    plus hinv = h^-1, dh[..., k, i, j] = d_k h_ij, the Levi-Civita symbols
    A[..., k, i, j], dW[..., k, i] = d_i W^k and the covariant wind
    derivative M[..., k, i] = (nabla_i W)^k."""

    dh: np.ndarray
    hinv: np.ndarray
    A: np.ndarray
    dW: np.ndarray
    M: np.ndarray

    def norm_grad_x(self, y) -> np.ndarray:
        """dF/dx^i at fixed y, from dh and dW in one dual sweep."""
        y = np.asarray(y, dtype=float)
        h, w, dh, dw = self.h, self.W, self.dh, self.dW
        lead = np.broadcast_shapes(self.lam.shape, y.shape[:-1])
        q = "...kij,...i,...j->...k"  # contracts dh[..., k, i, j] = d_k h_ij
        lam = nk.Dual(self.lam, -_slots(
            np.einsum(q, dh, w, w)
            + 2.0 * np.einsum("...ij,...ik,...j->...k", h, dw, w), lead))
        wy = nk.Dual(np.einsum("...i,...i->...", y, self.hW), _slots(
            np.einsum(q, dh, y, w)
            + np.einsum("...ij,...i,...jk->...k", h, y, dw), lead))
        yy = nk.Dual(np.einsum("...ij,...i,...j->...", h, y, y),
                     _slots(np.einsum(q, dh, y, y), lead))
        return np.moveaxis(_norm_from_parts(wy, yy, lam).dot, 0, -1)


def field_jet(nav: NavigationData, x) -> FieldJet:
    """The jet of nav at x (..., n), from one dual sweep over the metric's
    upper triangle and the wind."""
    h, dh, w, dw = _jet_entries(nav, x)
    hinv = nk.spd_inverse(h)
    a = _levi_civita(hinv, dh)
    return FieldJet.of(h, w, dh=dh, hinv=hinv, A=a, dW=dw,
                       M=dw + np.einsum("...kis,...s->...ki", a, w))


def _jet_entries(nav: NavigationData, x) -> tuple:
    """h, dh, W, dW as contiguous arrays; the stacked sweep result is
    dropped on return, before the Levi-Civita symbols are built."""
    m = len(nav.metric.entries)
    val, grad = exprlang.evaluate_dual(nav.metric.entries + nav.wind.components, x)
    h, dh = nav.metric._assemble(val[..., :m], grad[..., :m, :])
    return h, dh, val[..., m:].copy(), grad[..., m:, :].copy()


def wind_covariant_jacobian(nav: NavigationData, x) -> np.ndarray:
    """M[..., k, i] = (covariant derivative of the wind along d/dx^i)^k."""
    return field_jet(nav, x).M


# ---------------------------------------------------------------------------
# the navigation (Randers-type) norm


def _norm_from_parts(wy, yy, lam):
    """F from the scalar pieces <y,W>_h, <y,y>_h, 1 - |W|_h^2.

    Generic over floats, arrays, and duals: this is the single code path for
    all derivatives of F.
    """
    q = wy * wy + lam * yy
    return (nk.sqrt(q) - wy) / lam


def _slots(a: np.ndarray, lead: tuple) -> np.ndarray:
    """Dual derivative slots from a[..., k] = d/d(k): broadcast over the full
    batch shape `lead` before the k axis moves first, so that a base point
    without batch axes still pairs with every fiber of a batch."""
    return np.moveaxis(np.broadcast_to(a, lead + a.shape[-1:]), -1, 0)


def _norm(h, hw, lam, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    wy = np.einsum("...i,...i->...", y, hw)
    yy = np.einsum("...ij,...i,...j->...", h, y, y)
    return np.asarray(_norm_from_parts(wy, yy, lam))


def randers_value(nav: NavigationData, x, y) -> np.ndarray:
    """Norm F(x, y) of the navigation data; F(x, 0) = 0."""
    return field_values(nav, x).norm(y)


def randers_alpha_beta(nav: NavigationData, x) -> tuple[np.ndarray, np.ndarray]:
    """Riemann-plus-one-form presentation of the same norm at base points
    x (..., n), as arrays alpha (..., n, n) and beta (..., n).

    beta_i = -(hW)_i / lam, alpha_ij = h_ij / lam + beta_i beta_j, and then
    sqrt(alpha(y,y)) + beta(y) reproduces F(x, y).
    """
    v = field_values(nav, x)
    beta = -v.hW / v.lam[..., None]
    alpha = v.h / v.lam[..., None, None] + beta[..., :, None] * beta[..., None, :]
    return alpha, beta


def fiber_directions(n: int, count: int,
                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """`count` directions in dimension n: an even angle grid in dimension 2,
    otherwise drawn from rng (seeded by the caller, default seed 0)."""
    if n == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return (rng or np.random.default_rng(0)).normal(size=(count, n))


def indicatrix(values: FieldValues, count: int,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """F-unit vectors (..., count, n) over field values whose batch ends in
    a fiber axis of length one: the h-unit sphere translated by the wind,
    along the same fiber_directions at every point."""
    dirs = fiber_directions(values.W.shape[-1], count, rng)
    norms = np.sqrt(np.einsum("...ij,...i,...j->...", values.h, dirs, dirs))
    return dirs / norms[..., None] + values.W


def indicatrix_points(nav: NavigationData, x, count: int = 24,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """F-unit vectors (..., count, n) at base points x (..., n); see
    `indicatrix`."""
    return indicatrix(field_values(nav, np.asarray(x, dtype=float)[..., None, :]),
                      count, rng)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    """What validate() found; the smallest metric eigenvalue over the
    sample is computed from the sampled metric when it is first read."""

    passed: bool
    n_points: int
    margin: float
    max_wind_norm: float
    min_lambda: float
    metric: np.ndarray = field(repr=False, compare=False)
    failures: list = field(default_factory=list)

    @cached_property
    def min_metric_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.metric).min())

    def as_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "n_points": int(self.n_points),
            "margin": float(self.margin),
            "min_metric_eigenvalue": self.min_metric_eigenvalue,
            "max_wind_norm": float(self.max_wind_norm),
            "min_lambda": float(self.min_lambda),
            "failures": self.failures,
        }


def validate(nav: NavigationData, points: Optional[np.ndarray] = None,
             n_points: int = 10_000, margin: float = 1e-6) -> ValidationReport:
    """Sample the chart and check positivity of h and the wind bound.

    h must be positive definite at every sampled point, decided by
    Sylvester's criterion on its L D L^T pivots, and the wind must satisfy
    |W|_h < 1 - margin there; the report carries witnesses for every
    violation kind found. Eigenvalues are computed only for the report
    (min_metric_eigenvalue) and for a witness's value.
    """
    if points is None:
        points = nav.chart.sample_interior(n_points)
    points = np.asarray(points, dtype=float)
    h = nav.metric.value(points)
    failures = []
    bad_metric = np.nonzero(~nk.positive_definite(h))[0]
    if bad_metric.size:
        i = int(bad_metric[0])
        failures.append({"kind": "metric_not_positive", "point": points[i].tolist(),
                         "value": float(np.linalg.eigvalsh(h[i]).min())})
    v = FieldValues.of(h, nav.wind.value(points))
    wnorm2 = np.einsum("...i,...i->...", v.W, v.hW)
    wnorm = np.sqrt(np.maximum(wnorm2, 0.0))
    bad_wind = np.nonzero(wnorm >= 1.0 - margin)[0]
    if bad_wind.size:
        i = int(bad_wind[0])
        failures.append({"kind": "wind_too_strong", "point": points[i].tolist(),
                         "value": float(wnorm[i])})
    return ValidationReport(
        passed=not failures,
        n_points=len(points),
        margin=margin,
        max_wind_norm=float(wnorm.max()),
        min_lambda=float(v.lam.min()),
        metric=h,
        failures=failures,
    )

"""Charts, metric and wind fields, field jets, Randers norms, and validation.

Everything here is vectorized over leading batch axes: a point argument may
be a single (n,) vector or any (..., n) stack, and results keep the leading
shape. That convention is what makes transports and grid sweeps cheap.

The geometry depends on the base point only through the 1-jet (h, dh, W,
dW) of the navigation data. `field_jet` evaluates it once per batch of base
points, and fiber-dependent quantities take `(jet, y)`: a jet built at
x[..., None, :] broadcasts over a (..., D, n) batch of fiber vectors. h^-1
and the Levi-Civita symbols, here and in the float stages, come from the
one set of generated lines of `stages.metric_lines`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import exprlang, numkernel as nk, stages
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
        """Strict interior test; margin shrinks the domain toward its center.

        Reads the coordinate columns x[..., i], so a coordinate-major
        (n, N) block passed as its transpose is read row by row. A ball
        sums (x_i - c_i)^2 in coordinate order, as np.linalg.norm does on
        a last axis of 2-4, and compares the root with the shrunk radius;
        a box compares every |x_i - center_i| with its shrunk half-width.
        """
        x = np.asarray(x, dtype=float)
        if isinstance(self.domain, Ball):
            c = self.domain.center
            d = x[..., 0] - c[0]
            d2 = d * d
            for i in range(1, self.dim):
                d = x[..., i] - c[i]
                d2 += d * d
            return np.sqrt(d2) < self.domain.radius * (1.0 - margin)
        half = 0.5 * (self.domain.hi - self.domain.lo) * (1.0 - margin)
        center = 0.5 * (self.domain.hi + self.domain.lo)
        inside = np.abs(x[..., 0] - center[0]) < half[0]
        for i in range(1, self.dim):
            inside &= np.abs(x[..., i] - center[i]) < half[i]
        return inside

    def float_contains(self):
        """`contains` as a predicate on one point, the first `dim` entries
        of a sequence of floats, with the same decision: the same sums,
        products and correctly rounded root in the same order."""
        n = self.dim
        if isinstance(self.domain, Ball):
            c = self.domain.center.tolist()
            radius = self.domain.radius

            def inside(v) -> bool:
                d2 = 0.0
                for i in range(n):
                    d = v[i] - c[i]
                    d2 += d * d
                return math.sqrt(d2) < radius
            return inside
        half = (0.5 * (self.domain.hi - self.domain.lo)).tolist()
        center = (0.5 * (self.domain.hi + self.domain.lo)).tolist()
        return lambda v: all(abs(v[i] - center[i]) < half[i]
                             for i in range(n))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(self.domain, Ball):
            return (self.domain.center - self.domain.radius,
                    self.domain.center + self.domain.radius)
        return self.domain.lo, self.domain.hi

    def sample_interior(self, count: int, margin: float = 0.0) -> np.ndarray:
        """Deterministic quasi-random interior points: the first `count`
        points of a Kronecker sequence over the bounding box that lie in
        the (shrunk) domain, as a (count, n) view of a coordinate-major
        array. The sequence is drawn in blocks, each sized by the share of
        candidates kept so far. A block is built coordinate by coordinate,
        each coordinate one contiguous row of k * alpha_i + 0.5 reduced
        mod 1 and mapped onto [lo_i, hi_i): the operations of the former
        point-major (N, n) blocks, now the test oracle, in the same order,
        so the points are the same bit for bit."""
        lo, hi = self.bounding_box()
        alpha = _kronecker_alphas(self.dim)[:, None]
        span, lo = (hi - lo)[:, None], lo[:, None]
        kept, have, k, block = [np.empty((self.dim, 0))], 0, 0, max(count, 64)
        while have < count:
            u = alpha * np.arange(k, k + block, dtype=float)
            u += 0.5
            u -= np.floor(u)  # the fractional part, as np.mod(u, 1) for u > 0
            u *= span
            u += lo
            inside = self.contains(u.T, margin)
            kept.append(u if inside.all() else u[:, inside])
            have += kept[-1].shape[1]
            k += block
            block = max(int(1.1 * (count - have) * k / max(have, 1)), 64)
        return np.concatenate(kept, axis=1)[:, :count].T

    @property
    def default_per_axis(self) -> int:
        """The grid resolution when none is given: the largest k <= 20 with
        k^dim <= 8000 points (20 in dimensions 2 and 3, 9 in dimension 4)."""
        return max(k for k in range(1, 21) if k ** self.dim <= 8000)

    def grid(self, per_axis: Optional[int] = None,
             margin: float = 0.02) -> np.ndarray:
        """Cartesian product grid clipped to the (shrunk) domain interior;
        per_axis defaults to default_per_axis."""
        if per_axis is None:
            per_axis = self.default_per_axis
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
        self.program = exprlang.compile_stack(self.components)

    @classmethod
    def from_strings(cls, exprs: Sequence[str], n: int) -> "VectorField":
        return cls([exprlang.parse(s, n) for s in exprs])

    def value(self, x) -> np.ndarray:
        return exprlang.evaluate(self.program, x)

    def jacobian(self, x) -> np.ndarray:
        """J[..., k, i] = d(component k)/d(x^i), from the gradient program."""
        return self.value_and_jacobian(x)[1]

    def value_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Value [..., k] and Jacobian [..., k, i] from one gradient sweep."""
        return exprlang.evaluate_dual(self.program, x)


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
        self.program = exprlang.compile_stack(self.entries)
        iu, ju = np.triu_indices(n)
        self._sym = np.empty((n, n), dtype=int)
        self._sym[iu, ju] = self._sym[ju, iu] = np.arange(len(self.entries))

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]], n: int) -> "MetricField":
        return cls([[exprlang.parse(s, n) for s in row] for row in rows])

    def value(self, x) -> np.ndarray:
        return self._assemble(exprlang.evaluate(self.program, x))

    def derivatives(self, x) -> np.ndarray:
        """dh[..., k, i, j] = d(h_ij)/d(x^k), from the gradient program."""
        return self.value_and_derivatives(x)[1]

    def value_and_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """h[..., i, j] and dh[..., k, i, j] = d(h_ij)/d(x^k) from one
        gradient sweep over the upper triangle."""
        return self._assemble(*exprlang.evaluate_dual(self.program, x))

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

    @cached_property
    def jet_program(self) -> exprlang.Program:
        """The metric's upper triangle and the wind as one stack."""
        return exprlang.compile_stack(self.metric.entries + self.wind.components)

    def inner(self, x, u, v) -> np.ndarray:
        h = self.metric.value(x)
        return np.einsum("...ij,...i,...j->...", h, np.asarray(u, float), np.asarray(v, float))

    def h_norm(self, x, v) -> np.ndarray:
        return np.sqrt(self.inner(x, v, v))


# ---------------------------------------------------------------------------
# Christoffel symbols and the field jet


def christoffel(metric: MetricField, x) -> np.ndarray:
    """Levi-Civita coefficients A[..., k, i, j] of the metric field.

    A^k_ij = h^kl (d_i h_jl + d_j h_il - d_l h_ij) / 2, symmetric in (i, j),
    from the metric's gradient sweep and the lines of
    `stages.metric_kernel`; raises NotPositiveDefinite where h is not
    positive definite.
    """
    val, grad = exprlang.evaluate_dual(metric.program, x)
    return stages.metric_kernel(metric.program)(val, grad)[1]


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
        return _norm_parts(self, y)[3]

    def norm_and_grad(self, y) -> tuple[np.ndarray, np.ndarray]:
        """F and dF/dy^i = F_a hW_i + 2 F_b (hy)_i, with the partials
        F_a = (a/s - 1)/lam and F_b = 1/(2s) of `_norm_parts`; raises at
        y = 0, where F is not differentiable."""
        y = np.asarray(y, dtype=float)
        if np.any(np.all(y == 0.0, axis=-1)):
            raise GradientAtZero("norm gradient requested at the zero vector")
        hy = np.einsum("...ij,...j->...i", self.h, y)
        a, _, s, f = _norm_parts(self, y, hy)
        f_a = (a / s - 1.0) / self.lam
        return f, f_a[..., None] * self.hW + hy / s[..., None]


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
        """dF/dx^i at fixed y, F_a da_i + F_b db_i + F_lam dlam_i, with
        the partials of `_norm_parts`, F_lam = (b/(2s) - F)/lam, and
        da_i = d_i h(y, W) + h(y, d_i W), db_i = d_i h(y, y) and
        dlam_i = -(d_i h(W, W) + 2 h(d_i W, W)). At y = 0 it is 0: F(x, 0)
        = 0 for every x, and there s = 0 is replaced by 1 in the partials,
        whose factors da, db and F then vanish."""
        y = np.asarray(y, dtype=float)
        h, w, dh, dw = self.h, self.W, self.dh, self.dW
        a, b, s, f = _norm_parts(self, y)
        zero = np.all(y == 0.0, axis=-1)
        if zero.any():
            s = np.where(zero, 1.0, s)
        q = "...kij,...i,...j->...k"  # contracts dh[..., k, i, j] = d_k h_ij
        da = (np.einsum(q, dh, y, w)
              + np.einsum("...ij,...i,...jk->...k", h, y, dw))
        db = np.einsum(q, dh, y, y)
        dlam = -(np.einsum(q, dh, w, w)
                 + 2.0 * np.einsum("...ij,...ik,...j->...k", h, dw, w))
        f_a = (a / s - 1.0) / self.lam
        f_lam = (0.5 * b / s - f) / self.lam
        return (f_a[..., None] * da + (0.5 / s)[..., None] * db
                + f_lam[..., None] * dlam)


def field_jet(nav: NavigationData, x) -> FieldJet:
    """The jet of nav at x (..., n), from one gradient sweep over the
    metric's upper triangle and the wind; h^-1 and the Levi-Civita symbols
    come from the lines of `stages.metric_kernel` run on the sweep's
    metric columns, and raise NotPositiveDefinite where h is not positive
    definite."""
    m = len(nav.metric.entries)
    val, grad = exprlang.evaluate_dual(nav.jet_program, x)
    hinv, a = stages.metric_kernel(nav.metric.program)(val, grad)
    h, dh = nav.metric._assemble(val[..., :m], grad[..., :m, :])
    w, dw = val[..., m:].copy(), grad[..., m:, :].copy()
    return FieldJet.of(h, w, dh=dh, hinv=hinv, A=a, dW=dw,
                       M=dw + np.einsum("...kis,...s->...ki", a, w))


def wind_covariant_jacobian(nav: NavigationData, x) -> np.ndarray:
    """M[..., k, i] = (covariant derivative of the wind along d/dx^i)^k."""
    return field_jet(nav, x).M


# ---------------------------------------------------------------------------
# the navigation (Randers-type) norm


def _norm_parts(v: FieldValues, y, hy: Optional[np.ndarray] = None) -> tuple:
    """a = <y, W>_h, b = |y|_h^2, s = sqrt(a^2 + lam b) and the norm
    F = (s - a) / lam, which depends on y only through a and b. Its
    partials F_a = (a/s - 1)/lam, F_b = 1/(2s) and F_lam = (b/(2s) - F)/lam
    give every derivative of F by the chain rule. A caller that holds
    hy = h y passes it, and b = <y, hy> then costs one cheap contraction
    in place of the three-operand one (several times slower on grids)."""
    y = np.asarray(y, dtype=float)
    a = np.einsum("...i,...i->...", y, v.hW)
    b = (np.einsum("...ij,...i,...j->...", v.h, y, y) if hy is None
         else np.einsum("...i,...i->...", y, hy))
    s = np.sqrt(a * a + v.lam * b)
    return a, b, s, np.asarray((s - a) / v.lam)


def randers_value(nav: NavigationData, x, y) -> np.ndarray:
    """Norm F(x, y) of the navigation data; F(x, 0) = 0."""
    return field_values(nav, x).norm(y)


def fiber_csv(nav: NavigationData, ts, xs, ys, letter: str, stream) -> None:
    """CSV rows t, x*, <letter>*, F(x, <letter>) of base points xs (T, n)
    with fiber vectors ys at parameters ts, numbers to 17 digits."""
    n = xs.shape[1]
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"{letter}{i + 1}" for i in range(n)] + ["F"])
    rows = np.column_stack([ts, xs, ys, randers_value(nav, xs, ys)]).tolist()
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n" + "".join(fmt % tuple(r) for r in rows))


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
    w = nav.wind.value(points)
    # the two einsums of FieldValues.of, so min_lambda is its lam bit for bit
    wnorm2 = np.einsum("...i,...i->...", w, np.einsum("...ij,...j->...i", h, w))
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
        min_lambda=float((1.0 - wnorm2).min()),
        metric=h,
        failures=failures,
    )

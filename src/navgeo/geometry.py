"""Charts, metric and wind fields, field jets, Randers norms, and validation.

Everything here is vectorized over leading batch axes: a point argument may
be a single (n,) vector or any (..., n) stack, and results keep the leading
shape. That convention is what makes transports and grid sweeps cheap.

The geometry depends on the base point only through the covariant 1-jet
(h, W, h^-1, A, M) of the navigation data: the values, the Levi-Civita
symbols A and the covariant wind derivative M = nabla W. `field_jet`
evaluates it once per batch of base points, and fiber-dependent
quantities take `(jet, y)`: a jet built at x[..., None, :] broadcasts
over a (..., D, n) batch of fiber vectors. A grid kernel takes a jet at
the grid points (`grid_jet`) in blocks (`jet_blocks`), its fibers as the
columns of (p, n, D) arrays; it reads the norm on their rows through
`fiber_rows`. The jet, the values, the Levi-Civita symbols and the metric
are each one call of a generated program (`stages.field_program`) whose
lines the float stages share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import exprlang, stages
from .errors import GradientAtZero, NavGeoError, NonFiniteState

# ---------------------------------------------------------------------------
# chart domains


def _require_finite_extent(lo: np.ndarray, hi: np.ndarray) -> None:
    """Refuse a bounding box lo..hi whose squared diagonal is not finite (a
    bound that is not finite makes it inf or NaN), so that no squared
    distance within it overflows (in `Chart.contains`, say)."""
    sides = [h - l for l, h in zip(lo.tolist(), hi.tolist())]
    if not math.isfinite(sum(s * s for s in sides)):
        raise ValueError(f"domain needs finite bounds and a finite squared "
                         f"extent, got {lo}..{hi}")


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        _require_finite_extent(self.lo, self.hi)
        if np.any(self.hi <= self.lo):
            raise ValueError("box needs lo < hi componentwise")


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        _require_finite_extent(self.center - self.radius,
                               self.center + self.radius)
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
        candidates kept so far, and NavGeoError ends a draw that reaches
        SAMPLE_BUDGET candidates per point (at least 64 points) short of
        `count` points. A block is built coordinate by coordinate,
        each coordinate one contiguous row of k * alpha_i + 0.5 reduced
        mod 1 and mapped onto [lo_i, hi_i): the operations of the former
        point-major (N, n) blocks, now the test oracle, in the same order,
        so the points are the same bit for bit."""
        lo, hi = self.bounding_box()
        alpha = _kronecker_alphas(self.dim)[:, None]
        span, lo = (hi - lo)[:, None], lo[:, None]
        kept, have, k, block = [np.empty((self.dim, 0))], 0, 0, max(count, 64)
        budget = SAMPLE_BUDGET * block
        while have < count:
            if k == budget:
                box = "..".join(map(str, self.bounding_box()))
                raise NavGeoError(
                    f"{k} candidates gave {have} of {count} points inside the "
                    f"{type(self.domain).__name__.lower()} chart within {box}"
                    f" at margin {margin}")
            block = min(block, budget - k)
            u = alpha * np.arange(k, k + block, dtype=float)
            u += 0.5
            u -= np.floor(u)  # the fractional part, as np.mod(u, 1) for u > 0
            u *= span
            u += lo
            inside = self.contains(u.T, margin)
            kept.append(u if inside.all() else np.compress(inside, u, axis=1))
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


# The most candidates `Chart.sample_interior` draws per point it returns: a
# domain (shrunk by its margin) that holds less than 1% of its bounding box
# is refused rather than sampled without bound.
SAMPLE_BUDGET = 100


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
        # the upper triangle row by row, one stack for every sweep
        self.entries = tuple(e for row in self.upper for e in row)
        self.program = exprlang.compile_stack(self.entries)

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]], n: int) -> "MetricField":
        return cls([[exprlang.parse(s, n) for s in row] for row in rows])

    def value(self, x) -> np.ndarray:
        return stages.field_program(self.program, ("h",))(x)[0]


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
    from the metric's own field program; raises NotPositiveDefinite, naming
    the first point, where h is not positive definite.
    """
    return stages.field_program(metric.program, ("A",))(x)[0]


@dataclass(frozen=True)
class FieldValues:
    """h, W, hW = h W and lam = 1 - |W|_h^2 at a batch of base points, with
    the navigation norm on fiber vectors y that broadcast against them."""

    h: np.ndarray
    W: np.ndarray
    hW: np.ndarray
    lam: np.ndarray

    def norm(self, y) -> np.ndarray:
        """F(x, y); F(x, 0) = 0."""
        return _norm_parts(self, y)[3]

    def norm_and_grad(self, y) -> tuple[np.ndarray, np.ndarray]:
        """F and dF/dy^i = F_a hW_i + 2 F_b (hy)_i, with the partials
        F_a = (a/s - 1)/lam and F_b = 1/(2s) of `_norm_parts`; raises at
        y = 0, where F is not differentiable. On a fiber so short that s
        underflows to 0, the gradient is not finite, with no warning."""
        y = np.asarray(y, dtype=float)
        if np.any(np.all(y == 0.0, axis=-1)):
            raise GradientAtZero("norm gradient requested at the zero vector")
        hy = np.einsum("...ij,...j->...i", self.h, y)
        a, _, s, f = _norm_parts(self, y, hy)
        with np.errstate(divide="ignore", invalid="ignore"):
            f_a = (a / s - 1.0) / self.lam
            return f, f_a[..., None] * self.hW + hy / s[..., None]


def field_values(nav: NavigationData, x) -> FieldValues:
    """The values of nav at x (..., n), from the jet program's values."""
    return FieldValues(*stages.field_program(nav.jet_program,
                                             stages.JET_FIELDS[:4])(x))


@dataclass(frozen=True)
class FieldJet(FieldValues):
    """The covariant 1-jet of navigation data at a batch of base points:
    the values plus hinv = h^-1, the Levi-Civita symbols A[..., k, i, j]
    and the covariant wind derivative M[..., k, i] = (nabla_i W)^k. The
    raw derivatives of h and W are not kept: an x-derivative of F comes
    from the connection, as dF/dx^i = Gamma^k_i dF/dy^k. A grid jet
    (`grid_jet`) has A = None."""

    hinv: np.ndarray
    A: Optional[np.ndarray]
    M: np.ndarray


def field_jet(nav: NavigationData, x) -> FieldJet:
    """The jet of nav at x (..., n), from the jet program's values and
    gradients; raises NotPositiveDefinite, naming the first point, where h
    is not positive definite."""
    return FieldJet(*stages.field_program(nav.jet_program,
                                          stages.JET_FIELDS)(x))


# Fibers per block of a grid kernel, 512 points x 16 directions: a block's
# (p, n, D) arrays stay within 256 KB, so that a kernel's temporaries stay
# in cache however large the grid.
GRID_FIBERS = 8192


def grid_jet(nav: NavigationData, points) -> FieldJet:
    """The jet of nav at grid points (P, n) without the Levi-Civita
    symbols (A = None), which no grid kernel reads: in 4D their n^3
    strided entries cost more than the rest of the jet."""
    h, w, hw, lam, hinv, m = stages.field_program(
        nav.jet_program, ("h", "W", "hW", "lam", "hinv", "M"))(points)
    return FieldJet(h, w, hw, lam, hinv, None, m)


def jet_blocks(jet: FieldJet, n_dirs: int):
    """Views of a jet at points (P, ...) over consecutive blocks of at
    most GRID_FIBERS // n_dirs points, so that a block's fiber arrays
    (p, n, n_dirs) hold at most GRID_FIBERS fibers."""
    step = max(1, GRID_FIBERS // n_dirs)
    for start in range(0, len(jet.W), step):
        yield FieldJet(*(None if a is None else a[start:start + step]
                         for a in vars(jet).values()))


def fiber_rows(values: FieldValues) -> FieldValues:
    """The values at points (P, ...) as views with a fiber axis of length
    one, (P, 1, ...), so that the norm takes fiber rows (P, D, n)."""
    return FieldValues(values.h[:, None], values.W[:, None],
                       values.hW[:, None], values.lam[:, None])


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
    with fiber vectors ys at parameters ts, numbers to 17 digits; before
    any row, NonFiniteState names the first sample whose F is not finite."""
    n = xs.shape[1]
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"{letter}{i + 1}" for i in range(n)] + ["F"])
    with np.errstate(over="ignore", invalid="ignore"):
        f = randers_value(nav, xs, ys)
    if not np.isfinite(f).all():
        j = np.argmin(np.isfinite(f))
        raise NonFiniteState(
            f"navigation norm of sample {j} (t={ts[j]:.6g}, point "
            f"{xs[j].tolist()}, {letter} {ys[j].tolist()}) is not finite")
    rows = np.column_stack([ts, xs, ys, f]).tolist()
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
    """F-unit vectors as the columns (..., n, count) over field values at
    points (...): the h-unit sphere translated by the wind, along the same
    fiber_directions at every point. The squared h-lengths of the
    directions u are one matmul of h against the products u u^T."""
    n = values.W.shape[-1]
    # C order, so that the result keeps each point's fibers contiguous
    cols = np.ascontiguousarray(fiber_directions(n, count, rng).T)
    uu = (cols[:, None, :] * cols[None, :, :]).reshape(n * n, count)
    h = values.h.reshape(values.h.shape[:-2] + (n * n,))
    return cols / np.sqrt(h @ uu)[..., None, :] + values.W[..., :, None]


def indicatrix_points(nav: NavigationData, x, count: int = 24,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """F-unit vectors (..., count, n) at base points x (..., n); see
    `indicatrix`."""
    return np.swapaxes(indicatrix(field_values(nav, np.asarray(x, dtype=float)),
                                  count, rng), -1, -2)


# ---------------------------------------------------------------------------
# validation

# the wind must stay this far inside the unit h-ball: |W|_h < 1 - WIND_MARGIN
WIND_MARGIN = 1e-6


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


def validate(nav: NavigationData, n_points: int = 10_000) -> ValidationReport:
    """Sample the chart at n_points interior points and check positivity
    of h and the wind bound.

    h must be positive definite at every sampled point, decided by
    Sylvester's criterion on its L D L^T pivots, and the wind must satisfy
    |W|_h < 1 - WIND_MARGIN there; the report carries witnesses for every
    violation kind found. Eigenvalues are computed only for the report
    (min_metric_eigenvalue) and for a witness's value.
    """
    points = nav.chart.sample_interior(n_points)
    v = field_values(nav, points)
    failures = []
    bad_metric = np.nonzero(~stages.positive_definite(v.h))[0]
    if bad_metric.size:
        i = int(bad_metric[0])
        failures.append({"kind": "metric_not_positive", "point": points[i].tolist(),
                         "value": float(np.linalg.eigvalsh(v.h[i]).min())})
    wnorm = np.sqrt(np.maximum(np.einsum("...i,...i->...", v.W, v.hW), 0.0))
    bad_wind = np.nonzero(wnorm >= 1.0 - WIND_MARGIN)[0]
    if bad_wind.size:
        i = int(bad_wind[0])
        failures.append({"kind": "wind_too_strong", "point": points[i].tolist(),
                         "value": float(wnorm[i])})
    return ValidationReport(
        passed=not failures,
        n_points=len(points),
        margin=WIND_MARGIN,
        max_wind_norm=float(wnorm.max()),
        min_lambda=float(v.lam.min()),
        metric=v.h,
        failures=failures,
    )

"""Shared numeric substrate: forward-mode duals, SPD solves, RK4, numeric rank.

Dual numbers carry a vector of derivative slots, so one walk gives a value
and its full gradient; they are the single differentiation mechanism used
everywhere in the package, and no finite differencing is hidden inside field
evaluations. Values may be python floats or numpy arrays, so one dual
evaluation sweeps a whole batch of points. One batched RK4 integrator, `rk4`,
integrates everything; a single item is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteState, NotPositiveDefinite


class Dual:
    """First-order dual number ``val + eps * dot`` with ``eps^2 = 0``.

    ``val`` and ``dot`` are floats or broadcast-compatible numpy arrays.
    abs() is deliberately not provided: every field this package evaluates
    is smooth, and a silent kink would invalidate the derivative slot.
    """

    __slots__ = ("val", "dot")
    # keep numpy from consuming us elementwise; binary ops fall back to our
    # reflected methods instead
    __array_ufunc__ = None

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return Dual(self.val + other, self.dot)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        return Dual(self.val - other, self.dot)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.dot * other.val + self.val * other.dot)
        return Dual(self.val * other, self.dot * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.dot - self.val * other.dot * inv) * inv)
        return Dual(self.val / other, self.dot / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -other * self.dot * inv * inv)

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if isinstance(p, Dual):
            # a^b = exp(b log a); needs a > 0
            return exp(p * log(self))
        if isinstance(p, (int, float)) and p == 2:
            return Dual(self.val * self.val, 2.0 * self.val * self.dot)
        v = self.val ** p
        return Dual(v, p * self.val ** (p - 1) * self.dot)

    def __rpow__(self, base):
        return exp(self * np.log(base))


def value_of(x):
    return x.val if isinstance(x, Dual) else x


# ---------------------------------------------------------------------------
# elementary functions, generic over float / ndarray / Dual

def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.val), np.cos(x.val) * x.dot)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.val), -np.sin(x.val) * x.dot)
    return np.cos(x)


def exp(x):
    if isinstance(x, Dual):
        v = np.exp(x.val)
        return Dual(v, v * x.dot)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(np.log(x.val), x.dot / x.val)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = np.sqrt(x.val)
        return Dual(s, x.dot / (2.0 * s))
    return np.sqrt(x)


def tanh(x):
    if isinstance(x, Dual):
        t = np.tanh(x.val)
        return Dual(t, (1.0 - t * t) * x.dot)
    return np.tanh(x)


# ---------------------------------------------------------------------------
# small dense linear algebra

@dataclass(frozen=True)
class SymMatrix:
    """Symmetric real matrix with an explicit dimension tag."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SymMatrix needs a square array")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def as_array(self) -> np.ndarray:
        return self.entries


def solve_spd(m, rhs: np.ndarray) -> np.ndarray:
    """Solve m x = rhs for symmetric positive definite m via Cholesky.

    Raises NotPositiveDefinite when the factorization fails.
    """
    a = m.as_array() if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"matrix is not positive definite: {err}") from None
    y = np.linalg.solve(low, rhs)
    return np.linalg.solve(low.T, y)


def spd_inverse(h: np.ndarray) -> np.ndarray:
    """Inverse of a (batch of) SPD matrices; raises NotPositiveDefinite."""
    h = np.asarray(h, dtype=float)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("metric value is not positive definite") from None
    return np.linalg.inv(h)


# ---------------------------------------------------------------------------
# integration and rank

def uniform_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of steps of about dt that cover span, and the step
    span / steps that lands exactly on its end."""
    if not (span > 0 and dt > 0):
        raise ValueError("span and step must be positive")
    steps = max(1, int(round(span / dt)))
    return steps, span / steps


def rk4(rhs: Callable, v0, steps: int, dt: float, keep: bool = False,
        inside: Optional[Callable] = None):
    """Classical RK4 (Hairer, Norsett & Wanner, Solving ODEs I, II.1) for
    dv/dt = rhs(s, v) on a (B, m) batch advanced in lockstep, s indexing
    half steps: step j evaluates rhs at s = 2j, 2j + 1 and 2j + 2.

    With inside(v) -> (B,) bool given, a row whose new state leaves it
    freezes at its last state inside, and the run ends once no row is
    live. Returns (v, trajectory or None, stop): stop[b] is the index of
    row b's last state inside (steps for rows that never left) and the
    trajectory has shape (B, stop.max() + 1, m). Raises NonFiniteState
    naming the step when a live row goes non-finite.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    v = np.array(v0, dtype=float)
    traj = [v] if keep else None
    stop = np.full(v.shape[0], steps)
    live = np.ones(v.shape[0], dtype=bool)
    for j in range(steps):
        k1 = rhs(2 * j, v)
        k2 = rhs(2 * j + 1, v + 0.5 * dt * k1)
        k3 = rhs(2 * j + 1, v + 0.5 * dt * k2)
        k4 = rhs(2 * j + 2, v + dt * k3)
        new = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(new)):
            bad = live & ~np.all(np.isfinite(new), axis=1)
            if np.any(bad):
                raise NonFiniteState(
                    f"integrator state of row {int(np.argmax(bad))} became "
                    f"non-finite at step {j + 1} (t={(j + 1) * dt:.6g})")
        if inside is not None:
            left = live & ~inside(new)
            stop[left] = j
            live &= ~left
            if not np.any(live):
                break
            new = np.where(live[:, None], new, v)
        v = new
        if keep:
            traj.append(v)
    return v, np.stack(traj, axis=1) if keep else None, stop


def numeric_rank(vectors: Sequence[np.ndarray] | np.ndarray, tol: float = 1e-7) -> int:
    """Numerical rank of a collection of vectors.

    Singular values below tol * (largest singular value) count as zero.
    """
    a = np.asarray(vectors, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol * svals[0]))


def central_time_derivative(samples: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order five-point time derivative of uniformly sampled data.

    samples has shape (T, ...); the result has shape (T-4, ...) and lines up
    with samples[2:-2]. Endpoints are dropped rather than one-sided.
    """
    s = np.asarray(samples, dtype=float)
    if s.shape[0] < 5:
        raise ValueError("need at least five samples for the five-point stencil")
    return (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) / (12.0 * dt)

"""Shared numeric substrate: forward-mode duals, SPD tests and inverses, RK4,
numeric rank.

Dual numbers carry a vector of derivative slots, so one walk gives a value
and its full gradient; they are the single differentiation mechanism used
everywhere in the package, and no finite differencing is hidden inside field
evaluations. Values may be python floats or numpy arrays, so one dual
evaluation sweeps a whole batch of points.

One RK4 tableau integrates everything, on batches advanced in lockstep (a
single item is a batch of one). `rk4` is the one loop for nonlinear
right-hand sides: geodesics, wind flows and the natural transport ODE.
Linear systems whose matrices are tabled before the loop starts (the metric
transport, the definitional route's inner transport) use `rk4_linear`,
which builds the step maps of the same tableau at once and applies them
instead of evaluating a right-hand side; `rk4_propagators` multiplies them
out into the transport matrix.
"""
from __future__ import annotations

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

    # quotients divide, as the value walk does, so both walks agree bitwise
    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.val / other.val
            return Dual(q, (self.dot - q * other.dot) / other.val)
        return Dual(self.val / other, self.dot / other)

    def __rtruediv__(self, other):
        q = other / self.val
        return Dual(q, -q * self.dot / self.val)

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

def positive_definite(h: np.ndarray) -> np.ndarray:
    """Mask (...) of the symmetric matrices h (..., n, n), n <= 4, that are
    positive definite, by Sylvester's criterion: every pivot of h = L D L^T
    is positive. The elimination is unrolled over the upper triangle, each
    step one ufunc on a whole-batch column. A matrix fails at its first
    nonpositive pivot; a zero pivot turns the later ones inf or NaN, which
    cannot undo that and raise no warning."""
    n = h.shape[-1]
    s = {(i, j): h[..., i, j] for i in range(n) for j in range(i, n)}
    ok = s[0, 0] > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            for i in range(k + 1, n):
                l_ki = s[k, i] / s[k, k]
                for j in range(i, n):
                    s[i, j] = s[i, j] - l_ki * s[k, j]
            ok &= s[k + 1, k + 1] > 0.0
    return ok


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


def _nonfinite(row: int, step: int, dt: float) -> NonFiniteState:
    return NonFiniteState(f"integrator state of row {row} became non-finite "
                          f"at step {step} (t={step * dt:.6g})")


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
    half, sixth = 0.5 * dt, dt / 6.0
    v = np.array(v0, dtype=float)
    traj = [v] if keep else None
    stop = np.full(v.shape[0], steps)
    live = np.ones(v.shape[0], dtype=bool)
    for j in range(steps):
        k1 = rhs(2 * j, v)
        k2 = rhs(2 * j + 1, v + half * k1)
        k3 = rhs(2 * j + 1, v + half * k2)
        k4 = rhs(2 * j + 2, v + dt * k3)
        new = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(new).all():
            bad = live & ~np.isfinite(new).all(axis=1)
            if bad.any():
                raise _nonfinite(int(np.argmax(bad)), j + 1, dt)
        if inside is not None:
            left = live & ~inside(new)
            stop[left] = j
            live &= ~left
            if not live.any():
                break
            new = np.where(live[:, None], new, v)
        v = new
        if keep:
            traj.append(v)
    return v, np.stack(traj, axis=1) if keep else None, stop


def _step_maps(k: np.ndarray, dt: float) -> np.ndarray:
    """The RK4 steps of the linear system dv/dt = k[..., s, :, :] v, tabled
    at half steps s = 0 .. 2N, as matrices (..., N, m, m): step j is
    P_j = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = k[2j],
    K2 = k[2j+1] (I + dt/2 K1), K3 = k[2j+1] (I + dt/2 K2) and
    K4 = k[2j+2] (I + dt K3), the stages of `rk4` applied to the identity."""
    eye = np.eye(k.shape[-1])
    start, mid, end = k[..., 0:-1:2, :, :], k[..., 1::2, :, :], k[..., 2::2, :, :]
    k2 = mid @ (eye + (0.5 * dt) * start)
    k3 = mid @ (eye + (0.5 * dt) * k2)
    k4 = end @ (eye + dt * k3)
    return eye + (dt / 6.0) * (start + 2.0 * k2 + 2.0 * k3 + k4)


def _ordered_product(maps: np.ndarray) -> np.ndarray:
    """maps[..., N-1, :, :] @ ... @ maps[..., 0, :, :], multiplying
    neighbours pairwise, so N maps take about log2(N) batched products."""
    while maps.shape[-3] > 1:
        even = maps.shape[-3] // 2 * 2
        paired = maps[..., 1:even:2, :, :] @ maps[..., 0:even:2, :, :]
        maps = np.concatenate([paired, maps[..., even:, :, :]], axis=-3)
    return maps[..., 0, :, :]


def _apply_in_order(maps: np.ndarray, rows: np.ndarray, v0: np.ndarray,
                    dt: float) -> np.ndarray:
    """Trajectory (B, N + 1, m) of row b of v0 under the step maps of table
    rows[b]; raises NonFiniteState as `rk4` does, naming the first step at
    which a state is non-finite and the first such row."""
    traj = np.empty((len(v0), maps.shape[1] + 1, v0.shape[1]))
    traj[:, 0] = v = v0
    for j in range(maps.shape[1]):
        v = np.einsum("bkl,bl->bk", maps[rows, j], v)
        traj[:, j + 1] = v
    if not np.isfinite(traj).all():
        bad = ~np.isfinite(traj).all(axis=2)
        step = int(np.argmax(bad.any(axis=0)))
        raise _nonfinite(int(np.argmax(bad[:, step])), step, dt)
    return traj


def rk4_linear(k: np.ndarray, dt: float, v0: np.ndarray, rows: np.ndarray,
               keep: bool = False):
    """`rk4` for linear systems dv/dt = k[u, s] v whose matrices are tabled
    at the half steps s = 0 .. 2N of each of U systems, k (U, 2N + 1, m, m),
    without evaluating a right-hand side: every step map is built at once,
    then applied in order. Row b of the (B, m) batch v0 runs on system
    rows[b]; returns (v, trajectory (B, N + 1, m) or None). A non-finite
    state raises NonFiniteState naming the row and the step, as `rk4` does.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    # overflow is reported as NonFiniteState, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _apply_in_order(_step_maps(k, dt), rows, v0, dt)
    return traj[:, -1], traj if keep else None


def rk4_propagators(k: np.ndarray, dt: float) -> np.ndarray:
    """The propagators (U, m, m) of the systems of `rk4_linear` over their
    N steps: the ordered products of the step maps, so column i is what
    `rk4` makes of basis vector i. A non-finite entry raises NonFiniteState
    naming row u * m + i (basis vector i of system u) and the step; the
    in-order search for it runs only on failure.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        maps = _step_maps(k, dt)
        prop = _ordered_product(maps)
        if np.isfinite(prop).all():
            return prop
        u, m = prop.shape[:2]
        traj = _apply_in_order(maps, np.repeat(np.arange(u), m),
                               np.tile(np.eye(m), (u, 1)), dt)
    return np.swapaxes(traj[:, -1].reshape(u, m, m), 1, 2)


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

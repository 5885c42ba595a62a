"""Shared numeric substrate: RK4, numeric rank and time-series stencils,
all NumPy code.

Field derivatives are not taken here: gradients in x come from the
compiled programs of `exprlang`, and the fiber derivatives of the
navigation norm are closed forms in `geometry`, so no finite differencing
is hidden inside field evaluations. The one stencil here,
`central_time_derivative`, differentiates sampled paths.

One RK4 tableau integrates everything, on batches advanced in lockstep (a
single item is a batch of one). `rk4` is the one loop over steps:
geodesics, wind flows and the natural transport ODE. Its step is one
source text, the tableau `_STAGES` and `_UPDATE`, rendered here over
(B, m) arrays and by `stages`, inline in the generated float runners of
the geodesic equations and of the natural transport ODE. A batch of at
most SCALAR_ROWS rows that comes with a float run runs on such a runner,
because at that size NumPy calls, not arithmetic, set the cost; every
other batch runs on NumPy, a geodesic batch on the same stage lines
rendered over NumPy columns. A float run that fails is dropped and the
whole batch runs again on NumPy, so results and errors on failure are the
NumPy path's. A linear system whose matrices are tabled before the loop
starts (the metric transport) needs no loop: `rk4_propagators` forms
every step map at once as the tableau's own step applied to the identity,
and multiplies them out into the propagator to every step.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteState


# ---------------------------------------------------------------------------
# integration and rank

# The most steps an integration takes, far above the largest run of the
# tests, tools and benchmark requests (3,000): a step far too small fails.
MAX_STEPS = 10 ** 5


def uniform_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of steps of about dt that cover span, at most MAX_STEPS (else
    ValueError), and the step span / steps that lands exactly on its end."""
    if not (span > 0 and dt > 0):
        raise ValueError("span and step must be positive")
    if not span / dt <= MAX_STEPS + 0.5:
        raise ValueError(f"span {span:g} at step {dt:g} takes more than "
                         f"MAX_STEPS = {MAX_STEPS} steps")
    steps = max(1, int(round(span / dt)))
    return steps, span / steps


def _nonfinite(row: int, step: int, dt: float) -> NonFiniteState:
    return NonFiniteState(f"integrator state of row {row} became non-finite "
                          f"at step {step} (t={step * dt:.6g})")


# The RK4 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.1) as
# source: each stage's offset in half steps and its argument, then the
# update. It is rendered here over (B, m) arrays and by `stages` per
# component over Python floats, so both paths take the same operations in
# the same order.
_STAGES = (("k1", 0, "v"), ("k2", 1, "v + half * k1"),
           ("k3", 1, "v + half * k2"), ("k4", 2, "v + dt * k3"))
_UPDATE = "v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)"

# A batch of at most this many rows with a float run runs on Python floats;
# a larger one runs in lockstep on NumPy. Measured on natural holonomy
# probes around one loop (natural transport ODE, 1000 steps; 2 vCPUs,
# Python 3.11, NumPy 2.4, best of 5, two runs), NumPy lockstep against the
# fused float runner, in ms. On rotation_disk (2D): 1 row 67-72 vs 3.4-4.5,
# 8 rows 66-89 vs 25-29, 16 rows 87-95 vs 40-50, 20 rows 97-108 vs 58-67,
# 24 rows 97-103 vs 71-73, 32 rows 103-112 vs 95-97. On rot_ball_3d (3D):
# 1 row 75-80 vs 5.8-6.9, 8 rows 87-93 vs 43, 16 rows 88-95 vs 71-85,
# 20 rows 98-100 vs 76-105, 24 rows 100-106 vs 114-127, 32 rows 69-105 vs
# 123-140. A randers geodesic on sphere_cap (100 steps, no row halting)
# crosses later: on its lockstep runner (best of 5, two runs) 20 rows
# take 51-60 ms on NumPy and 25-27 ms on floats, 32 rows 56-58 vs 37-39.
SCALAR_ROWS = 20


def _render_step():
    """step(f, s, v, half, dt, sixth): one RK4 step of dv/dt = f(s, v) from
    half step s over a (B, m) array."""
    source = ("def step(f, s, v, half, dt, sixth):\n"
              + "".join(f"    {k} = f(s + {at}, {arg})\n"
                        for k, at, arg in _STAGES)
              + f"    return {_UPDATE}\n")
    namespace = {}
    exec(compile(source, "<rk4 step>", "exec"), namespace)
    return namespace["step"]


_STEP = _render_step()


def _sizes(dt: float) -> tuple:
    """The step sizes (half, dt, sixth) = (dt / 2, dt, dt / 6) that `_STEP`
    takes."""
    return 0.5 * dt, dt, dt / 6.0


def _advance(rhs: Callable, j: int, v: np.ndarray, live: np.ndarray,
             half: float, dt: float, sixth: float) -> np.ndarray:
    """Step j of the (B, m) batch v on NumPy; raises NonFiniteState naming
    the first live row whose stage or new state is not finite, so that a
    non-finite stage never reaches the next evaluation of rhs."""
    def check(u: np.ndarray) -> np.ndarray:
        if not np.isfinite(u).all():
            bad = live & ~np.isfinite(u).all(axis=1)
            if bad.any():
                raise _nonfinite(int(np.argmax(bad)), j + 1, dt)
        return u

    return check(_STEP(lambda s, u: check(rhs(s, u)), 2 * j, v, half, dt,
                       sixth))


def rk4(rhs: Callable, v0, steps: int, dt: float, keep: bool = False,
        inside: Optional[Callable] = None,
        float_run: Optional[Callable] = None):
    """Classical RK4 (Hairer, Norsett & Wanner, Solving ODEs I, II.1) for
    dv/dt = rhs(s, v) on a (B, m) batch advanced in lockstep, s indexing
    half steps: step j evaluates rhs at s = 2j, 2j + 1 and 2j + 2.

    With inside(v) -> (B,) bool given, a row whose new state leaves it
    freezes at its last state inside, and the run ends once no row is
    live. Returns (v, trajectory or None, stop): stop[b] is the index of
    row b's last state inside (steps for rows that never left) and the
    trajectory has shape (B, stop.max() + 1, m). Raises NonFiniteState
    naming the row and the step when a stage or the new state of a live
    row is not finite.

    float_run(v, steps, sizes, keep) -> (v, trajectory, stop) or None, the
    same run on Python floats (sizes = (dt / 2, dt, dt / 6); it halts rows
    as inside does), takes a batch of at most SCALAR_ROWS rows: in
    navgeo, `stages.float_run` on a generated runner. When it returns None
    (a non-finite state) or raises ValueError, ZeroDivisionError or
    OverflowError, the whole batch runs again from v0 in the lockstep loop
    on NumPy, so the result or the error is the NumPy path's.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    sizes = _sizes(dt)
    v = np.array(v0, dtype=float)
    if float_run is not None and len(v) <= SCALAR_ROWS:
        try:
            done = float_run(v, steps, sizes, keep)
        except (ValueError, ZeroDivisionError, OverflowError):
            done = None
        if done is not None:
            return done
    traj = [v] if keep else None
    stop = np.full(v.shape[0], steps)
    live = np.ones(v.shape[0], dtype=bool)
    # a non-finite value is reported as NonFiniteState, not as a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(steps):
            new = _advance(rhs, j, v, live, *sizes)
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


def float_result(states: list, runs: Optional[list], stop: list) -> tuple:
    """`rk4`'s (v, trajectory or None, stop) from the last float states
    of the rows, each row's kept states (an array('d'), or runs None) and
    stop: a halted row's trajectory repeats its last state up to the
    batch's last kept step, as the lockstep loop freezes it."""
    traj = None
    if runs is not None:
        m = len(states[0])
        traj = np.empty((len(runs), max(stop) + 1, m))
        for b, run in enumerate(runs):
            traj[b, :stop[b] + 1] = np.frombuffer(run).reshape(-1, m)
            traj[b, stop[b] + 1:] = traj[b, stop[b]]
    return np.array(states), traj, np.array(stop)


def rk4_propagators(k: np.ndarray, dt: float) -> np.ndarray:
    """The propagators (U, N, m, m) of the linear systems dv/dt = k[u, s] v,
    k (U, 2N + 1, m, m) tabled at half steps: entry j is the product
    P_j ... P_0 of their step maps, so its column i is what `rk4` makes of
    basis vector i in j + 1 steps, up to round-off. An inclusive scan
    (Blelloch, Prefix sums and their applications, 1990), about log2(N)
    batched products. Step map j is `_STEP` applied to the identity, its
    stages reading k at half steps 2j, 2j + 1 and 2j + 2. Overflow gives
    non-finite entries, with no warning; the caller checks them."""
    tables = k[..., 0:-1:2, :, :], k[..., 1::2, :, :], k[..., 2::2, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        maps = _STEP(lambda s, u: tables[s] @ u, 0, np.eye(k.shape[-1]),
                     *_sizes(dt))
        span = 1
        while span < maps.shape[1]:
            maps[:, span:] = maps[:, span:] @ maps[:, :-span]
            span *= 2
    return maps


def numeric_rank(vectors: Sequence[np.ndarray] | np.ndarray,
                 tol: float = 1e-7) -> int | np.ndarray:
    """Numerical rank of a collection of vectors (K, m), an int, or of each
    collection in a stack (..., K, m), an int array, from one batched SVD.

    Singular values below tol * (largest singular value) count as zero.
    """
    a = np.asarray(vectors, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.size == 0:
        ranks = np.zeros(a.shape[:-2], dtype=int)
    else:
        svals = np.linalg.svd(a, compute_uv=False)
        ranks = np.count_nonzero(svals > tol * svals[..., :1], axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def central_time_derivative(samples: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order five-point time derivative of uniformly sampled data.

    samples has shape (T, ...); the result has shape (T-4, ...) and lines up
    with samples[2:-2]. Endpoints are dropped rather than one-sided.
    """
    s = np.asarray(samples, dtype=float)
    if s.shape[0] < 5:
        raise ValueError("need at least five samples for the five-point stencil")
    return (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) / (12.0 * dt)

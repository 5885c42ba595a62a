"""Loop transport, the linear/nonlinear holonomy correspondence, and the
numeric rank of the spray's holonomy distribution.

The wind transport around a closed loop is a nonlinear, norm-preserving,
1-homogeneous map of the tangent space at the base point. It is conjugate
to the metric holonomy through wind translation of the unit ball: with H
the metric transport matrix of the loop and W the wind at the base,

    hol(V) = H V - F(V) (H W - W),

and composition of loops multiplies the matrices, so the nonlinear holonomy
inherits the group structure of the linear one.

The rank computation works with the horizontal distribution of the spray's
own nonlinear connection, dG^k/dy^i. The transport connection is of no use
here: its transport is conjugate to the metric one, so on a flat metric its
horizontal brackets vanish identically no matter the wind. The spray
connection picks up the torsion term and its iterated brackets can fill all
of TTM, which is the obstruction probed by the rank report.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numkernel as nk
from .errors import DegenerateWind, NotClosed, ZeroVector
from .geometry import (NavigationData, TangentSample, field_values,
                       indicatrix_points)
from .sprays import spray_connection_matrix
from .transport import (AnalyticCurve, natural_transport_many,
                        riemann_transport_many, riemann_transport_matrix)


@dataclass
class HolonomyElement:
    """Loop transport sampled extensionally on probe vectors.

    The natural action has no finite parametrization (it is nonlinear), so
    the element stores probe/image pairs; norms holds the relevant invariant
    (navigation norm for natural mode, metric norm for riemann mode) before
    and after.
    """

    base: np.ndarray
    mode: str
    probes: np.ndarray
    transported: np.ndarray
    norms_in: np.ndarray
    norms_out: np.ndarray
    dt: float

    @property
    def norm_drift(self) -> float:
        return float(np.abs(self.norms_out - self.norms_in).max())

    def as_dict(self) -> dict:
        return {
            "base": [float(v) for v in self.base],
            "mode": self.mode,
            "dt": float(self.dt),
            "probes_in": self.probes.tolist(),
            "probes_out": self.transported.tolist(),
            "norms_in": self.norms_in.tolist(),
            "norms_out": self.norms_out.tolist(),
            "norm_drift": self.norm_drift,
        }


def _require_closed(loop: AnalyticCurve) -> None:
    if not loop.is_closed():
        p, q = loop.point(0.0), loop.point(1.0)
        raise NotClosed(
            f"loop endpoints differ: {p.tolist()} vs {q.tolist()}")


def loop_holonomy(nav: NavigationData, loop: AnalyticCurve,
                  probes: Optional[np.ndarray] = None, mode: str = "natural",
                  n_probes: int = 24, dt: float = 1e-3,
                  method: str = "ode") -> HolonomyElement:
    """Transport probe vectors around a closed loop.

    Default probes are norm-unit vectors at the base point. Natural mode
    keeps their navigation norms (up to integration error); riemann mode is
    linear and keeps metric norms.
    """
    _require_closed(loop)
    base = loop.point(0.0)
    if probes is None:
        probes = indicatrix_points(nav, base, n_probes)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if not np.all(np.any(probes != 0.0, axis=1)):
        raise ZeroVector("holonomy probes must be nonzero")
    loops = [loop] * len(probes)
    if mode == "natural":
        out = natural_transport_many(nav, loops, probes, method=method, dt=dt)
        norm = field_values(nav, base).norm
        nin, nout = norm(probes), norm(out)
    elif mode == "riemann":
        out = riemann_transport_many(nav.metric, loops, probes, dt, nav.chart)
        nin = nav.h_norm(base, probes)
        nout = nav.h_norm(base, out)
    else:
        raise ValueError("mode must be 'natural' or 'riemann'")
    return HolonomyElement(base=base, mode=mode, probes=probes,
                           transported=out, norms_in=nin, norms_out=nout,
                           dt=nk.uniform_steps(1.0, dt)[1])


def riemann_holonomy_matrix(nav: NavigationData, loop: AnalyticCurve,
                            dt: float = 1e-3) -> np.ndarray:
    """Matrix of the metric parallel transport around a closed loop."""
    _require_closed(loop)
    return riemann_transport_matrix(nav.metric, loop, dt, nav.chart)


def _wind_gap(nav: NavigationData, base: np.ndarray):
    """Field values at base and F(W), which must stay below 1."""
    v = field_values(nav, base)
    fw = float(v.norm(v.W)) if np.any(v.W) else 0.0
    if fw >= 1.0:
        raise DegenerateWind(
            f"navigation norm of the wind reaches 1 at {base.tolist()}")
    return v, fw


def correspondence(nav: NavigationData, matrix: np.ndarray, base,
                   vectors: np.ndarray) -> np.ndarray:
    """Nonlinear holonomy action predicted from a metric holonomy matrix:
    hol(V) = H V - F(V) (H W - W) with W the wind at the base point."""
    base = np.asarray(base, dtype=float)
    v, _ = _wind_gap(nav, base)
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    shift = matrix @ v.W - v.W
    f = v.norm(vectors)
    return vectors @ matrix.T - f[:, None] * shift[None, :]


def correspondence_inverse(nav: NavigationData, base, action: Callable,
                           vectors: np.ndarray) -> np.ndarray:
    """Recover the linear holonomy action from the nonlinear one:

        H V = hol(V) + F(V) (hol(W) - W) / (1 - F(W)),

    where action maps a batch of vectors to their transported images; a
    zero wind at the base is not transported, as hol(0) = 0."""
    base = np.asarray(base, dtype=float)
    v, fw = _wind_gap(nav, base)
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    f = v.norm(vectors)
    shift = ((np.asarray(action(v.W[None, :]))[0] - v.W) / (1.0 - fw)
             if np.any(v.W) else np.zeros_like(v.W))
    return np.asarray(action(vectors)) + f[:, None] * shift[None, :]


# ---------------------------------------------------------------------------
# holonomy distribution rank

# central-difference step of the Lie brackets, and the singular values
# below RANK_TOL times the largest that count as zero
BRACKET_STEP = 1e-4
RANK_TOL = 1e-7


@dataclass
class RankReport:
    at: TangentSample
    generated_vectors: np.ndarray
    rank: int
    depth: int

    def as_dict(self) -> dict:
        return {"x": [float(v) for v in self.at.x],
                "y": [float(v) for v in self.at.y],
                "rank": int(self.rank),
                "depth": int(self.depth),
                "n_vectors": int(len(self.generated_vectors))}


def _bracket_generations(nav: NavigationData, z: np.ndarray, depth: int,
                         step: float) -> list:
    """Generations 1..depth of the bracket tree at the rows of z = (x, y),
    one (B, K_g, 2n) array each, in 2 depth - 1 spray-connection sweeps.

    Generation 1 holds the horizontal fields H_i = e_i - (dG/dy) e_i;
    generation 2 the brackets [H_i, H_j], i < j, and each later one every
    [H_i, G_j] with G_j in the generation before. A bracket is the central
    difference [X, Y] = DY X - DX Y, its step scaled down row by row for
    long directions. DG_j H_i comes from the generations below evaluated
    on the stacked batch [z; z + s H; z - s H], which reuse the fields
    already swept at z; DH_i G_j for every i comes from one sweep at
    z +- s G_j, which leaves out G_j = H_0, as no bracket [H_i, H_0] with
    i < 0 exists.
    """
    m = z.shape[1]
    n = m // 2

    def fields(w):
        out = np.zeros((len(w), n, m))
        out[:, range(n), range(n)] = 1.0
        out[:, :, n:] = -spray_connection_matrix(
            nav, w[:, :n], w[:, n:]).transpose(0, 2, 1)
        return out

    def generations(z, h, depth):
        """The tree at the rows of z, whose fields h are already known."""
        if depth == 1:
            return [h]
        b = len(z)

        def displaced(u):
            """Rows z + s u, then z - s u, for directions u (B, K, m), and
            2 s."""
            s = step / np.maximum(1.0, np.linalg.norm(u, axis=-1))[..., None]
            w = np.stack([z[:, None] + s * u, z[:, None] - s * u])
            return w.reshape(-1, m), 2.0 * s

        w, two_s = displaced(h)
        lower = generations(np.concatenate([z, w]),
                            np.concatenate([h, fields(w)]), depth - 1)
        gens = [g[:b] for g in lower]
        gp, gm = lower[-1][b:].reshape(2, b, n, -1, m)
        dg_h = (gp - gm) / two_s[..., None]  # [:, i, j] = DG_j H_i
        w, two_s = displaced(gens[-1] if depth > 2 else h[:, 1:])
        hp, hm = fields(w).reshape(2, b, -1, n, m)
        dh_g = ((hp - hm) / two_s[..., None]).swapaxes(1, 2)  # DH_i G_j
        if depth == 2:
            i, j = np.triu_indices(n, 1)
            return gens + [dg_h[:, i, j] - dh_g[:, i, j - 1]]
        return gens + [(dg_h - dh_g).reshape(b, -1, m)]

    return generations(z, fields(z), depth)


def _rank_reports(nav: NavigationData, xs: np.ndarray, ys: np.ndarray,
                  depth: int) -> list:
    """Rank reports at the rows of (xs, ys), one bracket tree evaluated on
    all of them at once. Past depth 3 the brackets' smallest singular
    values are finite-difference round-off, so deeper trees are refused.
    H_1..H_n alone span n directions, so a rank below n is round-off and
    raises DegenerateWind."""
    if not 1 <= depth <= 3:
        raise ValueError("depth must be 1, 2 or 3")
    if not np.all(np.any(ys != 0.0, axis=1)):
        raise ZeroVector("the horizontal distribution lives over nonzero y")
    n = xs.shape[1]
    vectors = np.concatenate(_bracket_generations(
        nav, np.concatenate([xs, ys], axis=1), depth, BRACKET_STEP), axis=1)
    reports = [RankReport(at=TangentSample(x, y), generated_vectors=vec,
                          rank=int(rank), depth=depth)
               for x, y, vec, rank in zip(xs, ys, vectors,
                                          nk.numeric_rank(vectors, RANK_TOL))]
    for r in (r for r in reports if r.rank < n):
        sv = np.linalg.svd(r.generated_vectors, compute_uv=False)
        raise DegenerateWind(
            f"bracket rank {r.rank} is below the dimension {n} at x = "
            f"{r.at.x.tolist()}, y = {r.at.y.tolist()}: sigma_n/sigma_1 = "
            f"{sv[n - 1] / sv[0]:.3g} < RANK_TOL = {RANK_TOL:g}, as the "
            "brackets dwarf the horizontal fields where the wind nears 1")
    return reports


def holonomy_distribution_rank(nav: NavigationData, s: TangentSample,
                               depth: int = 3) -> RankReport:
    """Rank at (x, y) of the span of the spray-connection horizontal fields
    together with their iterated Lie brackets up to the given depth, the
    brackets central differences at BRACKET_STEP and the rank counted at
    RANK_TOL relative to the largest singular value.

    Rank n means the brackets stay horizontal (integrable distribution);
    rank 2n means they fill the whole slit tangent bundle, which rules out
    any nonconstant function invariant under the loop transports.
    """
    return _rank_reports(nav, s.x[None], s.y[None], depth)[0]


def distribution_rank_survey(nav: NavigationData, n_samples: int = 20,
                             depth: int = 3,
                             rng: Optional[np.random.Generator] = None) -> list:
    """holonomy_distribution_rank's reports at a spread of interior points
    with h-unit directions."""
    n = nav.dim
    xs = nav.chart.sample_interior(n_samples, margin=0.1)
    rng = rng or np.random.default_rng(7)
    dirs = rng.normal(size=(n_samples, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return _rank_reports(nav, xs, dirs, depth)

"""Straight-line code generated with the expression builder of `exprlang`
(source transformation, Griewank & Walther, Evaluating Derivatives, ch. 6).

`metric_lines` is the one definition of h^-1, from the L D L^T elimination
of h with each pivot checked positive as `numkernel.positive_definite`
does, and of the Levi-Civita symbols A^k_ij (i <= j). Constants fold and
structural zeros get no line. `metric_kernel` renders these lines over the
metric columns of a NumPy sweep, for `geometry.christoffel` and
`field_jet`.

On a batch of a few rows, NumPy code spends its time in calls, not in
arithmetic: one `field_jet` at a single point is dozens of them. So
`numkernel.rk4` runs such batches row by row on Python floats, through the
right-hand sides generated here: the geodesic equation of each spray and
the stage of the natural transport ODE. A geodesic right-hand side holds
the value and gradient lines of the jet program, the metric lines,
M = dW + A W, hW, lam and the navigation norm F = (sqrt(a^2 + lam b) - a)
/ lam, then the lines of the spray, term for term as the einsum sprays
that tests/helpers.py keeps as their oracle. The NumPy kernels of `sprays`
stay the path of larger batches and of grids.

Float code fails where NumPy code gives inf or NaN: math.log and math.sqrt
raise ValueError outside their domains, a division by zero raises
ZeroDivisionError, math.exp and math.pow raise OverflowError, and a
nonpositive pivot or a non-finite field value or gradient raises
ValueError. `numkernel.rk4` then redoes the step with NumPy, which raises
the error the NumPy code raises or gives the state to go on from.
"""
from __future__ import annotations

import functools
import struct

import numpy as np

from . import exprlang
from .errors import NotPositiveDefinite

_FAIL = "raise ValueError"
_PIVOT = f"if not {{0}} > 0.0: {_FAIL}"
# The metric lines over NumPy columns: a pivot is checked at every point,
# and a failure raises the error of the NumPy path.
_NOT_SPD = "raise NotPositiveDefinite('metric value is not positive definite')"
_COLUMNS = {_PIVOT: f"if not ({{0}} > 0.0).all(): {_NOT_SPD}", _FAIL: _NOT_SPD}


def _nonzero(ref):
    """A reference, with an exact constant zero made structural (None)."""
    return None if isinstance(ref, float) and ref == 0.0 else ref


def _total(b: exprlang._Builder, terms) -> object:
    """The sum of `terms` from left to right; None when all are zero."""
    acc = None
    for t in terms:
        acc = b.add(acc, t)
    return acc


def _sqrt(b: exprlang._Builder, a) -> str:
    return b.emit(b.dlines, "sqrt({0})", a)


def _require_positive(b: exprlang._Builder, ref) -> bool:
    """Append the check that a pivot is positive; False when it is a
    constant that is not."""
    if isinstance(ref, str):
        b.dlines.append((None, _PIVOT, (ref,)))
        return True
    return ref is not None and ref > 0.0


def _require_finite(b: exprlang._Builder, refs) -> bool:
    """Append the check that the line references among refs are finite
    (one test on their sum: inf - inf is NaN); False when a constant among
    them is not."""
    names = tuple(r for r in refs if isinstance(r, str))
    if names:
        b.dlines.append((None, "if not isfinite(" + " + ".join(
            f"{{{i}}}" for i in range(len(names))) + f"): {_FAIL}", names))
    return bool(np.isfinite([r for r in refs if isinstance(r, float)]).all())


def _symmetric(upper: list, n: int) -> dict:
    """(i, j) -> upper[e] for the e-th pair (i, j), i <= j, of an upper
    triangle given row by row, and for its mirror (j, i)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return {**dict(zip(pairs, upper)),
            **{(j, i): u for (i, j), u in zip(pairs, upper)}}


def metric_lines(b: exprlang._Builder, h: dict, dh: dict):
    """(hinv, A), the mappings (i, j) -> h^-1 and (k, i, j) -> A^k_ij as
    builder references, from the references h[i, j] and dh[i, j][k] =
    d_k h_ij; None when the lines cannot succeed anywhere (a constant pivot
    that is not positive). h^-1 = L^-T D^-1 L^-1 from h = L D L^T,
    eliminating as numkernel.positive_definite does, each pivot checked
    positive before it divides; A^k_ij = h^kl (d_i h_jl + d_j h_il -
    d_l h_ij) / 2, its lines for i <= j only."""
    n = len(dh[0, 0])
    s = dict(h)
    lower, inv_pivot = {}, []
    for k in range(n):
        if not _require_positive(b, s[k, k]):
            return None
        inv_pivot.append(b.div(1.0, s[k, k]))
        for i in range(k + 1, n):
            lower[i, k] = b.div(s[k, i], s[k, k])
            for j in range(i, n):
                s[i, j] = b.sub(s[i, j], b.mul(lower[i, k], s[k, j]))
    u = {}  # L^-1, unit lower triangular
    for k in range(n):
        u[k, k] = 1.0
        for i in range(k + 1, n):
            u[i, k] = b.neg(_total(b, (b.mul(lower[i, j], u[j, k])
                                       for j in range(k, i))))
    hinv = {}
    for i in range(n):
        for j in range(i, n):
            hinv[i, j] = hinv[j, i] = _total(b, (
                b.mul(b.mul(u[k, i], u[k, j]), inv_pivot[k])
                for k in range(j, n)))
    t = {(l, i, j): b.sub(b.add(dh[j, l][i], dh[i, l][j]), dh[i, j][l])
         for l in range(n) for i in range(n) for j in range(i, n)}
    a = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                a[k, i, j] = a[k, j, i] = b.mul(0.5, _total(b, (
                    b.mul(hinv[k, l], t[l, i, j]) for l in range(n))))
    return hinv, a


class _Jet:
    """References to the jet-level quantities at the point x0 .. x(n-1),
    built into the builder's derivative lines: h, then hinv and A from
    `metric_lines`, hW, lam (and, for a jet program with a wind, W and M),
    each a mapping from index tuples to a reference. `ok` is False when the
    lines cannot succeed anywhere (a non-finite constant, or a constant
    metric that is not positive definite), and the rest is then missing."""

    def __init__(self, b: exprlang._Builder, program: exprlang.Program):
        n = self.n = program.n
        m = n * (n + 1) // 2
        exprs = program.exprs
        vals = [_nonzero(b.value(e.root)) for e in exprs]
        grads = [[_nonzero(d) for d in b.gradient(e.root)] for e in exprs]
        self.h = _symmetric(vals, n)
        metric = (metric_lines(b, self.h, _symmetric(grads, n))
                  if _require_finite(b, vals + [d for g in grads for d in g])
                  else None)
        self.ok = metric is not None
        if not self.ok:
            return
        self.hinv, self.A = metric
        self.W = vals[m:]
        if not self.W:  # the metric alone: only A is needed
            self.W = [None] * n
            dw = {(k, i): None for k in range(n) for i in range(n)}
        else:
            dw = {(k, i): grads[m + k][i] for k in range(n) for i in range(n)}
        self.M = {(k, i): b.add(dw[k, i], _total(b, (
            b.mul(self.A[k, i, s], self.W[s]) for s in range(n))))
            for k in range(n) for i in range(n)}
        self.hW = [_total(b, (b.mul(self.h[i, j], self.W[j])
                              for j in range(n))) for i in range(n)]
        wh = _total(b, (b.mul(self.W[i], self.hW[i]) for i in range(n)))
        self.lam = 1.0 if wh is None else b.sub(1.0, wh)

    def ayy(self, b: exprlang._Builder, y) -> list:
        """A^k_ij y^i y^j."""
        n = self.n
        return [_total(b, (b.mul(_total(b, (b.mul(self.A[k, i, j], y[j])
                                            for j in range(n))), y[i])
                           for i in range(n))) for k in range(n)]

    def norm(self, b: exprlang._Builder, y) -> str:
        """F(x, y) = (s - a) / lam with a = <y, W>_h, b = |y|_h^2 and
        s = sqrt(a^2 + lam b)."""
        n = self.n
        a = _total(b, (b.mul(y[i], self.hW[i]) for i in range(n)))
        hy = [_total(b, (b.mul(self.h[i, j], y[j]) for j in range(n)))
              for i in range(n)]
        bb = _total(b, (b.mul(y[i], hy[i]) for i in range(n)))
        s = _sqrt(b, b.add(b.mul(a, a), b.mul(self.lam, bb)))
        return b.div(b.sub(s, a), self.lam)


def _contract(b, tensor, vec, n) -> list:
    """[T_ij v^j]_i for a mapping T over (i, j)."""
    return [_total(b, (b.mul(tensor[i, j], vec[j]) for j in range(n)))
            for i in range(n)]


def _riemann(b, jet: _Jet, y) -> list:
    """A y y / 2."""
    return [b.mul(0.5, g) for g in jet.ayy(b, y)]


def _natural(b, jet: _Jet, y) -> list:
    """(A y y - F M y) / 2."""
    f = jet.norm(b, y)
    my = _contract(b, jet.M, y, jet.n)
    return [b.mul(0.5, b.sub(g, b.mul(f, m))) for g, m in zip(jet.ayy(b, y), my)]


def _randers(b, jet: _Jet, y) -> list:
    """The variational spray, term for term as the einsum oracle
    helpers.einsum_randers_spray of the tests."""
    n, w, hinv = jet.n, jet.W, jet.hinv
    dp = {(i, j): _total(b, (b.mul(jet.h[i, k], jet.M[k, j])
                             for k in range(n)))
          for i in range(n) for j in range(n)}
    r = {(i, j): b.mul(0.5, b.add(dp[i, j], dp[j, i]))
         for i in range(n) for j in range(n)}
    s = {(i, j): b.mul(0.5, b.sub(dp[i, j], dp[j, i]))
         for i in range(n) for j in range(n)}
    f = jet.norm(b, y)

    def pieces(t):
        t_j = [_total(b, (b.mul(w[i], t[i, j]) for i in range(n)))
               for j in range(n)]
        t_scalar = _total(b, (b.mul(w[j], t_j[j]) for j in range(n)))
        t_up = _contract(b, hinv, t_j, n)
        t_0 = _total(b, (b.mul(y[i], t_j[i]) for i in range(n)))
        ty = _contract(b, t, y, n)
        t_i0 = _contract(b, hinv, ty, n)
        t_00 = _total(b, (b.mul(y[i], ty[i]) for i in range(n)))
        return t_scalar, t_up, t_0, t_i0, t_00

    r_sc, r_up, r_0, r_i0, r_00 = pieces(r)
    _, s_up, _, s_i0, _ = pieces(s)
    half_ff = b.mul(b.mul(0.5, f), f)
    tail = b.div(r_00, b.mul(2.0, f))
    out = []
    for k, ayy in enumerate(jet.ayy(b, y)):
        g = b.add(b.add(b.mul(0.5, ayy), b.mul(r_0, y[k])),
                  b.mul(b.mul(0.5, r_00), w[k]))
        g = b.sub(g, b.mul(half_ff, b.sub(b.add(s_up[k], r_up[k]),
                                          b.mul(r_sc, w[k]))))
        g = b.sub(g, b.mul(f, b.add(b.add(s_i0[k], b.mul(b.mul(0.5, r_sc),
                                                          y[k])),
                                    b.mul(r_0, w[k]))))
        out.append(b.sub(g, b.mul(tail, y[k])))
    return out


_SPRAYS = {"riemann": _riemann, "natural": _natural, "randers": _randers}


def _returns(refs) -> tuple:
    """The line returning the tuple of refs (a structural zero as 0.0)."""
    refs = tuple(0.0 if r is None else r for r in refs)
    return (None, "return (" + "".join(f"{{{i}}}, " for i in range(len(refs)))
            + ")", refs)


def _unpack(names, source: str) -> tuple:
    return (None, f"{', '.join(names)}, = {source}", ())


@functools.lru_cache(maxsize=32)
def metric_kernel(program: exprlang.Program):
    """kernel(val, grad) -> (hinv (..., n, n), A (..., k, i, j)): the lines
    of `metric_lines` over the columns val[..., j] and grad[..., j, k] of a
    sweep whose first columns are the metric `program`'s upper triangle,
    row by row (the first column holding a line's value stands for all
    that do). Structural zeros stay zero, and a pivot that is not positive
    at some point raises NotPositiveDefinite. Memoized on the program; the
    first call builds the code."""
    n, first = program.n, {}
    walk, b = exprlang._Builder(n), exprlang._Builder(n)

    def column(ref, name):
        return first.setdefault(ref, name) if isinstance(ref, str) else _nonzero(ref)

    with np.errstate(all="ignore"):
        vals = [column(walk.value(e.root), f"val[..., {j}]")
                for j, e in enumerate(program.exprs)]
        grads = [[column(d, f"grad[..., {j}, {k}]")
                  for k, d in enumerate(walk.gradient(e.root))]
                 for j, e in enumerate(program.exprs)]
        metric = metric_lines(b, _symmetric(vals, n), _symmetric(grads, n))
    lines = [(None, f"hinv = zeros(val.shape[:-1] + {(n, n)})", ()),
             (None, f"A = zeros(val.shape[:-1] + {(n,) * 3})", ())]
    body = b.dlines if metric else [(None, _FAIL, ())]
    lines += [(t, _COLUMNS.get(c, c), r) for t, c, r in body]
    for name, refs in zip(("hinv", "A"), metric or ()):
        lines += [(None, f"{name}[..., {str(key)[1:-1]}] = {{0}}", (ref,))
                  for key, ref in refs.items() if ref is not None]
    return exprlang.float_function(
        "kernel", "val, grad", lines + [(None, "return hinv, A", ())],
        names={"zeros": np.zeros, "NotPositiveDefinite": NotPositiveDefinite})


@functools.lru_cache(maxsize=32)
def geodesic_rhs(program: exprlang.Program, kind: str):
    """rhs(s, v) -> the tuple (y, -2 G(x, y)) at the state v = (x, y), as
    float code, for the spray `kind` ('riemann', 'natural' or 'randers')
    of the fields of `program`: the jet program of navigation data, or the
    metric's own program for 'riemann'. Memoized on (program, kind); the
    first call builds the code."""
    n = program.n
    x = tuple(f"x{i}" for i in range(n))
    y = [f"y{i}" for i in range(n)]
    b = exprlang._Builder(n, coords=x)
    with np.errstate(all="ignore"):
        jet = _Jet(b, program)
        if jet.ok:
            g = [b.mul(-2.0, gk) for gk in _SPRAYS[kind](b, jet, y)]
    lines = ([_unpack(x + tuple(y), "v")] + b.lines + b.dlines
             + [_returns(y + g) if jet.ok else (None, _FAIL, ())])
    return exprlang.float_function("rhs", "s, v", lines)


@functools.lru_cache(maxsize=4)
def natural_stage(n: int):
    """make(tab) -> rhs(s, v): the natural transport stage
    -A(cdot, v) + F(v) M cdot of `transport._natural_stage` as float code
    in dimension n. tab (2N + 1, row) is a C-contiguous float64 array of
    one curve's stage rows, read as raw floats (no Python float is kept per
    entry): row s holds the table [-A(cdot); Q; hW^T] (2n + 1, n) row by
    row, then M cdot and lam, at half step s."""
    b = exprlang._Builder(n)
    rows = 2 * n + 1
    p = [f"p{i}" for i in range(rows * n + n + 1)]
    v = [f"v{i}" for i in range(n)]
    t = [_total(b, (b.mul(p[r * n + c], v[c]) for c in range(n)))
         for r in range(rows)]
    q = _total(b, (b.mul(v[i], t[n + i]) for i in range(n)))
    f = b.div(b.sub(_sqrt(b, q), t[-1]), p[-1])
    out = [b.add(t[k], b.mul(f, p[rows * n + k])) for k in range(n)]
    lines = ([_unpack(p, f"unpack(tab, s * {8 * len(p)})"), _unpack(v, "v")]
             + b.dlines + [_returns(out)])
    return exprlang.float_function(
        "rhs", "s, v", lines, closure="tab",
        names={"unpack": struct.Struct(f"{len(p)}d").unpack_from})

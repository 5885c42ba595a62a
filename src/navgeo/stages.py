"""Straight-line code generated with the expression builder of `exprlang`
(source transformation, Griewank & Walther, Evaluating Derivatives, ch. 6).

The L D L^T elimination of h, each pivot checked positive, is written
once (`_pivots`). `metric_lines` builds on it the one definition of h^-1
and of the Levi-Civita symbols A^k_ij (i <= j), and `_Jet` the field jet:
a program's value and gradient lines, the metric lines, M = dW + A W, hW
and lam. Constants fold, structural zeros get no line, and (a + a) - a is
a. `field_program` renders the jet lines over NumPy arrays, one function
of x per (program, outputs), for the jet, values, Christoffel symbols and
metric of `geometry`; `positive_definite` renders the pivot checks alone
over matrix columns as the mask `geometry.validate` reads.

On a batch of a few rows, NumPy code spends its time in calls, not in
arithmetic. So `numkernel.rk4` runs such batches on Python floats, on
runners generated here by one generator (`_runner`): every RK4 step of a
group of rows in lockstep, with the lines of one stage inlined four times
between the lines of numkernel's tableau text. The geodesic equation of
each spray (`geodesic_stage_lines`, runner `geodesic_run`) walks the jet
program afresh at every stage: the jet lines and the navigation norm
F = (sqrt(a^2 + lam b) - a) / lam, then the metric spray A y y / 2 plus
the spray's wind term, grouped as in `sprays`; a row halts where it
leaves the chart. `geodesic_numpy` renders the same lines over NumPy
columns: the sprays of `sprays`, and the path of larger batches. The
natural transport ODE (`natural_stage_lines`, runner `table_run`) reads
the stage rows of one curve's table, unpacked once per step for all the
rows on that curve; its NumPy stage, like the grid kernels, is written
by hand. `float_run` adapts a runner to `rk4`.

Float code fails where NumPy code gives inf or NaN: math.log and math.sqrt
raise ValueError outside their domains, a division by zero raises
ZeroDivisionError, math.exp and math.pow raise OverflowError, and a
nonpositive pivot or a non-finite field value or gradient raises
ValueError. `numkernel.rk4` then runs the whole batch again on NumPy,
so the error, or the result where NumPy has none, is the NumPy path's.
"""
from __future__ import annotations

import array
import functools
import re
import struct

import numpy as np

from . import exprlang, numkernel as nk
from .errors import NotPositiveDefinite

_FAIL = "raise ValueError"
_PIVOT = f"if not {{0}} > 0.0: {_FAIL}"
_FINITE = f"if not isfinite({{0}}): {_FAIL}"
# Over NumPy columns the pivot checks make a mask, which a failing line
# clears, and the finiteness check a flag.
_MASK = {_PIVOT: "ok &= {0} > 0.0", _FINITE: "fin = isfinite({0}).all()",
         _FAIL: "ok = False"}
# The slots of numkernel's tableau text.
_SLOT = re.compile(r"\b(v|k[1-4])\b")


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
        if (None, _PIVOT, (ref,)) not in b.dlines:
            b.dlines.append((None, _PIVOT, (ref,)))
        return True
    return ref is not None and ref > 0.0


def _require_finite(b: exprlang._Builder, refs) -> bool:
    """Append the check that the line references among refs are finite
    (one test on their sum: inf - inf is NaN); False when a constant among
    them is not."""
    names = dict.fromkeys(r for r in refs if isinstance(r, str))
    if names:
        b.dlines.append((None, _FINITE, (_total(b, names),)))
    return bool(np.isfinite([r for r in refs if isinstance(r, float)]).all())


def _symmetric(upper: list, n: int) -> dict:
    """(i, j) -> upper[e] for the e-th pair (i, j), i <= j, of an upper
    triangle given row by row, and for its mirror (j, i)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return {**dict(zip(pairs, upper)),
            **{(j, i): u for (i, j), u in zip(pairs, upper)}}


def _pivots(b: exprlang._Builder, h: dict, n: int):
    """(pivots, lower): the pivots of h = L D L^T and the entries (i, k),
    i > k, of the unit lower triangular L, as builder references from the
    references h[i, j] (i <= j read), by elimination over the upper
    triangle, each pivot checked positive (a `_PIVOT` line) before it
    divides; None when a constant pivot is not positive."""
    s = dict(h)
    pivots, lower = [], {}
    for k in range(n):
        if not _require_positive(b, s[k, k]):
            return None
        pivots.append(s[k, k])
        for i in range(k + 1, n):
            lower[i, k] = b.div(s[k, i], s[k, k])
            for j in range(i, n):
                s[i, j] = b.sub(s[i, j], b.mul(lower[i, k], s[k, j]))
    return pivots, lower


def metric_lines(b: exprlang._Builder, h: dict, dh: dict):
    """(hinv, A), the mappings (i, j) -> h^-1 and (k, i, j) -> A^k_ij as
    builder references, from the references h[i, j] and dh[i, j][k] =
    d_k h_ij; None when the lines cannot succeed anywhere (a constant pivot
    that is not positive). h^-1 = L^-T D^-1 L^-1 from the elimination
    h = L D L^T of `_pivots`; A^k_ij = h^kl (d_i h_jl + d_j h_il -
    d_l h_ij) / 2, its lines for i <= j only."""
    n = len(dh[0, 0])
    ldl = _pivots(b, h, n)
    if ldl is None:
        return None
    pivots, lower = ldl
    inv_pivot = [b.div(1.0, d) for d in pivots]
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
    # one line name three times is d_i h_ii: (a + a) - a is exactly a,
    # barring overflow
    t = {(l, i, j): p if isinstance(p, str) and p == q == r
         else b.sub(b.add(p, q), r)
         for l in range(n) for i in range(n) for j in range(i, n)
         for p, q, r in [(dh[j, l][i], dh[i, l][j], dh[i, j][l])]}
    a = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                a[k, i, j] = a[k, j, i] = b.mul(0.5, _total(b, (
                    b.mul(hinv[k, l], t[l, i, j]) for l in range(n))))
    return hinv, a


class _Jet:
    """References to the jet quantities at the builder's coordinates,
    built into its lines: the program's values (and, with dual, its
    gradients) checked finite, h and W (0 for a metric's own program), with
    dual hinv and A (`metric_lines`) and M, then hW and lam. Lines that
    cannot succeed anywhere (a non-finite constant, or a constant metric
    not positive definite) end in `_FAIL`: `ok` is False, the rest unset."""

    def __init__(self, b: exprlang._Builder, program: exprlang.Program,
                 dual: bool = True):
        n = self.n = program.n
        m = n * (n + 1) // 2
        vals = [_nonzero(b.value(e.root)) for e in program.exprs]
        grads = [[_nonzero(d) for d in b.gradient(e.root)]
                 for e in program.exprs] if dual else []
        self.h = _symmetric(vals, n)
        self.W = vals[m:] or [None] * n
        self.ok = _require_finite(b, vals + [d for g in grads for d in g])
        if dual and self.ok:
            metric = metric_lines(b, self.h, _symmetric(grads, n))
            self.ok = metric is not None
            if self.ok:
                self.hinv, self.A = metric
                dw = grads[m:] or [[None] * n] * n
                self.M = {(k, i): b.add(dw[k][i], _total(b, (
                    b.mul(self.A[k, i, s], self.W[s]) for s in range(n))))
                    for k in range(n) for i in range(n)}
        if not self.ok:
            b.dlines.append((None, _FAIL, ()))
            return
        self.hW = _contract(b, self.h, self.W, n)
        wh = _total(b, (b.mul(self.W[i], self.hW[i]) for i in range(n)))
        self.lam = 1.0 if wh is None else b.sub(1.0, wh)

    def norm(self, b: exprlang._Builder, y) -> str:
        """F(x, y) = (s - a) / lam with a = <y, W>_h, b = |y|_h^2 and
        s = sqrt(a^2 + lam b)."""
        n = self.n
        a = _total(b, (b.mul(y[i], self.hW[i]) for i in range(n)))
        hy = _contract(b, self.h, y, n)
        bb = _total(b, (b.mul(y[i], hy[i]) for i in range(n)))
        s = _sqrt(b, b.add(b.mul(a, a), b.mul(self.lam, bb)))
        return b.div(b.sub(s, a), self.lam)


def _contract(b, tensor, vec, n) -> list:
    """[T_ij v^j]_i for a mapping T over (i, j)."""
    return [_total(b, (b.mul(tensor[i, j], vec[j]) for j in range(n)))
            for i in range(n)]


def _riemann(b, jet: _Jet, y) -> list:
    """A y y / 2, as (A^k_ij y^j) y^i / 2."""
    n = jet.n
    ayy = [_total(b, (b.mul(_total(b, (b.mul(jet.A[k, i, j], y[j])
                                       for j in range(n))), y[i])
                      for i in range(n))) for k in range(n)]
    return [b.mul(0.5, g) for g in ayy]


def _natural_wind(b, jet: _Jet, y, f) -> list:
    """-F M y / 2, as `sprays.natural_wind_term`."""
    half_f = b.mul(-0.5, f)
    return [b.mul(half_f, m) for m in _contract(b, jet.M, y, jet.n)]


def _randers_wind(b, jet: _Jet, y, f) -> list:
    """(r_0 - F r / 2 - r_00 / (2 F)) y + (r_00 / 2 + F^2 r / 2 - F r_0) W
    - F^2 (S^i + R^i) / 2 - F S^i_0, its terms grouped as
    `sprays.randers_wind_term` and S^i_0 taken as h^il (S y)_l."""
    n, w = jet.n, jet.W
    dp = {(i, j): _total(b, (b.mul(jet.h[i, k], jet.M[k, j])
                             for k in range(n)))
          for i in range(n) for j in range(n)}
    r = {(i, j): b.mul(0.5, b.add(dp[i, j], dp[j, i]))
         for i in range(n) for j in range(n)}
    s = {(i, j): b.mul(0.5, b.sub(dp[i, j], dp[j, i]))
         for i in range(n) for j in range(n)}
    r_j = [_total(b, (b.mul(w[i], r[i, j]) for i in range(n)))
           for j in range(n)]
    r_sc = _total(b, (b.mul(w[j], r_j[j]) for j in range(n)))
    up = _contract(b, jet.hinv, [b.add(r_j[j], _total(b, (
        b.mul(w[i], s[i, j]) for i in range(n)))) for j in range(n)], n)
    ry = _contract(b, r, y, n)  # R symmetric: (y R)_j = (R y)_j
    r_0 = _total(b, (b.mul(ry[i], w[i]) for i in range(n)))
    r_00 = _total(b, (b.mul(ry[i], y[i]) for i in range(n)))
    s_i0 = _contract(b, jet.hinv, _contract(b, s, y, n), n)
    half_f = b.mul(0.5, f)
    half_ff = b.mul(half_f, f)
    on_y = b.sub(b.sub(r_0, b.mul(half_f, r_sc)),
                 b.div(r_00, b.mul(2.0, f)))
    on_w = b.sub(b.add(b.mul(0.5, r_00), b.mul(half_ff, r_sc)),
                 b.mul(f, r_0))
    return [b.sub(b.sub(b.add(b.mul(on_y, y[k]), b.mul(on_w, w[k])),
                        b.mul(half_ff, up[k])), b.mul(f, s_i0[k]))
            for k in range(n)]


_WIND_TERMS = {"natural": _natural_wind, "randers": _randers_wind}


# The jet quantities a field program returns, by name.
JET_FIELDS = ("h", "W", "hW", "lam", "hinv", "A", "M")


def _checked_run(program: exprlang.Program, b: exprlang._Builder,
                 dual: bool, params: str, tail: list):
    """run(x, *fibers) -> out, the fibers float arrays: the lines of
    builder b, which walked `program` (with dual, its gradients too), then
    `tail`, which returns ok, bad, fin and out, as one NumPy function of
    `params`, checking the sweep's domains, the finiteness of the walk and
    the pivots. On a failure the sweep at x raises the error of `evaluate`
    (`evaluate_dual`), or else NotPositiveDefinite names the first point
    of a failed pivot."""
    args, _, test = exprlang.domain_tests(program.exprs, b)
    fn = exprlang.numpy_function(
        "field", params, b.lines + [(None, f"bad = {test}", tuple(args)),
                                    (None, "ok, fin = True, True", ())]
        + [(t, _MASK.get(c, c), r) for t, c, r in b.dlines] + tail,
        names={"empty": np.empty, "zeros": np.zeros, "isfinite": np.isfinite,
               "stack": np.stack, "broadcast_arrays": np.broadcast_arrays})

    def run(x, *fibers):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            ok, bad, fin, out = fn(x, *fibers)
        if bad or not fin or not np.all(ok):
            program.sweep(x, dual)
            if not np.all(ok):
                raise NotPositiveDefinite(
                    "metric value is not positive definite at "
                    + exprlang._witness(x, np.logical_not(ok)))
        return out
    return run


@functools.lru_cache(maxsize=64)
def field_program(program: exprlang.Program, outputs: tuple):
    """run(x) -> fresh arrays of the jet quantities `outputs` at x (..., n)
    from the `_Jet` lines of `program` (gradient and metric lines only when
    an output needs them) as `_checked_run`. Memoized on (program, outputs)."""
    n = program.n
    dual = not {"hinv", "A", "M"}.isdisjoint(outputs)
    b = exprlang._Builder(n)
    with np.errstate(all="ignore"):
        jet = _Jet(b, program, dual)
    outputs = outputs if jet.ok else ()
    tail = []
    for name in outputs:
        refs = getattr(jet, name)
        if not isinstance(refs, dict):  # W, hW and lam by index tuple too
            refs = dict(np.ndenumerate(np.array(refs, dtype=object)))
        alloc = "zeros" if None in refs.values() else "empty"
        shape = (n,) * len(next(iter(refs)))
        tail.append((name, f"{alloc}(x.shape[:-1] + {shape})", ()))
        tail += [(None, f"{{0}}[{', '.join(('...',) + tuple(map(str, key)))}]"
                  " = {1}", (name, ref))
                 for key, ref in refs.items() if ref is not None]
    return _checked_run(program, b, dual, "x", tail + [
        (None, "return ok, bad, fin, (" + "".join(
            f"{{{i}}}, " for i in range(len(outputs))) + ")", outputs)])


@functools.lru_cache(maxsize=4)
def _pivot_mask(n: int):
    b = exprlang._Builder(n)
    _pivots(b, {(i, j): f"h[..., {i}, {j}]"
                for i in range(n) for j in range(i, n)}, n)
    lines = [(t, _MASK.get(c, c), r) for t, c, r in b.dlines]
    return exprlang.float_function(
        "mask", "h", [(None, "ok = True", ())] + lines
        + [(None, "return ok", ())])


def positive_definite(h: np.ndarray) -> np.ndarray:
    """Mask (...) of the symmetric matrices h (..., n, n) that are positive
    definite, by Sylvester's criterion: every pivot of the elimination of
    `_pivots` is positive. Its lines run over the columns h[..., i, j],
    each one ufunc on a whole-batch column; memoized per dimension. A
    matrix fails at its first nonpositive pivot; a zero pivot turns the
    later ones inf or NaN, which cannot undo that and raise no warning."""
    with np.errstate(all="ignore"):
        return _pivot_mask(h.shape[-1])(h)


def geodesic_stage_lines(program: exprlang.Program, kind: str,
                         b: exprlang._Builder, p: list, v: list) -> list:
    """The geodesic equation (x, y)' = (y, -2 G(x, y)) of the spray `kind`
    ('riemann', 'natural' or 'randers') of the fields of `program` (the
    jet program of navigation data, or the metric's own for 'riemann') as
    lines of builder b, from the references v = (x, y) of the state; p,
    the stage row, is empty. b walks the program afresh, its coordinates
    x: the `_Jet` lines and F, then A y y / 2 plus the wind term grouped
    as `sprays.natural_wind_term` or `sprays.randers_wind_term`. Returns
    the 2n references, a structural zero as 0.0."""
    n = program.n
    b.n, b.coords, b.vals, b.dots = n, tuple(v[:n]), {}, {}
    y = v[n:]
    jet = _Jet(b, program)
    if not jet.ok:
        return [0.0] * (2 * n)
    g = _riemann(b, jet, y)
    if kind in _WIND_TERMS:
        g = map(b.add, g, _WIND_TERMS[kind](b, jet, y, jet.norm(b, y)))
    return [0.0 if r is None else r
            for r in y + [b.mul(-2.0, gk) for gk in g]]


@functools.lru_cache(maxsize=32)
def geodesic_numpy(program: exprlang.Program, kind: str):
    """run(x, y) -> (y, -2 G(x, y)) (..., 2n): `geodesic_stage_lines` of
    the spray `kind` of `program` over the NumPy columns x[..., i] and
    y[..., i], which broadcast, as `_checked_run`. Memoized on (program,
    kind); the first call builds the code."""
    n = program.n
    b = exprlang._Builder(n)
    with np.errstate(all="ignore"):
        refs = geodesic_stage_lines(program, kind, b, [], [
            f"{c}[..., {i}]" for c in "xy" for i in range(n)])
    return _checked_run(program, b, True, "x, y", [
        (None, "return ok, bad, fin, stack(broadcast_arrays(" + "".join(
            f"{{{i}}}, " for i in range(2 * n)) + "), axis=-1)", tuple(refs))])


def linear_stage_lines(b: exprlang._Builder, p: list, v: list) -> list:
    """T v as lines of builder b, T held row by row in the references p,
    v the references of the state; its len(p) // len(v) references. The
    table product of `natural_stage_lines`."""
    n = len(v)
    return [_total(b, (b.mul(p[r * n + c], v[c]) for c in range(n)))
            for r in range(len(p) // n)]


def natural_stage_lines(b: exprlang._Builder, p: list, v: list) -> list:
    """The natural transport stage -A(cdot, v) + F(v) M cdot of
    `transport._natural_stage` as lines of builder b, from the references
    p of one stage row and v of the state; returns its n references. A
    stage row holds the table [-A(cdot); Q; hW^T] (2n + 1, n) row by row,
    then M cdot and lam, at one half step: (2n + 1) n + n + 1 entries."""
    n = len(v)
    rows = 2 * n + 1
    t = linear_stage_lines(b, p[:rows * n], v)
    q = _total(b, (b.mul(v[i], t[n + i]) for i in range(n)))
    f = b.div(b.sub(_sqrt(b, q), t[-1]), p[-1])
    return [b.add(t[k], b.mul(f, p[rows * n + k])) for k in range(n)]


def _tableau(b: exprlang._Builder, text: str, i: int, slots: dict):
    """Component i of a tableau text of `numkernel` (a stage argument or
    the update) as a reference of builder b, reading slot v or k1 .. k4
    from slots[name][i]."""
    args = []

    def put(match) -> str:
        args.append(slots[match.group(1)][i])
        return f"{{{len(args) - 1}}}"
    template = _SLOT.sub(put, text)
    return args[0] if template == "{0}" else b.emit(b.dlines, template, *args)


def _runner(m: int, stage, width: int = 0):
    """run(tab, inside, states, runs, stop, steps, half, dt, sixth): the
    RK4 steps of the ODE whose right-hand side is stage(b, p, v) (lines of
    builder b from the references p of a stage row and v of the state),
    as float code, for the states (a list of sequences of m floats) of a
    group of batch rows, in lockstep. The stage lines are inlined four
    times between the lines of numkernel's tableau text, so each row takes
    the operations of `numkernel.rk4`'s NumPy step. Each new state is
    appended to runs[row] (an array('d')) unless runs is None.

    With width > 0, tab (2N + 1, width) is a C-contiguous float64 table of
    stage rows, read as raw floats: step j unpacks half-step rows 2j + 1
    and 2j + 2 once for all the rows, row 2j carrying over from the step
    before. With width 0 (no table), a row whose new state fails
    inside(new) keeps its state and records stop[row] = j, and the run
    ends when no row is live. Returns states, updated in place, or None at
    the first non-finite state; a float error propagates."""
    rows = [[f"p{at}_{i}" for i in range(width)] for at in range(3)]
    b = exprlang._Builder(m)
    b.lines = b.dlines  # value and derivative lines in one ordered list
    slots = {"v": [f"v_{i}" for i in range(m)]}
    with np.errstate(all="ignore"):
        for k, at, arg in nk._STAGES:
            slots[k] = stage(b, rows[at],
                             [_tableau(b, arg, i, slots) for i in range(m)])
        new = [_tableau(b, nk._UPDATE, i, slots) for i in range(m)]
    lines = b.dlines + [(None, "new = (" + "".join(
        f"{{{i}}}, " for i in range(m)) + ")", tuple(new))]
    start = table = turn = skip = halt = []
    if width:  # the table's stage rows, unpacked once per step
        p = [", ".join(names) + "," for names in rows]
        start = [f"{p[0]} = unpack(tab, 0)"]
        table = [f"    at = {16 * width} * j",
                 f"    {p[1]} = unpack(tab, at + {8 * width})",
                 f"    {p[2]} = end = unpack(tab, at + {16 * width})"]
        turn = [f"    {p[0]} = end"]
    else:  # halted rows are skipped
        skip = ["        if stop[row] < steps:", "            continue"]
        halt = ["        if inside is not None and not inside(new):",
                "            stop[row] = j",
                "            if steps not in stop:",
                "                return states",
                "            continue"]
    frame = (start + ["for j in range(steps):"] + table
             + [f"    for row, ({', '.join(slots['v'])},) in enumerate(states):"]
             + skip + ["        {body}",
                       "        if not isfinite(sum(new)):",
                       "            return None"]
             + halt + ["        states[row] = new",
                       "        if runs is not None:",
                       "            runs[row].extend(new)"]
             + turn + ["return states"])
    return exprlang.float_function(
        "run", "tab, inside, states, runs, stop, steps, half, dt, sixth",
        lines, names={"unpack": struct.Struct(f"{width}d").unpack_from}
        if width else None, frame="".join(f"    {line}\n" for line in frame))


@functools.lru_cache(maxsize=32)
def geodesic_run(program: exprlang.Program, kind: str):
    """The runner (`_runner`) of the geodesic equation of the spray `kind`
    of the fields of `program` (`geodesic_stage_lines`): no table, and
    rows halt on inside. Memoized on (program, kind); the first call
    builds the code."""
    return _runner(2 * program.n,
                   functools.partial(geodesic_stage_lines, program, kind))


@functools.lru_cache(maxsize=4)
def table_run(n: int):
    """The runner (`_runner`) of the natural transport ODE
    (`natural_stage_lines`) in dimension n, on one curve's table of stage
    rows; its rows never halt. Memoized on n; the first call builds the
    code."""
    return _runner(n, natural_stage_lines, (2 * n + 1) * n + n + 1)


def float_run(runner, key: tuple, tables=(None,), rows=None, inside=None):
    """The float_run of `numkernel.rk4` on the runner runner(*key) of
    `_runner`, looked up when a batch first runs on floats: the batch rows
    on each of `tables` (row b on tables[rows[b]]; every row on the one
    table when rows is None) run in lockstep, halting on inside, and come
    back in batch order as rk4's (v, trajectory or None, stop); None at
    the first non-finite state."""
    def run(v, steps, sizes, keep):
        go = runner(*key)
        states = v.tolist()
        runs = [array.array("d", s) for s in states] if keep else None
        stop = [steps] * len(states)
        for c, table in enumerate(tables):
            group = (range(len(states)) if rows is None
                     else np.flatnonzero(rows == c).tolist())
            last = [steps] * len(group)
            done = go(table, inside, [states[b] for b in group],
                      None if runs is None else [runs[b] for b in group],
                      last, steps, *sizes)
            if done is None:
                return None
            for b, state, halt in zip(group, done, last):
                states[b], stop[b] = state, halt
        return nk.float_result(states, runs, stop)
    return run

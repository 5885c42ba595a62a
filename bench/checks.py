"""Output checks for benchmark requests.

Every check is an invariant that holds for any seed, not a stored golden:
norm conservation along geodesics and transports, the holonomy
correspondence hol(V) = H V - F(V) (H W - W), rank bounds, and the verdicts
that theory fixes for the scenarios with known classes.

The oracle re-evaluates the scenario's metric and wind from their
expression strings with NumPy and re-derives the navigation norm from its
definition, so a check does not trust the program's own numerics for the
quantities it compares against.
"""
from __future__ import annotations

import io
import json
import re

import numpy as np

F_DRIFT = 1e-6          # F along natural/randers geodesics and natural transports
H_DRIFT = 1e-6          # h-norm along riemann geodesics and metric transports
F_COLUMN_RTOL = 1e-9    # the program's F column against the oracle's F
HOLONOMY_RESID = 1e-5   # probes_out against the correspondence prediction
EXACT = 1e-12           # positions and parameters that are copied, not computed

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
          "sqrt": np.sqrt, "tanh": np.tanh, "pi": np.pi, "e": np.e}
_SAFE = re.compile(r"^[\sA-Za-z0-9_.+\-*/^(),]*$")

# Verdicts fixed by theory. Constant winds are parallel; the radial winds
# (Funk ball, sphere cap, and the coordinate-constant wind of conformal_flat,
# whose covariant derivative is 0.3 I) are concircular, hence isotropic_S and
# with coinciding sprays; the rotations are Killing fields (R = 0, so
# isotropic_S) that are neither parallel nor concircular.
_ALL_TRUE = {"wind_parallel": True, "torsion_vanishes": True, "wagner": True,
             "concircular": True, "isotropic_S": True,
             "sprays_coincide": True}
_RADIAL = {"wind_parallel": False, "torsion_vanishes": False, "wagner": False,
           "concircular": True, "isotropic_S": True, "sprays_coincide": True}
_ROTATION = {"wind_parallel": False, "torsion_vanishes": False,
             "wagner": False, "concircular": False, "isotropic_S": True,
             "sprays_coincide": False}
KNOWN_VERDICTS = {
    "zero_wind": _ALL_TRUE, "constant_wind": _ALL_TRUE,
    "constant_wind_3d": _ALL_TRUE,
    "funk_ball": _RADIAL, "funk_ball_3d": _RADIAL, "sphere_cap": _RADIAL,
    "conformal_flat": _RADIAL,
    "rotation_disk": _ROTATION, "rot_ball_3d": _ROTATION,
    "rot_box_4d": _ROTATION,
    "annulus_constant_length": {"wind_parallel": False,
                                "torsion_vanishes": False, "wagner": True},
}
# Rank of the holonomy distribution: n for parallel winds, 2n on the
# rotation disk; everything else only obeys n <= rank <= 2n.
KNOWN_RANK = {"zero_wind": 2, "constant_wind": 2, "constant_wind_3d": 3,
              "rotation_disk": 4}


class CheckFailed(Exception):
    """An output broke an invariant; the message names which."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _compile(source: str, names: tuple):
    _require(_SAFE.match(source) is not None,
             f"unexpected character in expression {source!r}")
    code = compile(source.replace("^", "**"), "<expr>", "eval")
    bad = set(code.co_names) - set(names) - set(_FUNCS)
    _require(not bad, f"unknown names {sorted(bad)} in {source!r}")
    return code


def _eval(code, env: dict, shape) -> np.ndarray:
    with np.errstate(all="ignore"):
        val = eval(code, {"__builtins__": {}}, {**_FUNCS, **env})
    return np.broadcast_to(np.asarray(val, dtype=float), shape)


class Oracle:
    """Independent NumPy evaluation of one schema-1 scenario."""

    def __init__(self, spec: dict):
        self.dim = n = int(spec["dim"])
        self.domain = spec["domain"]
        self.names = tuple(f"x{i + 1}" for i in range(n))
        self._metric = [[_compile(spec["metric"][i][j - i], self.names)
                         for j in range(i, n)] for i in range(n)]
        self._wind = [_compile(w, self.names) for w in spec["wind"]]

    def _env(self, x):
        x = np.asarray(x, dtype=float)
        return x, {name: x[..., i] for i, name in enumerate(self.names)}

    def metric(self, x) -> np.ndarray:
        x, env = self._env(x)
        n = self.dim
        out = np.empty(x.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(i, n):
                out[..., i, j] = out[..., j, i] = _eval(
                    self._metric[i][j - i], env, x.shape[:-1])
        return out

    def wind(self, x) -> np.ndarray:
        x, env = self._env(x)
        return np.stack([_eval(c, env, x.shape[:-1]) for c in self._wind],
                        axis=-1)

    def h_norm(self, x, y) -> np.ndarray:
        h = self.metric(x)
        return np.sqrt(np.einsum("...ij,...i,...j->...", h, y, y))

    def norm(self, x, y) -> np.ndarray:
        """F(x, y) = (sqrt(<y,W>^2 + lam |y|^2) - <y,W>) / lam."""
        h, w = self.metric(x), self.wind(x)
        y = np.asarray(y, dtype=float)
        lam = 1.0 - np.einsum("...ij,...i,...j->...", h, w, w)
        wy = np.einsum("...ij,...i,...j->...", h, y, w)
        yy = np.einsum("...ij,...i,...j->...", h, y, y)
        return (np.sqrt(wy * wy + lam * yy) - wy) / lam

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self.domain
        if d["kind"] == "ball":
            r = np.linalg.norm(x - np.asarray(d["center"], float), axis=-1)
            return r < float(d["radius"])
        lo, hi = np.asarray(d["lo"], float), np.asarray(d["hi"], float)
        return np.all((x > lo) & (x < hi), axis=-1)


def curve_points(components, ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    return np.stack([_eval(_compile(c, ("t",)), {"t": ts}, ts.shape)
                     for c in components], axis=-1)


# ---------------------------------------------------------------------------
# per-kind checks


def _csv(out: str, header: list) -> np.ndarray:
    first, _, body = out.partition("\n")
    _require(first.split(",") == header,
             f"CSV header {first!r} is not {','.join(header)!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), "CSV rows have the wrong width")
    _require(np.all(np.isfinite(data)), "CSV holds a non-finite value")
    return data


def _trajectory(out: str, n: int, vec: str):
    """(t, x, vector, F) columns of a 't, x*, <vec>*, F' CSV."""
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"{vec}{i + 1}" for i in range(n)] + ["F"])
    data = _csv(out, header)
    return data[:, 0], data[:, 1:n + 1], data[:, n + 1:2 * n + 1], data[:, -1]


def _check_norms(oracle, xs, vs, fcol, metric_only: bool, what: str) -> None:
    """The F column matches the oracle's F at sampled rows, and the
    conserved norm (h for the metric connection, F otherwise) stays put."""
    m = len(fcol)
    rows = sorted({0, m // 3, m // 2, (2 * m) // 3, m - 1})
    ref = oracle.norm(xs[rows], vs[rows])
    err = np.abs(fcol[rows] - ref) / np.maximum(1.0, np.abs(ref))
    _require(err.max() <= F_COLUMN_RTOL,
             f"F column differs from the norm of (x, v) by {err.max():.3e}")
    if metric_only:
        label, tol, norms = "h-norm", H_DRIFT, oracle.h_norm(xs, vs)
    else:
        label, tol, norms = "F", F_DRIFT, fcol
    drift = float(np.abs(norms - norms[0]).max())
    _require(drift <= tol, f"{label} drift {drift:.3e} along {what}")


def check_geodesic(req, out: str, err: str, oracle: Oracle) -> None:
    p = req.params
    ts, xs, ys, fcol = _trajectory(out, oracle.dim, "y")
    steps = int(round(p["time"] / p["dt"]))
    m = len(ts)
    _require(1 <= m <= steps + 1, f"{m} rows for {steps} steps")
    _require(np.allclose(ts, p["dt"] * np.arange(m), rtol=0, atol=EXACT),
             "t column is not the step grid")
    _require(np.allclose(xs[0], p["from"], rtol=0, atol=EXACT)
             and np.allclose(ys[0], p["dir"], rtol=0, atol=EXACT),
             "first row is not the requested start")
    _require(np.all(oracle.contains(xs)), "path leaves the chart")
    halted = m < steps + 1
    _require(halted == ("left the domain" in err),
             "halt note on stderr disagrees with the row count")
    _check_norms(oracle, xs, ys, fcol, p["spray"] == "riemann",
                 f"a {p['spray']} geodesic")


def check_transport(req, out: str, err: str, oracle: Oracle) -> None:
    p = req.params
    ts, xs, vs, fcol = _trajectory(out, oracle.dim, "v")
    steps = int(round(1.0 / p["dt"]))
    _require(len(ts) == steps + 1, f"{len(ts)} rows for {steps} steps")
    _require(np.allclose(ts, np.linspace(0.0, 1.0, steps + 1), rtol=0,
                         atol=EXACT), "t column is not the step grid")
    _require(np.allclose(xs, curve_points(p["curve"], ts), rtol=0, atol=1e-9),
             "positions are not the requested curve")
    _require(np.allclose(vs[0], p["vector"], rtol=0, atol=EXACT),
             "first row is not the requested vector")
    _check_norms(oracle, xs, vs, fcol, p["mode"] == "riemann",
                 f"a {p['mode']} transport" + (
                     f" ({p['method']})" if p["method"] else ""))


def check_holonomy(req, out: str, err: str, oracle: Oracle) -> None:
    p, n = req.params, oracle.dim
    d = json.loads(out)
    base = np.asarray(d["base"], float)
    v_in = np.asarray(d["probes_in"], float)
    v_out = np.asarray(d["probes_out"], float)
    mat = np.asarray(d["riemann_matrix"], float)
    _require(d["mode"] == "natural", "holonomy mode is not natural")
    _require(v_in.shape == (p["probes"], n) and v_out.shape == v_in.shape,
             f"expected {p['probes']} probes of dimension {n}")
    _require(mat.shape == (n, n), "riemann_matrix has the wrong shape")
    _require(np.allclose(base, curve_points(p["loop"], 0.0), rtol=0,
                         atol=1e-9), "base is not the loop's start")
    f_in = oracle.norm(base, v_in)
    _require(np.allclose(f_in, 1.0, rtol=0, atol=1e-9),
             "probes are not norm-unit vectors")
    _require(np.allclose(d["norms_in"], f_in, rtol=0, atol=1e-9),
             "norms_in differ from the norms of the probes")
    drift = float(np.abs(np.asarray(d["norms_out"]) - d["norms_in"]).max())
    _require(drift <= F_DRIFT, f"F drift {drift:.3e} around the loop")
    w = oracle.wind(base)
    pred = v_in @ mat.T - f_in[:, None] * (mat @ w - w)[None, :]
    resid = float(np.abs(v_out - pred).max())
    _require(resid <= HOLONOMY_RESID,
             f"holonomy correspondence residual {resid:.3e}")


def check_rank(req, out: str, err: str, oracle: Oracle) -> None:
    p, n = req.params, oracle.dim
    d = json.loads(out)
    reports = d["reports"]
    _require(d["n_samples"] == p["samples"] and len(reports) == p["samples"],
             f"expected {p['samples']} rank reports")
    _require(d["depth"] == p["depth"], "depth differs from the request")
    ranks = [r["rank"] for r in reports]
    _require(all(n <= r <= 2 * n for r in ranks),
             f"rank outside [{n}, {2 * n}]: {ranks}")
    _require(d["rank_min"] == min(ranks) and d["rank_max"] == max(ranks),
             "rank_min/rank_max disagree with the reports")
    _require(all(oracle.contains(np.asarray(r["x"], float)) for r in reports),
             "a rank sample lies outside the chart")
    known = KNOWN_RANK.get(req.scenario)
    _require(known is None or all(r == known for r in ranks),
             f"ranks {ranks} on {req.scenario}, expected {known}")


def _check_verdict(name: str, v: dict) -> None:
    _require(v["passed"] == (v["residual"] < v["tol"]),
             f"{name}: passed={v['passed']} but residual {v['residual']:.3e}"
             f" vs tol {v['tol']:.1e}")


def _check_known(scenario: str, verdicts: dict) -> None:
    for name, want in KNOWN_VERDICTS.get(scenario, {}).items():
        if name in verdicts:
            _require(verdicts[name] == want,
                     f"{name} is {verdicts[name]} on {scenario}, expected "
                     f"{want}")


def _check_comparison(c: dict) -> None:
    _require(c["sprays_coincide"] == (c["sup_natural_vs_randers"]
                                      < c["tol_coincide"]),
             "sprays_coincide disagrees with its residual")
    slack = 1e-12 * max(1.0, abs(c["phi_min"]), abs(c["phi_max"]))
    _require(c["phi_min"] - slack <= c["phi_mean"] <= c["phi_max"] + slack,
             "phi_mean lies outside [phi_min, phi_max]")


def check_classify(req, out: str, err: str, oracle: Oracle) -> None:
    d = json.loads(out)
    p, n = req.params, oracle.dim
    names = ("wind_parallel", "torsion_vanishes", "berwald", "wagner",
             "concircular", "isotropic_S")
    for name in names:
        _check_verdict(name, d[name])
    verdicts = {name: d[name]["passed"] for name in names}
    verdicts["sprays_coincide"] = d["sprays_coincide"]
    _require(0 < d["n_grid"] <= p["per_axis"] ** n,
             f"n_grid {d['n_grid']} for per-axis {p['per_axis']}")
    _require(d["spray_comparison"]["n_points"] == d["n_grid"],
             "the spray comparison ran on another grid")
    _check_comparison(d["spray_comparison"])
    _require(d["sprays_coincide"] == d["spray_comparison"]["sprays_coincide"],
             "sprays_coincide differs from the comparison's verdict")
    # equivalences and implications that hold for every scenario
    _require(verdicts["berwald"] == verdicts["wind_parallel"],
             "berwald differs from wind_parallel")
    _require(verdicts["torsion_vanishes"] == verdicts["wind_parallel"],
             "torsion_vanishes differs from wind_parallel")
    _require(verdicts["concircular"] == verdicts["sprays_coincide"],
             "concircular differs from sprays_coincide")
    _require(not verdicts["concircular"] or verdicts["isotropic_S"],
             "concircular without isotropic_S")
    _require(not verdicts["wind_parallel"]
             or (verdicts["concircular"] and verdicts["wagner"]),
             "a parallel wind that is not concircular and Wagner")
    _check_known(req.scenario, verdicts)


def check_compare(req, out: str, err: str, oracle: Oracle) -> None:
    d = json.loads(out)
    p, n = req.params, oracle.dim
    _require(d["n_dirs"] == p["dirs"], "n_dirs differs from the request")
    _require(0 < d["n_points"] <= p["per_axis"] ** n,
             f"n_points {d['n_points']} for per-axis {p['per_axis']}")
    _check_comparison(d)
    _check_known(req.scenario, {"sprays_coincide": d["sprays_coincide"]})


def check_torsion(req, out: str, err: str, oracle: Oracle) -> None:
    d = json.loads(out)
    p = req.params
    _require(d["grid_per_axis"] == p["per_axis"] and d["tol"] == p["tol"],
             "grid or tolerance differs from the request")
    _check_verdict("torsion_vanishes", d)
    _check_known(req.scenario, {"torsion_vanishes": d["passed"]})


CHECKS = {"geodesic": check_geodesic, "transport": check_transport,
          "holonomy": check_holonomy, "rank": check_rank,
          "classify": check_classify, "compare-sprays": check_compare,
          "torsion": check_torsion}


def check_output(req, rc, out: str, err: str, oracle: Oracle):
    """None when the request succeeded and its output holds every
    invariant; otherwise a one-line reason."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    try:
        CHECKS[req.kind](req, out, err, oracle)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None

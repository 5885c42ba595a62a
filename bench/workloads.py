"""Seeded request lists for the benchmark workloads.

A workload is an endless sequence of passes. Every pass holds each of the
workload's request classes exactly once, in a seeded order, with seeded
continuous parameters (start points, directions, curves, loops, sample
seeds). Because the class mix of a pass is fixed and no seed changes a size flag,
the median and the tail of a run depend on the program's speed, not on which
seed drew which mix. Grid sweeps take no random input at all: a seed only
moves them within the pass.

The program sees only the generated argv. Everything the output checks need
to know about a request travels beside it in `Request.params`.

Size flags (--dt, --time, --depth, --per-axis, --dirs, --probes,
--samples) are always passed, so later changes to CLI defaults do not change
the workload. --seed goes only to `holonomy` and `rank`, the subcommands
that read it. Vectors and expressions go as `--flag=value`, because
argparse takes a leading '-' in a separate value for an unknown option.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SCENARIO_DIR = BENCH_DIR / "scenarios"
# argv refers to scenario files relative to the checkout root, which is the
# working directory of every benchmark process
SCENARIO_ARG_DIR = "bench/scenarios"

# Domains of the built-ins the workloads use; requests are generated from
# these alone, so a request list does not depend on the program under test.
_BALL2 = {"kind": "ball", "center": [0.0, 0.0], "radius": 0.9}
_BOX2 = {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
BUILTIN_DOMAINS = {
    "zero_wind": _BOX2,
    "constant_wind": _BOX2,
    "funk_ball": _BALL2,
    "rotation_disk": _BALL2,
    "sphere_cap": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.6},
    "annulus_constant_length": {"kind": "box", "lo": [0.25, 0.25],
                                "hi": [0.95, 0.95]},
    "conformal_flat": _BOX2,
}

GEODESIC_TIME = 0.5
GEODESIC_DT = 5e-3
TRANSPORT_DT = 1e-3
HOLONOMY_DT = 2e-3
HOLONOMY_PROBES = 8
RANK_DEPTH = 3
COMPARE_DIRS = 16
TORSION_TOL = 1e-8


@dataclass(frozen=True)
class Request:
    kind: str
    scenario: str
    argv: tuple
    params: dict = field(default_factory=dict, compare=False)
    klass: int = -1         # index into Workload.classes


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple          # (kind, scenario, options) triples
    tail_pct: int           # percentile reported as task_tail_s
    trace_passes: int       # passes in the traced run (fixed, so counts repeat)

    def scenarios(self) -> list:
        return sorted({scen for _, scen, _ in self.classes})


# Class counts and tail percentiles are chosen together: the median and the
# tail of a run fall inside the samples of one class, or between classes of
# similar cost, so they do not jump between classes from run to run.


def _cls(kind, scenario, **options):
    return (kind, scenario, options)


# The batch-of-one regime: single-point spray calls inside RK4 loops and
# ~2e3-point curve tables; a minority of requests on the 3D files.
PATHS = Workload("paths", (
    _cls("geodesic", "funk_ball", spray="natural", style="calm"),
    _cls("geodesic", "funk_ball", spray="randers", style="calm"),
    _cls("geodesic", "sphere_cap", spray="randers", style="calm"),
    _cls("geodesic", "sphere_cap", spray="riemann", style="calm"),
    _cls("geodesic", "rotation_disk", spray="natural", style="dash"),
    _cls("geodesic", "conformal_flat", spray="riemann", style="dash"),
    _cls("geodesic", "conformal_flat", spray="natural", style="calm"),
    _cls("geodesic", "annulus_constant_length", spray="randers",
         style="dash"),
    _cls("geodesic", "rot_ball_3d", spray="randers", style="calm"),
    _cls("geodesic", "funk_ball_3d", spray="riemann", style="dash"),
    _cls("transport", "sphere_cap", mode="natural", method="definitional"),
    _cls("transport", "rotation_disk", mode="natural", method="ode"),
    _cls("transport", "funk_ball", mode="natural", method="ode"),
    _cls("transport", "annulus_constant_length", mode="natural",
         method="definitional"),
    _cls("transport", "conformal_flat", mode="riemann"),
    _cls("transport", "rot_ball_3d", mode="natural", method="ode"),
    _cls("transport", "funk_ball_3d", mode="riemann"),
    _cls("holonomy", "sphere_cap"),
    _cls("holonomy", "rotation_disk"),
    _cls("holonomy", "rot_ball_3d"),
), tail_pct=90, trace_passes=2)

# The large-array regime: grid sweeps at ~4e2 (2D), ~1e3 (3D) and ~4e3 (4D)
# base points; no integrator runs.
GRIDS = Workload("grids", (
    _cls("classify", "funk_ball", per_axis=24),
    _cls("classify", "constant_wind", per_axis=20),
    _cls("classify", "rotation_disk", per_axis=24),
    _cls("classify", "sphere_cap", per_axis=24),
    _cls("classify", "funk_ball_3d", per_axis=14),
    _cls("classify", "constant_wind_3d", per_axis=10),
    _cls("classify", "rot_ball_3d", per_axis=14),
    _cls("classify", "rot_box_4d", per_axis=8),
    _cls("compare-sprays", "conformal_flat", per_axis=20),
    _cls("compare-sprays", "rotation_disk", per_axis=24),
    _cls("compare-sprays", "annulus_constant_length", per_axis=20),
    _cls("compare-sprays", "rot_ball_3d", per_axis=14),
    _cls("compare-sprays", "funk_ball_3d", per_axis=14),
    _cls("compare-sprays", "rot_box_4d", per_axis=8),
    _cls("torsion", "rotation_disk", per_axis=24),
    _cls("torsion", "constant_wind", per_axis=20),
    _cls("torsion", "constant_wind_3d", per_axis=10),
    _cls("torsion", "funk_ball_3d", per_axis=14),
    _cls("torsion", "rot_box_4d", per_axis=8),
), tail_pct=75, trace_passes=1)

# Finite-difference Lie brackets over single-point spray-connection sweeps:
# the extreme of per-call cost. No other workload reaches this path.
RANK_SURVEY = Workload("rank-survey", (
    _cls("rank", "rotation_disk", samples=5),
    _cls("rank", "constant_wind", samples=5),
    _cls("rank", "funk_ball", samples=5),
    _cls("rank", "sphere_cap", samples=5),
    _cls("rank", "conformal_flat", samples=5),
    _cls("rank", "annulus_constant_length", samples=5),
    _cls("rank", "rot_ball_3d", samples=1),
    _cls("rank", "funk_ball_3d", samples=1),
    _cls("rank", "constant_wind_3d", samples=1),
    _cls("rank", "rot_box_4d", samples=1),
), tail_pct=75, trace_passes=1)

WORKLOADS = {w.name: w for w in (PATHS, GRIDS, RANK_SURVEY)}


# ---------------------------------------------------------------------------
# scenario domains


def domain_of(scenario: str) -> tuple[int, dict]:
    """(dim, schema-1 domain) of a built-in or benchmark scenario file."""
    if scenario in BUILTIN_DOMAINS:
        dom = BUILTIN_DOMAINS[scenario]
        return len(dom.get("center", dom.get("lo"))), dom
    spec = json.loads((SCENARIO_DIR / f"{scenario}.json").read_text())
    return spec["dim"], spec["domain"]


def scenario_args(scenario: str) -> list:
    if scenario in BUILTIN_DOMAINS:
        return ["--builtin", scenario]
    return ["--scenario", f"{SCENARIO_ARG_DIR}/{scenario}.json"]


def _center_scale(dom: dict) -> tuple[np.ndarray, np.ndarray]:
    if dom["kind"] == "ball":
        c = np.asarray(dom["center"], float)
        return c, np.full(c.shape, float(dom["radius"]))
    lo, hi = np.asarray(dom["lo"], float), np.asarray(dom["hi"], float)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def unit_vector(rng, n) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def inner_point(rng, dom: dict, frac: float) -> np.ndarray:
    """Uniform point of the domain shrunk about its center by frac."""
    c, s = _center_scale(dom)
    n = len(c)
    if dom["kind"] == "ball":
        return c + frac * s * unit_vector(rng, n) * rng.uniform() ** (1.0 / n)
    return c + frac * s * rng.uniform(-1.0, 1.0, size=n)


def _vec(v) -> str:
    return ",".join(f"{float(a):.4f}" for a in v)


def _poly(a, b, c) -> str:
    """'a+b*t+c*t^2' with signs folded into the terms."""
    return f"{a:.4f}{b:+.4f}*t{c:+.4f}*t^2"


def _round4(v) -> np.ndarray:
    return np.array([float(f"{float(a):.4f}") for a in v])


# ---------------------------------------------------------------------------
# per-kind generators


def _geodesic(rng, scenario, spray, style):
    dim, dom = domain_of(scenario)
    c, s = _center_scale(dom)
    if style == "calm":
        x0 = inner_point(rng, dom, 0.3)
        y0 = 0.5 * s.min() * unit_vector(rng, dim)
    else:  # "dash": fast and roughly outward, so the path usually halts
        x0 = inner_point(rng, dom, 0.5)
        out = x0 - c
        out = out / max(np.linalg.norm(out), 1e-9) + 0.3 * unit_vector(rng, dim)
        y0 = 2.5 * s.min() * out / np.linalg.norm(out)
    x0, y0 = _round4(x0), _round4(y0)
    argv = ["geodesic", *scenario_args(scenario), "--spray", spray,
            f"--from={_vec(x0)}", f"--dir={_vec(y0)}",
            "--time", repr(GEODESIC_TIME), "--dt", repr(GEODESIC_DT)]
    return argv, {"spray": spray, "from": x0.tolist(), "dir": y0.tolist(),
                  "time": GEODESIC_TIME, "dt": GEODESIC_DT}


def _transport(rng, scenario, mode, method=None):
    dim, dom = domain_of(scenario)
    _, s = _center_scale(dom)
    a = inner_point(rng, dom, 0.3)
    b = 0.35 * s * unit_vector(rng, dim)
    q = 0.1 * s * unit_vector(rng, dim)
    curve = [_poly(a[i], b[i], q[i]) for i in range(dim)]
    v0 = _round4(rng.uniform(0.5, 1.0) * unit_vector(rng, dim))
    argv = ["transport", *scenario_args(scenario),
            f"--curve={','.join(curve)}", f"--vector={_vec(v0)}",
            "--mode", mode]
    if mode == "natural":
        argv += ["--method", method]
    argv += ["--dt", repr(TRANSPORT_DT)]
    return argv, {"mode": mode, "method": method, "curve": curve,
                  "vector": v0.tolist(), "dt": TRANSPORT_DT}


def _holonomy(rng, scenario):
    dim, dom = domain_of(scenario)
    _, s = _center_scale(dom)
    a = inner_point(rng, dom, 0.2)
    r = rng.uniform(0.15, 0.3) * s.min()
    u = unit_vector(rng, dim)
    v = unit_vector(rng, dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    loop = [f"{a[i]:.4f}{r * u[i]:+.4f}*cos(2*pi*t){r * v[i]:+.4f}*sin(2*pi*t)"
            for i in range(dim)]
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["holonomy", *scenario_args(scenario), f"--loop={','.join(loop)}",
            "--mode", "natural", "--probes", str(HOLONOMY_PROBES),
            "--dt", repr(HOLONOMY_DT), "--seed", str(seed)]
    return argv, {"loop": loop, "probes": HOLONOMY_PROBES, "dt": HOLONOMY_DT}


def _rank(rng, scenario, samples):
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["rank", *scenario_args(scenario), "--samples", str(samples),
            "--depth", str(RANK_DEPTH), "--seed", str(seed)]
    return argv, {"samples": samples, "depth": RANK_DEPTH}


def _classify(rng, scenario, per_axis):
    argv = ["classify", *scenario_args(scenario), "--per-axis", str(per_axis)]
    return argv, {"per_axis": per_axis}


def _compare(rng, scenario, per_axis):
    argv = ["compare-sprays", *scenario_args(scenario),
            "--per-axis", str(per_axis), "--dirs", str(COMPARE_DIRS)]
    return argv, {"per_axis": per_axis, "dirs": COMPARE_DIRS}


def _torsion(rng, scenario, per_axis):
    argv = ["torsion", *scenario_args(scenario), "--per-axis", str(per_axis),
            "--tol", repr(TORSION_TOL)]
    return argv, {"per_axis": per_axis, "tol": TORSION_TOL}


_GENERATORS = {"geodesic": _geodesic, "transport": _transport,
               "holonomy": _holonomy, "rank": _rank, "classify": _classify,
               "compare-sprays": _compare, "torsion": _torsion}


def _make(rng, workload: Workload, klass: int) -> Request:
    kind, scenario, options = workload.classes[klass]
    argv, params = _GENERATORS[kind](rng, scenario, **options)
    return Request(kind, scenario, tuple(argv), params, klass)


def pass_requests(workload: Workload, seed: int, index: int) -> list:
    """Pass `index` of the workload: each class once, in a seeded order."""
    rng = np.random.default_rng([seed, 1, index])
    order = rng.permutation(len(workload.classes))
    return [_make(rng, workload, int(i)) for i in order]


def warmup_requests(workload: Workload, seed: int) -> list:
    """One request per subcommand, on the first 2D scenario of that kind.
    Warm-up requests are served and checked but never timed."""
    rng = np.random.default_rng([seed, 0])
    picked = {}
    for klass, (kind, scenario, _) in enumerate(workload.classes):
        if kind not in picked and domain_of(scenario)[0] == 2:
            picked[kind] = klass
    return [_make(rng, workload, klass) for klass in picked.values()]

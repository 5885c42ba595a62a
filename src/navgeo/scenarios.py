"""Scenario files and the built-in catalog.

A scenario is navigation data plus optional experiment inputs, stored as
JSON (version field "schema": 1):

    {
      "schema": 1,
      "name": "...",
      "dim": 2,
      "domain": {"kind": "ball", "center": [0, 0], "radius": 0.9}
                or {"kind": "box", "lo": [...], "hi": [...]},
      "metric": [["h11", "h12"], ["h22"]],      upper triangle, expressions
      "wind":   ["W1", "W2"],                    expressions in x1..xn
      "experiments": {                           optional
        "curves":  [["x1(t)", "x2(t)"], ...],
        "loops":   [["x1(t)", "x2(t)"], ...],
        "samples": [{"x": [...], "y": [...]}, ...]
      }
    }

Loading validates everything: expressions parse, the metric stays positive
definite and the wind stays strictly short on a sample of the domain, and
experiment curves stay inside the chart. Failures carry the JSON location
or a witness point. Positivity is Sylvester's criterion on the L D L^T
pivots of h at every sample point (`geometry.validate`); eigenvalues are
computed only for a validation report that is read and for a witness.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import exprlang
from .errors import (ScenarioParseError, ScenarioValidationError,
                     UnknownScenario)
from .geometry import (Ball, Box, Chart, MetricField, NavigationData,
                       TangentSample, VectorField, validate)
from .transport import AnalyticCurve


@dataclass
class Scenario:
    name: str
    nav: NavigationData
    curves: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.nav.dim


def _need(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise ScenarioParseError(f"expected an object at {where}")
    if key not in d:
        raise ScenarioParseError(f"missing '{key}' at {where}")
    return d[key]


def _reals(value, where: str, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape, or a located error."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != shape:
        what = "a number" if shape == () else f"a list of {shape[0]} numbers"
        raise ScenarioParseError(f"expected {what} at {where}")
    return out


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"expected a list at {where}")
    return value


def _parse_exprs(strings: Sequence[str], n: int, where: str) -> list:
    out = []
    for k, s in enumerate(strings):
        if not isinstance(s, str):
            raise ScenarioParseError(f"expected an expression string at "
                                     f"{where}[{k}]")
        try:
            out.append(exprlang.parse(s, n))
        except Exception as exc:
            raise ScenarioParseError(f"bad expression at {where}[{k}]: {exc}")
    return out


def _parse_curve(strings: Sequence[str], n: int, where: str) -> AnalyticCurve:
    if not isinstance(strings, list) or len(strings) != n:
        raise ScenarioParseError(
            f"curve at {where} needs {n} component expressions")
    try:
        return AnalyticCurve.from_strings([str(s) for s in strings])
    except Exception as exc:
        raise ScenarioParseError(f"bad curve at {where}: {exc}")


def _domain_from_dict(d: dict, dim: int):
    kind = _need(d, "kind", "domain")
    try:
        if kind == "ball":
            return Ball(_reals(_need(d, "center", "domain"), "domain.center",
                               (dim,)),
                        float(_reals(_need(d, "radius", "domain"),
                                     "domain.radius", ())))
        if kind == "box":
            return Box(_reals(_need(d, "lo", "domain"), "domain.lo", (dim,)),
                       _reals(_need(d, "hi", "domain"), "domain.hi", (dim,)))
    except ValueError as exc:  # the domain's own shape checks
        raise ScenarioParseError(f"bad domain: {exc}") from None
    raise ScenarioParseError(f"domain.kind must be 'ball' or 'box', "
                             f"got {kind!r}")


def _check_in_domain(chart: Chart, curve: AnalyticCurve, where: str) -> None:
    ts = np.linspace(0.0, 1.0, 101)
    pts = curve.point(ts)
    inside = chart.contains(pts)
    if not np.all(inside):
        bad = int(np.argmin(inside))
        raise ScenarioValidationError(
            f"{where} leaves the domain at t={ts[bad]:g}, "
            f"point {pts[bad].tolist()}")


def scenario_from_dict(data: dict, validate_nav: bool = True) -> Scenario:
    """Build and validate a Scenario from schema-1 JSON data."""
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    schema = data.get("schema", 1)
    if schema != 1:
        raise ScenarioParseError(f"unsupported schema version {schema!r}")
    name = str(_need(data, "name", "top level"))
    dim = _need(data, "dim", "top level")
    if not isinstance(dim, int) or not 2 <= dim <= 4:
        raise ScenarioParseError("dim must be an integer in 2..4")
    domain = _domain_from_dict(_need(data, "domain", "top level"), dim)
    chart = Chart(dim, domain)

    rows = _need(data, "metric", "top level")
    if (not isinstance(rows, list) or len(rows) != dim
            or any(not isinstance(row, list) or len(row) != dim - i
                   for i, row in enumerate(rows))):
        raise ScenarioParseError(
            "metric must be the upper triangle: rows of length "
            f"{', '.join(str(dim - i) for i in range(dim))}")
    metric = MetricField([_parse_exprs(row, dim, f"metric[{i}]")
                          for i, row in enumerate(rows)])

    wind_strings = _need(data, "wind", "top level")
    if not isinstance(wind_strings, list) or len(wind_strings) != dim:
        raise ScenarioParseError(f"wind needs {dim} component expressions")
    wind = VectorField(_parse_exprs(wind_strings, dim, "wind"))

    nav = NavigationData(chart, metric, wind)
    if validate_nav:
        report = validate(nav)
        if not report.passed:
            parts = [f"{f['kind']} at {f['point']} (value {f['value']:g})"
                     for f in report.failures]
            raise ScenarioValidationError(
                f"scenario {name!r}: " + "; ".join(parts))

    exps = data.get("experiments", {}) or {}
    if not isinstance(exps, dict):
        raise ScenarioParseError("expected an object at experiments")
    curves = [_parse_curve(c, dim, f"experiments.curves[{k}]")
              for k, c in enumerate(_list(exps.get("curves", []),
                                          "experiments.curves"))]
    loops = [_parse_curve(c, dim, f"experiments.loops[{k}]")
             for k, c in enumerate(_list(exps.get("loops", []),
                                         "experiments.loops"))]
    samples = []
    for k, s in enumerate(_list(exps.get("samples", []),
                                "experiments.samples")):
        where = f"experiments.samples[{k}]"
        samples.append(TangentSample(
            _reals(_need(s, "x", where), f"{where}.x", (dim,)),
            _reals(_need(s, "y", where), f"{where}.y", (dim,))))
    for k, c in enumerate(curves):
        _check_in_domain(chart, c, f"experiments.curves[{k}]")
    for k, c in enumerate(loops):
        _check_in_domain(chart, c, f"experiments.loops[{k}]")
        if not c.is_closed():
            raise ScenarioValidationError(
                f"experiments.loops[{k}] is not closed")
    for k, s in enumerate(samples):
        if not chart.contains(s.x):
            raise ScenarioValidationError(
                f"experiments.samples[{k}] lies outside the domain at "
                f"{s.x.tolist()}")

    return Scenario(name=name, nav=nav, curves=curves, loops=loops,
                    samples=samples)


def serialize(scenario: Scenario) -> dict:
    """Schema-1 dict for a scenario; expression sources round-trip."""
    nav = scenario.nav
    dom = nav.chart.domain
    if isinstance(dom, Ball):
        domain = {"kind": "ball", "center": dom.center.tolist(),
                  "radius": float(dom.radius)}
    else:
        domain = {"kind": "box", "lo": dom.lo.tolist(),
                  "hi": dom.hi.tolist()}
    out = {
        "schema": 1,
        "name": scenario.name,
        "dim": nav.dim,
        "domain": domain,
        "metric": [[e.source for e in row] for row in nav.metric.upper],
        "wind": [e.source for e in nav.wind.components],
    }
    exps = {}
    if scenario.curves:
        exps["curves"] = [[e.source for e in c.components]
                          for c in scenario.curves]
    if scenario.loops:
        exps["loops"] = [[e.source for e in c.components]
                         for c in scenario.loops]
    if scenario.samples:
        exps["samples"] = [{"x": s.x.tolist(), "y": s.y.tolist()}
                           for s in scenario.samples]
    if exps:
        out["experiments"] = exps
    return out


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(serialize(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: str, validate_nav: bool = True) -> Scenario:
    """Read a schema-1 scenario file; see scenario_from_dict."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}")
    return scenario_from_dict(data, validate_nav=validate_nav)


# ---------------------------------------------------------------------------
# built-in catalog: schema-1 data per name, each with a one-line "_note"
# that `list-scenarios` prints and the scenario parser ignores

_BALL9 = {"kind": "ball", "center": [0.0, 0.0], "radius": 0.9}
_BOX1 = {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
_FLAT = [["1", "0"], ["1"]]
BUILTINS = {
    "zero_wind": {
        "schema": 1, "name": "zero_wind", "dim": 2, "domain": _BOX1,
        "metric": _FLAT, "wind": ["0", "0"],
        "_note": "no wind: every construction reduces to the metric one",
    },
    "constant_wind": {
        "schema": 1, "name": "constant_wind", "dim": 2, "domain": _BOX1,
        "metric": _FLAT, "wind": ["0.3", "0.1"],
        "_note": "parallel wind on a flat box: transport stays metric "
                 "and every special class verdict is true",
    },
    "funk_ball": {
        "schema": 1, "name": "funk_ball", "dim": 2, "domain": _BALL9,
        "metric": _FLAT, "wind": ["-x1", "-x2"],
        "_note": "radial inward wind on the Euclidean disk: the induced "
                 "norm is the Funk metric; concircular with factor -1",
    },
    "rotation_disk": {
        "schema": 1, "name": "rotation_disk", "dim": 2, "domain": _BALL9,
        "metric": _FLAT, "wind": ["-x2", "x1"],
        "_note": "infinitesimal rotation; the wind stays short only on "
                 "the open unit disk, so the chart is the 0.9 disk "
                 "rather than the whole plane",
    },
    "sphere_cap": {
        "schema": 1, "name": "sphere_cap", "dim": 2,
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.6},
        "metric": [["4/(1+x1^2+x2^2)^2", "0"], ["4/(1+x1^2+x2^2)^2"]],
        "wind": ["-x1", "-x2"],
        "_note": "round-sphere chart (curvature 1) with a concircular "
                 "radial wind: nontrivial metric holonomy for the "
                 "correspondence tests",
    },
    "annulus_constant_length": {
        "schema": 1, "name": "annulus_constant_length", "dim": 2,
        "domain": {"kind": "box", "lo": [0.25, 0.25], "hi": [0.95, 0.95]},
        "metric": _FLAT,
        "wind": ["-0.5*x2/sqrt(x1^2+x2^2)", "0.5*x1/sqrt(x1^2+x2^2)"],
        "_note": "unit-direction swirl scaled to constant length 0.5 on "
                 "a box away from the origin: the constant-length "
                 "positive control",
    },
    "conformal_flat": {
        "schema": 1, "name": "conformal_flat", "dim": 2, "domain": _BOX1,
        "metric": [["exp(2*x1)", "0"], ["exp(2*x1)"]],
        "wind": ["0.3", "0"],
        "_note": "conformally flat metric with a coordinate-constant "
                 "wind: nonzero Christoffel symbols with closed-form "
                 "transports for oracles",
    },
}


def builtin_names() -> list:
    return sorted(BUILTINS)


def builtin(name: str) -> Scenario:
    """Catalog scenario by name; see builtin_names() for the choices."""
    if name not in BUILTINS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; available: "
            + ", ".join(builtin_names()))
    return scenario_from_dict(BUILTINS[name])

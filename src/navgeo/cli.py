"""Command-line surface: CSV trajectories and JSON reports.

Every run is deterministic for fixed flags: grids are fixed by --per-axis
(default: at most 20 per axis and 8000 points),
the rank survey and the holonomy probe directions (in dimensions 3 and 4)
derive from --seed (default 42, taken by `rank` and `holonomy` only), CSV
numbers carry 17 significant digits, and JSON keys are sorted. Exit codes:
0 success, 1 computation error, 2 usage error (including an unknown
scenario name, an out-of-range flag or a non-finite vector component).
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import __version__, numkernel as nk
from .classify import classification_report, torsion_vanishing_test
from .connection import torsion
from .errors import NavGeoError, NonFiniteState, UnknownScenario
from .exprlang import split_components
from .geometry import TangentSample, indicatrix_points, validate
from .holonomy import (distribution_rank_survey, holonomy_distribution_rank,
                       loop_holonomy, riemann_holonomy_matrix)
from .scenarios import (BUILTINS, Scenario, builtin, builtin_names,
                        load_scenario)
from .sprays import Spray, compare_sprays, geodesic_csv, integrate_geodesic
from .transport import (AnalyticCurve, natural_transport, riemann_transport,
                        trajectory_csv)


# Bounds of the size flags, each far above the largest request of the
# tests, tools, README and benchmark (--points 10^4, --samples 20, --probes
# 24, --dirs 16, grids of at most 20^3 = 8,000 points): as
# numkernel.MAX_STEPS bounds steps, a request far too large is a usage
# error before any array is built. A grid counts per_axis^dim points, and
# for compare-sprays that times --dirs fibers.
MAX_POINTS = 10 ** 6
MAX_SAMPLES = 1000
MAX_PROBES = 1000
MAX_DIRS = 250
MAX_GRID_POINTS = 10 ** 5
MAX_GRID_FIBERS = 2 * 10 ** 6


def _number(kind, low, high=sys.float_info.max):
    """argparse type: a `kind` (int or float) value v with low < v <= high."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low < value <= high:  # also rejects nan and inf
            most = f" and <= {high:g}" if high < sys.float_info.max else ""
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} > {low:g}{most}, got {text!r}")
        return value
    return parse


def _vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        vec = np.array([math.nan])
    if not np.isfinite(vec).all():
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite reals, got {text!r}")
    return vec


def _curve(text: str) -> AnalyticCurve:
    try:
        return AnalyticCurve.from_strings(split_components(text))
    except NavGeoError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--scenario", metavar="FILE",
                   help="scenario JSON file (schema 1)")
    g.add_argument("--builtin", metavar="NAME",
                   help="built-in scenario name (see list-scenarios)")


# inline inputs that must have one component per scenario dimension
_INLINE_FLAGS = {"--from": "from_point", "--dir": "direction", "--at": "at",
                 "--vector": "vector", "--curve": "curve", "--loop": "loop"}


def _load(args) -> Scenario:
    if getattr(args, "dt", None) is not None:  # a usage error, before any work
        try:
            nk.uniform_steps(getattr(args, "time", 1.0), args.dt)
        except ValueError as exc:
            flags = "--time/--dt" if hasattr(args, "time") else "--dt"
            args.usage_error(f"argument {flags}: {exc}")
    if args.builtin is not None:
        scenario = builtin(args.builtin)
    else:
        scenario = load_scenario(args.scenario)
    if hasattr(args, "per_axis"):
        per_axis = args.per_axis or scenario.nav.chart.default_per_axis
        points = per_axis ** scenario.dim
        dirs = getattr(args, "dirs", 1)
        if points > MAX_GRID_POINTS:
            args.usage_error(f"argument --per-axis: {per_axis}^{scenario.dim}"
                             f" = {points} grid points exceed "
                             f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        if points * dirs > MAX_GRID_FIBERS:
            args.usage_error(f"argument --per-axis/--dirs: {points} grid "
                             f"points x {dirs} directions exceed "
                             f"MAX_GRID_FIBERS = {MAX_GRID_FIBERS}")
    for flag, attr in _INLINE_FLAGS.items():
        value = getattr(args, attr, None)
        size = getattr(value, "dim", None) or np.size(value)
        if value is not None and size != scenario.dim:
            raise NavGeoError(f"{flag} has {size} components but the "
                              f"scenario has dimension {scenario.dim}")
    for flag in ("--from", "--at"):
        point = getattr(args, _INLINE_FLAGS[flag], None)
        if point is not None and not scenario.nav.chart.contains(point):
            raise NavGeoError(f"{flag} {point.tolist()} lies outside the chart")
    return scenario


def _emit(args, text: str) -> None:
    """Write a run's whole output to --out, or to stdout. The text is
    formed before the file is opened, so a run that fails leaves no file
    and an existing one untouched."""
    if args.out:
        with open(args.out, "w") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


def _nonfinite_key(value, path: str = "") -> str | None:
    """The key path (`a.b[0]`) of a payload's first non-finite number."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = (sorted(value.items()) if isinstance(value, dict) else
             enumerate(value) if isinstance(value, (list, tuple)) else ())
    return next(filter(None, (_nonfinite_key(v, f"{path}[{k}]" if isinstance(
        k, int) else f"{path}.{k}".lstrip(".")) for k, v in items)), None)


def _emit_json(args, payload: dict) -> None:
    """Write a JSON report; a NaN or inf raises NonFiniteState instead."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteState(f"report value {_nonfinite_key(payload)} is not "
                             "finite") from None
    _emit(args, text + "\n")


def _pick_curve(args, scenario: Scenario, attr: str, flag: str):
    inline = getattr(args, attr.rstrip("s"), None)
    if inline is not None:
        return inline
    pool = getattr(scenario, attr)
    idx = getattr(args, "index", 0)
    if not pool:
        raise NavGeoError(
            f"scenario has no experiment {attr}; pass {flag} inline")
    if not 0 <= idx < len(pool):
        raise NavGeoError(
            f"scenario has {len(pool)} experiment {attr}, index {idx} "
            "is out of range")
    return pool[idx]


def _cmd_validate(args) -> int:
    if args.builtin is not None:
        scenario = builtin(args.builtin)
    else:
        scenario = load_scenario(args.scenario, validate_nav=False)
    report = validate(scenario.nav, n_points=args.points)
    _emit_json(args, {"scenario": scenario.name, **report.as_dict()})
    return 0 if report.passed else 1


def _cmd_transport(args) -> int:
    scenario = _load(args)
    curve = _pick_curve(args, scenario, "curves", "--curve")
    if args.mode == "natural":
        result = natural_transport(scenario.nav, curve, args.vector,
                                   method=args.method, dt=args.dt,
                                   keep_trajectory=True)
    else:
        result = riemann_transport(scenario.nav.metric, curve, args.vector,
                                   dt=args.dt, chart=scenario.nav.chart,
                                   keep_trajectory=True)
    text = io.StringIO()
    trajectory_csv(result, scenario.nav, text)
    _emit(args, text.getvalue())
    return 0


def _cmd_geodesic(args) -> int:
    scenario = _load(args)
    nav = scenario.nav
    path = integrate_geodesic(Spray(nav, args.spray), args.from_point,
                              args.direction, args.time, dt=args.dt,
                              chart=nav.chart)
    text = io.StringIO()
    geodesic_csv(path, nav, text)
    _emit(args, text.getvalue())
    if path.left_domain:
        print(f"note: path left the domain at t={path.ts[-1]:.6g} and was "
              "truncated", file=sys.stderr)
    return 0


def _cmd_holonomy(args) -> int:
    scenario = _load(args)
    loop = _pick_curve(args, scenario, "loops", "--loop")
    rng = np.random.default_rng(args.seed)
    probes = indicatrix_points(scenario.nav, loop.point(0.0), args.probes,
                               rng=rng)
    element = loop_holonomy(scenario.nav, loop, probes=probes,
                            mode=args.mode, dt=args.dt)
    payload = element.as_dict()
    payload["loop"] = [c.source for c in loop.components]
    payload["scenario"] = scenario.name
    if args.mode == "natural":
        matrix = riemann_holonomy_matrix(scenario.nav, loop, dt=args.dt)
        payload["riemann_matrix"] = matrix.tolist()
    _emit_json(args, payload)
    return 0


def _cmd_rank(args) -> int:
    scenario = _load(args)
    nav = scenario.nav
    if args.at is not None or args.direction is not None:
        if args.at is None or args.direction is None:
            raise NavGeoError("--at and --dir go together")
        report = holonomy_distribution_rank(
            nav, TangentSample(args.at, args.direction), depth=args.depth)
        _emit_json(args, {"scenario": scenario.name, **report.as_dict()})
        return 0
    reports = distribution_rank_survey(nav, args.samples, depth=args.depth,
                                       rng=np.random.default_rng(args.seed))
    _emit_json(args, {
        "scenario": scenario.name,
        "depth": args.depth,
        "n_samples": args.samples,
        "rank_min": min(r.rank for r in reports),
        "rank_max": max(r.rank for r in reports),
        "reports": [r.as_dict() for r in reports],
    })
    return 0


def _cmd_torsion(args) -> int:
    scenario = _load(args)
    if args.at is not None or args.direction is not None:
        if args.at is None or args.direction is None:
            raise NavGeoError("--at and --dir go together")
        ev = torsion(scenario.nav, TangentSample(args.at, args.direction))
        _emit_json(args, {
            "scenario": scenario.name,
            "x": args.at.tolist(),
            "y": args.direction.tolist(),
            "components": ev.components.tolist(),
            "sup_norm": float(ev.sup_norm),
        })
        return 0
    per_axis = args.per_axis or scenario.nav.chart.default_per_axis
    verdict = torsion_vanishing_test(scenario.nav, per_axis=per_axis,
                                     tol=args.tol)
    _emit_json(args, {"scenario": scenario.name, "grid_per_axis": per_axis,
                      **verdict.as_dict()})
    return 0


def _cmd_classify(args) -> int:
    scenario = _load(args)
    report = classification_report(scenario.nav, per_axis=args.per_axis)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    _emit_json(args, {"scenario": scenario.name, **report.as_dict()})
    return 0


def _cmd_compare_sprays(args) -> int:
    scenario = _load(args)
    report = compare_sprays(scenario.nav, per_axis=args.per_axis,
                            n_dirs=args.dirs)
    _emit_json(args, {"scenario": scenario.name, **report.as_dict()})
    return 0


def _cmd_list_scenarios(args) -> int:
    _emit_json(args, {"scenarios": [{"name": name, "note": BUILTINS[name]["_note"]}
                                    for name in builtin_names()]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navgeo",
        description="Transport, geodesics, holonomy, and classification "
                    "for wind-perturbed Riemannian navigation data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def accept_negative_values(p):
        # Let vector and curve values such as "--from -0.2,0.1" or
        # "--curve -0.2+0.5*t,0.1" start with a minus sign: a token that
        # starts "-<digit>" or "-.<digit>" is taken as a value, never as an
        # option (no option string here looks like that).
        p._negative_number_matcher = re.compile(r"^-\.?\d")

    accept_negative_values(parser)
    per_axis_help = ("grid resolution per axis (default: the largest k <= 20 "
                     "with k^n <= 8000, so 20 in 2D and 3D and 9 in 4D)")

    def common(p, scenario=True):
        accept_negative_values(p)
        if scenario:
            _add_scenario_flags(p)
        p.add_argument("--out", metavar="PATH",
                       help="write output here instead of standard output")
        p.set_defaults(usage_error=p.error)

    p = sub.add_parser("validate", help="check positivity and the wind "
                       "bound on a domain sample")
    common(p)
    p.add_argument("--points", type=_number(int, 0, MAX_POINTS), default=10_000,
                   help="number of interior sample points (default 10000)")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "transport",
        help="parallel transport along a curve; CSV t,x*,v*,F",
        description="Transport a vector along a curve parametrized on "
                    "[0, 1]. CSV columns: t, position, transported vector, "
                    "navigation norm.")
    common(p)
    p.add_argument("--curve", type=_curve, metavar="EXPRS",
                   help="comma-separated coordinate expressions in t, "
                        "e.g. '0.5*t,0.1'")
    p.add_argument("--index", type=int, default=0,
                   help="experiment curve index when --curve is omitted")
    p.add_argument("--vector", type=_vector, required=True,
                   help="start vector, comma-separated reals")
    p.add_argument("--mode", choices=("natural", "riemann"),
                   default="natural")
    p.add_argument("--method", choices=("definitional", "ode"),
                   default="definitional",
                   help="natural-mode integration route (default "
                        "definitional)")
    p.add_argument("--dt", type=_number(float, 0, 1), default=1e-3,
                   help="parameter step in (0, 1] (default 1e-3)")
    p.set_defaults(fn=_cmd_transport)

    p = sub.add_parser(
        "geodesic",
        help="integrate a spray path; CSV t,x*,y*,F",
        description="Integrate xdd = -2 G(x, xd) from a start point and "
                    "velocity over --time seconds of parameter; the path "
                    "is truncated at the chart boundary.")
    common(p)
    p.add_argument("--spray", choices=("natural", "randers", "riemann"),
                   default="natural")
    p.add_argument("--from", dest="from_point", type=_vector, required=True,
                   help="start point, comma-separated reals")
    p.add_argument("--dir", dest="direction", type=_vector, required=True,
                   help="start velocity, comma-separated reals")
    p.add_argument("--time", type=_number(float, 0), default=1.0,
                   help="parameter span (default 1.0)")
    p.add_argument("--dt", type=_number(float, 0), default=1e-3)
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser(
        "holonomy",
        help="transport probes around a closed loop; JSON report",
        description="Loop parameter runs over [0, 1]; probes default to "
                    "norm-unit vectors at the base point.")
    common(p)
    p.add_argument("--seed", type=_number(int, -1), default=42,
                   help="seed for 3D/4D probe directions (default 42)")
    p.add_argument("--loop", type=_curve, metavar="EXPRS",
                   help="closed curve expressions in t")
    p.add_argument("--index", type=int, default=0,
                   help="experiment loop index when --loop is omitted")
    p.add_argument("--mode", choices=("natural", "riemann"),
                   default="natural")
    p.add_argument("--probes", type=_number(int, 0, MAX_PROBES), default=24)
    p.add_argument("--dt", type=_number(float, 0, 1), default=1e-3,
                   help="parameter step in (0, 1] (default 1e-3)")
    p.set_defaults(fn=_cmd_holonomy)

    p = sub.add_parser(
        "rank",
        help="holonomy distribution rank via iterated brackets",
        description="Rank of the spray-connection horizontal fields plus "
                    "iterated Lie brackets. With --at/--dir reports one "
                    "point; otherwise surveys --samples seeded points.")
    common(p)
    p.add_argument("--seed", type=_number(int, -1), default=42,
                   help="seed for the survey's fiber directions (default 42)")
    p.add_argument("--at", type=_vector, help="base point")
    p.add_argument("--dir", dest="direction", type=_vector,
                   help="fiber direction (nonzero)")
    p.add_argument("--depth", type=_number(int, 0, 3), default=3,
                   help="bracket depth, 1 to 3 (default 3); deeper brackets "
                        "are finite-difference round-off")
    p.add_argument("--samples", type=_number(int, 0, MAX_SAMPLES), default=20,
                   help="survey size when no --at given (default 20)")
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser(
        "torsion",
        help="torsion at a tangent point, or a grid verdict",
        description="With --at/--dir prints the torsion components; "
                    "otherwise sweeps a grid and reports whether torsion "
                    "vanishes at tolerance --tol.")
    common(p)
    p.add_argument("--at", type=_vector)
    p.add_argument("--dir", dest="direction", type=_vector)
    p.add_argument("--per-axis", type=_number(int, 0), help=per_axis_help)
    p.add_argument("--tol", type=_number(float, 0), default=1e-8)
    p.set_defaults(fn=_cmd_torsion)

    p = sub.add_parser(
        "classify",
        help="special-class verdicts; JSON report, summary on stderr")
    common(p)
    p.add_argument("--per-axis", type=_number(int, 0), help=per_axis_help)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser(
        "compare-sprays",
        help="natural vs variational spray over a grid; JSON report")
    common(p)
    p.add_argument("--per-axis", type=_number(int, 0), help=per_axis_help)
    p.add_argument("--dirs", type=_number(int, 0, MAX_DIRS), default=16,
                   help="norm-unit fiber directions per point (default 16)")
    p.set_defaults(fn=_cmd_compare_sprays)

    p = sub.add_parser("list-scenarios", help="list built-in scenarios")
    common(p, scenario=False)
    p.set_defaults(fn=_cmd_list_scenarios)

    return parser


# one parser per process: parsing changes no state of it
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnknownScenario as exc:
        print(f"navgeo: {exc}", file=sys.stderr)
        return 2
    except NavGeoError as exc:
        print(f"navgeo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"navgeo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

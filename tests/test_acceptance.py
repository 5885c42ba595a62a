"""Acceptance gate: twelve behavioral criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values
next to their tolerances. Every criterion prints its line before asserting,
so a failing run still reports the whole scoreboard.
"""

from pathlib import Path

import numpy as np
import pytest

from navgeo import classify as cl
from navgeo import connection as cn
from navgeo import holonomy as ho
from navgeo import sprays as sp
from navgeo import transport as tr
from navgeo.errors import InconsistentVerdicts
from navgeo.geometry import (MetricField, NavigationData, VectorField,
                             indicatrix_points, randers_value, validate)
from navgeo.scenarios import builtin, builtin_names, load_scenario
from navgeo.transport import AnalyticCurve, natural_transport_many

from helpers import (random_curve, random_loop, random_vectors,
                     torsion_from_duals)

# the 3D and 4D scenarios of the benchmark, read only
BENCH_SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "bench"
                          / "scenarios").glob("*.json"))


def _line(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'pass' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _angle_dirs(count: int) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def test_criterion_01_radial_wind_spray_reduction(scenarios):
    # W = -x over the flat ball: the natural spray must be (F/2) y on a
    # 20 x 20 base grid times 16 fiber directions
    nav = scenarios["funk_ball"].nav
    pts = nav.chart.grid(20)
    dirs = _angle_dirs(16)
    x = np.repeat(pts, len(dirs), axis=0)
    y = np.tile(dirs, (len(pts), 1))
    g = sp.natural_spray_values(nav, x, y)
    f = randers_value(nav, x, y)
    sup = np.abs(g - 0.5 * f[:, None] * y).max()
    _line(1, sup < 1e-10,
          f"radial-wind spray reduction: sup {sup:.3e} (tol 1e-10) "
          f"over {len(pts)}x16 samples")


def test_criterion_02_spray_coincidence_iff_concircular(scenarios):
    funk = scenarios["funk_ball"].nav
    rot = scenarios["rotation_disk"].nav
    rep_f = sp.compare_sprays(funk, per_axis=20, n_dirs=16)
    cc_f = cl.concircular_test(funk, per_axis=20)
    phi_off = max(abs(cc_f.detail["phi_min"] + 1.0),
                  abs(cc_f.detail["phi_max"] + 1.0))
    rep_r = sp.compare_sprays(rot, per_axis=20, n_dirs=16)
    cc_r = cl.concircular_test(rot, per_axis=20)
    ok = (rep_f.sup_natural_vs_randers < 1e-8 and cc_f.passed
          and phi_off < 1e-8
          and rep_r.sup_natural_vs_randers > 1e-3 and not cc_r.passed)
    _line(2, ok,
          "spray coincidence iff concircular wind: radial sup "
          f"{rep_f.sup_natural_vs_randers:.3e} (tol 1e-8), factor -1 off by "
          f"{phi_off:.3e}; rotation sup {rep_r.sup_natural_vs_randers:.3e} "
          f"(> 1e-3), concircular {cc_r.passed}")


def test_criterion_03_norm_preservation_with_4th_order(scenarios):
    # 50 random analytic curves per scenario; drift of F at dt = 1e-3 under
    # 1e-6, and the drift shrinks at 4th order between dt = 1e-2 and 1e-3
    # (order checked where the coarse drift is above the 1e-10 noise floor)
    worst_fine, worst_order, details = 0.0, np.inf, []
    for name in builtin_names():
        nav = scenarios[name].nav
        rng = np.random.default_rng(101)
        curves = [random_curve(nav.chart, rng) for _ in range(50)]
        v0s = random_vectors(rng, 50, 2)
        p = np.stack([c.point(0.0) for c in curves])
        q = np.stack([c.point(1.0) for c in curves])
        f0 = randers_value(nav, p, v0s)
        drift = {}
        for dt in (1e-2, 1e-3):
            out = natural_transport_many(nav, curves, v0s, method="ode", dt=dt)
            drift[dt] = np.abs(randers_value(nav, q, out) - f0).max()
        worst_fine = max(worst_fine, drift[1e-3])
        if drift[1e-2] > 1e-10:
            order = np.log10(drift[1e-2] / drift[1e-3])
            worst_order = min(worst_order, order)
            details.append(f"{name} order {order:.2f}")
        else:
            details.append(f"{name} exact")
    ok = worst_fine < 1e-6 and worst_order > 3.5
    _line(3, ok,
          f"norm preservation on 50 curves x 7 scenarios: max drift "
          f"{worst_fine:.3e} (tol 1e-6), weakest order {worst_order:.2f}; "
          + ", ".join(details))


def test_criterion_04_transport_two_routes(scenarios):
    # 50 curves on each 2D built-in, 20 on each 3D and 4D benchmark file
    worst, at = 0.0, ""
    runs = [(name, scenarios[name].nav, 50) for name in builtin_names()]
    runs += [(path.stem, load_scenario(str(path)).nav, 20)
             for path in BENCH_SCENARIOS]
    for name, nav, count in runs:
        rng = np.random.default_rng(101)
        curves = [random_curve(nav.chart, rng) for _ in range(count)]
        v0s = random_vectors(rng, count, nav.dim)
        vd = natural_transport_many(nav, curves, v0s, method="definitional")
        vo = natural_transport_many(nav, curves, v0s, method="ode")
        d = np.abs(vd - vo).max()
        if d > worst:
            worst, at = d, name
    _line(4, worst < 1e-6,
          f"definitional vs connection-ODE transport: sup {worst:.3e} "
          f"(tol 1e-6, worst on {at})")


def test_criterion_05_torsion_characterization(scenarios):
    rng = np.random.default_rng(55)
    worst_pair = 0.0
    for name in builtin_names():
        nav = scenarios[name].nav
        pts = nav.chart.sample_interior(15, margin=0.1)
        for x in pts:
            y = rng.normal(size=2)
            d = np.abs(cn.torsion_components(nav, x, y)
                       - torsion_from_duals(nav, x, y)).max()
            worst_pair = max(worst_pair, d)
    sup_flat = 0.0
    for name in ("zero_wind", "constant_wind"):
        v = cl.torsion_vanishing_test(scenarios[name].nav, per_axis=10)
        sup_flat = max(sup_flat, v.residual)
    v_rot = cl.torsion_vanishing_test(scenarios["rotation_disk"].nav,
                                      per_axis=10)
    ok = worst_pair < 1e-8 and sup_flat < 1e-10 and v_rot.residual > 1e-3
    _line(5, ok,
          f"torsion two routes within {worst_pair:.3e} (tol 1e-8); parallel "
          f"winds sup {sup_flat:.3e} (tol 1e-10); rotating wind sup "
          f"{v_rot.residual:.3e} (> 1e-3)")


def test_criterion_06_holonomy_correspondence(scenarios):
    # conjugation through wind translation, checked against direct loop
    # transport on the curved scenario, plus the composition contract
    nav = scenarios["sphere_cap"].nav
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        loop = random_loop(nav.chart, rng)
        base = loop.point(0.0)
        probes = indicatrix_points(nav, base, 20)
        mat = ho.riemann_holonomy_matrix(nav, loop)
        pred = ho.correspondence(nav, mat, base, probes)
        direct = natural_transport_many(nav, [loop] * len(probes), probes,
                                        method="ode")
        worst = max(worst, np.abs(pred - direct).max())

    def circle(r, cx, cy):
        return AnalyticCurve.from_strings(
            [f"{cx!r} + {r!r}*cos(2*pi*t)", f"{cy!r} + {r!r}*sin(2*pi*t)"])

    base = np.array([0.3, 0.0])
    l1, l2 = circle(0.2, 0.1, 0.0), circle(0.15, 0.15, 0.0)
    m1 = ho.riemann_holonomy_matrix(nav, l1)
    m2 = ho.riemann_holonomy_matrix(nav, l2)
    probes = indicatrix_points(nav, base, 20)
    one = natural_transport_many(nav, [l1] * len(probes), probes, method="ode")
    both = natural_transport_many(nav, [l2] * len(one), one, method="ode")
    comp = np.abs(both - ho.correspondence(nav, m2 @ m1, base, probes)).max()
    ok = worst < 1e-5 and comp < 1e-5
    _line(6, ok,
          f"holonomy correspondence on 20 probes x 10 loops: sup "
          f"{worst:.3e} (tol 1e-5); composition defect {comp:.3e} (tol 1e-5)")


def test_criterion_07_distribution_rank(scenarios):
    rot = [r.rank for r in ho.distribution_rank_survey(
        scenarios["rotation_disk"].nav, n_samples=20, depth=3)]
    flats = {}
    for name in ("zero_wind", "constant_wind"):
        flats[name] = [r.rank for r in ho.distribution_rank_survey(
            scenarios[name].nav, n_samples=20, depth=3)]
    ok = (all(r == 4 for r in rot)
          and all(all(r == 2 for r in ranks) for ranks in flats.values()))
    _line(7, ok,
          f"holonomy distribution rank: rotating wind {sorted(set(rot))} at "
          f"20 samples (want [4]); parallel winds "
          f"{sorted(set(flats['zero_wind'] + flats['constant_wind']))} (want [2])")


def test_criterion_08_euler_lagrange_oracle(scenarios):
    cases = [("funk_ball", [0.0, 0.0], [0.6, 0.2]),
             ("funk_ball", [-0.2, 0.1], [0.1, 0.45]),
             ("rotation_disk", [0.2, 0.0], [0.1, 0.5]),
             ("rotation_disk", [-0.1, -0.2], [0.4, 0.0])]
    worst = 0.0
    for name in ("funk_ball", "rotation_disk"):
        nav = scenarios[name].nav
        x0s = [x0 for case, x0, _ in cases if case == name]
        y0s = [y0 for case, _, y0 in cases if case == name]
        for path in sp.integrate_geodesics(sp.Spray(nav, "randers"), x0s,
                                           y0s, time_span=1.0, dt=1e-3,
                                           chart=nav.chart):
            worst = max(worst, sp.el_residual(nav, path))
    nav = scenarios["funk_ball"].nav
    wrong = sp.integrate_geodesic(
        sp.Spray(nav, "riemann"), np.zeros(2), np.array([0.6, 0.2]),
        time_span=1.0, dt=1e-3, chart=nav.chart)
    control = sp.el_residual(nav, wrong)
    ok = worst < 1e-5 and control > 1e-2
    _line(8, ok,
          f"variational residual of spray paths: max {worst:.3e} (tol 1e-5); "
          f"metric-straight negative control {control:.3e} (> 1e-2)")


def test_criterion_09_pre_geodesic_wind_flow(scenarios):
    nav = scenarios["funk_ball"].nav
    worst_rel, worst_fw = 0.0, 0.0
    curves = cl.wind_integral_curves(
        nav, np.array([[0.6, 0.2], [-0.3, 0.5], [0.1, -0.7]]), time_span=1.5)
    for ts, xs in curves:
        sub = xs[::50]
        lhs = cn.covariant_derivative(nav, nav.wind, nav.wind, sub)
        rie = cn.riemann_covariant_derivative(nav.metric, nav.wind, nav.wind,
                                              sub)
        fw = randers_value(nav, sub, nav.wind.value(sub))
        worst_rel = max(worst_rel,
                        np.abs(lhs - (1.0 - fw)[:, None] * rie).max())
        wn = np.linalg.norm(sub, axis=1)  # h-length of W = -x under id
        worst_fw = max(worst_fw, np.abs(fw - wn / (1.0 + wn)).max())
    ok = worst_rel < 1e-6 and worst_fw < 1e-10
    _line(9, ok,
          f"wind is pre-geodesic: derivative relation off by {worst_rel:.3e} "
          f"(tol 1e-6); norm-of-wind formula off by {worst_fw:.3e} (tol 1e-10)")


def test_criterion_10_endpoint_only_wind_dependence(scenarios):
    # perturb the radial wind by a bump vanishing at both curve endpoints;
    # same metric and same endpoint winds must give the same transport
    nav1 = scenarios["funk_ball"].nav
    bump = "0.05*((x1+0.3)^2 + x2^2)*((x1-0.4)^2 + x2^2)"
    nav2 = NavigationData(
        chart=nav1.chart,
        metric=MetricField.from_strings([["1", "0"], ["1"]], 2),
        wind=VectorField.from_strings(["-x1", f"-x2 + {bump}"], 2),
    )
    valid = validate(nav2, n_points=4000).passed
    curves = [AnalyticCurve.from_strings(["-0.3 + 0.7*t", "0"]),
              AnalyticCurve.from_strings(["-0.3 + 0.7*t", "0.3*sin(pi*t)"]),
              AnalyticCurve.from_strings(["-0.3 + 0.7*t", "0.2*sin(2*pi*t)"])]
    v0s = np.array([[0.0, 1.0], [0.8, -0.4], [-0.5, -0.5]])
    d1 = natural_transport_many(nav1, curves, v0s, method="definitional")
    d2 = natural_transport_many(nav2, curves, v0s, method="definitional")
    identical = bool(np.array_equal(d1, d2))
    o1 = natural_transport_many(nav1, curves, v0s, method="ode")
    o2 = natural_transport_many(nav2, curves, v0s, method="ode")
    ode_diff = np.abs(o1 - o2).max()
    ok = valid and identical and ode_diff < 1e-6
    _line(10, ok,
          f"endpoint-only wind dependence: perturbed wind valid {valid}, "
          f"definitional transports identical {identical}, ODE routes differ "
          f"{ode_diff:.3e} (tol 1e-6)")


def test_criterion_11_metric_correction_contract(scenarios):
    worst_drift, parallel_gap = 0.0, 0.0
    for name in builtin_names():
        nav = scenarios[name].nav
        rng = np.random.default_rng(7)

        def norm(x, v, nav=nav):
            return randers_value(nav, x, v)

        def shifted(curve, v0, nav=nav):
            p, q = curve.point(0.0), curve.point(1.0)
            moved = tr.riemann_transport(nav.metric, curve,
                                         v0 - nav.wind.value(p)).v_end
            return moved + nav.wind.value(q)

        for v0 in random_vectors(rng, 3, 2):
            c = random_curve(nav.chart, rng)
            fixed = tr.corrected_transport(norm, shifted, c, v0)
            drift = abs(norm(fixed.end, fixed.v_end) - norm(c.point(0.0), v0))
            worst_drift = max(worst_drift, drift)
            if name in ("zero_wind", "constant_wind"):
                nat = tr.natural_transport(nav, c, v0).v_end
                parallel_gap = max(parallel_gap,
                                   np.abs(fixed.v_end - nat).max())
    ok = worst_drift < 1e-12 and parallel_gap < 1e-12
    _line(11, ok,
          f"norm-corrected transport: max norm drift {worst_drift:.3e} "
          f"(tol 1e-12); gap to the wind transport on parallel-wind "
          f"scenarios {parallel_gap:.3e} (tol 1e-12)")


def test_criterion_12_classification_consistency(scenarios):
    reports, raised = {}, None
    try:
        for name in builtin_names():
            reports[name] = cl.classification_report(scenarios[name].nav)
    except InconsistentVerdicts as exc:  # pragma: no cover - must not happen
        raised = exc
    funk_ok = const_ok = False
    if raised is None:
        f = reports["funk_ball"]
        funk_ok = (not f.wind_parallel.passed and f.concircular.passed
                   and not f.berwald.passed and not f.wagner.passed
                   and f.isotropic_S.passed)
        c = reports["constant_wind"]
        const_ok = (c.wind_parallel.passed and c.torsion_vanishes.passed
                    and c.berwald.passed and c.wagner.passed
                    and c.concircular.passed and c.isotropic_S.passed)
    ok = raised is None and funk_ok and const_ok
    _line(12, ok,
          f"classification on all builtins: inconsistency {raised!r}, "
          f"radial-wind pattern ok {funk_ok}, constant-wind all-true "
          f"{const_ok}")

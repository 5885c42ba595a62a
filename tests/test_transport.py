"""Parallel transport: the linear metric route and the wind-aware one."""

import io
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navgeo import connection as cn, geometry as ge
from navgeo import holonomy as ho
from navgeo import numkernel as nk
from navgeo import sprays as sp
from navgeo import stages
from navgeo import transport as tr
from navgeo.errors import CurveLeftDomain, NonFiniteState, ZeroVector
from navgeo.geometry import christoffel, field_jet, randers_value
from navgeo.scenarios import builtin, load_scenario, scenario_from_dict
from navgeo.transport import AnalyticCurve

from helpers import (random_curve, random_loop, random_vectors,
                     table_rows_oracle, table_stage_rows)


SEG = AnalyticCurve.from_strings(["0.5*t", "0"])
BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"
FUNK_BALL_3D = {"schema": 1, "name": "funk_ball_3d", "dim": 3,
                "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0],
                           "radius": 0.9},
                "metric": [["1", "0", "0"], ["1", "0"], ["1"]],
                "wind": ["-x1", "-x2", "-x3"]}


# ---------------------------------------------------------------------------
# curves


def test_analytic_curve_point_velocity():
    c = AnalyticCurve.from_strings(["sin(t)", "t^2"])
    assert np.allclose(c.point(0.5), [np.sin(0.5), 0.25])
    assert np.allclose(c.point_and_velocity(0.5)[1], [np.cos(0.5), 1.0])
    ts = np.linspace(0.0, 1.0, 9)
    np.testing.assert_array_equal(c.point_and_velocity(ts)[0], c.point(ts))
    assert not c.is_closed()
    assert AnalyticCurve.from_strings(["cos(2*pi*t)", "sin(2*pi*t)"]).is_closed()


def test_curve_leaving_chart_is_rejected(funk_ball):
    c = AnalyticCurve.from_strings(["t", "0"])  # exits the radius-0.9 ball
    with pytest.raises(CurveLeftDomain):
        tr.natural_transport(funk_ball.nav, c, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# metric (linear) transport


def test_riemann_transport_conformal_oracle(conformal_flat):
    # h = exp(2 x1) id along x(t) = (t/2, 0): both components decay by
    # exp(-1/2) over the run
    res = tr.riemann_transport(conformal_flat.nav.metric, SEG,
                               np.array([0.0, 1.0]))
    assert np.allclose(res.v_end, [0.0, np.exp(-0.5)], atol=1e-10)
    res2 = tr.riemann_transport(conformal_flat.nav.metric, SEG,
                                np.array([1.0, 0.0]))
    assert np.allclose(res2.v_end, [np.exp(-0.5), 0.0], atol=1e-10)


def test_riemann_transport_is_linear(sphere_cap):
    rng = np.random.default_rng(12)
    c = random_curve(sphere_cap.nav.chart, rng)
    a = np.array([0.7, -0.1])
    b = np.array([0.2, 0.9])
    m = sphere_cap.nav.metric
    va = tr.riemann_transport(m, c, a).v_end
    vb = tr.riemann_transport(m, c, b).v_end
    vab = tr.riemann_transport(m, c, 2.0 * a - 3.0 * b).v_end
    assert np.allclose(vab, 2.0 * va - 3.0 * vb, atol=1e-10)


def test_riemann_transport_preserves_h_norm(sphere_cap, conformal_flat):
    rng = np.random.default_rng(21)
    for sc in (sphere_cap, conformal_flat):
        nav = sc.nav
        c = random_curve(nav.chart, rng)
        v0 = np.array([0.6, -0.8])
        res = tr.riemann_transport(nav.metric, c, v0)
        n0 = nav.h_norm(c.point(0.0), v0)
        n1 = nav.h_norm(c.point(1.0), res.v_end)
        assert np.isclose(n0, n1, rtol=1e-9)


def test_riemann_transport_matrix_action(sphere_cap):
    rng = np.random.default_rng(4)
    c = random_curve(sphere_cap.nav.chart, rng)
    mat = tr.riemann_transport_matrix(sphere_cap.nav.metric, c)
    v0 = np.array([0.3, 0.8])
    direct = tr.riemann_transport(sphere_cap.nav.metric, c, v0).v_end
    assert np.allclose(mat @ v0, direct, atol=1e-12)


def test_riemann_transport_many_matches_single(conformal_flat):
    m = conformal_flat.nav.metric
    curves = [SEG, AnalyticCurve.from_strings(["0.3*t", "0.4*t"])]
    v0s = np.array([[0.0, 1.0], [1.0, 1.0]])
    batch = tr.riemann_transport_many(m, curves, v0s)
    for i in range(2):
        single = tr.riemann_transport(m, curves[i], v0s[i]).v_end
        assert np.allclose(batch[i], single, atol=1e-14)


def test_step_lands_on_the_curve_end(sphere_cap):
    # 1 / 0.0444 is not an integer: both routes take 23 steps of 1/23 and
    # land within integrator accuracy of a fine run (steps of 0.0444 ended
    # at t = 1.0212, off by 2e-2 on the metric and 1e-1 on the natural ODE)
    nav = sphere_cap.nav
    loop = AnalyticCurve.from_strings(["0.3*cos(2*pi*t)", "0.3*sin(2*pi*t)"])
    runs = (lambda dt: tr.riemann_transport(nav.metric, loop, [1.0, 0.0],
                                            dt=dt, chart=nav.chart),
            lambda dt: tr.natural_transport(nav, loop, [1.0, 0.0],
                                            method="ode", dt=dt))
    for run in runs:
        coarse, fine = run(0.0444), run(1e-3)
        assert coarse.steps == 23 and coarse.dt == 1.0 / 23
        assert np.abs(coarse.v_end - fine.v_end).max() < 1e-4


# ---------------------------------------------------------------------------
# natural (wind-aware) transport


def test_natural_transport_radial_wind_oracle(funk_ball):
    # start at the center: no wind there, so the rule is v |-> v + |v| W_end
    nav = funk_ball.nav
    for method in ("definitional", "ode"):
        res = tr.natural_transport(nav, SEG, np.array([0.0, 1.0]), method=method)
        assert np.allclose(res.v_end, [-0.5, 1.0], atol=1e-8), method
        f_end = randers_value(nav, res.end, res.v_end)
        assert np.isclose(f_end, 1.0, atol=1e-9)


def test_natural_transport_preserves_norm(scenarios):
    rng = np.random.default_rng(31)
    for sc in scenarios.values():
        nav = sc.nav
        c = random_curve(nav.chart, rng)
        for v0 in random_vectors(rng, 3, 2):
            res = tr.natural_transport(nav, c, v0, method="ode")
            f0 = randers_value(nav, c.point(0.0), v0)
            f1 = randers_value(nav, c.point(1.0), res.v_end)
            assert np.isclose(f0, f1, rtol=1e-7), sc.name


def test_natural_transport_methods_agree(scenarios):
    rng = np.random.default_rng(17)
    for sc in scenarios.values():
        nav = sc.nav
        c = random_curve(nav.chart, rng)
        v0 = np.array([0.4, -0.7])
        vd = tr.natural_transport(nav, c, v0, method="definitional").v_end
        vo = tr.natural_transport(nav, c, v0, method="ode").v_end
        assert np.allclose(vd, vo, atol=1e-6), sc.name


def test_natural_transport_positive_homogeneity(funk_ball):
    nav = funk_ball.nav
    rng = np.random.default_rng(8)
    c = random_curve(nav.chart, rng)
    v0 = np.array([0.5, 0.2])
    base = tr.natural_transport(nav, c, v0).v_end
    for s in (0.25, 2.0, 17.0):
        scaled = tr.natural_transport(nav, c, s * v0).v_end
        assert np.allclose(scaled, s * base, rtol=1e-10)


def test_natural_transport_additivity_fails_by_wind_defect(funk_ball):
    # from the wind-free center, P(v) = v + |v| W_end, so the additivity
    # defect of e1, e2 is exactly (2 - sqrt(2)) W_end
    nav = funk_ball.nav
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    p1 = tr.natural_transport(nav, SEG, e1).v_end
    p2 = tr.natural_transport(nav, SEG, e2).v_end
    p12 = tr.natural_transport(nav, SEG, e1 + e2).v_end
    defect = p1 + p2 - p12
    expect = (2.0 - np.sqrt(2.0)) * np.array([-0.5, 0.0])
    assert np.allclose(defect, expect, atol=1e-9)
    assert np.abs(defect).max() > 0.1


def test_definitional_route_reads_one_field_values_call(sphere_cap):
    # the winds and the start norm come from one field_values call per
    # batch: the wind's own sweep and randers_value are never called
    nav = sphere_cap.nav
    rng = np.random.default_rng(8)
    curves = [random_curve(nav.chart, rng) for _ in range(2)]
    watched = {f.__code__: f.__name__ for f in (
        ge.VectorField.value, ge.randers_value, ge.field_values)}
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            called.append(watched[frame.f_code])
    runs = (lambda: tr.natural_transport(nav, curves[0], [0.9, 0.3],
                                         keep_trajectory=True),
            lambda: tr.natural_transport_many(nav, curves * 2,
                                              random_vectors(rng, 4, 2)))
    for run in runs:
        called.clear()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        assert called == ["field_values"]


def test_natural_transport_reversal_roundtrip(sphere_cap):
    nav = sphere_cap.nav
    rng = np.random.default_rng(5)
    c = random_curve(nav.chart, rng)
    v0 = np.array([0.9, 0.3])
    fwd = tr.natural_transport(nav, c, v0, method="definitional").v_end
    # the same curve run backwards: t -> 1 - t in every component
    rev = AnalyticCurve.from_strings([re.sub(r"\bt\b", "(1-t)", e.source)
                                      for e in c.components])
    back = tr.natural_transport(nav, rev, fwd, method="definitional").v_end
    assert np.allclose(back, v0, atol=1e-8)


def test_natural_transport_zero_wind_is_riemann(zero_wind):
    nav = zero_wind.nav
    rng = np.random.default_rng(14)
    c = random_curve(nav.chart, rng)
    v0 = np.array([1.0, -2.0])
    nat = tr.natural_transport(nav, c, v0).v_end
    rie = tr.riemann_transport(nav.metric, c, v0).v_end
    assert np.allclose(nat, rie, atol=1e-12)


def test_natural_transport_many_matches_single(funk_ball, sphere_cap):
    rng = np.random.default_rng(2)
    for sc in (funk_ball, sphere_cap):
        nav = sc.nav
        curves = [random_curve(nav.chart, rng) for _ in range(3)]
        v0s = random_vectors(rng, 3, 2)
        for method in ("definitional", "ode"):
            batch = tr.natural_transport_many(nav, curves, v0s, method=method)
            for i, c in enumerate(curves):
                single = tr.natural_transport(nav, c, v0s[i], method=method).v_end
                assert np.allclose(batch[i], single, atol=1e-12)


def test_repeated_curve_is_tabled_once(sphere_cap, monkeypatch):
    # one curve object sent with several vectors: its field tables are
    # built once, and every row equals its one-at-a-time transport bitwise
    nav = sphere_cap.nav
    rng = np.random.default_rng(5)
    loop = random_loop(nav.chart, rng)
    v0s = random_vectors(rng, 4, 2)
    tabled = []
    for name in ("field_jet", "christoffel"):
        def counted(first, x, _fn=getattr(tr, name)):
            tabled.append(x.shape[0])
            return _fn(first, x)
        monkeypatch.setattr(tr, name, counted)
    runs = {
        "definitional": (
            lambda: tr.natural_transport_many(nav, [loop] * 4, v0s, dt=2e-3),
            lambda v: tr.natural_transport(nav, loop, v, dt=2e-3).v_end),
        "ode": (
            lambda: tr.natural_transport_many(nav, [loop] * 4, v0s, "ode", 2e-3),
            lambda v: tr.natural_transport(nav, loop, v, "ode", 2e-3).v_end),
        "riemann": (
            lambda: tr.riemann_transport_many(nav.metric, [loop] * 4, v0s, 2e-3),
            lambda v: tr.riemann_transport(nav.metric, loop, v, 2e-3).v_end),
        "natural holonomy": (
            lambda: ho.loop_holonomy(nav, loop, v0s, dt=2e-3).transported,
            lambda v: tr.natural_transport(nav, loop, v, "ode", 2e-3).v_end),
        "riemann holonomy": (
            lambda: ho.loop_holonomy(nav, loop, v0s, "riemann",
                                     dt=2e-3).transported,
            lambda v: tr.riemann_transport(nav.metric, loop, v, 2e-3).v_end),
    }
    for name, (batch, single) in runs.items():
        tabled.clear()
        rows = batch()
        assert tabled == [1], name
        for v0, row in zip(v0s, rows):
            np.testing.assert_array_equal(row, single(v0), err_msg=name)


def test_natural_transport_rejects_zero_vector(funk_ball):
    with pytest.raises(ZeroVector):
        tr.natural_transport(funk_ball.nav, SEG, np.zeros(2))
    with pytest.raises(ZeroVector):
        tr.natural_transport_many(funk_ball.nav, [SEG, SEG],
                                  np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_natural_transport_rejects_unknown_method(funk_ball):
    with pytest.raises(ValueError):
        tr.natural_transport(funk_ball.nav, SEG, np.array([1.0, 0.0]),
                             method="euler")


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6))
def test_natural_transport_norm_property(u, v):
    from navgeo.scenarios import builtin
    nav = builtin("funk_ball").nav
    y = np.array([u, v])
    if np.linalg.norm(y) < 1e-2:
        return
    res = tr.natural_transport(nav, SEG, y)
    f0 = randers_value(nav, np.zeros(2), y)
    f1 = randers_value(nav, res.end, res.v_end)
    assert np.isclose(f0, f1, rtol=1e-9)


def _table_norm(tab, aux, v):
    """F(v) = (sqrt(v.Qv) - <hW, v>) / lam read off the stage tables."""
    n = v.shape[1]
    t = np.einsum("pkl,pl->pk", tab, v)
    return (np.sqrt((v * t[:, n:-1]).sum(axis=1)) - t[:, -1]) / aux[:, -1]


@pytest.mark.parametrize("name", ["sphere_cap", "annulus_constant_length",
                                  "rot_ball_3d", "funk_ball_3d", "rot_box_4d"])
def test_natural_stage_is_the_connection_ode(name):
    # one stage of the ODE route: its scalar norm formula on the stacked
    # table gives F, and its value is -Gamma(c, v) cdot
    path = BENCH_SCENARIOS / f"{name}.json"
    nav = (load_scenario(str(path)) if path.is_file() else builtin(name)).nav
    rng = np.random.default_rng(len(name))
    lo, hi = nav.chart.bounding_box()
    x = rng.uniform(lo, hi, size=(400, nav.dim))
    x = x[nav.chart.contains(x, margin=0.02)][:60]
    vel, v = rng.normal(size=(2,) + x.shape)
    jet = field_jet(nav, x)
    tab, aux = tr._natural_tables(jet, vel)
    np.testing.assert_allclose(_table_norm(tab, aux, v), jet.norm(v),
                               rtol=1e-14, atol=0.0)
    dv = tr._natural_stage(tab, aux, v)
    want = -np.einsum("pki,pi->pk", cn.jet_gamma(jet, v), vel)
    assert np.abs(dv - want).max() <= 1e-13 * np.abs(want).max()
    # its float code, on the flat stage rows that small batches read
    flat = np.concatenate([tab.reshape(len(tab), -1), aux], axis=1)
    rhs = table_stage_rows(nav.dim, stages.natural_stage_lines,
                           flat.shape[-1])(flat)
    got = np.array([rhs(p, tuple(vp)) for p, vp in enumerate(v.tolist())])
    assert np.abs(got - dv).max() <= 1e-13 * np.abs(dv).max()


@pytest.mark.parametrize("method", ["definitional", "ode"])
def test_loop_probes_share_the_tables(sphere_cap, method):
    # probes read their loop's tables in place: eight probes allocate at
    # most half again the peak of one
    nav = sphere_cap.nav
    rng = np.random.default_rng(9)
    loop = random_loop(nav.chart, rng)
    probes = random_vectors(rng, 8, 2)

    def peak(vs):
        tracemalloc.start()
        try:
            ho.loop_holonomy(nav, loop, vs, dt=2e-3, method=method)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ho.loop_holonomy(nav, loop, probes[:1], dt=2e-3, method=method)  # warm up
    assert peak(probes) <= 1.5 * peak(probes[:1])


# ---------------------------------------------------------------------------
# the fused float runner of the natural ODE

RUNNER_NAVS = {2: lambda: builtin("sphere_cap").nav,
               3: lambda: load_scenario(str(BENCH_SCENARIOS
                                            / "rot_ball_3d.json")).nav,
               4: lambda: load_scenario(str(BENCH_SCENARIOS
                                            / "rot_box_4d.json")).nav}
# row -> curve maps that repeat curves out of order
RUNNER_ROWS = {1: [2], 8: [2, 0, 2, 1, 0, 1, 1, 2], 20: [2, 0, 2, 1, 0] * 4}


def _stage_rows(nav, curves, dt):
    """(tab, aux, flat): the stage tables of the distinct curves and the
    contiguous rows (U, 2N + 1, row) that `_run_natural` joins them into."""
    pos, vel, _ = tr._sample_tables(curves, tr._steps_from_dt(dt), nav.chart)
    tab, aux = tr._natural_tables(field_jet(nav, pos), vel)
    u, samples = tab.shape[:2]
    return tab, aux, np.concatenate([tab.reshape(u, samples, -1), aux],
                                    axis=-1)


def _on_floats(flat, rows, v0, keep):
    steps = (flat.shape[1] - 1) // 2
    dt = 1.0 / steps
    run = stages.float_run(stages.table_run, (v0.shape[1],), flat,
                           np.asarray(rows))
    return run(v0, steps, (0.5 * dt, dt, dt / 6.0), keep)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("batch", [1, 8, 20])
@pytest.mark.parametrize("keep", [False, True])
def test_natural_runner_is_the_per_row_stages(dim, batch, keep, monkeypatch):
    # bit for bit the per-row float stages, within round-off the NumPy
    # lockstep loop, and each row as it runs alone on its curve
    nav = RUNNER_NAVS[dim]()
    rng = np.random.default_rng(10 * dim + batch)
    curves = [random_curve(nav.chart, rng) for _ in range(3)]
    tab, aux, flat = _stage_rows(nav, curves, 0.02)
    rows = np.array(RUNNER_ROWS[batch])
    v0 = random_vectors(rng, batch, dim)
    got = _on_floats(flat, rows, v0, keep)
    want = table_rows_oracle(stages.natural_stage_lines, flat, rows, v0,
                             keep)
    assert (got[1] is None) == (want[1] is None) == (not keep)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert got[2].tolist() == [50] * batch
    ran = tr._run_natural(tab, aux, rows, v0, keep)
    for a, b in zip(ran, got):
        np.testing.assert_array_equal(a, b)
    monkeypatch.setattr(nk, "SCALAR_ROWS", 0)  # the NumPy path
    v, traj = tr._run_natural(tab, aux, rows, v0, keep)
    assert np.abs(v - got[0]).max() <= 1e-13 * np.abs(got[0]).max()
    if keep:
        assert np.abs(traj - got[1]).max() <= 1e-13 * np.abs(got[1]).max()
    for b, c in enumerate(rows):
        alone = _on_floats(flat, [c], v0[b:b + 1], keep)
        np.testing.assert_array_equal(alone[0][0], got[0][b])
        if keep:
            np.testing.assert_array_equal(alone[1][0], got[1][b])


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("batch", [1, nk.SCALAR_ROWS])
@pytest.mark.parametrize("keep", [False, True])
def test_linear_runner_is_the_per_row_stages(dim, batch, keep):
    # the metric transport's linear run (the propagators of `_run_linear`)
    # on the tables of scenario curves: within round-off, each row stepped
    # on its own through the per-row float stages of K v
    nav = RUNNER_NAVS[dim]()
    rng = np.random.default_rng(10 * dim + batch)
    curves = [random_curve(nav.chart, rng) for _ in range(3)]
    pos, vel, _ = tr._sample_tables(curves, tr._steps_from_dt(0.02), nav.chart)
    k = tr._linear_rhs_tables(christoffel(nav.metric, pos), vel)
    rows = np.resize(RUNNER_ROWS[20], batch)
    v0 = random_vectors(rng, batch, dim)
    want = table_rows_oracle(stages.linear_stage_lines,
                             np.ascontiguousarray(k.reshape(3, 101, -1)),
                             rows, v0, keep)
    v, traj = tr._run_linear(k, rows, v0, keep)
    assert (traj is None) == (want[1] is None) == (not keep)
    assert np.abs(v - want[0]).max() <= 1e-13 * np.abs(want[0]).max()
    if keep:
        assert np.abs(traj - want[1]).max() <= 1e-13 * np.abs(want[1]).max()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_transport_matrix_is_the_endpoints_of_the_basis(dim):
    # column i of the matrix is the batch endpoint of basis vector i, bit
    # for bit, whichever other rows share the batch
    nav = RUNNER_NAVS[dim]()
    rng = np.random.default_rng(dim)
    curve, other = (random_curve(nav.chart, rng) for _ in range(2))
    mat = tr.riemann_transport_matrix(nav.metric, curve, 0.01, nav.chart)
    v0 = np.concatenate([random_vectors(rng, 2, dim), np.eye(dim)])
    ends = tr.riemann_transport_many(nav.metric, [other, curve] + [curve] * dim,
                                     v0, 0.01, nav.chart)
    np.testing.assert_array_equal(ends[2:].T, mat)


def test_metric_holonomy_of_many_probes_is_the_matrix(sphere_cap):
    # 24 probes (more than SCALAR_ROWS) around one loop: the matrix's action
    rng = np.random.default_rng(24)
    nav = sphere_cap.nav
    loop = random_loop(nav.chart, rng)
    probes = random_vectors(rng, 24, 2)
    assert len(probes) > nk.SCALAR_ROWS
    hol = ho.loop_holonomy(nav, loop, probes, mode="riemann", dt=2e-3)
    want = probes @ ho.riemann_holonomy_matrix(nav, loop, 2e-3).T
    assert np.abs(hol.transported - want).max() <= 1e-15 * np.abs(want).max()


def test_natural_runner_fails_as_numpy_in_a_later_group(monkeypatch):
    # made-up tables: A cdot a rotation at unit rate, hW = 0, M cdot = 0.
    # Curve 0 has Q = I; curve 1 has Q = diag(1, -1), so v.Qv < 0 once a
    # state turns past 45 degrees. Of the rows on curve 1 (rows 0 and 2,
    # the second group run), only row 2, starting at 0.3 rad, gets there
    # (at t = 0.485): on floats sqrt raises, and the batch runs again on
    # NumPy, which names row 2 at step 8 of 15.
    n, steps = 2, 15
    tab = np.zeros((2, 2 * steps + 1, 2 * n + 1, n))
    tab[..., :n, :] = [[0.0, -1.0], [1.0, 0.0]]
    tab[..., n:2 * n, :] = np.eye(n)
    tab[1, :, n:2 * n, :] = np.diag([1.0, -1.0])
    aux = np.zeros((2, 2 * steps + 1, n + 1))
    aux[..., -1] = 1.0
    flat = np.concatenate([tab.reshape(2, 2 * steps + 1, -1), aux], axis=-1)
    rows = np.array([1, 0, 1, 0])
    angles = np.array([-0.7, 0.1, 0.3, -0.2])
    v0 = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    with pytest.raises(ValueError):
        _on_floats(flat, rows, v0, False)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteState) as on_floats:
            tr._run_natural(tab, aux, rows, v0, False)
        monkeypatch.setattr(nk, "SCALAR_ROWS", 0)  # the NumPy path
        with pytest.raises(NonFiniteState) as on_numpy:
            tr._run_natural(tab, aux, rows, v0, False)
    assert str(on_floats.value) == str(on_numpy.value)
    assert "row 2 " in str(on_numpy.value)
    assert "at step 8 " in str(on_numpy.value)


# ---------------------------------------------------------------------------
# corrected transport


def test_corrected_transport_restores_norm(funk_ball):
    nav = funk_ball.nav

    def norm(x, v):
        return randers_value(nav, x, v)

    def sloppy(curve, v0):
        # metric transport ignores the wind, so it drifts the F-norm
        return tr.riemann_transport(nav.metric, curve, v0)

    v0 = np.array([0.0, 1.0])
    raw = sloppy(SEG, v0).v_end
    assert not np.isclose(randers_value(nav, SEG.point(1.0), raw), 1.0)
    fixed = tr.corrected_transport(norm, sloppy, SEG, v0)
    assert np.isclose(randers_value(nav, fixed.end, fixed.v_end), 1.0, atol=1e-12)
    # rescaling only: direction of the base answer is kept
    assert np.isclose(fixed.v_end[0] * raw[1] - fixed.v_end[1] * raw[0], 0.0,
                      atol=1e-12)


def test_corrected_transport_rejects_zero_norm(funk_ball):
    nav = funk_ball.nav
    with pytest.raises(ZeroVector):
        tr.corrected_transport(lambda x, v: randers_value(nav, x, v),
                               lambda c, v: v, SEG, np.zeros(2))


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_csv_format(funk_ball):
    nav = funk_ball.nav
    res = tr.natural_transport(nav, SEG, np.array([0.0, 1.0]), dt=0.05,
                               keep_trajectory=True)
    buf = io.StringIO()
    tr.trajectory_csv(res, nav, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x1,x2,v1,v2,F"
    assert len(lines) == res.steps + 2
    first = [float(u) for u in lines[1].split(",")]
    last = [float(u) for u in lines[-1].split(",")]
    assert first[0] == 0.0 and last[0] == 1.0
    assert np.allclose(last[3:5], res.v_end)
    # norm column is constant for the natural transport
    fcol = [float(l.split(",")[-1]) for l in lines[1:]]
    assert np.allclose(fcol, 1.0, atol=1e-9)


def test_trajectory_requires_keep_flag(funk_ball):
    res = tr.natural_transport(funk_ball.nav, SEG, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        tr.trajectory_csv(res, funk_ball.nav, io.StringIO())


def _per_row_csv(header, ts, xs, vs, fvals):
    """The row-by-row formatting of NumPy scalars the CSV writers replaced."""
    lines = [",".join(header) + "\n"]
    for j in range(len(ts)):
        row = [ts[j]] + list(xs[j]) + list(vs[j]) + [float(fvals[j])]
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("dim", [2, 3])
def test_csv_writers_match_per_row_formatting(funk_ball, dim):
    nav = funk_ball.nav if dim == 2 else scenario_from_dict(FUNK_BALL_3D).nav
    names = [f"{c}{i + 1}" for c in "xv" for i in range(dim)]
    curve = AnalyticCurve.from_strings(["0.5*t", "0.2*t^2", "-0.3*t"][:dim])
    res = tr.natural_transport(nav, curve, np.arange(1.0, dim + 1.0), dt=0.01,
                               keep_trajectory=True)
    buf = io.StringIO()
    tr.trajectory_csv(res, nav, buf)
    assert buf.getvalue() == _per_row_csv(
        ["t"] + names + ["F"], res.ts, res.xs, res.vs,
        randers_value(nav, res.xs, res.vs))
    path = sp.integrate_geodesic(sp.Spray(nav, "randers"),
                                 np.full(dim, 0.1), np.eye(dim)[0],
                                 time_span=0.2, dt=0.01)
    buf = io.StringIO()
    sp.geodesic_csv(path, nav, buf)
    assert buf.getvalue() == _per_row_csv(
        ["t"] + [n.replace("v", "y") for n in names] + ["F"], path.ts,
        path.xs, path.ys, randers_value(nav, path.xs, path.ys))

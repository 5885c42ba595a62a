"""Spray coefficients, geodesics, and the spray comparison report."""

import io

import numpy as np
import pytest

from navgeo import sprays as sp
from navgeo.errors import ZeroVector
from navgeo.geometry import field_jet, indicatrix_points, randers_value
from navgeo.transport import AnalyticCurve


# ---------------------------------------------------------------------------
# coefficients


def test_natural_spray_radial_wind_is_half_norm_times_fiber(funk_ball):
    # flat metric, W = -x: G = (F/2) y on the nose
    nav = funk_ball.nav
    rng = np.random.default_rng(1)
    pts = nav.chart.sample_interior(10, margin=0.1)
    ys = rng.normal(size=(10, 2))
    g = sp.natural_spray_values(nav, pts, ys)
    f = randers_value(nav, pts, ys)
    assert np.abs(g - 0.5 * f[:, None] * ys).max() < 1e-13


def test_randers_spray_matches_natural_on_radial_wind(funk_ball):
    nav = funk_ball.nav
    rng = np.random.default_rng(2)
    pts = nav.chart.sample_interior(10, margin=0.1)
    ys = rng.normal(size=(10, 2))
    gn = sp.natural_spray_values(nav, pts, ys)
    gr = sp.randers_spray_values(nav, pts, ys)
    assert np.abs(gn - gr).max() < 1e-12


def test_riemann_spray_conformal_oracle(conformal_flat):
    # G^1 = (y1^2 - y2^2)/2, G^2 = y1 y2 for h = exp(2 x1) id
    m = conformal_flat.nav.metric
    x = np.array([0.2, -0.3])
    assert np.allclose(sp.riemann_spray_values(m, x, np.array([0.0, 1.0])),
                       [-0.5, 0.0], atol=1e-13)
    assert np.allclose(sp.riemann_spray_values(m, x, np.array([1.0, 1.0])),
                       [0.0, 1.0], atol=1e-13)


def test_randers_spray_killing_wind_closed_form(rotation_disk):
    # rigid-rotation wind on the flat disk: on the F-unit sphere the spray
    # is -x/2 - J y with J the quarter turn
    nav = rotation_disk.nav
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for x in (np.array([0.3, -0.4]), np.array([0.0, 0.55])):
        for y in indicatrix_points(nav, x, count=8):
            g = sp.randers_spray_values(nav, x, y)
            assert np.allclose(g, -x / 2.0 - J @ y, atol=1e-12)


def test_spray_homogeneity(sphere_cap):
    # all three sprays are positively 2-homogeneous in the fiber
    nav = sphere_cap.nav
    x = np.array([0.2, 0.1])
    y = np.array([0.7, -0.4])
    for fn in (lambda yy: sp.natural_spray_values(nav, x, yy),
               lambda yy: sp.randers_spray_values(nav, x, yy),
               lambda yy: sp.riemann_spray_values(nav.metric, x, yy)):
        g1 = fn(y)
        for s in (0.5, 3.0):
            assert np.allclose(fn(s * y), s * s * g1, rtol=1e-10)


def test_rs_tensors_rotation(rotation_disk):
    r, s = sp.rs_split(field_jet(rotation_disk.nav, np.array([0.3, 0.2])))
    assert np.allclose(r, 0.0, atol=1e-14)
    assert np.allclose(s, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)


def test_rs_tensors_radial_wind(funk_ball):
    r, s = sp.rs_split(field_jet(funk_ball.nav, np.array([0.1, -0.2])))
    assert np.allclose(r, -np.eye(2), atol=1e-14)
    assert np.allclose(s, 0.0, atol=1e-14)


def test_spray_connection_matrix_matches_fd(sphere_cap):
    nav = sphere_cap.nav
    x = np.array([0.15, -0.2])
    y = np.array([0.6, 0.8])
    mat = sp.spray_connection_matrix(nav, x, y)
    eps = 1e-6
    for j in range(2):
        dy = np.zeros(2)
        dy[j] = eps
        fd = (sp.natural_spray_values(nav, x, y + dy)
              - sp.natural_spray_values(nav, x, y - dy)) / (2 * eps)
        assert np.allclose(mat[:, j], fd, atol=1e-8)


# ---------------------------------------------------------------------------
# geodesics


def test_radial_wind_axis_geodesic_closed_form(funk_ball):
    # x(t) = (1 - exp(-t), 0) solves the natural-spray equation from the
    # center with unit speed; it reaches the chart edge at t = ln 10
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        lambda x, y: sp.natural_spray_values(nav, x, y),
        np.zeros(2), np.array([1.0, 0.0]),
        time_span=3.0, dt=1e-3, chart=nav.chart)
    expect = np.stack([1.0 - np.exp(-path.ts), np.zeros_like(path.ts)], axis=-1)
    assert np.abs(path.xs - expect).max() < 1e-10
    assert path.left_domain
    assert abs(path.ts[-1] - np.log(10.0)) < 2e-3


def test_geodesic_requires_positive_dt_and_nonzero_dir(funk_ball):
    nav = funk_ball.nav
    field = lambda x, y: sp.natural_spray_values(nav, x, y)
    with pytest.raises(ZeroVector):
        sp.integrate_geodesic(field, np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        sp.integrate_geodesic(field, np.zeros(2), np.array([1.0, 0.0]), 1.0,
                              dt=0.0)


def test_geodesic_batch_matches_singles(rotation_disk):
    # the last path dashes outward and halts at the chart edge while the
    # others run on
    nav = rotation_disk.nav
    x0s = np.array([[0.1, 0.0], [0.0, 0.2], [-0.2, 0.1], [0.6, 0.0]])
    y0s = np.array([[0.5, 0.1], [0.3, -0.4], [0.0, 0.6], [3.0, 0.0]])
    field = lambda x, y: sp.randers_spray_values(nav, x, y)
    batch = sp.integrate_geodesics(field, x0s, y0s, time_span=0.5, dt=1e-2,
                                   chart=nav.chart)
    assert [p.left_domain for p in batch] == [False, False, False, True]
    for i in range(4):
        single = sp.integrate_geodesic(field, x0s[i], y0s[i], time_span=0.5,
                                       dt=1e-2, chart=nav.chart)
        assert batch[i].left_domain == single.left_domain
        assert len(batch[i].ts) == len(single.ts)
        assert np.array_equal(batch[i].ts, single.ts)
        assert np.allclose(batch[i].xs, single.xs, atol=1e-12)
        assert np.allclose(batch[i].ys, single.ys, atol=1e-12)


def test_geodesic_step_lands_on_time_span(funk_ball):
    # 1 / 0.3 is not an integer: the path takes three steps of 1/3 and ends
    # at t = 1, not three steps of 0.3 ending at t = 0.9
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        lambda x, y: sp.natural_spray_values(nav, x, y),
        np.zeros(2), np.array([0.2, 0.1]), time_span=1.0, dt=0.3)
    assert path.dt == 1.0 / 3.0
    assert len(path.ts) == 4
    assert abs(path.ts[-1] - 1.0) < 1e-15


def test_geodesic_preserves_norm(sphere_cap):
    # the spray flow conserves F along its own integral curves
    nav = sphere_cap.nav
    path = sp.integrate_geodesic(
        lambda x, y: sp.randers_spray_values(nav, x, y),
        np.array([0.1, -0.1]), np.array([0.4, 0.3]),
        time_span=1.0, dt=1e-3, chart=nav.chart)
    f = randers_value(nav, path.xs, path.ys)
    assert np.abs(f - f[0]).max() < 1e-8


def test_el_residual_small_on_randers_geodesics(funk_ball, rotation_disk):
    for sc, x0, y0 in ((funk_ball, [0.0, 0.0], [0.6, 0.2]),
                       (rotation_disk, [0.2, 0.0], [0.1, 0.5])):
        nav = sc.nav
        path = sp.integrate_geodesic(
            lambda x, y: sp.randers_spray_values(nav, x, y),
            np.array(x0), np.array(y0),
            time_span=1.0, dt=1e-3, chart=nav.chart)
        assert sp.el_residual(nav, path) < 1e-8, sc.name


def test_el_residual_flags_wrong_path(funk_ball):
    # metric-straight lines are not energy extremals of the windy norm
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        lambda x, y: sp.riemann_spray_values(nav.metric, x, y),
        np.zeros(2), np.array([0.6, 0.2]),
        time_span=1.0, dt=1e-3, chart=nav.chart)
    assert sp.el_residual(nav, path) > 1e-2


def test_el_residual_needs_enough_samples(funk_ball):
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        lambda x, y: sp.natural_spray_values(nav, x, y),
        np.zeros(2), np.array([0.5, 0.0]),
        time_span=0.003, dt=1e-3)
    with pytest.raises(ValueError):
        sp.el_residual(nav, path)


def test_autoparallel_residual_on_natural_geodesic(funk_ball):
    # natural geodesics are exactly the autoparallels of the transport rule
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        lambda x, y: sp.natural_spray_values(nav, x, y),
        np.array([0.05, -0.1]), np.array([0.4, 0.5]),
        time_span=1.0, dt=1e-3, chart=nav.chart)
    assert sp.autoparallel_residual(nav, path) < 1e-9


def test_geodesic_csv(funk_ball):
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        lambda x, y: sp.natural_spray_values(nav, x, y),
        np.zeros(2), np.array([1.0, 0.0]),
        time_span=0.1, dt=1e-2)
    buf = io.StringIO()
    sp.geodesic_csv(path, nav, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x1,x2,y1,y2,F"
    assert len(lines) == len(path.ts) + 1
    row = [float(u) for u in lines[-1].split(",")]
    assert np.isclose(row[0], 0.1)
    assert np.allclose(row[1:3], path.xs[-1])


# ---------------------------------------------------------------------------
# spray comparison


def test_compare_sprays_radial_wind(funk_ball):
    rep = sp.compare_sprays(funk_ball.nav)
    assert rep.sprays_coincide
    assert rep.projectively_riemannian
    assert rep.sup_natural_vs_randers < 1e-12
    # the projective factor is the constant -1 for this wind
    assert np.isclose(rep.phi_min, -1.0, atol=1e-12)
    assert np.isclose(rep.phi_max, -1.0, atol=1e-12)


def test_compare_sprays_rotation(rotation_disk):
    rep = sp.compare_sprays(rotation_disk.nav)
    assert not rep.sprays_coincide
    assert not rep.projectively_riemannian
    assert rep.sup_natural_vs_randers > 0.4
    d = rep.as_dict()
    assert d["sprays_coincide"] is False
    assert isinstance(d["sup_natural_vs_randers"], float)


def test_compare_sprays_zero_wind(zero_wind):
    rep = sp.compare_sprays(zero_wind.nav)
    assert rep.sprays_coincide
    assert rep.projectively_riemannian
    assert abs(rep.phi_mean) < 1e-12

"""Spray coefficients, geodesics, and the spray comparison report."""

import io
from pathlib import Path

import numpy as np
import pytest

from navgeo import numkernel as nk
from navgeo import sprays as sp
from navgeo import transport as tr
from navgeo.errors import (DomainError, GradientAtZero, NavGeoError,
                           NonFiniteState, NonFiniteValue,
                           NotPositiveDefinite, ZeroVector)
from navgeo.geometry import field_jet, indicatrix_points, randers_value
from navgeo.scenarios import (builtin, builtin_names, load_scenario,
                              scenario_from_dict)
from navgeo.transport import AnalyticCurve

from helpers import (autoparallel_residual, einsum_natural_spray,
                     einsum_randers_spray, einsum_riemann_spray)

BENCH_SCENARIOS = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "scenarios").glob("*.json"))
ORACLES = {"riemann": einsum_riemann_spray, "natural": einsum_natural_spray,
           "randers": einsum_randers_spray}


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


@pytest.mark.filterwarnings("error")
def test_spray_connection_matrix_raises_at_a_zero_fiber(sphere_cap, funk_ball):
    # N is 0-homogeneous in y, so it has no value at y = 0: a single zero
    # fiber and a batch with one zero row raise instead of giving NaN
    ys = np.array([[0.6, 0.8], [0.0, 0.0], [-0.3, 0.5]])
    for sc in (sphere_cap, funk_ball):
        x = np.array([0.15, -0.2])
        with pytest.raises(GradientAtZero):
            sp.spray_connection_matrix(sc.nav, x, np.zeros(2))
        with pytest.raises(GradientAtZero):
            sp.spray_connection_matrix(sc.nav, np.tile(x, (3, 1)), ys)


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS])
def test_float_sprays_match_the_einsum_kernels(name):
    # the generated float code of each spray against the einsum oracle it
    # follows term for term, at 200 interior points with random fibers, in
    # dimensions 2, 3 and 4
    path = [p for p in BENCH_SCENARIOS if p.name == name]
    nav = (load_scenario(str(path[0])) if path else builtin(name)).nav
    rng = np.random.default_rng(len(name))
    pts = nav.chart.sample_interior(200, margin=0.02)
    ys = rng.normal(size=pts.shape)
    jet = field_jet(nav, pts)
    for kind, kernel in ORACLES.items():
        rhs = sp.Spray(nav, kind).geodesic_rhs()
        got = np.array([rhs(0, tuple(x + y)) for x, y in
                        zip(pts.tolist(), ys.tolist())])
        np.testing.assert_array_equal(got[:, :nav.dim], ys)
        want = -2.0 * kernel(jet, ys)
        # rtol 1e-12 relative to the largest entry (exact zeros stay zero)
        assert (np.abs(got[:, nav.dim:] - want).max()
                <= 1e-12 * np.abs(want).max()), (name, kind)


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


def test_geodesic_batch_matches_singles(rotation_disk, monkeypatch):
    # the last path dashes outward and halts at the chart edge while the
    # others run on; a bare callable runs on NumPy, a Spray on floats up to
    # SCALAR_ROWS rows and on NumPy above, and each side halts alike
    nav = rotation_disk.nav
    x0s = np.array([[0.1, 0.0], [0.0, 0.2], [-0.2, 0.1], [0.6, 0.0]])
    y0s = np.array([[0.5, 0.1], [0.3, -0.4], [0.0, 0.6], [3.0, 0.0]])
    on_floats = []
    rows = nk._rk4_rows
    monkeypatch.setattr(nk, "_rk4_rows",
                        lambda *a: on_floats.append(len(a[2])) or rows(*a))
    spray = sp.Spray(nav, "randers")
    big = nk.SCALAR_ROWS + 1
    cases = [(lambda x, y: sp.randers_spray_values(nav, x, y), 4, []),
             (spray, 4, [4]), (spray, big, [])]
    for field, count, floats in cases:
        on_floats.clear()
        batch = sp.integrate_geodesics(field, np.resize(x0s, (count, 2)),
                                       np.resize(y0s, (count, 2)),
                                       time_span=0.5, dt=1e-2, chart=nav.chart)
        assert on_floats == floats
        assert [p.left_domain for p in batch] == [i % 4 == 3
                                                  for i in range(count)]
        for i in range(count):
            single = sp.integrate_geodesic(field, x0s[i % 4], y0s[i % 4],
                                           time_span=0.5, dt=1e-2,
                                           chart=nav.chart)
            assert batch[i].left_domain == single.left_domain
            assert len(batch[i].ts) == len(single.ts)
            assert np.array_equal(batch[i].ts, single.ts)
            assert np.allclose(batch[i].xs, single.xs, atol=1e-12)
            assert np.allclose(batch[i].ys, single.ys, atol=1e-12)
    assert on_floats == [1] * big  # the singles of a Spray ran on floats


def _raised(run) -> tuple:
    """(type, message) of the NavGeoError run() raises."""
    with pytest.raises(NavGeoError) as info:
        run()
    return type(info.value), str(info.value)


def _unvalidated(metric, wind) -> "NavigationData":
    """Navigation data on the square (-1, 1)^2 whose fields are not
    validated, so a path can run into a bad point."""
    return scenario_from_dict(
        {"schema": 1, "name": "straight", "dim": 2,
         "domain": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
         "metric": metric, "wind": wind}, validate_nav=False).nav


@pytest.mark.parametrize("kind", list(ORACLES))
def test_float_geodesics_raise_the_numpy_errors(kind):
    # the float path redoes a failed step on NumPy, so it raises the type
    # and message of the NumPy path, with the same row, step or point. In
    # the first two cases every spray vanishes on the paths, which are
    # straight lines with the same bits on both paths, so the stage point
    # that the domain error names is the same too.
    cases = [
        # sqrt(x1) at a stage point with x1 < 0 (row 1 walks left)
        (dict.fromkeys(ORACLES, DomainError),
         _unvalidated([["1 + 0*sqrt(x1)", "0"], ["1"]], ["0*sqrt(x1)", "0"]),
         [[0.5, 0.0], [0.05, 0.0]], [[0.0, 0.5], [-1.0, 0.0]]),
        # h_22 = x1 + 1/2 turns nonpositive at a stage point
        (dict.fromkeys(ORACLES, NotPositiveDefinite),
         _unvalidated([["1", "0"], ["x1 + 0.5"]], ["0", "0"]),
         [[0.5, 0.0], [0.2, 0.0]], [[0.0, 0.5], [-1.0, 0.0]]),
        # row 1's state overflows in its first step; the natural and randers
        # sprays overflow at its fiber first, and the NaN they make reaches
        # a stage point, where the wind is not finite
        ({"riemann": NonFiniteState, "natural": NonFiniteValue,
          "randers": NonFiniteValue},
         _unvalidated([["1", "0"], ["1"]], ["0.1*cos(x2)", "0"]),
         [[0.1, 0.1], [0.2, -0.1]], [[0.3, 0.2], [1.5e308, 0.0]]),
    ]
    for errors, nav, x0s, y0s in cases:
        spray = sp.Spray(nav, kind)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = (_raised(lambda: sp.integrate_geodesics(
                field, x0s, y0s, time_span=1.0, dt=1e-2, chart=nav.chart))
                for field in (spray, lambda x, y: spray(x, y)))
        assert got == want and got[0] is errors[kind], (kind, got, want)
    if kind == "riemann":
        assert "row 1 " in got[1] and "step 1 " in got[1]


def test_float_natural_ode_raises_the_numpy_error(funk_ball, monkeypatch):
    seg = AnalyticCurve.from_strings(["0.5*t", "0"])
    run = lambda: tr.natural_transport_many(
        funk_ball.nav, [seg, seg], [[1.0, 0.0], [1e160, 0.0]], "ode", 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _raised(run)
        monkeypatch.setattr(nk, "SCALAR_ROWS", 0)  # the NumPy path
        assert got == _raised(run)
    assert got[0] is NonFiniteState and "row 1 " in got[1]


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
    assert autoparallel_residual(nav, path) < 1e-9


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

"""Connection coefficients, torsion, covariant derivatives."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navgeo import connection as cn
from navgeo import geometry as ge
from navgeo.errors import ZeroVector
from navgeo.geometry import TangentSample, randers_value
from navgeo.scenarios import builtin, builtin_names, load_scenario
from navgeo.sprays import spray_connection_matrix

from helpers import (covariant_derivative_via_connection, dual_norm_grad,
                     dual_norm_grad_x, dual_spray_connection,
                     jet_gamma_fiber_jacobian, torsion_from_duals)

BENCH_SCENARIOS = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "scenarios").glob("*.json"))


# ---------------------------------------------------------------------------
# coefficient matrix


def test_gamma_radial_wind_is_norm_times_identity(funk_ball):
    # flat metric, W = -x: A = 0, M = -id, so Gamma(x, y) = F(x, y) id
    nav = funk_ball.nav
    x = np.array([0.5, 0.0])
    y = np.array([1.0, 0.0])
    g = cn.gamma_matrix(nav, x, y)
    assert np.allclose(g, 2.0 * np.eye(2), atol=1e-12)
    y2 = np.array([0.3, -0.8])
    f2 = randers_value(nav, x, y2)
    assert np.allclose(cn.gamma_matrix(nav, x, y2), f2 * np.eye(2), atol=1e-12)


def test_gamma_zero_wind_reduces_to_linear_part():
    chart = ge.Chart(2, ge.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    nav = ge.NavigationData(
        chart=chart,
        metric=ge.MetricField.from_strings([["exp(2*x1)", "0"], ["exp(2*x1)"]], 2),
        wind=ge.VectorField.from_strings(["0", "0"], 2),
    )
    x = np.array([0.2, -0.5])
    y = np.array([0.4, 1.2])
    a = ge.christoffel(nav.metric, x)
    assert np.allclose(cn.gamma_matrix(nav, x, y),
                       np.einsum("kis,s->ki", a, y), atol=1e-14)


def test_gamma_wrapper_and_batching(sphere_cap):
    nav = sphere_cap.nav
    pts = nav.chart.grid(4)
    ys = np.tile(np.array([0.5, 0.1]), (len(pts), 1))
    gb = cn.gamma_matrix(nav, pts, ys)
    assert gb.shape == (len(pts), 2, 2)
    assert np.allclose(gb[2], cn.gamma_matrix(nav, pts[2], ys[2]))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_gamma_positive_homogeneity(scale, u, v):
    from navgeo.scenarios import builtin
    nav = builtin("sphere_cap").nav
    y = np.array([u, v])
    if np.linalg.norm(y) < 1e-3:
        return
    x = np.array([0.2, -0.1])
    g1 = cn.gamma_matrix(nav, x, y)
    g2 = cn.gamma_matrix(nav, x, scale * y)
    assert np.allclose(g2, scale * g1, rtol=1e-9, atol=1e-12)


def test_gamma_not_additive_in_fiber(funk_ball):
    nav = funk_ball.nav
    x = np.array([0.4, 0.1])
    y1 = np.array([1.0, 0.0])
    y2 = np.array([0.0, 1.0])
    lhs = cn.gamma_matrix(nav, x, y1 + y2)
    rhs = cn.gamma_matrix(nav, x, y1) + cn.gamma_matrix(nav, x, y2)
    assert np.abs(lhs - rhs).max() > 1e-3


def test_gamma_fiber_jacobian_matches_fd(sphere_cap):
    nav = sphere_cap.nav
    x = np.array([0.15, -0.25])
    y = np.array([0.6, 0.9])
    # [j, k, i] = d Gamma^k_i / d y^j
    dg = jet_gamma_fiber_jacobian(ge.field_jet(nav, x), y)[1]
    eps = 1e-6
    for j in range(2):
        dy = np.zeros(2)
        dy[j] = eps
        fd = (cn.gamma_matrix(nav, x, y + dy) - cn.gamma_matrix(nav, x, y - dy)) / (2 * eps)
        assert np.allclose(dg[j], fd, atol=1e-8)


# ---------------------------------------------------------------------------
# torsion


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS])
def test_torsion_two_routes_agree(name):
    # the closed forms of the torsion, F_y and the spray connection against
    # the dual route through Gamma, and F_x = F_y Gamma (F is parallel for
    # the natural connection) against the dual route through the raw
    # derivatives of h and W, in dimensions 2, 3 and 4
    path = [p for p in BENCH_SCENARIOS if p.name == name]
    nav = (load_scenario(str(path[0])) if path else builtin(name)).nav
    rng = np.random.default_rng(9)
    pts = nav.chart.sample_interior(5, margin=0.15)
    for x in pts:
        y = rng.normal(size=nav.dim)
        t1 = cn.torsion_components(nav, x, y)
        t2 = torsion_from_duals(nav, x, y)
        assert np.allclose(t1, t2, atol=1e-9), name
        jet = ge.field_jet(nav, x)
        fy = jet.norm_and_grad(y)[1]
        for what, got, want in (
                ("F_y", fy, dual_norm_grad(jet, y)[1]),
                ("F_x", fy @ cn.jet_gamma(jet, y), dual_norm_grad_x(nav, x, y)),
                ("N", spray_connection_matrix(nav, x, y),
                 dual_spray_connection(jet, y))):
            assert got.shape == want.shape, what
            # rtol 1e-12 relative to the largest entry
            assert (np.abs(got - want).max()
                    <= 1e-12 * np.abs(want).max()), (name, what)


def test_torsion_antisymmetry(rotation_disk):
    x = np.array([0.3, 0.2])
    y = np.array([0.5, -0.7])
    t = cn.torsion_components(rotation_disk.nav, x, y)
    assert np.allclose(t, -np.swapaxes(t, -1, -2))


def test_torsion_vanishes_for_parallel_wind(zero_wind, constant_wind):
    x = np.array([0.3, -0.6])
    y = np.array([1.0, 0.4])
    for sc in (zero_wind, constant_wind):
        t = cn.torsion_components(sc.nav, x, y)
        assert np.abs(t).max() < 1e-14


def test_torsion_nonzero_with_rotating_wind(rotation_disk):
    ev = cn.torsion(rotation_disk.nav,
                    TangentSample(np.array([0.3, 0.2]), np.array([1.0, 0.0])))
    assert ev.sup_norm > 1e-2


def test_torsion_rejects_zero_fiber(funk_ball):
    with pytest.raises(ZeroVector):
        cn.torsion(funk_ball.nav, TangentSample(np.array([0.1, 0.1]), np.zeros(2)))


def test_fiber_derivative_of_spray_splits_into_gamma_plus_torsion(scenarios):
    # dG^k/dy^i = Gamma^k_i + (1/2) t^k_ij y^j, exactly; the correction drops
    # exactly when the torsion does
    for sc in scenarios.values():
        nav = sc.nav
        x = np.array([0.25, -0.15])
        y = np.array([0.7, 0.4])
        lhs = spray_connection_matrix(nav, x, y)
        rhs = cn.gamma_matrix(nav, x, y) \
            + 0.5 * np.einsum("kij,j->ki", cn.torsion_components(nav, x, y), y)
        assert np.allclose(lhs, rhs, atol=1e-12), sc.name


# ---------------------------------------------------------------------------
# covariant derivatives


def test_covariant_derivative_of_wind_along_wind(funk_ball):
    nav = funk_ball.nav
    out = cn.covariant_derivative(nav, nav.wind, nav.wind, np.array([0.5, 0.0]))
    assert np.allclose(out, [1.0 / 3.0, 0.0], atol=1e-14)


def test_covariant_derivative_two_routes(scenarios):
    xf = ge.VectorField.from_strings(["x2 + 0.2", "sin(x1)"], 2)
    yf = ge.VectorField.from_strings(["0.5 - x1*x2", "x1 + 0.1"], 2)
    for sc in scenarios.values():
        nav = sc.nav
        pts = nav.chart.sample_interior(6, margin=0.2)
        d1 = cn.covariant_derivative(nav, xf, yf, pts)
        d2 = covariant_derivative_via_connection(nav, xf, yf, pts)
        assert np.allclose(d1, d2, atol=1e-10), sc.name


def test_covariant_derivative_zero_wind_matches_riemann(zero_wind):
    nav = zero_wind.nav
    xf = ge.VectorField.from_strings(["1", "0"], 2)
    yf = ge.VectorField.from_strings(["x1^2", "x1*x2"], 2)
    x = np.array([0.3, 0.7])
    assert np.allclose(cn.covariant_derivative(nav, xf, yf, x),
                       cn.riemann_covariant_derivative(nav.metric, xf, yf, x))


def test_pre_geodesic_wind_relation(funk_ball, sphere_cap, rotation_disk):
    # nabla_W W = (1 - F(W)) nabla^h_W W pointwise, any wind
    for sc in (funk_ball, sphere_cap, rotation_disk):
        nav = sc.nav
        pts = nav.chart.sample_interior(10, margin=0.15)
        lhs = cn.covariant_derivative(nav, nav.wind, nav.wind, pts)
        rie = cn.riemann_covariant_derivative(nav.metric, nav.wind, nav.wind, pts)
        f = randers_value(nav, pts, nav.wind.value(pts))
        assert np.allclose(lhs, (1.0 - f)[:, None] * rie, atol=1e-13), sc.name

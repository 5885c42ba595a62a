"""A field jet built once per base point and broadcast over fiber directions
gives the same geometry as evaluating every (point, direction) pair alone,
and its one stacked sweep gives the same arrays as one walk per entry."""

from pathlib import Path

import numpy as np
import pytest

from navgeo import connection as cn
from navgeo import exprlang as xl
from navgeo import geometry as ge
from navgeo import numkernel as nk
from navgeo import sprays as sp
from navgeo.geometry import field_jet, field_values, randers_value
from navgeo.scenarios import (builtin, builtin_names, load_scenario,
                              scenario_from_dict)

BENCH_SCENARIOS = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "scenarios").glob("*.json"))

# curved metrics with rotating winds, built inline
CURVED = {
    3: {"schema": 1, "name": "curved_3d", "dim": 3,
        "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.8},
        "metric": [["1 + 0.3*x2^2", "0.1*x1*x3", "0"],
                   ["exp(0.4*x1)", "0.05*x2"],
                   ["1 + 0.2*x1^2"]],
        "wind": ["0.1 - 0.4*x2", "0.4*x1", "0.2*x1*x3"]},
    4: {"schema": 1, "name": "curved_4d", "dim": 4,
        "domain": {"kind": "box", "lo": [-0.5] * 4, "hi": [0.5] * 4},
        "metric": [["1 + 0.2*x2^2", "0.1*x3", "0", "0"],
                   ["1 + 0.1*sin(x1)", "0", "0.05*x4"],
                   ["exp(0.3*x4)", "0"],
                   ["1 + 0.3*x1^2"]],
        "wind": ["-0.5*x2", "0.5*x1", "0.1 - 0.3*x4", "0.3*x3"]},
}


@pytest.mark.parametrize("dim", [3, 4])
def test_jet_broadcast_over_fibers_matches_per_pair_calls(dim):
    nav = scenario_from_dict(CURVED[dim]).nav
    n_points, n_dirs = 5, 4
    xs = nav.chart.sample_interior(n_points, margin=0.2)
    ys = np.random.default_rng(dim).normal(size=(n_points, n_dirs, dim))
    jet = field_jet(nav, xs[:, None, :])
    routes = {
        "F": (jet.norm, lambda x, y: randers_value(nav, x, y)),
        "Gamma": (lambda y: cn.jet_gamma(jet, y),
                  lambda x, y: cn.gamma_matrix(nav, x, y)),
        "riemann spray": (lambda y: sp.jet_riemann_spray(jet, y),
                          lambda x, y: sp.riemann_spray_values(nav.metric, x, y)),
        "natural spray": (lambda y: sp.jet_natural_spray(jet, y),
                          lambda x, y: sp.natural_spray_values(nav, x, y)),
        "randers spray": (lambda y: sp.jet_randers_spray(jet, y),
                          lambda x, y: sp.randers_spray_values(nav, x, y)),
        "torsion": (lambda y: cn.jet_torsion(jet, y),
                    lambda x, y: cn.torsion_components(nav, x, y)),
        "spray connection": (lambda y: sp.jet_spray_connection(jet, y),
                             lambda x, y: sp.spray_connection_matrix(nav, x, y)),
    }
    for name, (on_jet, per_pair) in routes.items():
        batch = on_jet(ys)
        assert batch.shape[:2] == (n_points, n_dirs), name
        for p in range(n_points):
            for d in range(n_dirs):
                np.testing.assert_allclose(batch[p, d], per_pair(xs[p], ys[p, d]),
                                           rtol=1e-12, atol=1e-14, err_msg=name)
    # the rotating wind makes every fiber-dependent quantity nontrivial
    assert np.abs(cn.jet_torsion(jet, ys)).max() > 1e-2


@pytest.mark.parametrize("dim", [3, 4])
def test_single_point_broadcasts_over_a_fiber_batch(dim):
    # a batch as long as the dimension must not pair its axis with the
    # derivative axis of the dual sweeps
    nav = scenario_from_dict(CURVED[dim]).nav
    x = nav.chart.sample_interior(1, margin=0.2)[0]
    routes = {
        "F": lambda y: randers_value(nav, x, y),
        "dF/dy": lambda y: field_values(nav, x).norm_and_grad(y)[1],
        "dF/dx": lambda y: field_jet(nav, x).norm_grad_x(y),
        "Gamma": lambda y: cn.gamma_matrix(nav, x, y),
        "dGamma/dy": lambda y: cn.jet_gamma_fiber_jacobian(field_jet(nav, x),
                                                           y)[1],
        "torsion": lambda y: cn.torsion_components(nav, x, y),
        "natural spray": lambda y: sp.natural_spray_values(nav, x, y),
        "randers spray": lambda y: sp.randers_spray_values(nav, x, y),
        "spray connection": lambda y: sp.spray_connection_matrix(nav, x, y),
    }
    for count in (dim, dim + 1):
        ys = np.random.default_rng(count).normal(size=(count, dim))
        for name, route in routes.items():
            batch = route(ys)
            for d in range(count):
                np.testing.assert_allclose(batch[d], route(ys[d]), rtol=1e-12,
                                           atol=1e-14, err_msg=name)


def _per_entry_jet(nav, x):
    """h, dh, W, dW, A and M from one single-expression evaluate_dual call
    per metric entry and wind component, assembled as before stacking."""
    n, lead = nav.dim, x.shape[:-1]
    h, dh = np.empty(lead + (n, n)), np.empty(lead + (n, n, n))
    for i in range(n):
        for j in range(i, n):
            v, d = xl.evaluate_dual(nav.metric.upper[i][j - i], x)
            h[..., i, j] = h[..., j, i] = v
            dh[..., :, i, j] = dh[..., :, j, i] = d
    w, dw = np.empty(lead + (n,)), np.empty(lead + (n, n))
    for k, comp in enumerate(nav.wind.components):
        w[..., k], dw[..., k, :] = xl.evaluate_dual(comp, x)
    a = ge._levi_civita(nk.spd_inverse(h), dh)
    return {"h": h, "dh": dh, "W": w, "dW": dw, "A": a,
            "M": dw + np.einsum("...kis,...s->...ki", a, w)}


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS])
def test_stacked_sweep_matches_single_expressions(name):
    path = [p for p in BENCH_SCENARIOS if p.name == name]
    nav = (load_scenario(str(path[0])) if path else builtin(name)).nav
    n = nav.dim
    pts = nav.chart.sample_interior(3, margin=0.2)
    for x in (pts[0], pts[:1], pts, pts[:, None, :]):
        jet, ref = field_jet(nav, x), _per_entry_jet(nav, x)
        for key, want in ref.items():
            got = getattr(jet, key)
            assert got.shape == want.shape, (key, x.shape)
            np.testing.assert_array_equal(got, want, err_msg=f"{key} {x.shape}")
        if name == "funk_ball":  # a flat metric: constant entries only
            assert np.all(jet.h == np.eye(n)) and np.all(jet.dh == 0.0)
    # the metric and wind fields alone take the same stacked routes, the
    # value-only ones against one value walk per entry
    h, dh = nav.metric.value_and_derivatives(pts)
    w, dw = nav.wind.value_and_jacobian(pts)
    for got, key in ((h, "h"), (dh, "dh"), (w, "W"), (dw, "dW")):
        np.testing.assert_array_equal(got, ref[key][:, 0], err_msg=key)
    h = np.empty((len(pts), n, n))
    for i in range(n):
        for j in range(i, n):
            h[:, i, j] = h[:, j, i] = xl.evaluate(nav.metric.upper[i][j - i], pts)
    np.testing.assert_array_equal(nav.metric.value(pts), h)
    np.testing.assert_array_equal(
        nav.wind.value(pts),
        np.stack([xl.evaluate(c, pts) for c in nav.wind.components], axis=-1))


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS])
def test_value_and_dual_walks_agree_bitwise(name):
    # a dual quotient divides as the value walk does, so field_values and
    # field_jet see the same h and W
    path = [p for p in BENCH_SCENARIOS if p.name == name]
    nav = (load_scenario(str(path[0])) if path else builtin(name)).nav
    stack = nav.metric.entries + nav.wind.components
    pts = nav.chart.sample_interior(500, margin=0.02)
    for x in (pts[0], pts):
        np.testing.assert_array_equal(xl.evaluate_dual(stack, x)[0],
                                      xl.evaluate(stack, x), err_msg=x.shape)


def test_field_jet_is_one_dual_sweep(monkeypatch):
    nav = scenario_from_dict(CURVED[4]).nav
    calls = []
    sweep = xl.evaluate_dual

    def counted(e, x):
        calls.append(e)
        return sweep(e, x)

    monkeypatch.setattr(xl, "evaluate_dual", counted)
    field_jet(nav, nav.chart.sample_interior(5, margin=0.2))
    assert len(calls) == 1
    assert len(calls[0]) == len(nav.metric.entries) + nav.dim == 14

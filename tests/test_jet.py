"""A field jet built once per base point and broadcast over fiber directions
gives the same geometry as evaluating every (point, direction) pair alone."""

import numpy as np
import pytest

from navgeo import connection as cn
from navgeo import sprays as sp
from navgeo.geometry import (field_jet, randers_grad_x, randers_value,
                             randers_value_and_grad)
from navgeo.scenarios import scenario_from_dict

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
        "dF/dy": lambda y: randers_value_and_grad(nav, x, y)[1],
        "dF/dx": lambda y: randers_grad_x(nav, x, y),
        "Gamma": lambda y: cn.gamma_matrix(nav, x, y),
        "dGamma/dy": lambda y: cn.gamma_fiber_jacobian(nav, x, y),
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

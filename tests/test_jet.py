"""A field jet built once per base point and broadcast over fiber directions
gives the same geometry as evaluating every (point, direction) pair alone,
and its one stacked sweep gives the same arrays as one walk per entry."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from navgeo import connection as cn
from navgeo import exprlang as xl
from navgeo import geometry as ge
from navgeo import numkernel as nk
from navgeo import classify as cl
from navgeo import sprays as sp
from navgeo.errors import NotPositiveDefinite
from navgeo.geometry import field_jet, field_values, randers_value
from navgeo.scenarios import (builtin, builtin_names, load_scenario,
                              scenario_from_dict)

from helpers import (compare_sprays_oracle, einsum_levi_civita,
                     einsum_natural_spray, einsum_randers_spray,
                     einsum_riemann_spray, jet_gamma_fiber_jacobian,
                     random_curve, random_loop, torsion_residual_oracle,
                     walk_sweep)

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
    # a batch as long as the dimension must not pair its axis with a
    # derivative axis: the last axis of the closed forms, or the leading one
    # of the dual oracle's sweep
    nav = scenario_from_dict(CURVED[dim]).nav
    x = nav.chart.sample_interior(1, margin=0.2)[0]
    routes = {
        "F": lambda y: randers_value(nav, x, y),
        "dF/dy": lambda y: field_values(nav, x).norm_and_grad(y)[1],
        "dF/dx": lambda y: field_jet(nav, x).norm_grad_x(y),
        "Gamma": lambda y: cn.gamma_matrix(nav, x, y),
        "dGamma/dy": lambda y: jet_gamma_fiber_jacobian(field_jet(nav, x),
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
    a = einsum_levi_civita(h, dh)[1]
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


def _nav(name):
    path = [p for p in BENCH_SCENARIOS if p.name == name]
    return (load_scenario(str(path[0])) if path else builtin(name)).nav


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS])
def test_value_and_dual_walks_agree_bitwise(name):
    # the gradient program begins with the value program, so field_values
    # and field_jet see the same h and W, variable exponents included
    nav = _nav(name)
    stack = nav.metric.entries + nav.wind.components
    powers = [xl.parse(t, nav.dim) for t in ("2^x1", "x1^x2", "(1+x1^2)^x2")]
    pts = nav.chart.sample_interior(500, margin=0.02)
    for e, x in ((stack, pts[0]), (stack, pts), (powers, np.abs(pts) + 0.1)):
        np.testing.assert_array_equal(xl.evaluate_dual(e, x)[0],
                                      xl.evaluate(e, x), err_msg=x.shape)


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS])
def test_programs_match_the_walk_bitwise(name):
    # every field stack and random curves in the chart, against the
    # recursive walk (no variable exponent occurs in these)
    nav = _nav(name)
    rng = np.random.default_rng(7)
    curves = [random_curve(nav.chart, rng) for _ in range(3)]
    if nav.dim == 2:
        curves.append(random_loop(nav.chart, rng))
    pts = nav.chart.sample_interior(200, margin=0.02)
    ts = np.linspace(0.0, 1.0, 201)[:, None]
    cases = [(s, x) for s in (nav.metric.entries + nav.wind.components,
                              nav.metric.entries, nav.wind.components)
             for x in (pts[0], pts, pts[:5, None, :])]
    cases += [(c.components, t) for c in curves for t in (ts, ts[3])]
    for stack, x in cases:
        want_val = walk_sweep(stack, x, False)[0]
        val = xl.evaluate(stack, x)
        dval, grad = xl.evaluate_dual(stack, x)
        np.testing.assert_array_equal(val, want_val)
        np.testing.assert_array_equal(dval, want_val)
        np.testing.assert_array_equal(grad, walk_sweep(stack, x, True)[1])


def _count_inverses(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kw):
            calls.append(fn.__name__)
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(nk, "spd_inverse", counted(nk.spd_inverse))
    monkeypatch.setattr(np.linalg, "inv", counted(np.linalg.inv))
    return calls


@pytest.mark.parametrize("name", ["funk_ball", "constant_wind",
                                  "funk_ball_3d.json", "constant_wind_3d.json"])
def test_constant_metric_skips_inverse_and_levi_civita(name, monkeypatch):
    nav = _nav(name)
    assert nav.metric.program.constants is not None
    pts = nav.chart.sample_interior(7, margin=0.2)
    field_jet(nav, pts[0])  # the metric's lines are built on first use
    calls = _count_inverses(monkeypatch)
    xs = (pts[0], pts, pts[:, None, :])
    jets = [(field_jet(nav, x), ge.christoffel(nav.metric, x)) for x in xs]
    assert calls == []
    for x, (jet, a) in zip(xs, jets):
        assert a.shape == jet.A.shape == x.shape[:-1] + (nav.dim,) * 3
        assert np.all(a == 0.0) and np.all(jet.A == 0.0)
        assert np.all(jet.dh == 0.0)
        np.testing.assert_array_equal(jet.M, jet.dW)
        np.testing.assert_array_equal(jet.hinv, np.linalg.inv(jet.h))
        np.testing.assert_array_equal(jet.h, nav.metric.value(x))
        np.testing.assert_array_equal(jet.W, nav.wind.value(x))


def test_curved_metric_is_not_constant():
    for name in ("sphere_cap", "conformal_flat", "rot_box_4d.json"):
        assert _nav(name).metric.program.constants is None


def test_constant_indefinite_metric_still_raises():
    data = {"schema": 1, "name": "indefinite", "dim": 2,
            "domain": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "metric": [["1", "2"], ["1"]], "wind": ["0.1*x2", "0"]}
    nav = scenario_from_dict(data, validate_nav=False).nav
    assert nav.metric.program.constants is not None
    for _ in range(2):  # the memoized lines raise on every call
        with pytest.raises(NotPositiveDefinite):
            field_jet(nav, np.array([0.1, 0.2]))
        with pytest.raises(NotPositiveDefinite):
            ge.christoffel(nav.metric, np.array([[0.1, 0.2]]))


def test_curved_metric_indefinite_at_one_point_raises():
    # h = [[1 + 0.1 x2^2, x1], [x1, 1]] is indefinite at the third point
    # only, and the whole batch fails with the one message
    data = {"schema": 1, "name": "indefinite_at_one", "dim": 2,
            "domain": {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
            "metric": [["1 + 0.1*x2^2", "x1"], ["1"]], "wind": ["0.1*x2", "0"]}
    nav = scenario_from_dict(data, validate_nav=False).nav
    pts = np.array([[0.1, 0.2], [0.3, -0.1], [1.5, 0.2], [0.2, 0.1]])
    message = "^metric value is not positive definite$"
    for x in (pts, pts[:, None, :], pts[2]):
        with pytest.raises(NotPositiveDefinite, match=message):
            field_jet(nav, x)
        with pytest.raises(NotPositiveDefinite, match=message):
            ge.christoffel(nav.metric, x)
    good = pts[[0, 1, 3]]
    assert np.all(nk.positive_definite(nav.metric.value(good)))
    np.testing.assert_array_equal(field_jet(nav, good).A,
                                  ge.christoffel(nav.metric, good))


# an off-diagonal entry everywhere, positive definite on the box by
# diagonal dominance
DENSE_4D = {"schema": 1, "name": "dense_4d", "dim": 4,
            "domain": {"kind": "box", "lo": [-0.5] * 4, "hi": [0.5] * 4},
            "metric": [["2 + 0.2*x2^2", "0.3*sin(x1)", "0.1*x3", "0.2"],
                       ["2 + 0.1*x1*x4", "0.25*cos(x2)", "0.1*x1"],
                       ["2 + exp(0.2*x3)", "0.15*x2*x3"],
                       ["2.5 + 0.3*x4^2"]],
            "wind": ["-0.3*x2", "0.3*x1", "0.1*x4", "-0.1*x3"]}
ORACLE_CASES = (builtin_names() + [p.name for p in BENCH_SCENARIOS]
                + ["curved_3d", "curved_4d", "dense_4d"])


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_metric_lines_match_the_einsum_route(name):
    # h^-1 and A from the generated lines against LAPACK's inverse and the
    # einsum Levi-Civita symbols: bitwise on a diagonal metric (every metric
    # of the built-ins and the benchmark scenarios), else within 1e-13 of
    # the largest entry (L D L^T against LU)
    data = {"curved_3d": CURVED[3], "curved_4d": CURVED[4],
            "dense_4d": DENSE_4D}.get(name)
    nav = scenario_from_dict(data).nav if data else _nav(name)
    for count in (1, 20, 1000):
        x = nav.chart.sample_interior(count, margin=0.02)
        x = x[0] if count == 1 else x
        h, dh = nav.metric.value_and_derivatives(x)
        want = einsum_levi_civita(h, dh)
        jet = field_jet(nav, x)
        diagonal = data is None
        assert not diagonal or np.all(h[..., ~np.eye(nav.dim, dtype=bool)] == 0.0)
        for key, got, ref in (("hinv", jet.hinv, want[0]), ("A", jet.A, want[1]),
                              ("christoffel", ge.christoffel(nav.metric, x),
                               want[1])):
            assert got.shape == ref.shape, (key, count)
            if diagonal:
                np.testing.assert_array_equal(got, ref, err_msg=f"{key} {count}")
            else:
                err = np.abs(got - ref).max() / np.abs(ref).max()
                assert err <= 1e-13, (key, count, err)


def test_identical_entries_compile_to_one_subtree():
    # rot_box_4d's four equal diagonal entries are one value line each for
    # its four squares and write one register to four columns
    nav = _nav("rot_box_4d.json")
    program = nav.metric.program
    values = program.source.split("def gradients")[0]
    assert values.count(" ** ") == 4
    diagonal = [line.split(" = ")[1] for line in values.splitlines()
                if line.strip().startswith(("val[..., 0]", "val[..., 4]",
                                            "val[..., 7]", "val[..., 9]"))]
    assert len(diagonal) == 4 and len(set(diagonal)) == 1


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
    assert len(calls[0].exprs) == len(nav.metric.entries) + nav.dim == 14


# ---------------------------------------------------------------------------
# the sprays as the metric spray plus one wind term each, and the grid
# kernels built on them, against the einsum oracle


def _shape_cases(nav, rng):
    """(base points, fibers) pairs: a batch of rows with a point each, a
    grid jet with a fiber axis of one against a (P, D, n) batch, against
    shared (D, n) directions and against one fiber, and a single point
    against a fiber batch as long as the dimension and one longer."""
    n = nav.dim
    xs = nav.chart.sample_interior(6, margin=0.2)
    cases = [(xs, rng.normal(size=(6, n))),
             (xs[:, None, :], rng.normal(size=(6, 5, n))),
             (xs[:, None, :], rng.normal(size=(5, n))),
             (xs[:, None, :], rng.normal(size=n))]
    return cases + [(xs[0], rng.normal(size=(count, n)))
                    for count in (n, n + 1)]


@pytest.mark.parametrize("case", ["sphere_cap", "curved_3d", "curved_4d"])
def test_each_spray_is_the_metric_spray_plus_its_wind_term(case):
    data = {"curved_3d": CURVED[3], "curved_4d": CURVED[4]}.get(case)
    nav = scenario_from_dict(data).nav if data else builtin(case).nav
    for x, y in _shape_cases(nav, np.random.default_rng(nav.dim)):
        jet = field_jet(nav, x)
        f = jet.norm(y)
        riemann = einsum_riemann_spray(jet, y)
        for label, term, oracle, kernel in (
                ("natural", sp.natural_wind_term, einsum_natural_spray,
                 sp.jet_natural_spray),
                ("randers", sp.randers_wind_term, einsum_randers_spray,
                 sp.jet_randers_spray)):
            want = oracle(jet, y)
            got = term(jet, y, f)
            assert got.shape == want.shape, (label, x.shape, y.shape)
            # each to 1e-13 of the largest entry
            diff = want - riemann
            assert (np.abs(got - diff).max()
                    <= 1e-13 * np.abs(diff).max()), (label, x.shape, y.shape)
            assert (np.abs(kernel(jet, y) - want).max()
                    <= 1e-13 * np.abs(want).max()), (label, x.shape, y.shape)


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS]
                         + ["curved_3d", "curved_4d"])
def test_grid_kernels_match_the_full_spray_oracle(name):
    # the comparison from the wind terms against the one from the three
    # full einsum sprays, and the torsion verdict over the pairs i < j
    # against the sup of the whole torsion array, bit for bit
    data = {"curved_3d": CURVED[3], "curved_4d": CURVED[4]}.get(name)
    nav = scenario_from_dict(data).nav if data else _nav(name)
    grid = nav.chart.grid(6, margin=0.05)
    jet = field_jet(nav, grid[:, None, :])
    got = sp.jet_compare_sprays(jet, grid)
    want = compare_sprays_oracle(jet, grid)
    for key, ref in want.as_dict().items():
        value = got.as_dict()[key]
        if isinstance(ref, bool):
            assert value == ref, key
        else:
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), key
    assert np.all(np.abs(got.phi_hat - want.phi_hat)
                  <= 1e-12 * np.maximum(1.0, np.abs(want.phi_hat)))
    dirs = cl._fiber_directions(nav, 8)
    verdict = cl.torsion_vanishing_test(nav, grid)
    assert verdict.residual == torsion_residual_oracle(jet, dirs)
    assert verdict.residual == cl.classification_report(
        nav, grid).torsion_vanishes.residual


def test_grid_torsion_residual_keeps_a_nan():
    # a NaN in the wind derivative must reach the verdict, not be maxed away
    nav = builtin("rotation_disk").nav
    grid = nav.chart.grid(4)
    jet = field_jet(nav, grid[:, None, :])
    m = jet.M.copy()
    m[1, 0, 1, 0] = np.nan
    dirs = cl._fiber_directions(nav, 8)
    verdict = cl._torsion_vanishes(replace(jet, M=m), dirs, 1e-8)
    assert np.isnan(verdict.residual) and not verdict.passed

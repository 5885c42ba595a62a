"""A field jet built once per base point and broadcast over fiber directions
gives the same geometry as evaluating every (point, direction) pair alone,
and its one stacked sweep gives the same arrays as one walk per entry."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from navgeo import connection as cn
from navgeo import exprlang as xl
from navgeo import geometry as ge
from navgeo import classify as cl
from navgeo import sprays as sp
from navgeo import stages
from navgeo.errors import NavGeoError, NonFiniteValue, NotPositiveDefinite
from navgeo.geometry import field_jet, field_values, randers_value
from navgeo.scenarios import (builtin, builtin_names, load_scenario,
                              scenario_from_dict)

from helpers import (compare_sprays_oracle, einsum_levi_civita,
                     einsum_natural_spray, einsum_randers_spray,
                     einsum_riemann_spray, four_step_christoffel,
                     four_step_field_jet, four_step_field_values,
                     four_step_metric_value, geodesic_stage,
                     jet_gamma_fiber_jacobian, random_curve, random_loop,
                     raw_jet, torsion_residual_oracle, walk_sweep)

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
        "riemann spray": (lambda y: einsum_riemann_spray(jet, y),
                          lambda x, y: sp.riemann_spray_values(nav.metric, x, y)),
        "natural spray": (lambda y: einsum_natural_spray(jet, y),
                          lambda x, y: sp.natural_spray_values(nav, x, y)),
        "randers spray": (lambda y: einsum_randers_spray(jet, y),
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
        "dF/dx": lambda y: np.einsum(  # F_y Gamma
            "...k,...ki->...i", field_values(nav, x).norm_and_grad(y)[1],
            cn.gamma_matrix(nav, x, y)),
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
        # the jet keeps no raw derivative; the stacked sweep's dh and dW
        # are gathered by raw_jet
        _, dh, _, dw = raw_jet(nav, x)
        stacked = {"h": jet.h, "dh": dh, "W": jet.W, "dW": dw, "A": jet.A,
                   "M": jet.M}
        for key, want in ref.items():
            got = stacked[key]
            assert got.shape == want.shape, (key, x.shape)
            np.testing.assert_array_equal(got, want, err_msg=f"{key} {x.shape}")
        if name == "funk_ball":  # a flat metric: constant entries only
            assert np.all(jet.h == np.eye(n)) and np.all(dh == 0.0)
    # the wind field alone takes the same stacked route, and the value-only
    # ones go against one value walk per entry
    w, dw = nav.wind.value_and_jacobian(pts)
    for got, key in ((w, "W"), (dw, "dW")):
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

    monkeypatch.setattr(np.linalg, "inv", counted(np.linalg.inv))
    return calls


@pytest.mark.parametrize("name", ["funk_ball", "constant_wind",
                                  "funk_ball_3d.json", "constant_wind_3d.json"])
def test_constant_metric_skips_inverse_and_levi_civita(name, monkeypatch):
    nav = _nav(name)
    assert "x[" not in nav.metric.program.source  # reads no coordinate
    pts = nav.chart.sample_interior(7, margin=0.2)
    field_jet(nav, pts[0])  # the metric's lines are built on first use
    calls = _count_inverses(monkeypatch)
    xs = (pts[0], pts, pts[:, None, :])
    jets = [(field_jet(nav, x), ge.christoffel(nav.metric, x)) for x in xs]
    assert calls == []
    for x, (jet, a) in zip(xs, jets):
        assert a.shape == jet.A.shape == x.shape[:-1] + (nav.dim,) * 3
        assert np.all(a == 0.0) and np.all(jet.A == 0.0)
        assert np.all(raw_jet(nav, x)[1] == 0.0)
        np.testing.assert_array_equal(jet.M, nav.wind.value_and_jacobian(x)[1])
        np.testing.assert_array_equal(jet.hinv, np.linalg.inv(jet.h))
        np.testing.assert_array_equal(jet.h, nav.metric.value(x))
        np.testing.assert_array_equal(jet.W, nav.wind.value(x))


def test_curved_metric_is_not_constant():
    for name in ("sphere_cap", "conformal_flat", "rot_box_4d.json"):
        assert "x[" in _nav(name).metric.program.source


def test_constant_indefinite_metric_still_raises():
    data = {"schema": 1, "name": "indefinite", "dim": 2,
            "domain": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "metric": [["1", "2"], ["1"]], "wind": ["0.1*x2", "0"]}
    nav = scenario_from_dict(data, validate_nav=False).nav
    assert "x[" not in nav.metric.program.source
    for _ in range(2):  # the memoized lines raise on every call
        with pytest.raises(NotPositiveDefinite):
            field_jet(nav, np.array([0.1, 0.2]))
        with pytest.raises(NotPositiveDefinite):
            ge.christoffel(nav.metric, np.array([[0.1, 0.2]]))


def test_curved_metric_indefinite_at_one_point_raises():
    # h = [[1 + 0.1 x2^2, x1], [x1, 1]] is indefinite at the third point
    # only, and the whole batch fails with the one message, which names it
    data = {"schema": 1, "name": "indefinite_at_one", "dim": 2,
            "domain": {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
            "metric": [["1 + 0.1*x2^2", "x1"], ["1"]], "wind": ["0.1*x2", "0"]}
    nav = scenario_from_dict(data, validate_nav=False).nav
    pts = np.array([[0.1, 0.2], [0.3, -0.1], [1.5, 0.2], [0.2, 0.1]])
    message = r"^metric value is not positive definite at point \[1\.5, 0\.2\]$"
    for x in (pts, pts[:, None, :], pts[2]):
        with pytest.raises(NotPositiveDefinite, match=message):
            field_jet(nav, x)
        with pytest.raises(NotPositiveDefinite, match=message):
            ge.christoffel(nav.metric, x)
    good = pts[[0, 1, 3]]
    assert np.all(stages.positive_definite(nav.metric.value(good)))
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
        jet = field_jet(nav, x)
        want = einsum_levi_civita(*raw_jet(nav, x)[:2])
        diagonal = data is None
        assert not diagonal or np.all(jet.h[..., ~np.eye(nav.dim, dtype=bool)] == 0.0)
        for key, got, ref in (("hinv", jet.hinv, want[0]), ("A", jet.A, want[1]),
                              ("christoffel", ge.christoffel(nav.metric, x),
                               want[1])):
            assert got.shape == ref.shape, (key, count)
            if diagonal:
                np.testing.assert_array_equal(got, ref, err_msg=f"{key} {count}")
            else:
                err = np.abs(got - ref).max() / np.abs(ref).max()
                assert err <= 1e-13, (key, count, err)


def test_diagonal_metric_lines_fold_the_first_kind_sum():
    # t[i, i, i] = (d_i h_ii + d_i h_ii) - d_i h_ii is d_i h_ii itself, and
    # A^i_ii reads it directly; the other t of a diagonal metric have one
    # nonzero term, so no line is a sum
    n = 3
    b = xl._Builder(n)
    h = {(i, j): f"h{i}" if i == j else None
         for i in range(n) for j in range(i, n)}
    dh = {(i, j): [f"d{k}h{i}" if i == j else None for k in range(n)]
          for i in range(n) for j in range(n)}
    hinv, a = stages.metric_lines(b, h, dh)
    lines = {target: (template, args) for target, template, args in b.dlines}
    assert not [t for t, _ in lines.values() if t in ("{0} + {1}", "{0} - {1}")]
    for i in range(n):  # A^i_ii = 0.5 (h^ii d_i h_ii)
        template, (half, term) = lines[a[i, i, i]]
        assert (template, half) == ("{0} * {1}", 0.5)
        assert lines[term] == ("{0} * {1}", (hinv[i, i], f"d{i}h{i}"))


def test_identical_entries_compile_to_one_subtree():
    # rot_box_4d's four equal diagonal entries are one value line each for
    # its four squares and write one register to four columns
    nav = _nav("rot_box_4d.json")
    program = nav.metric.program
    assert program.source.count("def ") == 1
    assert program.source.count(" ** ") == 4
    diagonal = [line.split(" = ")[1] for line in program.source.splitlines()
                if line.strip().startswith(("val[..., 0]", "val[..., 4]",
                                            "val[..., 7]", "val[..., 9]"))]
    assert len(diagonal) == 4 and len(set(diagonal)) == 1


def test_field_jet_is_one_dual_sweep(monkeypatch):
    # on success one call of the jet program's field program and no
    # exprlang sweep; on a failure exactly one sweep, which raises
    nav = scenario_from_dict(CURVED[4]).nav
    runs, sweeps = [], []
    build, sweep = stages.field_program, xl.Program.sweep

    def counted_build(program, outputs):
        run = build(program, outputs)

        def counted_run(x):
            runs.append((program, outputs))
            return run(x)
        return counted_run

    def counted_sweep(program, x, dual):
        sweeps.append((program, dual))
        return sweep(program, x, dual)

    monkeypatch.setattr(stages, "field_program", counted_build)
    monkeypatch.setattr(xl.Program, "sweep", counted_sweep)
    field_jet(nav, nav.chart.sample_interior(5, margin=0.2))
    assert runs == [(nav.jet_program, stages.JET_FIELDS)] and sweeps == []
    assert len(nav.jet_program.exprs) == len(nav.metric.entries) + nav.dim == 14
    with pytest.raises(NonFiniteValue, match="'0.05\\*x4'"):
        field_jet(nav, np.array([[0.1, 0.2, 0.3, np.nan]]))
    assert sweeps == [(nav.jet_program, True)]


# ---------------------------------------------------------------------------
# the field programs against the four-step route of tests/helpers.py


def _routes(nav):
    """(name, field program route, four-step route) of each call that runs
    a field program; each route gives a tuple of arrays."""
    return (("field_jet", lambda x: tuple(vars(field_jet(nav, x)).values()),
             lambda x: four_step_field_jet(nav, x)),
            ("field_values",
             lambda x: tuple(vars(field_values(nav, x)).values()),
             lambda x: four_step_field_values(nav, x)),
            ("christoffel", lambda x: (ge.christoffel(nav.metric, x),),
             lambda x: (four_step_christoffel(nav.metric, x),)),
            ("value", lambda x: (nav.metric.value(x),),
             lambda x: (four_step_metric_value(nav.metric, x),)))


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS]
                         + ["curved_3d", "curved_4d"])
def test_field_programs_match_the_four_step_route(name):
    # bit for bit in 2D; in 3D and 4D h, W, hinv and A still are, and hW,
    # lam and M, summed left to right here and in einsum's order there,
    # agree to 1e-15 of the largest entry (measured: 2.1e-16)
    data = {"curved_3d": CURVED[3], "curved_4d": CURVED[4]}.get(name)
    nav = scenario_from_dict(data).nav if data else _nav(name)
    pts = nav.chart.sample_interior(40, margin=0.02)
    for x in (pts[0], pts, pts[:, None, :]):
        for route, got, want in _routes(nav):
            got, want = got(x), want(x)
            fields = stages.JET_FIELDS if len(got) > 1 else (route,)
            for key, a, b in zip(fields, got, want):
                assert a.shape == b.shape, (route, key, x.shape)
                if nav.dim == 2 or key not in ("hW", "lam", "M"):
                    np.testing.assert_array_equal(a, b, err_msg=(route, key))
                else:
                    assert (np.abs(a - b).max()
                            <= 1e-15 * np.abs(b).max()), (route, key)


def _metric_case(metric, wind=("0.1", "0")):
    return scenario_from_dict(
        {"schema": 1, "name": "case", "dim": 2,
         "domain": {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
         "metric": metric, "wind": list(wind)}, validate_nav=False).nav


# navigation data bad at the third of ERROR_POINTS only (or everywhere)
ERROR_CASES = {
    "log out of its domain": _metric_case(
        [["1", "0"], ["1"]], ("0.1*log(x2)", "0")),
    "sqrt out of its domain": _metric_case([["1 + 0.1*sqrt(x1)", "0"], ["1"]]),
    "masked by ^0": _metric_case([["1 + sqrt(x1)^0", "0"], ["1"]]),
    "non-finite value": _metric_case([["1 + 0.1/(x1 + 0.5)", "0"], ["1"]]),
    "non-finite value, finite gradient": _metric_case(
        [["1e308*2 + x1", "0"], ["1"]]),
    "non-finite gradient": _metric_case(
        [["1 + sqrt((x1 + 0.5)^2)", "0"], ["1"]]),
    "indefinite at one point": _metric_case([["1 + 0.1*x2^2", "3*x1"], ["1"]]),
    "constant indefinite": _metric_case([["1", "2"], ["1"]]),
}
ERROR_POINTS = np.array([[0.1, 0.2], [0.3, 0.4], [-0.5, -0.2], [0.2, -0.3]])


def _outcome(route, x):
    try:
        return route(x), None
    except NavGeoError as exc:
        return None, exc


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_field_programs_raise_the_errors_of_the_four_step_route(case):
    # the same error type and message as the four-step route, whose
    # NotPositiveDefinite names no point: a field program's names the
    # first point where the smallest eigenvalue of h is not positive
    nav, pts = ERROR_CASES[case], ERROR_POINTS
    raised = set()
    for x in (pts, pts[:, None, :], pts[2]):
        for route, got, want in _routes(nav):
            (a, err), (b, ref) = _outcome(got, x), _outcome(want, x)
            assert type(err) is type(ref), (route, x.shape, err, ref)
            if ref is None:
                for u, v in zip(a, b):
                    np.testing.assert_array_equal(u, v, err_msg=route)
                continue
            raised.add(type(err).__name__)
            message = str(ref)
            if isinstance(ref, NotPositiveDefinite):
                h = nav.metric.value(x)
                first = np.argwhere(np.linalg.eigvalsh(h).min(axis=-1) <= 0.0)[0]
                message += f" at point {x[tuple(first)].tolist()}"
            assert str(err) == message, (route, x.shape)
    assert raised == {"indefinite at one point": {"NotPositiveDefinite"},
                      "constant indefinite": {"NotPositiveDefinite"},
                      "non-finite value": {"NonFiniteValue"},
                      "non-finite value, finite gradient": {"NonFiniteValue"},
                      "non-finite gradient": {"NonFiniteValue"}}.get(
        case, {"DomainError"}), case


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
        for label, term, oracle in (
                ("riemann", None, einsum_riemann_spray),
                ("natural", sp.natural_wind_term, einsum_natural_spray),
                ("randers", sp.randers_wind_term, einsum_randers_spray)):
            want = oracle(jet, y)
            spray = sp.Spray(nav, label)(x, y)
            assert spray.shape == want.shape, (label, x.shape, y.shape)
            # each to 1e-13 of the largest entry
            assert (np.abs(spray - want).max()
                    <= 1e-13 * np.abs(want).max()), (label, x.shape, y.shape)
            if term is None:
                continue
            got = term(jet, y[..., None], f[..., None])[..., 0]
            assert got.shape == want.shape, (label, x.shape, y.shape)
            diff = want - riemann
            assert (np.abs(got - diff).max()
                    <= 1e-13 * np.abs(diff).max()), (label, x.shape, y.shape)


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS]
                         + ["curved_3d", "curved_4d"])
def test_float_sprays_are_the_metric_spray_plus_the_wind_terms(name):
    # the geodesic equation of each spray, as generated float code and as
    # the same lines over NumPy columns, against the einsum metric spray
    # plus natural_wind_term or randers_wind_term, at the same random
    # states. The two renderings are equal bit for bit where the fields
    # call no transcendental function, whose libm and NumPy versions may
    # round differently.
    data = {"curved_3d": CURVED[3], "curved_4d": CURVED[4]}.get(name)
    nav = scenario_from_dict(data).nav if data else _nav(name)
    rng = np.random.default_rng(len(name))
    pts = nav.chart.sample_interior(50, margin=0.02)
    ys = rng.normal(size=pts.shape)
    jet = field_jet(nav, pts)
    f = jet.norm(ys)[:, None]
    terms = {"natural": sp.natural_wind_term, "randers": sp.randers_wind_term}
    for kind in ("riemann", "natural", "randers"):
        program = sp.Spray(nav, kind).program
        rhs = geodesic_stage(program, kind)
        on_floats = np.array([rhs(0, tuple(x + y)) for x, y in
                              zip(pts.tolist(), ys.tolist())])
        on_numpy = stages.geodesic_numpy(program, kind)(pts, ys)
        g = einsum_riemann_spray(jet, ys)
        if kind in terms:
            g = g + terms[kind](jet, ys[..., None], f)[..., 0]
        want = -2.0 * g
        for got in (on_floats, on_numpy):
            np.testing.assert_array_equal(got[:, :nav.dim], ys)
            # to 1e-13 of the largest entry
            assert (np.abs(got[:, nav.dim:] - want).max()
                    <= 1e-13 * np.abs(want).max()), (name, kind)
        if not re.search(r"\b(sin|cos|exp|log|tanh)\(", program.source):
            np.testing.assert_array_equal(on_numpy, on_floats)


# grids of several blocks of points (geometry.GRID_FIBERS) whose last block
# is partial, for the 16 directions of the comparison and the 8 of the
# torsion verdict alike
SPANNING_GRIDS = {"rotation_disk": 40, "rot_ball_3d.json": 14,
                  "rot_box_4d.json": 7}


@pytest.mark.parametrize("name", builtin_names() + [p.name for p in BENCH_SCENARIOS]
                         + ["curved_3d", "curved_4d"])
def test_grid_kernels_match_the_full_spray_oracle(name):
    # the comparison from the wind terms against the one from the three
    # full einsum sprays, and the torsion verdict over the pairs i < j
    # against the sup of the whole torsion array, bit for bit
    data = {"curved_3d": CURVED[3], "curved_4d": CURVED[4]}.get(name)
    nav = scenario_from_dict(data).nav if data else _nav(name)
    dirs = cl._fiber_directions(nav)
    for per_axis in (6,) + ((SPANNING_GRIDS[name],)
                            if name in SPANNING_GRIDS else ()):
        grid = nav.chart.grid(per_axis, margin=0.05)
        if per_axis != 6:
            for count in (ge.GRID_FIBERS // 16, ge.GRID_FIBERS // len(dirs)):
                assert len(grid) > count and len(grid) % count, count
        jet = field_jet(nav, grid[:, None, :])
        got = sp.jet_compare_sprays(ge.grid_jet(nav, grid))
        want = compare_sprays_oracle(jet, grid)
        for key, ref in want.as_dict().items():
            value = got.as_dict()[key]
            if isinstance(ref, bool):
                assert value == ref, key
            else:
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), key
        assert np.all(np.abs(got.phi_hat - want.phi_hat)
                      <= 1e-12 * np.maximum(1.0, np.abs(want.phi_hat)))
        verdict = cl.torsion_vanishing_test(nav, grid)
        assert verdict.residual == torsion_residual_oracle(jet, dirs)
        assert verdict.residual == cl.classification_report(
            nav, grid).torsion_vanishes.residual


def test_grid_torsion_residual_keeps_a_nan():
    # a NaN in the wind derivative must reach the verdicts, not be maxed
    # away, whether it sits in the first block of points or a later one
    nav = builtin("rotation_disk").nav
    grid = nav.chart.grid(SPANNING_GRIDS["rotation_disk"])
    jet = ge.grid_jet(nav, grid)
    dirs = cl._fiber_directions(nav)
    assert len(grid) > ge.GRID_FIBERS // len(dirs)
    for point in (1, len(grid) - 1):
        m = jet.M.copy()
        m[point, 1, 0] = np.nan
        verdict = cl._torsion_vanishes(replace(jet, M=m), dirs, 1e-8)
        assert np.isnan(verdict.residual) and not verdict.passed, point
        report = sp.jet_compare_sprays(replace(jet, M=m))
        assert np.isnan(report.sup_natural_vs_randers), point
        assert not report.sprays_coincide, point

"""Metric fields, wind fields, the navigation norm, and validation."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navgeo import cli, connection as cn, exprlang as xl, geometry as ge
from navgeo.scenarios import load_scenario, scenario_from_dict

from helpers import lattice_oracle, reference_contains, reference_validate

BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"


# ---------------------------------------------------------------------------
# charts


def test_box_contains_and_bounds():
    box = ge.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    chart = ge.Chart(2, box)
    assert chart.contains([0.0, 1.0])
    assert not chart.contains([1.0, 1.0])  # boundary is outside (open set)
    assert not chart.contains([0.0, 2.5])
    lo, hi = chart.bounding_box()
    assert np.allclose(lo, [-1.0, 0.0]) and np.allclose(hi, [1.0, 2.0])


def test_ball_contains_and_bounds():
    chart = ge.Chart(2, ge.Ball(np.zeros(2), 0.9))
    assert chart.contains([0.5, 0.5])
    assert not chart.contains([0.9, 0.0])
    assert not chart.contains([0.7, 0.7])
    lo, hi = chart.bounding_box()
    assert np.allclose(lo, [-0.9, -0.9]) and np.allclose(hi, [0.9, 0.9])


# Each case in a child process whose address space is capped at 1 GiB:
# unbounded sampling fails there with a MemoryError instead of exhausting
# the host. A scenario with a domain whose squared extent is not finite
# (JSON takes NaN and Infinity) is refused by validate; a library call
# whose shrunk domain holds no candidate runs out of its sample budget.
_UNBOUNDED = r"""
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from navgeo import cli, geometry as ge
toy = {"schema": 1, "name": "toy", "dim": 2, "metric": [["1", "0"], ["1"]],
       "wind": ["0.1", "0"]}
results = []
for domain in json.loads(sys.argv[2]):
    with open(sys.argv[1], "w") as f:
        f.write(json.dumps(dict(toy, domain=domain)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        results.append([cli.main(["validate", "--scenario", sys.argv[1]]),
                        err.getvalue()])
try:
    ge.Chart(2, ge.Ball(np.zeros(2), 1.0)).sample_interior(10_000, margin=1.0)
except Exception as exc:
    results.append([type(exc).__name__, str(exc)])
print(json.dumps(results))
"""


def test_unbounded_domains_are_refused_within_a_memory_cap(tmp_path):
    domains = [{"kind": "ball", "center": [0, 0], "radius": float("nan")},
               {"kind": "ball", "center": [0, 0], "radius": 1e300},
               {"kind": "box", "lo": [-1e308, 0], "hi": [1e308, 1]},
               {"kind": "box", "lo": [0, 0], "hi": [float("inf"), 1]}]
    env = {**os.environ, "PYTHONPATH": str(Path(ge.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    res = subprocess.run([sys.executable, "-c", _UNBOUNDED,
                          str(tmp_path / "s.json"), json.dumps(domains)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    *validated, sampled = json.loads(res.stdout)
    for code, stderr in validated:
        assert code == 1
        assert stderr.startswith("navgeo: ScenarioParseError: bad domain: "
                                 "domain needs finite bounds"), stderr
    assert sampled == ["NavGeoError", "1000000 candidates gave 0 of 10000 "
                       "points inside the ball chart within [-1. -1.]..[1. "
                       "1.] at margin 1.0"]


def test_domains_need_finite_extents():
    for bad in (lambda: ge.Ball(np.zeros(3), np.inf),
                lambda: ge.Ball(np.array([0.0, np.nan]), 1.0),
                lambda: ge.Ball(np.zeros(2), 2e154),  # (2 r)^2 overflows
                lambda: ge.Box(np.zeros(2), np.array([1.0, np.nan]))):
        with pytest.raises(ValueError, match="finite squared extent"):
            bad()
    ge.Ball(np.zeros(2), 1e150)  # (2 r)^2 n stays finite


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("domain", ["box", "ball"])
def test_float_contains_is_contains_at_the_boundary(dim, domain):
    # points on the boundary and within 4 ulps of it, coordinate by
    # coordinate, and states whose fiber part the predicate must ignore
    rng = np.random.default_rng(dim)
    lo, hi = -rng.uniform(0.5, 1.5, dim), rng.uniform(0.5, 1.5, dim)
    chart = ge.Chart(dim, ge.Box(lo, hi) if domain == "box"
                     else ge.Ball(0.1 * hi, 0.7))
    if domain == "box":
        on = rng.uniform(lo, hi, size=(200, dim))
        side = rng.integers(0, dim, 200)
        on[np.arange(200), side] = np.where(rng.uniform(size=200) < 0.5,
                                            lo[side], hi[side])
    else:
        u = rng.normal(size=(200, dim))
        on = 0.1 * hi + 0.7 * u / np.linalg.norm(u, axis=1)[:, None]
    ulps = rng.integers(-4, 5, size=(9,) + on.shape)
    pts = np.concatenate([on, (on + ulps * np.spacing(on)).reshape(-1, dim),
                          rng.uniform(2 * lo, 2 * hi, size=(200, dim))])
    inside = chart.float_contains()
    states = np.concatenate([pts, rng.normal(size=pts.shape)], axis=1)
    got = [inside(v) for v in states.tolist()]
    assert got == chart.contains(pts).tolist()
    assert 0 < sum(got) < len(got)


def test_sample_interior_stays_inside():
    chart = ge.Chart(2, ge.Ball(np.zeros(2), 0.9))
    pts = chart.sample_interior(500, margin=0.1)
    assert pts.shape == (500, 2)
    r = np.linalg.norm(pts, axis=-1)
    assert np.all(r < 0.9 * (1.0 - 0.1) + 1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("domain", ["box", "ball"])
def test_sample_interior_is_the_kronecker_sequence(dim, domain):
    # the first points of the sequence that fall inside, whatever the
    # blocks it is drawn in; u - floor(u) equals np.mod(u, 1) bit for bit
    # on the sequence's positive arguments
    lo, hi = -np.ones(dim), 2.0 * np.ones(dim)
    chart = ge.Chart(dim, ge.Box(lo, hi) if domain == "box"
                     else ge.Ball(0.5 * np.ones(dim), 1.5))
    ks = np.arange(20_000)[:, None]
    u = np.mod(0.5 + ks * ge._kronecker_alphas(dim)[None, :], 1.0)
    cand = lo + u * (hi - lo)
    for margin in (0.0, 0.1):
        want = cand[chart.contains(cand, margin)][:3000]
        assert np.array_equal(chart.sample_interior(3000, margin), want)


def _lattice_charts(scenarios):
    """The 7 built-in charts, the 4 bench/scenarios charts (read only), and
    a box and an off-center ball in each of dimensions 2, 3 and 4."""
    charts = [sc.nav.chart for sc in scenarios.values()]
    charts += [load_scenario(str(f), validate_nav=False).nav.chart
               for f in sorted(BENCH_SCENARIOS.glob("*.json"))]
    for dim in (2, 3, 4):
        lo, hi = -np.linspace(0.5, 1.2, dim), np.linspace(0.8, 1.9, dim)
        charts += [ge.Chart(dim, ge.Box(lo, hi)),
                   ge.Chart(dim, ge.Ball(0.3 * hi, 0.85))]
    return charts


@pytest.mark.parametrize("count", [1, 5, 64, 1000, 10_000])
def test_sample_interior_is_the_point_major_lattice(scenarios, count):
    # the coordinate-major blocks give the points of the point-major ones
    # kept by the np.linalg.norm / np.all row rule, bit for bit
    charts = _lattice_charts(scenarios)
    assert len(charts) == 17
    for chart in charts:
        for margin in (0.0, 0.02, 0.1):
            got = chart.sample_interior(count, margin)
            assert got.shape == (count, chart.dim)
            assert np.array_equal(got, lattice_oracle(chart, count, margin)), (
                chart, count, margin)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("domain", ["box", "ball"])
def test_contains_is_the_row_rule_within_ulps_of_the_boundary(dim, domain):
    # points on the boundary of the shrunk domain and within 4 ulps of it,
    # coordinate by coordinate, in C and Fortran order, one at a time and
    # as a (N, 1, n) stack
    rng = np.random.default_rng(10 + dim)
    lo, hi = -rng.uniform(0.5, 1.5, dim), rng.uniform(0.5, 1.5, dim)
    chart = ge.Chart(dim, ge.Box(lo, hi) if domain == "box"
                     else ge.Ball(0.1 * hi, 0.7))
    for margin in (0.0, 0.02, 0.1):
        if domain == "box":
            center = 0.5 * (hi + lo)
            half = 0.5 * (hi - lo) * (1.0 - margin)
            on = rng.uniform(center - half, center + half, size=(200, dim))
            side = rng.integers(0, dim, 200)
            on[np.arange(200), side] = np.where(
                rng.uniform(size=200) < 0.5, (center - half)[side],
                (center + half)[side])
        else:
            u = rng.normal(size=(200, dim))
            on = 0.1 * hi + 0.7 * (1.0 - margin) * u / np.linalg.norm(
                u, axis=1)[:, None]
        ulps = rng.integers(-4, 5, size=(9,) + on.shape)
        pts = np.concatenate([on, (on + ulps * np.spacing(on)).reshape(-1, dim),
                              rng.uniform(2 * lo, 2 * hi, size=(200, dim))])
        want = reference_contains(chart, pts, margin)
        assert 0 < want.sum() < len(want)
        for layout in (pts, np.asfortranarray(pts)):
            assert np.array_equal(chart.contains(layout, margin), want)
        assert [chart.contains(p, margin) for p in pts] == want.tolist()
        assert np.array_equal(chart.contains(pts[:, None], margin),
                              want[:, None])


def test_grid_is_inside_and_deterministic():
    chart = ge.Chart(2, ge.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    g1 = chart.grid(7)
    g2 = chart.grid(7)
    assert g1.shape == (49, 2)
    assert np.array_equal(g1, g2)
    assert np.all(np.abs(g1) < 1.0)


def test_ball_grid_drops_outside_points():
    chart = ge.Chart(2, ge.Ball(np.zeros(2), 0.9))
    g = chart.grid(9)
    assert np.all(np.linalg.norm(g, axis=-1) < 0.9)
    # corners of the bounding square must have been filtered out
    assert len(g) < 81


# ---------------------------------------------------------------------------
# vector / metric fields


def test_vector_field_value_and_jacobian():
    vf = ge.VectorField.from_strings(["-x2", "x1"], 2)
    x = np.array([0.3, -0.2])
    assert np.allclose(vf.value(x), [0.2, 0.3])
    j = vf.value_and_jacobian(x)[1]
    assert np.allclose(j, [[0.0, -1.0], [1.0, 0.0]])


def test_vector_field_jacobian_matches_fd():
    vf = ge.VectorField.from_strings(["sin(x1)*x2", "exp(x2) - x1^2"], 2)
    x = np.array([0.4, -0.3])
    j = vf.value_and_jacobian(x)[1]
    eps = 1e-6
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = eps
        fd = (vf.value(x + dx) - vf.value(x - dx)) / (2 * eps)
        assert np.allclose(j[:, i], fd, atol=1e-8)


def test_vector_field_value_and_derivative_consistent():
    vf = ge.VectorField.from_strings(["x1*x2", "x1 - x2^2"], 2)
    x = np.array([0.5, 0.25])
    d = np.array([0.7, -0.1])
    v, jac = vf.value_and_jacobian(x)
    dv = jac @ d
    assert np.allclose(v, vf.value(x))
    assert np.allclose(dv, [0.25 * 0.7 + 0.5 * -0.1, 0.7 - 2 * 0.25 * -0.1])


def test_metric_field_value_symmetry_and_batch():
    mf = ge.MetricField.from_strings([["exp(2*x1)", "0"], ["exp(2*x1)"]], 2)
    x = np.array([0.5, 0.0])
    h = mf.value(x)
    assert np.allclose(h, np.exp(1.0) * np.eye(2))
    pts = np.array([[0.0, 0.0], [0.5, 0.1], [-0.3, 0.4]])
    hb = mf.value(pts)
    assert hb.shape == (3, 2, 2)
    assert np.allclose(hb, np.swapaxes(hb, -1, -2))
    assert np.allclose(hb[1], mf.value(pts[1]))


def test_metric_field_derivatives_match_fd():
    mf = ge.MetricField.from_strings([["1 + x1^2", "x1*x2"], ["2 + sin(x2)"]], 2)
    x = np.array([0.3, -0.4])
    # the gradient sweep field_jet and christoffel read: grad[m, k] is the
    # d_k derivative of entry m of the upper triangle, row by row
    _, grad = xl.evaluate_dual(mf.program, x)
    upper = np.triu_indices(2)
    eps = 1e-6
    for k in range(2):
        dx = np.zeros(2)
        dx[k] = eps
        fd = (mf.value(x + dx) - mf.value(x - dx)) / (2 * eps)
        assert np.allclose(grad[:, k], fd[upper], atol=1e-9)


# ---------------------------------------------------------------------------
# Levi-Civita coefficients


def test_christoffel_polar_style_metric():
    # h = diag(1, x1^2): the nonzero symbols are A^2_12 = 1/x1, A^1_22 = -x1
    mf = ge.MetricField.from_strings([["1", "0"], ["x1^2"]], 2)
    a = ge.christoffel(mf, np.array([2.0, 0.0]))
    expect = np.zeros((2, 2, 2))
    expect[1, 0, 1] = expect[1, 1, 0] = 0.5
    expect[0, 1, 1] = -2.0
    assert np.allclose(a, expect, atol=1e-12)


def test_christoffel_conformal_metric():
    # h = exp(2*x1) * id: A^k_ij = d^k_i p_j + d^k_j p_i - delta_ij p^k, p = (1, 0)
    mf = ge.MetricField.from_strings([["exp(2*x1)", "0"], ["exp(2*x1)"]], 2)
    a = ge.christoffel(mf, np.array([-0.2, 0.7]))
    expect = np.zeros((2, 2, 2))
    expect[0, 0, 0] = 1.0
    expect[0, 1, 1] = -1.0
    expect[1, 0, 1] = expect[1, 1, 0] = 1.0
    assert np.allclose(a, expect, atol=1e-12)


def test_christoffel_symmetric_and_batched(sphere_cap):
    pts = sphere_cap.nav.chart.grid(5)
    a = ge.christoffel(sphere_cap.nav.metric, pts)
    assert a.shape == (len(pts), 2, 2, 2)
    assert np.allclose(a, np.swapaxes(a, -1, -2))
    one = ge.christoffel(sphere_cap.nav.metric, pts[3])
    assert np.allclose(a[3], one)


def test_wind_covariant_jacobian_flat_cases(funk_ball, rotation_disk, constant_wind):
    x = np.array([0.2, -0.1])
    assert np.allclose(ge.field_jet(funk_ball.nav, x).M, -np.eye(2))
    assert np.allclose(ge.field_jet(rotation_disk.nav, x).M,
                       [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(ge.field_jet(constant_wind.nav, x).M, 0.0)


# ---------------------------------------------------------------------------
# the navigation norm


def test_randers_value_funk_oracle(funk_ball):
    nav = funk_ball.nav
    x = np.array([0.5, 0.0])
    assert np.isclose(ge.randers_value(nav, x, np.array([1.0, 0.0])), 2.0)
    f, g = ge.field_values(nav, x).norm_and_grad(np.array([1.0, 0.0]))
    assert np.isclose(f, 2.0)
    assert np.allclose(g, [2.0, 0.0], atol=1e-12)


def test_randers_value_of_wind(funk_ball):
    # F(W) = |W| / (1 + |W|) for the flat-metric radial wind
    nav = funk_ball.nav
    x = np.array([0.5, 0.0])
    w = nav.wind.value(x)
    assert np.isclose(ge.randers_value(nav, x, w), 0.5 / 1.5, atol=1e-14)


def test_randers_zero_wind_is_h_norm(zero_wind, sphere_cap):
    x = np.array([0.25, -0.4])
    y = np.array([0.3, 1.1])
    assert np.isclose(ge.randers_value(zero_wind.nav, x, y), np.linalg.norm(y))
    # nonzero wind bends the norm away from |y|_h
    f = ge.randers_value(sphere_cap.nav, x, y)
    assert not np.isclose(f, sphere_cap.nav.h_norm(x, y))


def test_randers_grad_is_euler_consistent(sphere_cap):
    nav = sphere_cap.nav
    rng = np.random.default_rng(3)
    pts = nav.chart.sample_interior(20, margin=0.1)
    ys = rng.normal(size=(20, 2))
    f, g = ge.field_values(nav, pts).norm_and_grad(ys)
    assert np.allclose(np.einsum("ki,ki->k", g, ys), f, rtol=1e-12)


def test_randers_grad_x_matches_fd(sphere_cap):
    nav = sphere_cap.nav
    x = np.array([0.2, 0.1])
    y = np.array([0.7, -0.4])
    # F is parallel for the natural connection: dF/dx = F_y Gamma
    jet = ge.field_jet(nav, x)
    gx = jet.norm_and_grad(y)[1] @ cn.jet_gamma(jet, y)
    eps = 1e-6
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = eps
        fd = (ge.randers_value(nav, x + dx, y) - ge.randers_value(nav, x - dx, y)) / (2 * eps)
        assert np.isclose(gx[i], fd, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 20.0),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_randers_positive_homogeneity(scale, u, v):
    nav = _funk_nav()
    x = np.array([0.3, -0.2])
    y = np.array([u, v])
    if np.linalg.norm(y) < 1e-3:
        return
    f1 = ge.randers_value(nav, x, y)
    f2 = ge.randers_value(nav, x, scale * y)
    assert np.isclose(f2, scale * f1, rtol=1e-10)
    assert f1 > 0.0


def test_randers_not_symmetric(funk_ball):
    # reversibility fails whenever the wind is nonzero
    nav = funk_ball.nav
    x = np.array([0.5, 0.0])
    y = np.array([1.0, 0.0])
    assert not np.isclose(ge.randers_value(nav, x, y),
                          ge.randers_value(nav, x, -y))


def test_alpha_beta_presentation(funk_ball, sphere_cap):
    for sc in (funk_ball, sphere_cap):
        nav = sc.nav
        x = np.array([0.31, -0.12])
        alpha, beta = ge.randers_alpha_beta(nav, x)
        rng = np.random.default_rng(5)
        for y in rng.normal(size=(8, 2)):
            f = np.sqrt(y @ alpha @ y) + beta @ y
            assert np.isclose(f, ge.randers_value(nav, x, y), rtol=1e-12)


def test_alpha_beta_funk_values(funk_ball):
    alpha, beta = ge.randers_alpha_beta(funk_ball.nav, np.array([0.5, 0.0]))
    assert np.allclose(beta, [2.0 / 3.0, 0.0])
    assert np.allclose(alpha, [[16.0 / 9.0, 0.0], [0.0, 4.0 / 3.0]])


def test_indicatrix_points_have_unit_norm(funk_ball, sphere_cap):
    for sc in (funk_ball, sphere_cap):
        nav = sc.nav
        x = np.array([0.2, 0.3])
        pts = ge.indicatrix_points(nav, x, count=24)
        assert pts.shape == (24, 2)
        f = ge.randers_value(nav, np.broadcast_to(x, pts.shape), pts)
        assert np.allclose(f, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# navigation-data container and validation


def _funk_nav():
    from navgeo.scenarios import builtin
    return builtin("funk_ball").nav


def test_navigation_data_accessors(funk_ball):
    nav = funk_ball.nav
    assert nav.dim == 2
    x = np.array([0.3, 0.4])
    v = ge.field_values(nav, x)
    assert np.allclose(v.h, np.eye(2))
    assert np.allclose(v.W, [-0.3, -0.4])
    assert np.isclose(np.sqrt(v.W @ v.hW), 0.5)
    assert np.isclose(v.lam, 0.75)
    u = np.array([1.0, 2.0])
    v = np.array([-1.0, 1.0])
    assert np.isclose(nav.inner(x, u, v), 1.0)
    assert np.isclose(nav.h_norm(x, u), np.sqrt(5.0))


def test_validate_passes_on_builtins(scenarios):
    for sc in scenarios.values():
        report = ge.validate(sc.nav, n_points=2000)
        assert report.passed, (sc.name, report.failures)
        assert report.min_metric_eigenvalue > 0.0
        assert report.max_wind_norm < 1.0
        assert report.min_lambda > 0.0


def test_validate_rejects_strong_wind():
    chart = ge.Chart(2, ge.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    nav = ge.NavigationData(
        chart=chart,
        metric=ge.MetricField.from_strings([["1", "0"], ["1"]], 2),
        wind=ge.VectorField.from_strings(["2*x1", "0"], 2),
    )
    report = ge.validate(nav, n_points=4000)
    assert not report.passed
    kinds = {f["kind"] for f in report.failures}
    assert "wind_too_strong" in kinds
    bad = next(f for f in report.failures if f["kind"] == "wind_too_strong")
    assert abs(2.0 * bad["point"][0]) >= 1.0 - 1e-6


def test_validate_rejects_indefinite_metric():
    chart = ge.Chart(2, ge.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    nav = ge.NavigationData(
        chart=chart,
        metric=ge.MetricField.from_strings([["x1", "0"], ["1"]], 2),
        wind=ge.VectorField.from_strings(["0", "0"], 2),
    )
    report = ge.validate(nav, n_points=4000)
    assert not report.passed
    kinds = {f["kind"] for f in report.failures}
    assert "metric_not_positive" in kinds
    assert report.min_metric_eigenvalue <= 0.0


def _corner_indefinite(dim):
    """Flat metric on [-1, 1]^dim except one off-diagonal entry, coupling
    the last two axes, that grows past 1 in the corner where the mean
    coordinate exceeds 2/3: positive definite elsewhere, and only the last
    pivot fails."""
    mean = "(" + "+".join(f"x{k + 1}" for k in range(dim)) + f")/{dim}"
    rows = [["1" if j == i else "0" for j in range(i, dim)]
            for i in range(dim)]
    rows[dim - 2][1] = f"0.6*(1 + {mean})"
    return ge.NavigationData(
        chart=ge.Chart(dim, ge.Box(-np.ones(dim), np.ones(dim))),
        metric=ge.MetricField.from_strings(rows, dim),
        wind=ge.VectorField.from_strings(["0.1"] * dim, dim))


@pytest.mark.parametrize("dim", [3, 4])
def test_validate_finds_the_reference_witness_in_an_indefinite_corner(dim):
    nav = _corner_indefinite(dim)
    report = ge.validate(nav)
    want = reference_validate(nav)
    assert report.as_dict() == want
    assert [f["kind"] for f in report.failures] == ["metric_not_positive"]
    witness = np.array(report.failures[0]["point"])
    assert witness.mean() > 2.0 / 3.0
    assert report.failures[0]["value"] < 0.0


def _strong_wind_ball(dim):
    """Scenario data: the ball of radius 0.9 with metric (1 + r^2/2) I and
    the radial wind 1.5 x, whose |W|_h = 1.5 r sqrt(1 + r^2/2) passes 1
    at r = 0.61, so only the lattice points near the edge fail."""
    r2 = "+".join(f"x{k + 1}^2" for k in range(dim))
    rows = [[f"1+0.5*({r2})" if j == i else "0" for j in range(i, dim)]
            for i in range(dim)]
    return {"schema": 1, "name": f"strong_wind_ball_{dim}d", "dim": dim,
            "domain": {"kind": "ball", "center": [0.0] * dim, "radius": 0.9},
            "metric": rows, "wind": [f"1.5*x{k + 1}" for k in range(dim)]}


@pytest.mark.parametrize("dim", [3, 4])
def test_validate_finds_the_reference_witness_of_a_strong_wind_on_a_ball(
        dim, tmp_path):
    data = _strong_wind_ball(dim)
    nav = scenario_from_dict(data, validate_nav=False).nav
    report = ge.validate(nav)
    want = reference_validate(nav)
    assert report.as_dict() == want
    assert [f["kind"] for f in report.failures] == ["wind_too_strong"]
    witness = np.array(report.failures[0]["point"])
    assert 0.6 < np.linalg.norm(witness) < 0.9
    assert report.failures[0]["value"] >= 1.0 - 1e-6
    # the command line loads the file without validating it, validates,
    # prints the same report and exits 1
    path = tmp_path / "strong_wind.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["validate", "--scenario", str(path)])
    assert code == 1
    assert json.loads(out.getvalue()) == {"scenario": data["name"], **want}


def test_validate_matches_the_eigenvalue_reference(scenarios):
    # the pivots decide positivity and the eigenvalues are computed for the
    # report only; every field agrees bit for bit with the eigenvalue route
    navs = [sc.nav for sc in scenarios.values()]
    navs += [load_scenario(str(f)).nav
             for f in sorted(BENCH_SCENARIOS.glob("*.json"))]
    assert len(navs) == 11
    for nav in navs:
        for n_points in (500, 2000, 10_000):
            got = ge.validate(nav, n_points=n_points).as_dict()
            want = reference_validate(nav, n_points=n_points)
            assert got == want
            assert repr(got) == repr(want)


def test_validate_report_as_dict(funk_ball):
    d = ge.validate(funk_ball.nav, n_points=500).as_dict()
    assert d["passed"] is True
    assert d["n_points"] == 500
    assert isinstance(d["max_wind_norm"], float)


def test_tangent_sample_shape_check():
    with pytest.raises(ValueError):
        ge.TangentSample(np.array([0.0, 0.0]), np.array([1.0, 0.0, 0.0]))

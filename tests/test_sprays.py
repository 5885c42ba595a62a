"""Spray coefficients, geodesics, and the spray comparison report."""

import io
from pathlib import Path

import numpy as np
import pytest

from navgeo import numkernel as nk
from navgeo import sprays as sp
from navgeo import stages
from navgeo import transport as tr
from navgeo.errors import (DomainError, GradientAtZero, NavGeoError,
                           NonFiniteState, NotPositiveDefinite, ZeroVector,
                           ZeroVelocity)
from navgeo.geometry import field_jet, indicatrix_points, randers_value
from navgeo.scenarios import (builtin, builtin_names, load_scenario,
                              scenario_from_dict)
from navgeo.transport import AnalyticCurve

from helpers import (autoparallel_residual, einsum_natural_spray,
                     einsum_randers_spray, einsum_riemann_spray, float_rows,
                     geodesic_rows_oracle, geodesic_stage, random_vectors,
                     table_stage_rows)

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
    # the generated float code of each spray against its einsum oracle, at
    # 200 interior points with random fibers, in dimensions 2, 3 and 4
    path = [p for p in BENCH_SCENARIOS if p.name == name]
    nav = (load_scenario(str(path[0])) if path else builtin(name)).nav
    rng = np.random.default_rng(len(name))
    pts = nav.chart.sample_interior(200, margin=0.02)
    ys = rng.normal(size=pts.shape)
    jet = field_jet(nav, pts)
    for kind, kernel in ORACLES.items():
        rhs = geodesic_stage(sp.Spray(nav, kind).program, kind)
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
        sp.Spray(nav, "natural"),
        np.zeros(2), np.array([1.0, 0.0]),
        time_span=3.0, dt=1e-3, chart=nav.chart)
    expect = np.stack([1.0 - np.exp(-path.ts), np.zeros_like(path.ts)], axis=-1)
    assert np.abs(path.xs - expect).max() < 1e-10
    assert path.left_domain
    assert abs(path.ts[-1] - np.log(10.0)) < 2e-3


def test_geodesic_requires_positive_dt_and_nonzero_dir(funk_ball):
    nav = funk_ball.nav
    field = sp.Spray(nav, "natural")
    with pytest.raises(ZeroVector):
        sp.integrate_geodesic(field, np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        sp.integrate_geodesic(field, np.zeros(2), np.array([1.0, 0.0]), 1.0,
                              dt=0.0)


def test_geodesic_batch_matches_singles(rotation_disk, monkeypatch):
    # the last path dashes outward and halts at the chart edge while the
    # others run on; a Spray runs on floats up to SCALAR_ROWS rows and on
    # NumPy above (every batch with SCALAR_ROWS patched to 0), and each
    # side halts alike
    nav = rotation_disk.nav
    x0s = np.array([[0.1, 0.0], [0.0, 0.2], [-0.2, 0.1], [0.6, 0.0]])
    y0s = np.array([[0.5, 0.1], [0.3, -0.4], [0.0, 0.6], [3.0, 0.0]])
    on_floats = []
    runner = stages.geodesic_run

    def counted(*key):
        run = runner(*key)
        return lambda tab, inside, states, *rest: (
            on_floats.append(len(states)) or run(tab, inside, states, *rest))
    monkeypatch.setattr(stages, "geodesic_run", counted)
    spray = sp.Spray(nav, "randers")
    big = nk.SCALAR_ROWS + 1
    cases = [(0, 4, []), (nk.SCALAR_ROWS, 4, [4]), (nk.SCALAR_ROWS, big, [])]
    for limit, count, floats in cases:
        monkeypatch.setattr(nk, "SCALAR_ROWS", limit)
        on_floats.clear()
        batch = sp.integrate_geodesics(spray, np.resize(x0s, (count, 2)),
                                       np.resize(y0s, (count, 2)),
                                       time_span=0.5, dt=1e-2, chart=nav.chart)
        assert on_floats == floats
        assert [p.left_domain for p in batch] == [i % 4 == 3
                                                  for i in range(count)]
        for i in range(count):
            single = sp.integrate_geodesic(spray, x0s[i % 4], y0s[i % 4],
                                           time_span=0.5, dt=1e-2,
                                           chart=nav.chart)
            assert batch[i].left_domain == single.left_domain
            assert len(batch[i].ts) == len(single.ts)
            assert np.array_equal(batch[i].ts, single.ts)
            assert np.allclose(batch[i].xs, single.xs, atol=1e-12)
            assert np.allclose(batch[i].ys, single.ys, atol=1e-12)
    assert on_floats == [1] * big  # the singles of a Spray ran on floats


GEODESIC_NAVS = {
    2: lambda: builtin("rotation_disk").nav,
    3: lambda: load_scenario(str(BENCH_SCENARIOS[0].parent
                                 / "rot_ball_3d.json")).nav,
    4: lambda: load_scenario(str(BENCH_SCENARIOS[0].parent
                                 / "rot_box_4d.json")).nav}


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("batch", [1, 4, 20])
@pytest.mark.parametrize("keep", [False, True])
def test_geodesic_runner_is_the_per_row_stages(dim, batch, keep, monkeypatch):
    # the lockstep runner of each spray against the per-row float stages,
    # bit for bit, and the NumPy lockstep loop, within round-off and with
    # the same halts: rows halting at different steps while row 0, slow
    # from the center, never does; then a batch in which every row halts
    # early, so the trajectory ends at the last halt
    nav = GEODESIC_NAVS[dim]()
    chart = nav.chart
    rng = np.random.default_rng(10 * dim + batch)
    lo, hi = chart.bounding_box()
    x0 = chart.sample_interior(batch, margin=0.1).copy()
    x0[0] = 0.5 * (lo + hi)
    y0 = random_vectors(rng, batch, dim)
    y0 /= np.linalg.norm(y0, axis=1, keepdims=True)
    slow = y0 * rng.uniform(0.5, 3.0, size=(batch, 1))
    slow[0] *= 0.05
    steps, dt = 40, 0.025
    sizes = (0.5 * dt, dt, dt / 6.0)
    for kind in ("riemann", "natural", "randers"):
        spray = sp.Spray(nav, kind)
        run = stages.float_run(stages.geodesic_run, (spray.program, kind),
                               inside=chart.float_contains())
        for y, early in ((slow, False), (3.0 * y0, True)):
            v0 = np.concatenate([x0, y], axis=1)
            got = run(v0, steps, sizes, keep)
            want = geodesic_rows_oracle(spray, v0, steps, dt, keep,
                                        chart.float_contains())
            assert (got[1] is None) == (want[1] is None) == (not keep)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
            stop = got[2]
            if keep:
                assert got[1].shape == (batch, stop.max() + 1, 2 * dim)
            if early:
                assert stop.max() < steps, (kind, stop)
            else:
                assert stop[0] == steps
                if batch > 1:
                    assert len(set(stop[stop < steps].tolist())) >= 2, stop
            ran = sp.integrate_geodesics(spray, x0, y, steps * dt, dt, chart)
            with monkeypatch.context() as patch:
                patch.setattr(nk, "SCALAR_ROWS", 0)  # the NumPy path
                numpy = sp.integrate_geodesics(spray, x0, y, steps * dt, dt,
                                               chart)
            for b, (path, lock) in enumerate(zip(ran, numpy)):
                assert len(path.ts) == len(lock.ts) == stop[b] + 1
                np.testing.assert_array_equal(path.xs[-1], got[0][b, :dim])
                np.testing.assert_array_equal(path.ys[-1], got[0][b, dim:])
                assert np.allclose(path.xs, lock.xs, rtol=1e-12, atol=1e-12)
                assert np.allclose(path.ys, lock.ys, rtol=1e-12, atol=1e-12)


def test_geodesic_runner_fails_as_numpy_after_a_halt():
    # a flat metric with the wind W = (x1, 0), which grows past unit
    # length at x1 = 1: the norm's root a^2 + lam b turns negative there
    # for a fiber across the wind. Row 0 dashes up and leaves the chart at
    # step 2; row 1 drifts past x1 = 1 and, at the last step, math.sqrt
    # raises on floats where the NumPy path goes NaN, so the batch runs
    # again on NumPy, which names row 1 at step 40.
    data = {"schema": 1, "name": "strong_wind", "dim": 2,
            "domain": {"kind": "box", "lo": [-3.0, -1.5], "hi": [3.0, 1.5]},
            "metric": [["1", "0"], ["1"]], "wind": ["x1", "0"]}
    nav = scenario_from_dict(data, validate_nav=False).nav
    spray = sp.Spray(nav, "natural")
    x0 = np.array([[0.0, 0.0], [0.9, -1.0]])
    y0 = np.array([[0.0, 20.0], [0.1, 1.0]])
    inside = nav.chart.float_contains()
    run = stages.float_run(stages.geodesic_run, (spray.program, "natural"),
                           inside=inside)
    v0 = np.concatenate([x0, y0], axis=1)
    with pytest.raises(ValueError):
        run(v0, 40, (0.0125, 0.025, 0.025 / 6.0), True)
    with pytest.raises(ValueError):
        geodesic_rows_oracle(spray, v0, 40, 0.025, True, inside)
    path = lambda: _raised(lambda: sp.integrate_geodesics(
        spray, x0, y0, 1.0, 0.025, nav.chart))
    with np.errstate(invalid="ignore"):
        got, want = path(), _on_numpy(path)
    assert got == want and got[0] is NonFiniteState, (got, want)
    assert "row 1 " in got[1] and "step 40 " in got[1], got
    assert len(sp.integrate_geodesics(spray, x0[:1], y0[:1], 1.0, 0.025,
                                      nav.chart)[0].ts) == 3


def test_large_spray_batch_builds_no_float_runner(sphere_cap):
    # a batch above SCALAR_ROWS runs on NumPy and never looks its runner up
    nav = sphere_cap.nav
    count = nk.SCALAR_ROWS + 1
    x0 = nav.chart.sample_interior(count, margin=0.2)
    y0 = np.tile([0.3, 0.1], (count, 1))
    before = stages.geodesic_run.cache_info()
    paths = sp.integrate_geodesics(sp.Spray(nav, "randers"), x0, y0, 0.1,
                                   1e-2, nav.chart)
    assert len(paths) == count
    assert stages.geodesic_run.cache_info() == before


def test_small_spray_batch_builds_no_numpy_rendering(sphere_cap):
    # a batch of at most SCALAR_ROWS runs on floats and never looks the
    # NumPy rendering of its geodesic equation up
    nav = sphere_cap.nav
    before = stages.geodesic_numpy.cache_info()
    path = sp.integrate_geodesic(sp.Spray(nav, "natural"), [0.1, 0.0],
                                 [0.3, 0.1], 0.1, 1e-2, nav.chart)
    assert len(path.ts) == 11
    assert stages.geodesic_numpy.cache_info() == before


def _on_numpy(run):
    """run() with numkernel.SCALAR_ROWS patched to 0, so that every batch
    runs on NumPy."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nk, "SCALAR_ROWS", 0)
        return run()


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(ORACLES))
def test_numpy_spray_raises_the_field_jet_error(kind):
    # the NumPy rendering of a spray fails as the field jet at the same
    # points does, at one point and in a batch: a log or sqrt argument out
    # of its domain names the expression and the point, an indefinite
    # metric the first bad point. The bad entries are in the metric, which
    # every spray reads.
    xs = np.array([[0.5, 0.1], [-0.7, 0.2], [-0.6, -0.3]])
    ys = np.array([[0.3, 0.2], [0.1, -0.4], [0.5, 0.5]])
    cases = [(DomainError, [["1 + 0*sqrt(x1)", "0"], ["1"]]),
             (DomainError, [["1", "0"], ["1 + 0.1*log(x1 + 0.65)"]]),
             (NotPositiveDefinite, [["1", "0"], ["x1 + 0.65"]])]
    for error, metric in cases:
        nav = _unvalidated(metric, ["0.1*x2", "-0.1*x1"])
        for x, y in ((xs, ys), (xs[1], ys[1]), (xs[1], ys)):
            got = _raised(lambda: sp.Spray(nav, kind)(x, y))
            assert got == _raised(lambda: field_jet(nav, x)), (kind, got)
            assert got[0] is error and "point [-0.7, 0.2]" in got[1], got


@pytest.mark.parametrize("kind", list(ORACLES))
def test_float_geodesics_raise_the_numpy_errors(kind):
    # the float path redoes a failed step on NumPy, so it raises the type
    # and message of the NumPy path, with the same row, step or point. In
    # the first two cases every spray vanishes on the paths, which are
    # straight lines with the same bits on both paths, so the stage point
    # that the domain error names is the same too; each message is the
    # one the NumPy path raised with the hand-written spray kernels.
    cases = [
        # sqrt(x1) at a stage point with x1 < 0 (row 1 walks left)
        (DomainError, "sqrt of a negative value in '1 + 0*sqrt(x1)' at "
         "point [-3.469446951953614e-18, 0.0]",
         _unvalidated([["1 + 0*sqrt(x1)", "0"], ["1"]], ["0*sqrt(x1)", "0"]),
         [[0.5, 0.0], [0.05, 0.0]], [[0.0, 0.5], [-1.0, 0.0]]),
        # h_22 = x1 + 1/2 turns nonpositive at a stage point
        (NotPositiveDefinite, "metric value is not positive definite at "
         "point [-0.5000000000000003, 0.0]",
         _unvalidated([["1", "0"], ["x1 + 0.5"]], ["0", "0"]),
         [[0.5, 0.0], [0.2, 0.0]], [[0.0, 0.5], [-1.0, 0.0]]),
        # row 1's state overflows in its first step; the natural and randers
        # sprays overflow at its fiber first, in the first stage, which the
        # step refuses before the stage point reaches the wind
        (NonFiniteState, "integrator state of row 1 became non-finite at "
         "step 1 (t=0.01)",
         _unvalidated([["1", "0"], ["1"]], ["0.1*cos(x2)", "0"]),
         [[0.1, 0.1], [0.2, -0.1]], [[0.3, 0.2], [1.5e308, 0.0]]),
    ]
    for error, message, nav, x0s, y0s in cases:
        run = lambda: _raised(lambda: sp.integrate_geodesics(
            sp.Spray(nav, kind), x0s, y0s, time_span=1.0, dt=1e-2,
            chart=nav.chart))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = run(), _on_numpy(run)
        assert got == want == (error, message), (kind, got, want)


@pytest.mark.parametrize("kind", list(ORACLES))
def test_nonfinite_stage_names_its_row_and_step(kind):
    # a flat metric with the wind W = (x1, 0), too strong at x1 = 1.1:
    # there the norm's root a^2 + lam b is negative for row 1's fiber
    # across the wind, so the natural and randers sprays make NaN in the
    # first stage. The step names row 1 at step 1, with no RuntimeWarning,
    # before a NaN stage point reaches the wind; the riemann spray never
    # reads the wind and runs through.
    nav = scenario_from_dict(
        {"schema": 1, "name": "strong_wind", "dim": 2,
         "domain": {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
         "metric": [["1", "0"], ["1"]], "wind": ["x1", "0"]},
        validate_nav=False).nav
    x0s, y0s = [[0.5, 0.0], [1.1, 0.0]], [[0.0, 0.5], [0.0, 1.0]]
    run = lambda: sp.integrate_geodesics(sp.Spray(nav, kind), x0s, y0s, 0.5,
                                         1e-2)
    for path in (run, lambda: _on_numpy(run)):
        if kind == "riemann":
            assert [len(p.ts) for p in path()] == [51, 51]
            continue
        with pytest.raises(NonFiniteState, match="row 1 .*step 1 "):
            path()


@pytest.mark.parametrize("kind", list(ORACLES))
def test_float_geodesics_fail_late_as_numpy_does(kind):
    # sqrt(x1) turns negative at a stage point after some 60 steps of a
    # curved path. By then the randers states of the float and NumPy paths
    # differ in their last bits (from step 37 on), so the float path must
    # run the batch again from its start on NumPy to name the NumPy
    # witness point.
    nav = _unvalidated([["exp(0.4*x2) + 0.3*sin(3*x1) + 0*sqrt(x1)",
                         "0.1*x1*x2"], ["1 + 0.2*cos(2*x1)"]],
                       ["0.2 - 0.3*x2", "0.3*x1"])
    run = lambda: _raised(lambda: sp.integrate_geodesics(
        sp.Spray(nav, kind), [[0.5, 0.1], [0.3, -0.2]],
        [[-0.8, 0.3], [0.2, 0.5]], time_span=2.0, dt=1e-2, chart=nav.chart))
    got, want = run(), _on_numpy(run)
    assert got == want and got[0] is DomainError, (kind, got, want)


def test_float_natural_ode_reruns_on_numpy_after_a_halt():
    # natural-ODE stages on made-up tables: A cdot a rotation, Q = I,
    # hW = 0, M cdot = (0.1, 0.2), so F(v) = |v|. Row 0 leaves v1 < 0.9
    # at step 5; with lam = 0 from half step 20 on, row 1 then fails at
    # step 10. The per-row float stages (the reference of the fused
    # runner, which never halts) and NumPy give the same trajectories and
    # halts until then, and the same error at the end.
    n, steps = 2, 15
    tab = np.zeros((2, 2 * steps + 1, 2 * n + 1, n))
    tab[..., :n, :] = [[0.0, -1.0], [1.0, 0.0]]
    tab[..., n:2 * n, :] = np.eye(n)
    aux = np.zeros((2, 2 * steps + 1, n + 1))
    aux[...] = [0.1, 0.2, 1.0]
    v0 = np.array([[1.0, 0.5], [-1.0, 0.0]])

    def run(aux, on_floats):
        flat = np.ascontiguousarray(np.concatenate(
            [tab.reshape(2, 2 * steps + 1, -1), aux], axis=-1))
        make = table_stage_rows(n, stages.natural_stage_lines,
                                flat.shape[-1])
        return nk.rk4(lambda s, v: tr._natural_stage(tab[:, s], aux[:, s], v),
                      v0, steps, 1.0 / steps, keep=True,
                      inside=lambda v: v[:, 1] < 0.9,
                      float_run=float_rows([make(f) for f in flat],
                                           lambda v: v[1] < 0.9)
                      if on_floats else None)

    on_floats = run(aux, True)
    for got, want in zip(on_floats, run(aux, False)):
        np.testing.assert_array_equal(got, want)
    assert on_floats[2].tolist() == [5, steps]
    bad = aux.copy()
    bad[1, 20:, -1] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        got, want = (_raised(lambda: run(bad, rows)) for rows in (True, False))
    assert got == want and got[0] is NonFiniteState, (got, want)
    assert "row 1 " in got[1] and "step 10 " in got[1]


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
        sp.Spray(nav, "natural"),
        np.zeros(2), np.array([0.2, 0.1]), time_span=1.0, dt=0.3)
    assert path.dt == 1.0 / 3.0
    assert len(path.ts) == 4
    assert abs(path.ts[-1] - 1.0) < 1e-15


def test_geodesic_preserves_norm(sphere_cap):
    # the spray flow conserves F along its own integral curves
    nav = sphere_cap.nav
    path = sp.integrate_geodesic(
        sp.Spray(nav, "randers"),
        np.array([0.1, -0.1]), np.array([0.4, 0.3]),
        time_span=1.0, dt=1e-3, chart=nav.chart)
    f = randers_value(nav, path.xs, path.ys)
    assert np.abs(f - f[0]).max() < 1e-8


def test_el_residual_small_on_randers_geodesics(funk_ball, rotation_disk):
    for sc, x0, y0 in ((funk_ball, [0.0, 0.0], [0.6, 0.2]),
                       (rotation_disk, [0.2, 0.0], [0.1, 0.5])):
        nav = sc.nav
        path = sp.integrate_geodesic(
            sp.Spray(nav, "randers"),
            np.array(x0), np.array(y0),
            time_span=1.0, dt=1e-3, chart=nav.chart)
        assert sp.el_residual(nav, path) < 1e-8, sc.name


def test_el_residual_flags_wrong_path(funk_ball):
    # metric-straight lines are not energy extremals of the windy norm
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        sp.Spray(nav, "riemann"),
        np.zeros(2), np.array([0.6, 0.2]),
        time_span=1.0, dt=1e-3, chart=nav.chart)
    assert sp.el_residual(nav, path) > 1e-2


def test_el_residual_needs_enough_samples(funk_ball):
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        sp.Spray(nav, "natural"),
        np.zeros(2), np.array([0.5, 0.0]),
        time_span=0.003, dt=1e-3)
    with pytest.raises(ValueError):
        sp.el_residual(nav, path)


def test_el_residual_refuses_a_zero_velocity_sample(funk_ball, sphere_cap):
    # F is not differentiable in y at y = 0, so a path that stops at one
    # interior sample has no residual there: ZeroVelocity, not the
    # GradientAtZero of the norm's fiber gradient
    ts = np.linspace(0.0, 0.01, 11)
    ys = np.tile([0.3, 0.1], (11, 1))
    ys[5] = 0.0
    xs = 0.1 + np.cumsum(ys, axis=0) * 1e-3
    for sc in (funk_ball, sphere_cap):
        with pytest.raises(ZeroVelocity):
            sp.el_residual(sc.nav, sp.GeodesicPath(ts, xs, ys, 1e-3))


def test_autoparallel_residual_on_natural_geodesic(funk_ball):
    # natural geodesics are exactly the autoparallels of the transport rule
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        sp.Spray(nav, "natural"),
        np.array([0.05, -0.1]), np.array([0.4, 0.5]),
        time_span=1.0, dt=1e-3, chart=nav.chart)
    assert autoparallel_residual(nav, path) < 1e-9


def test_geodesic_csv(funk_ball):
    nav = funk_ball.nav
    path = sp.integrate_geodesic(
        sp.Spray(nav, "natural"),
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

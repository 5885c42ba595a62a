"""Loop transport, the linear correspondence, and distribution ranks."""

from pathlib import Path

import numpy as np
import pytest

from navgeo import geometry as ge
from navgeo import holonomy as ho
from navgeo.errors import DegenerateWind, NotClosed, ZeroVector
from navgeo.geometry import TangentSample, randers_value
from navgeo.scenarios import load_scenario
from navgeo.transport import AnalyticCurve, natural_transport_many

from helpers import bracket_tree_oracle, random_loop

BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"


def circle(radius, center=(0.0, 0.0)):
    cx, cy = center
    return AnalyticCurve.from_strings(
        [f"{cx!r} + {radius!r}*cos(2*pi*t)", f"{cy!r} + {radius!r}*sin(2*pi*t)"])


# ---------------------------------------------------------------------------
# loop transport basics


def test_open_curve_is_rejected(funk_ball):
    arc = AnalyticCurve.from_strings(["0.5*t", "0"])
    with pytest.raises(NotClosed):
        ho.loop_holonomy(funk_ball.nav, arc)
    with pytest.raises(NotClosed):
        ho.riemann_holonomy_matrix(funk_ball.nav, arc)


def test_flat_metric_loop_holonomy_is_trivial(zero_wind):
    nav = zero_wind.nav
    mat = ho.riemann_holonomy_matrix(nav, circle(0.4))
    assert np.allclose(mat, np.eye(2), atol=1e-9)
    el = ho.loop_holonomy(nav, circle(0.4), n_probes=6)
    assert np.allclose(el.transported, el.probes, atol=1e-9)


def test_natural_loop_holonomy_preserves_norm(sphere_cap, funk_ball):
    for sc in (sphere_cap, funk_ball):
        el = ho.loop_holonomy(sc.nav, circle(0.3), n_probes=12)
        assert el.mode == "natural"
        assert np.allclose(el.norms_in, 1.0, atol=1e-12)  # indicatrix probes
        assert el.norm_drift < 1e-8, sc.name


def test_loop_holonomy_rejects_zero_probe(funk_ball):
    with pytest.raises(ZeroVector):
        ho.loop_holonomy(funk_ball.nav, circle(0.3),
                         probes=np.array([[0.0, 0.0]]))


def test_holonomy_element_as_dict(funk_ball):
    d = ho.loop_holonomy(funk_ball.nav, circle(0.2), n_probes=4).as_dict()
    assert d["mode"] == "natural"
    assert len(d["probes_in"]) == 4 and len(d["probes_out"]) == 4
    assert d["norm_drift"] < 1e-8


def test_holonomy_element_records_the_step_taken(sphere_cap):
    # 1 / 0.0444 is not an integer: the loop is run in 23 steps of 1/23
    element = ho.loop_holonomy(sphere_cap.nav, circle(0.3), n_probes=2,
                               dt=0.0444)
    assert element.dt == 1.0 / 23
    assert element.as_dict()["dt"] == 1.0 / 23


# ---------------------------------------------------------------------------
# curvature oracle


def test_round_metric_holonomy_angle(sphere_cap):
    # h = 4/(1 + |x|^2)^2 id has constant curvature 1; a centered circle of
    # radius s bounds area 4 pi s^2 / (1 + s^2), which is the rotation angle
    # picked up by the metric transport (positive for the ccw loop)
    s = 0.3
    mat = ho.riemann_holonomy_matrix(sphere_cap.nav, circle(s))
    angle = np.arctan2(mat[1, 0], mat[0, 0])
    expect = 4.0 * np.pi * s * s / (1.0 + s * s)
    assert angle == pytest.approx(expect, abs=1e-9)
    assert angle == pytest.approx(1.0375902342131427, abs=1e-9)


# ---------------------------------------------------------------------------
# correspondence with the metric holonomy


def test_correspondence_predicts_loop_transport(sphere_cap):
    nav = sphere_cap.nav
    rng = np.random.default_rng(23)
    loop = random_loop(nav.chart, rng)
    base = loop.point(0.0)
    probes = ge.indicatrix_points(nav, base, 10)
    mat = ho.riemann_holonomy_matrix(nav, loop)
    predicted = ho.correspondence(nav, mat, base, probes)
    direct = natural_transport_many(nav, [loop] * len(probes), probes,
                                    method="ode")
    assert np.abs(predicted - direct).max() < 1e-6


def test_correspondence_inverse_recovers_matrix_action(sphere_cap):
    nav = sphere_cap.nav
    loop = circle(0.25, center=(0.1, 0.05))
    base = loop.point(0.0)
    mat = ho.riemann_holonomy_matrix(nav, loop)
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, -0.9], [2.0, 2.0]])

    def action(vs):
        return ho.correspondence(nav, mat, base, vs)

    rec = ho.correspondence_inverse(nav, base, action, vectors)
    assert np.abs(rec - vectors @ mat.T).max() < 1e-12


def test_correspondence_inverse_from_ode_transport(sphere_cap):
    # going through the actual nonlinear transport (no matrix in sight)
    # still reproduces the linear action
    nav = sphere_cap.nav
    loop = circle(0.3)
    base = loop.point(0.0)
    mat = ho.riemann_holonomy_matrix(nav, loop)
    vectors = np.array([[0.8, 0.1], [-0.3, 0.7], [1.0, 1.0]])

    def action(vs):
        return natural_transport_many(nav, [loop] * len(vs), vs, method="ode")

    rec = ho.correspondence_inverse(nav, base, action, vectors)
    assert np.abs(rec - vectors @ mat.T).max() < 1e-6


def test_holonomy_composition_multiplies_matrices(sphere_cap):
    # two loops through a shared base: the composite nonlinear action is the
    # correspondence image of the matrix product
    nav = sphere_cap.nav
    base = np.array([0.3, 0.0])
    l1 = circle(0.2, center=(0.1, 0.0))
    l2 = circle(0.15, center=(0.15, 0.0))
    m1 = ho.riemann_holonomy_matrix(nav, l1)
    m2 = ho.riemann_holonomy_matrix(nav, l2)
    probes = ge.indicatrix_points(nav, base, 8)
    one = natural_transport_many(nav, [l1] * len(probes), probes, method="ode")
    both = natural_transport_many(nav, [l2] * len(one), one, method="ode")
    predicted = ho.correspondence(nav, m2 @ m1, base, probes)
    assert np.abs(both - predicted).max() < 1e-5


def test_degenerate_wind_guard():
    # a wind far past the unit bound collapses 1 - F(W) to zero; the
    # correspondence refuses instead of dividing by it
    chart = ge.Chart(2, ge.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    nav = ge.NavigationData(
        chart=chart,
        metric=ge.MetricField.from_strings([["1", "0"], ["1"]], 2),
        wind=ge.VectorField.from_strings(["1e20", "0"], 2),
    )
    with pytest.raises(DegenerateWind):
        ho.correspondence_inverse(nav, np.zeros(2), lambda vs: vs,
                                  np.array([[1.0, 0.0]]))


# ---------------------------------------------------------------------------
# distribution rank


def test_rank_flat_cases_stay_horizontal(zero_wind, constant_wind):
    s = TangentSample(np.array([0.2, -0.3]), np.array([0.6, 0.8]))
    for sc in (zero_wind, constant_wind):
        rep = ho.holonomy_distribution_rank(sc.nav, s, depth=3)
        assert rep.rank == 2, sc.name


def test_rank_rotation_fills_everything(rotation_disk):
    s = TangentSample(np.array([0.3, 0.1]), np.array([1.0, 0.2]))
    rep = ho.holonomy_distribution_rank(rotation_disk.nav, s, depth=3)
    assert rep.rank == 4
    d = rep.as_dict()
    assert d["rank"] == 4 and d["depth"] == 3


def test_rank_monotone_in_depth(rotation_disk):
    s = TangentSample(np.array([0.25, -0.15]), np.array([0.4, 0.9]))
    ranks = [ho.holonomy_distribution_rank(rotation_disk.nav, s, depth=d).rank
             for d in (1, 2, 3)]
    assert ranks[0] == 2
    assert ranks[0] <= ranks[1] <= ranks[2]
    assert ranks[2] == 4


def test_rank_rejects_bad_input(funk_ball):
    with pytest.raises(ZeroVector):
        ho.holonomy_distribution_rank(
            funk_ball.nav, TangentSample(np.zeros(2), np.zeros(2)))
    for depth in (0, 4):
        with pytest.raises(ValueError):
            ho.holonomy_distribution_rank(
                funk_ball.nav,
                TangentSample(np.zeros(2), np.array([1.0, 0.0])), depth=depth)


def test_rank_survey(rotation_disk):
    reps = ho.distribution_rank_survey(rotation_disk.nav, n_samples=6)
    assert len(reps) == 6
    assert all(r.rank == 4 for r in reps)


def test_rank_survey_matches_single_points(rotation_disk, funk_ball):
    for sc in (rotation_disk, funk_ball):
        reps = ho.distribution_rank_survey(sc.nav, n_samples=5,
                                           rng=np.random.default_rng(3))
        for rep in reps:
            one = ho.holonomy_distribution_rank(sc.nav, rep.at, depth=3)
            assert rep.rank == one.rank
            scale = np.abs(one.generated_vectors).max()
            diff = np.abs(rep.generated_vectors - one.generated_vectors).max()
            assert diff <= 1e-9 * scale


def test_rank_survey_evaluates_one_bracket_tree(rotation_disk, monkeypatch):
    # the bracket tree runs once on all samples, one spray-connection sweep
    # per round: 2 depth - 1 sweeps whatever the dimension, and a 5-sample
    # survey makes the same sweeps as a 1-sample one, each on 5 times the
    # rows. No row is swept twice: a sample needs 1 + 2n + 2n(1 + 2n)
    # field rows, 2(n - 1)(1 + 2n) for the DH_i H_j with i < j and 2 for
    # each of the n(n - 1)/2 generation-2 brackets
    sizes = []
    real = ho.spray_connection_matrix

    def counting(nav, x, y):
        sizes[-1].append(len(x))
        return real(nav, x, y)
    monkeypatch.setattr(ho, "spray_connection_matrix", counting)
    box = load_scenario(str(BENCH_SCENARIOS / "rot_box_4d.json"))
    for nav, rows in ((rotation_disk.nav, 37), (box.nav, 147)):
        sizes.clear()
        for n in (1, 5):
            sizes.append([])
            ho.distribution_rank_survey(nav, n_samples=n, depth=3)
        one, five = sizes
        assert len(one) == 2 * 3 - 1
        assert sum(one) == rows
        assert five == [5 * k for k in one]


def test_stacked_bracket_tree_matches_the_closure_tree(rotation_disk):
    # one sweep per round does the per-node arithmetic at the per-node
    # points, so every generated vector agrees bit for bit
    cases = [(rotation_disk.nav, 5, d) for d in (1, 2, 3)]
    cases += [(load_scenario(str(BENCH_SCENARIOS / f)).nav, 1, 3)
              for f in ("rot_ball_3d.json", "rot_box_4d.json")]
    for nav, n_samples, depth in cases:
        dirs = np.random.default_rng(5).normal(size=(n_samples, nav.dim))
        z = np.concatenate(
            [nav.chart.sample_interior(n_samples, margin=0.1), dirs], axis=1)
        got = ho._bracket_generations(nav, z, depth, 1e-4)
        want = bracket_tree_oracle(nav, z, depth, 1e-4)
        assert [g.shape for g in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (nav.dim, depth)


def test_lie_bracket_against_refined_step(rotation_disk):
    # the fixed-step bracket [H_0, H_1] should sit within O(step^2) of a
    # Richardson sharpened reference
    z = np.concatenate([np.array([0.3, 0.1]), np.array([1.0, 0.2])])[None]

    def bracket(step):
        return ho._bracket_generations(rotation_disk.nav, z, 2, step)[1]
    coarse, fine = bracket(1e-3), bracket(5e-4)
    richardson = (4.0 * fine - coarse) / 3.0
    assert np.abs(bracket(1e-4) - richardson).max() < 1e-6

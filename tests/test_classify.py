"""Grid classification verdicts on the stock scenarios."""

import numpy as np
import pytest

from navgeo import classify as cl
from navgeo.errors import InconsistentVerdicts
from navgeo.sprays import ComparisonReport, compare_sprays


def _flags(report):
    return {
        "wind_parallel": report.wind_parallel.passed,
        "torsion_vanishes": report.torsion_vanishes.passed,
        "berwald": report.berwald.passed,
        "wagner": report.wagner.passed,
        "concircular": report.concircular.passed,
        "isotropic_S": report.isotropic_S.passed,
        "sprays_coincide": report.comparison.sprays_coincide,
    }


def test_zero_wind_is_everything(zero_wind):
    f = _flags(cl.classification_report(zero_wind.nav, per_axis=8))
    assert all(f.values()), f


def test_constant_wind_is_everything(constant_wind):
    f = _flags(cl.classification_report(constant_wind.nav, per_axis=8))
    assert all(f.values()), f


def test_radial_wind_classification(funk_ball):
    rep = cl.classification_report(funk_ball.nav, per_axis=10)
    f = _flags(rep)
    assert f == {
        "wind_parallel": False,
        "torsion_vanishes": False,
        "berwald": False,
        "wagner": False,
        "concircular": True,
        "isotropic_S": True,
        "sprays_coincide": True,
    }, f
    # the scalar factor of the covariant wind derivative is the constant -1
    assert rep.concircular.detail["phi_min"] == pytest.approx(-1.0, abs=1e-12)
    assert rep.concircular.detail["phi_max"] == pytest.approx(-1.0, abs=1e-12)


def test_rotation_classification(rotation_disk):
    f = _flags(cl.classification_report(rotation_disk.nav, per_axis=10))
    assert f == {
        "wind_parallel": False,
        "torsion_vanishes": False,
        "berwald": False,
        "wagner": False,
        "concircular": False,
        "isotropic_S": True,  # symmetric part of the lowered derivative is 0
        "sprays_coincide": False,
    }, f


def test_annulus_wind_has_constant_length(annulus):
    rep = cl.classification_report(annulus.nav, per_axis=10)
    assert rep.wagner.passed
    assert rep.wagner.detail["norm_max"] - rep.wagner.detail["norm_min"] < 1e-12
    assert not rep.wind_parallel.passed


def test_equivalent_verdicts_agree_on_all_builtins(scenarios):
    for sc in scenarios.values():
        rep = cl.classification_report(sc.nav, per_axis=8)  # must not raise
        f = _flags(rep)
        assert f["wind_parallel"] == f["torsion_vanishes"] == f["berwald"], sc.name
        assert f["concircular"] == f["sprays_coincide"], sc.name


def test_contradictory_evidence_is_rejected(rotation_disk):
    # inject a comparison that claims the sprays coincide for a wind that is
    # decisively not concircular
    honest = compare_sprays(rotation_disk.nav)
    doctored = ComparisonReport(
        n_points=honest.n_points, n_dirs=honest.n_dirs,
        sup_natural_vs_randers=0.0,
        phi_min=honest.phi_min, phi_max=honest.phi_max,
        phi_mean=honest.phi_mean, phi_spread_max=honest.phi_spread_max,
        projective_residual=honest.projective_residual,
        sprays_coincide=True, projectively_riemannian=False,
        tol_coincide=honest.tol_coincide, tol_projective=honest.tol_projective,
        points=honest.points, phi_hat=honest.phi_hat)
    with pytest.raises(InconsistentVerdicts):
        cl.classification_report(rotation_disk.nav, per_axis=6,
                                 comparison=doctored)


def test_report_serialization(funk_ball):
    rep = cl.classification_report(funk_ball.nav, per_axis=6)
    d = rep.as_dict()
    assert d["concircular"]["passed"] is True
    assert isinstance(d["concircular"]["residual"], float)
    assert d["sprays_coincide"] is True
    assert "spray_comparison" in d
    lines = rep.summary_lines()
    assert any("concircular" in l for l in lines)
    assert len(lines) >= 6


def test_verdict_tolerance_is_reported(constant_wind):
    rep = cl.classification_report(constant_wind.nav, per_axis=6, tol=1e-6)
    assert rep.wind_parallel.tol == 1e-6
    assert rep.wind_parallel.residual < 1e-14


# ---------------------------------------------------------------------------
# wind flow


def test_wind_integral_curve_constant_wind(constant_wind):
    ts, xs = cl.wind_integral_curves(constant_wind.nav, [[-0.2, 0.1]],
                                     time_span=1.5)[0]
    expect = np.array([-0.2, 0.1])[None, :] + ts[:, None] * np.array([0.3, 0.1])
    assert np.abs(xs - expect).max() < 1e-10


def test_wind_integral_curve_rotation(rotation_disk):
    # the flow of (-x2, x1) is rigid rotation: radius is conserved
    x0 = np.array([0.4, 0.0])
    ts, xs = cl.wind_integral_curves(rotation_disk.nav, [x0], time_span=2.0)[0]
    r = np.linalg.norm(xs, axis=1)
    assert np.abs(r - 0.4).max() < 1e-9
    expect = 0.4 * np.stack([np.cos(ts), np.sin(ts)], axis=-1)
    assert np.abs(xs - expect).max() < 1e-9


def test_wind_integral_curve_stops_at_chart_edge():
    # outward wind: the flow blows up toward the ball edge and must stop
    # inside instead of sampling points past it
    from navgeo import geometry as ge
    nav = ge.NavigationData(
        chart=ge.Chart(2, ge.Ball(np.zeros(2), 0.9)),
        metric=ge.MetricField.from_strings([["1", "0"], ["1"]], 2),
        wind=ge.VectorField.from_strings(["x1", "x2"], 2),
    )
    ts, xs = cl.wind_integral_curves(nav, [[0.5, 0.0]], time_span=3.0)[0]
    assert ts[-1] < 3.0  # stopped early
    assert nav.chart.contains(xs[-1])
    assert np.all(np.linalg.norm(xs, axis=1) < 0.9)
    # up to the stop the flow is the exact exponential
    assert np.abs(xs[:, 0] - 0.5 * np.exp(ts)).max() < 1e-9


def test_wind_integral_curve_rejects_bad_span(funk_ball):
    with pytest.raises(ValueError):
        cl.wind_integral_curves(funk_ball.nav, [np.zeros(2)], time_span=-1.0)

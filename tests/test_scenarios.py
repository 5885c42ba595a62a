"""Scenario JSON schema: parsing, validation, round-trips, the catalog."""

import json
from pathlib import Path

import numpy as np
import pytest

from navgeo import scenarios as sn
from navgeo.errors import (ScenarioParseError, ScenarioValidationError,
                           UnknownScenario)
from navgeo.geometry import validate

from helpers import reference_validate

ROOT = Path(__file__).resolve().parents[1]


GOOD = {
    "schema": 1,
    "name": "toy",
    "dim": 2,
    "domain": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "metric": [["1", "0"], ["1"]],
    "wind": ["0.2", "0.1*x1"],
    "experiments": {
        "curves": [["0.5*t", "0.1*t"]],
        "loops": [["0.3*cos(2*pi*t)", "0.3*sin(2*pi*t)"]],
        "samples": [{"x": [0.1, 0.2], "y": [1.0, 0.0]}],
    },
}


# ---------------------------------------------------------------------------
# catalog


def test_builtin_names_are_sorted_and_complete():
    names = sn.builtin_names()
    assert names == sorted(names)
    assert set(names) == {
        "zero_wind", "constant_wind", "funk_ball", "rotation_disk",
        "sphere_cap", "annulus_constant_length", "conformal_flat",
    }


def test_every_builtin_loads_and_validates():
    for name in sn.builtin_names():
        sc = sn.builtin(name)
        assert sc.name == name
        assert sc.dim == 2
        assert validate(sc.nav, n_points=1500).passed, name


def test_unknown_builtin():
    with pytest.raises(UnknownScenario) as exc:
        sn.builtin("moebius")
    assert "funk_ball" in str(exc.value)  # the choices are listed


def test_builtin_round_trip_through_dict():
    for name in sn.builtin_names():
        sc = sn.builtin(name)
        back = sn.scenario_from_dict(sn.serialize(sc))
        assert back.name == sc.name
        x = np.array([0.11, -0.07])
        assert np.allclose(back.nav.metric.value(x), sc.nav.metric.value(x))
        assert np.allclose(back.nav.wind.value(x), sc.nav.wind.value(x))


# ---------------------------------------------------------------------------
# parsing and validation errors


def test_good_scenario_parses():
    sc = sn.scenario_from_dict(GOOD)
    assert sc.name == "toy"
    assert len(sc.curves) == 1 and len(sc.loops) == 1 and len(sc.samples) == 1
    assert np.allclose(sc.samples[0].x, [0.1, 0.2])


def test_missing_key_is_located():
    bad = {k: v for k, v in GOOD.items() if k != "domain"}
    with pytest.raises(ScenarioParseError, match="missing 'domain' at top level"):
        sn.scenario_from_dict(bad)


def test_bad_wind_expression_is_located():
    bad = json.loads(json.dumps(GOOD))
    bad["wind"][0] = "0.2 + * x1"
    with pytest.raises(ScenarioParseError, match=r"bad expression at wind\[0\]"):
        sn.scenario_from_dict(bad)


def test_unknown_schema_version():
    bad = dict(GOOD, schema=2)
    with pytest.raises(ScenarioParseError, match="unsupported schema version"):
        sn.scenario_from_dict(bad)


def test_bad_domain_kind():
    bad = json.loads(json.dumps(GOOD))
    bad["domain"] = {"kind": "torus", "lo": [-1, -1], "hi": [1, 1]}
    with pytest.raises(ScenarioParseError, match="domain.kind"):
        sn.scenario_from_dict(bad)


def test_metric_triangle_shape_is_enforced():
    bad = json.loads(json.dumps(GOOD))
    bad["metric"] = [["1", "0"], ["0", "1"]]  # full row where a tail belongs
    with pytest.raises(ScenarioParseError, match="upper triangle"):
        sn.scenario_from_dict(bad)


def test_dim_bounds():
    with pytest.raises(ScenarioParseError, match="dim"):
        sn.scenario_from_dict(dict(GOOD, dim=5))
    with pytest.raises(ScenarioParseError, match="dim"):
        sn.scenario_from_dict(dict(GOOD, dim="2"))


def test_strong_wind_fails_validation_with_witness():
    bad = json.loads(json.dumps(GOOD))
    bad["wind"] = ["2*x1", "0"]
    with pytest.raises(ScenarioValidationError, match="wind_too_strong") as exc:
        sn.scenario_from_dict(bad)
    assert "at [" in str(exc.value)  # a concrete witness point is shown


def test_loading_computes_no_eigenvalues(monkeypatch):
    # positivity comes from the pivots; the eigenvalues wait until the
    # report is read
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    sn.builtin("sphere_cap")
    box = sn.load_scenario(str(ROOT / "bench/scenarios/rot_box_4d.json"))
    assert calls == []
    assert validate(box.nav).min_metric_eigenvalue > 0.0
    assert calls == [(10_000, 4, 4)]


@pytest.mark.parametrize("data", [
    dict(GOOD, name="bad_2d", metric=[["x1", "0"], ["1"]],
         wind=["2*x1", "0"]),
    dict(GOOD, name="bad_3d", dim=3, experiments={},
         domain={"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
         metric=[["1", "0", "0"], ["1", "0.8 + x3"], ["1"]],
         wind=["0", "0", "0.8*x1 + 0.5"]),
], ids=["2d", "3d"])
def test_validation_message_matches_the_reference(data):
    nav = sn.scenario_from_dict(data, validate_nav=False).nav
    ref = reference_validate(nav)
    assert [f["kind"] for f in ref["failures"]] == ["metric_not_positive",
                                                   "wind_too_strong"]
    want = f"scenario {data['name']!r}: " + "; ".join(
        f"{f['kind']} at {f['point']} (value {f['value']:g})"
        for f in ref["failures"])
    with pytest.raises(ScenarioValidationError) as exc:
        sn.scenario_from_dict(data)
    assert str(exc.value) == want


def test_validation_can_be_deferred():
    bad = json.loads(json.dumps(GOOD))
    bad["wind"] = ["2*x1", "0"]
    bad["experiments"] = {}
    sc = sn.scenario_from_dict(bad, validate_nav=False)  # no raise
    assert not validate(sc.nav).passed


def test_curve_leaving_domain_is_rejected():
    bad = json.loads(json.dumps(GOOD))
    bad["experiments"]["curves"] = [["2*t", "0"]]
    with pytest.raises(ScenarioValidationError,
                       match=r"curves\[0\] leaves the domain at t=") as exc:
        sn.scenario_from_dict(bad)
    assert "point [" in str(exc.value)


def test_open_loop_is_rejected():
    bad = json.loads(json.dumps(GOOD))
    bad["experiments"]["loops"] = [["0.5*t", "0"]]
    with pytest.raises(ScenarioValidationError, match=r"loops\[0\] is not closed"):
        sn.scenario_from_dict(bad)


def test_sample_outside_domain_is_rejected():
    bad = json.loads(json.dumps(GOOD))
    bad["experiments"]["samples"] = [{"x": [1.5, 0.0], "y": [1.0, 0.0]}]
    with pytest.raises(ScenarioValidationError, match=r"samples\[0\]"):
        sn.scenario_from_dict(bad)


# ---------------------------------------------------------------------------
# files


def test_file_round_trip(tmp_path):
    sc = sn.scenario_from_dict(GOOD)
    path = tmp_path / "toy.json"
    sn.save_scenario(sc, str(path))
    back = sn.load_scenario(str(path))
    assert back.name == "toy"
    assert len(back.curves) == 1
    x = np.array([0.3, -0.3])
    assert np.allclose(back.nav.wind.value(x), sc.nav.wind.value(x))
    # serialization is stable: a second save produces identical bytes
    path2 = tmp_path / "toy2.json"
    sn.save_scenario(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,\n  "name": }\n')
    with pytest.raises(ScenarioParseError, match="line 2"):
        sn.load_scenario(str(path))


def test_builtin_file_round_trip(tmp_path):
    for name in ("funk_ball", "annulus_constant_length"):
        sc = sn.builtin(name)
        path = tmp_path / f"{name}.json"
        sn.save_scenario(sc, str(path))
        back = sn.load_scenario(str(path))
        pts = np.array([[0.3, 0.1], [0.5, 0.5]])
        assert np.allclose(back.nav.wind.value(pts), sc.nav.wind.value(pts))
        assert np.allclose(back.nav.metric.value(pts), sc.nav.metric.value(pts))

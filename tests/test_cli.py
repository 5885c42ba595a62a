"""Command line surface: outputs, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "navgeo.cli", *args],
                          capture_output=True, text=True, **kw)


# ---------------------------------------------------------------------------
# happy paths


def test_list_scenarios():
    res = run_cli("list-scenarios")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    names = [e["name"] for e in data["scenarios"]]
    assert "funk_ball" in names and "rotation_disk" in names
    assert all(e["note"] for e in data["scenarios"])


def test_validate_builtin():
    res = run_cli("validate", "--builtin", "sphere_cap")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["passed"] is True
    assert data["max_wind_norm"] < 1.0


def test_validate_bad_scenario_file_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": 1, "name": "bad", "dim": 2,
        "domain": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
        "metric": [["1", "0"], ["1"]],
        "wind": ["3*x1", "0"],
    }))
    res = run_cli("validate", "--scenario", str(path))
    assert res.returncode == 1
    data = json.loads(res.stdout)
    assert data["passed"] is False
    assert data["failures"]


def test_transport_csv_endpoint(tmp_path):
    out = tmp_path / "t.csv"
    res = run_cli("transport", "--builtin", "conformal_flat",
                  "--curve", "0.5*t, 0", "--vector", "0,1",
                  "--mode", "riemann", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,v1,v2,F"
    last = [float(v) for v in lines[-1].split(",")]
    assert np.isclose(last[4], np.exp(-0.5), atol=1e-9)  # v2 at the endpoint


def test_transport_natural_preserves_norm_column():
    res = run_cli("transport", "--builtin", "funk_ball",
                  "--curve", "0.5*t, 0", "--vector", "0,1")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    f = np.array([float(l.split(",")[-1]) for l in lines[1:]])
    assert np.abs(f - 1.0).max() < 1e-9


def test_geodesic_csv(tmp_path):
    out = tmp_path / "g.csv"
    res = run_cli("geodesic", "--builtin", "funk_ball",
                  "--from", "0,0", "--dir", "1,0", "--time", "3",
                  "--out", str(out))
    assert res.returncode == 0
    assert "truncated" in res.stderr  # the path reaches the chart edge
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,y1,y2,F"
    last = [float(v) for v in lines[-1].split(",")]
    assert np.isclose(last[1], 1.0 - np.exp(-last[0]), atol=1e-8)


@pytest.mark.parametrize("spray", ["natural", "randers", "riemann"])
def test_geodesic_csv_matches_library_spray(tmp_path, spray):
    # the three sprays differ on the rotating wind, so each --spray value
    # must reach its own library spray
    import io
    from navgeo import sprays as sp
    from navgeo.scenarios import builtin
    nav = builtin("rotation_disk").nav
    x0, y0 = np.array([0.2, 0.0]), np.array([0.0, 0.5])
    values = {"natural": lambda x, y: sp.natural_spray_values(nav, x, y),
              "randers": lambda x, y: sp.randers_spray_values(nav, x, y),
              "riemann": lambda x, y: sp.riemann_spray_values(nav.metric, x, y)}
    assert len({tuple(f(x0, y0)) for f in values.values()}) == 3
    out = tmp_path / "g.csv"
    res = run_cli("geodesic", "--builtin", "rotation_disk", "--spray", spray,
                  "--from", "0.2,0", "--dir", "0,0.5", "--time", "0.3",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    path = sp.integrate_geodesic(values[spray], x0, y0, 0.3, dt=1e-3,
                                 chart=nav.chart, kind=spray)
    buf = io.StringIO()
    sp.geodesic_csv(path, nav, buf)
    assert out.read_bytes() == buf.getvalue().encode()


def test_holonomy_json():
    res = run_cli("holonomy", "--builtin", "sphere_cap",
                  "--loop", "0.3*cos(2*pi*t), 0.3*sin(2*pi*t)",
                  "--probes", "6")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["mode"] == "natural"
    assert data["norm_drift"] < 1e-7
    mat = np.array(data["riemann_matrix"])
    ang = np.arctan2(mat[1, 0], mat[0, 0])
    assert np.isclose(ang, 1.0375902342131427, atol=1e-6)


def test_holonomy_json_records_the_step_taken():
    res = run_cli("holonomy", "--builtin", "sphere_cap",
                  "--loop", "0.3*cos(2*pi*t), 0.3*sin(2*pi*t)",
                  "--probes", "2", "--dt", "0.0444")
    assert res.returncode == 0
    assert json.loads(res.stdout)["dt"] == 1.0 / 23


def test_rank_survey_rotation():
    res = run_cli("rank", "--builtin", "rotation_disk", "--samples", "5")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["rank_min"] == 4 and data["rank_max"] == 4
    assert len(data["reports"]) == 5


def test_rank_single_point():
    res = run_cli("rank", "--builtin", "zero_wind",
                  "--at", "0.2,0.3", "--dir", "1,0")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["rank"] == 2


def test_torsion_grid_verdict():
    res = run_cli("torsion", "--builtin", "constant_wind", "--per-axis", "6")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["passed"] is True
    res2 = run_cli("torsion", "--builtin", "rotation_disk", "--per-axis", "6")
    data2 = json.loads(res2.stdout)
    assert data2["passed"] is False


def test_torsion_at_point():
    res = run_cli("torsion", "--builtin", "rotation_disk",
                  "--at", "0.3,0.2", "--dir", "1,0")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["sup_norm"] > 1e-2
    t = np.array(data["components"])
    assert np.allclose(t, -np.swapaxes(t, -1, -2))


def test_classify_json_and_summary():
    res = run_cli("classify", "--builtin", "funk_ball", "--per-axis", "8")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["concircular"]["passed"] is True
    assert data["wind_parallel"]["passed"] is False
    assert data["sprays_coincide"] is True
    assert "concircular" in res.stderr  # human summary goes to stderr


def test_compare_sprays_json():
    res = run_cli("compare-sprays", "--builtin", "funk_ball", "--per-axis", "6")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["sprays_coincide"] is True
    assert np.isclose(data["phi_mean"], -1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli("rank", "--builtin", "rotation_disk", "--samples", "4",
                      "--out", str(out))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for out in (c, d):
        run_cli("geodesic", "--builtin", "rotation_disk", "--from", "0.2,0",
                "--dir", "0,0.5", "--time", "1", "--out", str(out))
    assert c.read_bytes() == d.read_bytes()


def test_seed_changes_survey_points(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("rank", "--builtin", "rotation_disk", "--samples", "4",
            "--out", str(a))
    run_cli("rank", "--builtin", "rotation_disk", "--samples", "4",
            "--seed", "7", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_builtin_exits_2():
    res = run_cli("classify", "--builtin", "spaghetti")
    assert res.returncode == 2
    assert "spaghetti" in res.stderr


def test_domain_error_exits_1():
    res = run_cli("transport", "--builtin", "funk_ball",
                  "--curve", "t, 0", "--vector", "0,1")  # exits the ball
    assert res.returncode == 1
    assert "navgeo:" in res.stderr


def test_zero_vector_exits_1():
    res = run_cli("geodesic", "--builtin", "funk_ball",
                  "--from", "0,0", "--dir", "0,0")
    assert res.returncode == 1


def test_missing_scenario_file_exits_1(tmp_path):
    res = run_cli("validate", "--scenario", str(tmp_path / "nope.json"))
    assert res.returncode == 1


def test_rank_at_requires_dir():
    res = run_cli("rank", "--builtin", "zero_wind", "--at", "0.1,0.1")
    assert res.returncode == 1
    assert "--dir" in res.stderr


def test_bad_vector_syntax_is_an_argparse_error():
    res = run_cli("transport", "--builtin", "funk_ball",
                  "--curve", "0.5*t, 0", "--vector", "0;1")
    assert res.returncode == 2  # argparse usage error


_TOY = {"schema": 1, "name": "toy", "dim": 2,
        "domain": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
        "metric": [["1", "0"], ["1"]], "wind": ["0.1", "0"]}
BAD_FILES = {
    "malformed.json": '{"schema": 1,\n  "name": }\n',
    "metric5.json": json.dumps(dict(_TOY, metric=5)),
    "sample_y.json": json.dumps(dict(_TOY, experiments={
        "samples": [{"x": [0.1, 0.2], "y": ["a", 0]}]})),
}
TRANSPORT = ("transport", "--builtin", "funk_ball", "--curve", "0.5*t,0",
             "--vector", "0,1")


@pytest.mark.parametrize("argv, code, says", [
    (("validate", "--scenario", "{tmp}/malformed.json"), 1, "line 2 column"),
    (("validate", "--scenario", "{tmp}/metric5.json"), 1, "metric"),
    (("validate", "--scenario", "{tmp}/sample_y.json"), 1, "samples[0].y"),
    (("rank", "--builtin", "zero_wind", "--samples", "0"), 2, "--samples"),
    (("rank", "--builtin", "zero_wind", "--depth", "0"), 2, "--depth"),
    (("holonomy", "--builtin", "sphere_cap", "--probes", "0"), 2, "--probes"),
    (("validate", "--builtin", "sphere_cap", "--points", "0"), 2, "--points"),
    (("compare-sprays", "--builtin", "funk_ball", "--dirs", "0"), 2, "--dirs"),
    (("torsion", "--builtin", "funk_ball", "--per-axis", "0"), 2, "--per-axis"),
    (TRANSPORT + ("--dt", "0"), 2, "--dt"),
    (TRANSPORT + ("--dt", "2"), 2, "--dt"),
    (("holonomy", "--builtin", "sphere_cap", "--dt", "0"), 2, "--dt"),
    (("geodesic", "--builtin", "funk_ball", "--from", "0,0", "--dir", "1,0",
      "--dt", "-1"), 2, "--dt"),
    (("classify", "--builtin", "funk_ball", "--per-axis", "1"), 1,
     "--per-axis"),
    (("geodesic", "--builtin", "funk_ball", "--from", "0,0,0", "--dir", "1,0"),
     1, "--from"),
    (("rank", "--builtin", "funk_ball", "--at", "5,5", "--dir", "1,0"), 1,
     "--at"),
    (("validate", "--builtin", "sphere_cap", "--seed", "3"), 2, "--seed"),
    (TRANSPORT + ("--seed", "3"), 2, "--seed"),
    (("geodesic", "--builtin", "funk_ball", "--from", "0,0", "--dir", "1,0",
      "--seed", "3"), 2, "--seed"),
    (("list-scenarios", "--seed", "3"), 2, "--seed"),
    (("torsion", "--builtin", "rotation_disk", "--seed", "3"), 2, "--seed"),
    (("classify", "--builtin", "funk_ball", "--seed", "3"), 2, "--seed"),
    (("compare-sprays", "--builtin", "funk_ball", "--seed", "3"), 2, "--seed"),
    (("torsion", "--builtin", "rotation_disk", "--at", "0.3,0.2", "--dir",
      "nan,0"), 2, "--dir"),
    (("transport", "--builtin", "funk_ball", "--curve", "0.5*t,0", "--vector",
      "1,inf"), 2, "--vector"),
    (("geodesic", "--builtin", "funk_ball", "--from", "nan,0", "--dir", "1,0"),
     2, "--from"),
    (("rank", "--builtin", "zero_wind", "--depth", "4"), 2, "--depth"),
    (("transport", "--builtin", "funk_ball", "--curve", "0.5*t,0", "--vector",
      "1e160,0", "--dt", "0.5"), 1, "NonFiniteState"),
])
def test_bad_input_exits_with_documented_code(tmp_path, argv, code, says):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    res = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    assert res.returncode == code, res.stderr
    assert says in res.stderr
    assert "Traceback" not in res.stderr


def test_negative_values_are_separate_tokens():
    res = run_cli("geodesic", "--builtin", "funk_ball", "--from", "-0.2,0.1",
                  "--dir", "-1,0", "--time", "0.01")
    assert res.returncode == 0, res.stderr
    first = [float(v) for v in res.stdout.split("\n")[1].split(",")]
    assert first[1:5] == [-0.2, 0.1, -1.0, 0.0]
    res = run_cli("transport", "--builtin", "funk_ball",
                  "--curve", "-0.2+0.5*t,0.1", "--vector", "-1,0")
    assert res.returncode == 0, res.stderr
    res = run_cli("torsion", "--builtin", "rotation_disk",
                  "--at", "-0.3,0.2", "--dir", "-.5,1")
    assert res.returncode == 0, res.stderr
    # an expression starting with a minus and a letter still needs --flag=
    res = run_cli("transport", "--builtin", "funk_ball",
                  "--curve", "-t*0.5,0", "--vector", "0,1")
    assert res.returncode == 2
    res = run_cli("transport", "--builtin", "funk_ball",
                  "--curve=-t*0.5,0", "--vector", "0,1")
    assert res.returncode == 0, res.stderr


def test_cli_survey_equals_library_survey():
    from navgeo.holonomy import distribution_rank_survey
    from navgeo.scenarios import builtin
    res = run_cli("rank", "--builtin", "rotation_disk", "--samples", "3",
                  "--seed", "11")
    assert res.returncode == 0, res.stderr
    reports = distribution_rank_survey(builtin("rotation_disk").nav, 3,
                                       depth=3, rng=np.random.default_rng(11))
    assert json.loads(res.stdout)["reports"] == [r.as_dict() for r in reports]

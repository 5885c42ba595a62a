"""Command line surface: outputs, determinism, exit codes.

Most cases call `navgeo.cli.main` in this process; a few run the module
entry point `python -m navgeo.cli` as a subprocess (`run_module`)."""

import contextlib
import io
import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from navgeo import cli, exprlang
from navgeo.numkernel import MAX_STEPS
from navgeo.errors import NotPositiveDefinite

BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"


def run_module(*args, **kw):
    return subprocess.run([sys.executable, "-m", "navgeo.cli", *args],
                          capture_output=True, text=True, **kw)


def run_cli(*args):
    """`navgeo.cli.main(args)` with its stdout and stderr captured, as the
    result of `run_module`: a SystemExit code becomes the return code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


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
    res = run_module("validate", "--builtin", "sphere_cap")
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
    values = {kind: sp.Spray(nav, kind)
              for kind in ("natural", "randers", "riemann")}
    assert len({tuple(f(x0, y0)) for f in values.values()}) == 3
    out = tmp_path / "g.csv"
    res = run_cli("geodesic", "--builtin", "rotation_disk", "--spray", spray,
                  "--from", "0.2,0", "--dir", "0,0.5", "--time", "0.3",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    path = sp.integrate_geodesic(values[spray], x0, y0, 0.3, dt=1e-3,
                                 chart=nav.chart)
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


def test_default_grid_is_sized_by_dimension():
    # with no --per-axis: the largest k <= 20 with k^n <= 8000 points
    path = (Path(__file__).resolve().parents[1] / "bench" / "scenarios"
            / "rot_box_4d.json")
    res = run_cli("classify", "--scenario", str(path))
    assert res.returncode == 0
    assert json.loads(res.stdout)["n_grid"] == 9 ** 4
    res = run_cli("torsion", "--builtin", "constant_wind")
    assert res.returncode == 0
    assert json.loads(res.stdout)["grid_per_axis"] == 20


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
        res = run_module("rank", "--builtin", "rotation_disk", "--samples",
                         "4", "--out", str(out))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for out in (c, d):
        run_module("geodesic", "--builtin", "rotation_disk", "--from",
                   "0.2,0", "--dir", "0,0.5", "--time", "1", "--out", str(out))
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


def test_rank_below_the_dimension_exits_1(tmp_path):
    # near the wind bound the brackets reach ~7e7 and the rank tolerance
    # drops H_1..H_n, which alone span n directions: a rank under n is
    # refused, by the library and the CLI, while 0.9995 still reports one
    from navgeo.errors import DegenerateWind
    from navgeo.geometry import TangentSample
    from navgeo.holonomy import distribution_rank_survey, holonomy_distribution_rank
    from navgeo.scenarios import load_scenario
    path = tmp_path / "near_bound.json"
    path.write_text(json.dumps({
        "schema": 1, "name": "near_bound", "dim": 2,
        "domain": {"kind": "box", "lo": [-0.9999, -0.9999], "hi": [0.9999, 0.9999]},
        "metric": [["1", "0"], ["1"]], "wind": ["x1/0.99995", "0"]}))
    nav = load_scenario(str(path)).nav
    y = np.array([0.0, 1.0])
    for x1 in (0.9998, 0.99989):
        with pytest.raises(DegenerateWind, match="rank 1 is below the dimension 2"):
            holonomy_distribution_rank(nav, TangentSample(np.array([x1, 0.0]), y))
        res = run_cli("rank", "--scenario", str(path), "--at", f"{x1},0", "--dir", "0,1")
        assert res.returncode == 1 and res.stdout == ""
        assert "DegenerateWind" in res.stderr and f"x = [{x1}, 0.0]" in res.stderr
    assert holonomy_distribution_rank(
        nav, TangentSample(np.array([0.9995, 0.0]), y)).rank == 3
    assert min(r.rank for r in distribution_rank_survey(nav, 5)) >= 2


# a metric that is indefinite on a small disc around (0.0123, 0.0456),
# between the points that validation samples
BUMP = {"schema": 1, "name": "bump", "dim": 2,
        "domain": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
        "metric": [["1 - 1.5*exp(-40000*((x1-0.0123)^2 + (x2-0.0456)^2))",
                    "0"], ["1"]],
        "wind": ["0.3", "0"]}


def test_indefinite_metric_names_a_point(tmp_path):
    # the NumPy transport and the NumPy rerun of a failed float geodesic
    # both stop at a point where the metric is not positive definite
    from navgeo.geometry import field_jet
    from navgeo.scenarios import load_scenario
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(BUMP))
    nav = load_scenario(str(path), validate_nav=False).nav
    for argv in (("transport", "--curve=t-0.5,0.0456", "--vector=1,0",
                  "--mode", "natural"),
                 ("geodesic", "--from=-0.5,0.0456", "--dir=1,0", "--time", "1",
                  "--spray", "randers")):
        res = run_cli(argv[0], "--scenario", str(path), *argv[1:])
        assert res.returncode == 1 and res.stdout == "", argv
        said = re.search(r"NotPositiveDefinite: metric value is not positive "
                         r"definite at point \[(.*), (.*)\]$", res.stderr.strip())
        assert said, res.stderr
        h = nav.metric.value(np.array([float(v) for v in said.groups()]))
        assert h[0, 0] <= 0.0
    with pytest.raises(NotPositiveDefinite, match=r"at point \[0.0123, 0.0456\]"):
        field_jet(nav, np.array([[0.5, 0.5], [0.0123, 0.0456]]))


def test_bad_vector_syntax_is_an_argparse_error():
    res = run_module("transport", "--builtin", "funk_ball",
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
    # expressions deep enough to exhaust the recursion of an unbounded
    # parser (nesting) or compiler (a 600-term chain)
    "metric600.json": json.dumps(dict(_TOY, metric=[
        ["+".join(["1"] + ["0*x1"] * 599), "0"], ["1"]])),
    "nested250.json": json.dumps(dict(_TOY, metric=[
        ["(" * 250 + "1" + ")" * 250, "0"], ["1"]])),
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
    (("transport", "--builtin", "funk_ball",
      "--curve=0.1*" + "(" * 200 + "t" + ")" * 200 + ",0", "--vector=1,0"), 2,
     "argument --curve: expression nested deeper than 100 levels (at offset "
     "104)"),
    (("transport", "--builtin", "funk_ball",
      "--curve=0.0001*(" + "+".join(["t"] * 490) + "),0", "--vector=1,0"), 2,
     "argument --curve: expression tree deeper than 100 levels (at offset "
     "207)"),
    (("validate", "--scenario", "{tmp}/metric600.json"), 1,
     "ScenarioParseError: bad expression at metric[0][0]: expression tree "
     "deeper than 100 levels"),
    (("validate", "--scenario", "{tmp}/nested250.json"), 1,
     "ScenarioParseError: bad expression at metric[0][0]: expression nested "
     "deeper than 100 levels (at offset 100)"),
])
def test_bad_input_exits_with_documented_code(tmp_path, argv, code, says):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    res = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    assert res.returncode == code, res.stderr
    assert says in res.stderr
    assert "Traceback" not in res.stderr


def test_experiment_curves_and_loops_are_picked_by_index(tmp_path):
    # without --curve or --loop a request runs the scenario's experiment
    # curve or loop number --index (default 0), as if it were given inline
    curves = [["0.5*t", "0"], ["0", "0.5*t"]]
    loops = [["0.3*cos(2*pi*t)-0.3", "0.3*sin(2*pi*t)"],
             ["0.2*cos(2*pi*t)-0.2", "0.2*sin(2*pi*t)"]]
    path = tmp_path / "experiments.json"
    path.write_text(json.dumps(dict(_TOY, experiments={"curves": curves,
                                                       "loops": loops})))
    for command, flag, pool in (("transport", "--curve", curves),
                                ("holonomy", "--loop", loops)):
        argv = (command, "--scenario", str(path), "--dt", "0.01")
        if command == "transport":
            argv += ("--vector", "1,0")
        for index, components in enumerate(pool):
            picked = run_cli(*argv, *(("--index", str(index)) if index else ()))
            assert picked.returncode == 0, picked.stderr
            inline = run_cli(*argv, flag, ",".join(components))
            assert picked.stdout == inline.stdout
        res = run_cli(*argv, "--index", "2")
        assert (res.returncode, res.stdout) == (1, "")
        assert (f"scenario has 2 experiment {flag[2:]}s, index 2 is out of "
                "range") in res.stderr
    for argv, flag in ((TRANSPORT[:3] + ("--vector", "1,0"), "--curve"),
                       (("holonomy", "--builtin", "sphere_cap"), "--loop")):
        res = run_cli(*argv)
        assert (res.returncode, res.stdout) == (1, "")
        assert f"; pass {flag} inline" in res.stderr


def test_a_warm_curve_request_compiles_one_function(monkeypatch):
    # once a scenario's code is generated, a transport or holonomy request
    # on a new curve compiles the curve's stack alone: one function, whose
    # values and velocities come from the same sweep
    transport = ("transport", "--builtin", "sphere_cap", "--vector", "1,0")
    holonomy = ("holonomy", "--builtin", "sphere_cap", "--probes", "4")
    for argv in (transport + ("--curve", "0.1*t,0.05"),
                 holonomy + ("--loop", "0.1*cos(2*pi*t)-0.1,0.1*sin(2*pi*t)")):
        assert run_cli(*argv).returncode == 0
    defined, define = [], exprlang._define

    def spy(source, name, namespace):
        defined.append(name)
        return define(source, name, namespace)
    monkeypatch.setattr(exprlang, "_define", spy)
    for argv in (transport + ("--curve", "0.1234567*t,0.0765432*t"),
                 holonomy + ("--loop", "0.1234567*cos(2*pi*t)-0.1234567,"
                             "0.0765432*sin(2*pi*t)")):
        defined.clear()
        assert run_cli(*argv).returncode == 0
        assert defined == ["gradients"]


# just past the bound, so that a run the check missed samples a few MB
PAST_MAX_STEPS = repr(0.9 / MAX_STEPS)


@pytest.mark.parametrize("argv, flags", [
    (TRANSPORT + ("--dt", PAST_MAX_STEPS), "--dt"),
    (("holonomy", "--builtin", "sphere_cap", "--dt", PAST_MAX_STEPS), "--dt"),
    (("geodesic", "--builtin", "funk_ball", "--from", "0,0", "--dir", "1,0",
      "--time", "1e300", "--dt", "1e-300"), "--time/--dt"),
])
def test_more_than_max_steps_is_a_usage_error(tmp_path, argv, flags):
    # refused before any work: exit 2 naming the flags, nothing on stdout
    # or in --out
    out = tmp_path / "out"
    res = run_cli(*argv, "--out", str(out))
    assert (res.returncode, res.stdout) == (2, ""), res.stderr
    assert f"argument {flags}: " in res.stderr and "MAX_STEPS" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def _capped(limit=3 * 2 ** 29):
    """preexec_fn: cap the child's address space (1.5 GB), so that a
    request the bounds missed fails fast instead of filling the host."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return cap


LOOP = "--loop=0.2*cos(2*pi*t),0.2*sin(2*pi*t)"


@pytest.mark.parametrize("argv, flag", [
    (("classify", "--builtin", "funk_ball", "--per-axis", "100000"), "--per-axis"),
    (("classify", "--scenario", str(BENCH_SCENARIOS / "rot_box_4d.json"),
      "--per-axis", "100"), "--per-axis"),
    (("validate", "--builtin", "funk_ball", "--points", "100000000"), "--points"),
    (("holonomy", "--builtin", "funk_ball", LOOP, "--probes", "100000000"),
     "--probes"),
    (("compare-sprays", "--builtin", "funk_ball", "--dirs", "100000000"),
     "--dirs"),
    (("rank", "--builtin", "funk_ball", "--samples", "10000000"), "--samples"),
    (("compare-sprays", "--builtin", "funk_ball", "--per-axis", "2000",
      "--dirs", "100000"), "--dirs"),
    (("compare-sprays", "--builtin", "funk_ball", "--per-axis", "300",
      "--dirs", "100"), "--per-axis/--dirs"),
])
def test_oversized_request_is_a_usage_error(argv, flag):
    # refused before any array is built: exit 2 naming the flag, in a
    # child whose address space is capped
    res = run_module(*argv, preexec_fn=_capped(), timeout=60)
    assert (res.returncode, res.stdout) == (2, ""), res.stderr
    assert f"argument {flag}: " in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ("classify", "--builtin", "rotation_disk", "--per-axis", "316"),
    ("compare-sprays", "--builtin", "rotation_disk", "--per-axis", "316",
     "--dirs", "20"),
])
def test_largest_grid_is_served(argv):
    # 316^2 = 99,856 points, within MAX_GRID_POINTS, and 20 directions
    # on them, within MAX_GRID_FIBERS
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr


def test_underflowing_start_norm_names_the_row():
    # a nonzero start vector whose norm underflows to 0 is refused before
    # the definitional route divides by it: no warning, no traceback
    res = subprocess.run(
        [sys.executable, "-W", "error", "-m", "navgeo.cli", "transport",
         "--builtin", "funk_ball", "--curve=0.1*t,0", "--vector=1e-200,1e-200",
         "--dt", "0.5"], capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (1, ""), res.stderr
    assert res.stderr == ("navgeo: ZeroVector: navigation norm of start vector "
                          "row 0 [1e-200, 1e-200] underflows to 0\n")


def test_overflowing_norm_fails_before_any_row():
    # |v| = 1e308 is finite, but the squares under the root of F are not:
    # no CSV row and no warning, a witness naming the first sample
    res = run_cli("transport", "--builtin", "sphere_cap", "--curve=0.1*t,0",
                  "--vector=1e308,1e308", "--mode", "riemann")
    assert res.returncode == 1, res.stderr
    assert res.stdout == ""
    assert ("NonFiniteState: navigation norm of sample 0 (t=0, point "
            "[0.0, 0.0], v [1e+308, 1e+308]) is not finite") in res.stderr


def test_a_failed_run_leaves_no_out_file(tmp_path):
    # the CSV is formed before --out is opened: a run that fails leaves no
    # empty file behind, and an existing file keeps its content
    out = tmp_path / "t.csv"
    argv = ("transport", "--builtin", "sphere_cap", "--curve=0.1*t,0",
            "--vector=1e308,1e308", "--mode", "riemann", "--out", str(out))
    assert run_cli(*argv).returncode == 1
    assert not out.exists()
    out.write_text("kept\n")
    assert run_cli(*argv).returncode == 1
    assert out.read_text() == "kept\n"


@pytest.mark.filterwarnings("error")
def test_a_non_finite_report_value_is_refused(tmp_path):
    # JSON has no NaN: a report holding one exits 1 with the key path of
    # its first non-finite number, writes nothing to stdout or --out, and
    # raises no warning on the way (the norm gradient underflows at a
    # fiber of 1e-200)
    argv = ("torsion", "--builtin", "rotation_disk", "--at", "0.1,0",
            "--dir", "1e-200,0")
    res = run_cli(*argv)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == ("navgeo: NonFiniteState: report value "
                          "components[0][0][0] is not finite\n")
    out = tmp_path / "t.json"
    assert run_cli(*argv, "--out", str(out)).returncode == 1
    assert not out.exists()


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

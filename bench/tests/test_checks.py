"""Output checks accept real outputs and reject corrupted ones."""
import json

import numpy as np
import pytest

import worker
from checks import Oracle, check_output
from navgeo.scenarios import builtin, load_scenario, serialize
from workloads import SCENARIO_DIR, Request, scenario_args


def _oracle(name):
    path = SCENARIO_DIR / f"{name}.json"
    scen = load_scenario(str(path)) if path.is_file() else builtin(name)
    return Oracle(serialize(scen))


def _request(kind, scenario, args, params):
    return Request(kind, scenario, (kind, *scenario_args(scenario), *args),
                   params)


GEODESIC = _request(
    "geodesic", "funk_ball",
    ["--spray", "natural", "--from=0.1000,-0.2000", "--dir=0.3000,0.1000",
     "--time", "0.05", "--dt", "0.005"],
    {"spray": "natural", "from": [0.1, -0.2], "dir": [0.3, 0.1],
     "time": 0.05, "dt": 0.005})
RIEMANN = _request(
    "geodesic", "sphere_cap",
    ["--spray", "riemann", "--from=0.1000,0.1000", "--dir=0.5000,0.0000",
     "--time", "0.05", "--dt", "0.005"],
    {"spray": "riemann", "from": [0.1, 0.1], "dir": [0.5, 0.0],
     "time": 0.05, "dt": 0.005})
TRANSPORT = _request(
    "transport", "sphere_cap",
    ["--curve=-0.1000+0.2000*t+0.0000*t^2,0.1000-0.1000*t+0.0500*t^2",
     "--vector=0.0000,1.0000", "--mode", "natural", "--method", "ode",
     "--dt", "0.01"],
    {"mode": "natural", "method": "ode",
     "curve": ["-0.1000+0.2000*t+0.0000*t^2", "0.1000-0.1000*t+0.0500*t^2"],
     "vector": [0.0, 1.0], "dt": 0.01})
HOLONOMY = _request(
    "holonomy", "sphere_cap",
    ["--loop=0.1000+0.2000*cos(2*pi*t)+0.0000*sin(2*pi*t),"
     "0.0000+0.0000*cos(2*pi*t)+0.2000*sin(2*pi*t)",
     "--mode", "natural", "--probes", "4", "--dt", "0.01", "--seed", "1"],
    {"loop": ["0.1000+0.2000*cos(2*pi*t)+0.0000*sin(2*pi*t)",
              "0.0000+0.0000*cos(2*pi*t)+0.2000*sin(2*pi*t)"],
     "probes": 4, "dt": 0.01})
RANK = _request("rank", "rotation_disk",
                ["--samples", "1", "--depth", "3", "--seed", "2"],
                {"samples": 1, "depth": 3})
CLASSIFY = _request("classify", "funk_ball", ["--per-axis", "6"],
                    {"per_axis": 6})
COMPARE = _request("compare-sprays", "rotation_disk",
                   ["--per-axis", "6", "--dirs", "4"],
                   {"per_axis": 6, "dirs": 4})
TORSION = _request("torsion", "constant_wind",
                   ["--per-axis", "6", "--tol", "1e-08"],
                   {"per_axis": 6, "tol": 1e-8})


def _serve(req):
    _, rc, out, err = worker.serve(req.argv)
    return rc, out, err


def _edit_csv(out, column, delta, row=-1):
    lines = out.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _edit_json(out, edit):
    d = json.loads(out)
    edit(d)
    return json.dumps(d)


@pytest.mark.parametrize("req", [GEODESIC, RIEMANN, TRANSPORT, HOLONOMY, RANK,
                                 CLASSIFY, COMPARE, TORSION],
                         ids=lambda r: f"{r.kind}-{r.scenario}")
def test_real_output_passes(req):
    rc, out, err = _serve(req)
    assert check_output(req, rc, out, err, _oracle(req.scenario)) is None


def _flip(d, key):
    d[key]["passed"] = not d[key]["passed"]


def _nudge_probe(d):
    d["probes_out"][0][0] += 1e-3


CORRUPTIONS = [
    (GEODESIC, lambda out: _edit_csv(out, -1, 1e-4), "F"),
    (GEODESIC, lambda out: _edit_csv(out, 1, 5.0), "chart"),
    (RIEMANN, lambda out: _edit_csv(out, 3, 1e-3, row=5), "h-norm"),
    (TRANSPORT, lambda out: _edit_csv(out, -1, 1e-4, row=50), "F"),
    (TRANSPORT, lambda out: _edit_csv(out, 1, 1e-3, row=20), "curve"),
    (HOLONOMY, lambda out: _edit_json(out, _nudge_probe), "correspondence"),
    (RANK, lambda out: _edit_json(
        out, lambda d: d["reports"][0].update(rank=3)), "rank"),
    (CLASSIFY, lambda out: _edit_json(
        out, lambda d: d.update(sprays_coincide=False)), "sprays_coincide"),
    (CLASSIFY, lambda out: _edit_json(
        out, lambda d: _flip(d, "concircular")), "concircular"),
    (COMPARE, lambda out: _edit_json(
        out, lambda d: d.update(n_dirs=5)), "n_dirs"),
    (TORSION, lambda out: _edit_json(
        out, lambda d: d.update(passed=False)), "torsion_vanishes"),
]


@pytest.mark.parametrize("req,corrupt,word", CORRUPTIONS,
                         ids=lambda v: getattr(v, "kind", None) or (
                             v if isinstance(v, str) else ""))
def test_corrupted_output_counts_as_failed(monkeypatch, req, corrupt, word):
    rc, out, err = _serve(req)
    bad = corrupt(out)
    problem = check_output(req, rc, bad, err, _oracle(req.scenario))
    assert problem is not None and word in problem, problem

    monkeypatch.setattr(worker, "serve", lambda argv: (0.01, rc, bad, err))
    ledger = worker.Ledger({req.scenario: _oracle(req.scenario)})
    ledger.run(req)
    assert ledger.attempted == 1 and len(ledger.failures) == 1


def test_nonzero_exit_counts_as_failed():
    req = _request("geodesic", "funk_ball",
                   ["--spray", "natural", "--from=5,5", "--dir=1,0",
                    "--time", "0.05", "--dt", "0.005"],
                   {"spray": "natural", "from": [5, 5], "dir": [1, 0],
                    "time": 0.05, "dt": 0.005})
    ledger = worker.Ledger({"funk_ball": _oracle("funk_ball")})
    ledger.run(req)
    assert len(ledger.failures) == 1


def test_oracle_norm_matches_program():
    from navgeo.geometry import randers_value
    scen = builtin("sphere_cap")
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.3, 0.3, size=(20, 2))
    y = rng.normal(size=(20, 2))
    assert np.allclose(Oracle(serialize(scen)).norm(x, y),
                       randers_value(scen.nav, x, y), rtol=1e-12, atol=0)

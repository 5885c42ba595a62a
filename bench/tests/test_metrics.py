"""Metric names, units, and the tracer."""
import json
import re
from pathlib import Path

import numpy as np

import probes
import run
import tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_metric_has_a_valid_name_and_a_unit():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m


def test_reported_names_match_the_benchmark_file():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.E2E_UNITS
    layer = dict(tracer.metric_names() + probes.metric_names()
                 + [("trace_overhead_frac", "ratio")])
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layer


def test_tracer_counts_rebinds_and_restores():
    from navgeo import geometry, sprays, transport
    from navgeo.scenarios import builtin
    original = geometry.christoffel
    nav = builtin("sphere_cap").nav
    t = tracer.Tracer()
    t.install()
    try:
        assert sprays.christoffel is geometry.christoffel is \
            transport.christoffel is not original
        sprays.natural_spray_values(nav, np.zeros((5, 2)), np.ones((5, 2)))
    finally:
        t.uninstall()
    assert sprays.christoffel is original and geometry.christoffel is original
    m = t.metrics()
    assert m["sprays.natural_spray_values.calls"]["value"] == 1
    assert m["sprays.natural_spray_values.points"]["value"] == 5
    # the natural spray computes Christoffel symbols directly and through
    # the wind's covariant Jacobian
    assert m["geometry.christoffel.calls"]["value"] == 2
    outer = m["sprays.natural_spray_values.self_s"]["value"]
    assert 0.0 < outer and t.absent == []


def test_missing_function_is_reported_absent():
    t = tracer.Tracer({"geometry": [("no_such_function", tracer.CS)],
                       "no_such_module": [("f", tracer.CS)]})
    t.install()
    t.uninstall()
    assert t.absent == ["geometry.no_such_function", "no_such_module.f"]
    assert t.metrics()["geometry.no_such_function.calls"]["value"] == 0

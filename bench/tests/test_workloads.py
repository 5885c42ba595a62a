"""Request lists: seeded, balanced, and pinned."""
import pytest

from navgeo.cli import build_parser
from workloads import WORKLOADS, pass_requests, warmup_requests

SIZE_FLAGS = {
    "geodesic": ("--time", "--dt"),
    "transport": ("--dt",),
    "holonomy": ("--probes", "--dt"),
    "rank": ("--samples", "--depth"),
    "classify": ("--per-axis",),
    "compare-sprays": ("--per-axis", "--dirs"),
    "torsion": ("--per-axis", "--tol"),
}
VALUE_FLAGS = ("--from", "--dir", "--curve", "--vector", "--loop")


def _argvs(workload, seed, passes=3):
    reqs = warmup_requests(workload, seed)
    for k in range(passes):
        reqs += pass_requests(workload, seed, k)
    return [r.argv for r in reqs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name):
    w = WORKLOADS[name]
    assert _argvs(w, 7) == _argvs(w, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_requests(name):
    w = WORKLOADS[name]
    assert _argvs(w, 7) != _argvs(w, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_pass_holds_every_class_once(name):
    w = WORKLOADS[name]
    want = sorted((kind, scen) for kind, scen, _ in w.classes)
    for k in range(3):
        got = sorted((r.kind, r.scenario) for r in pass_requests(w, 3, k))
        assert got == want


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_requests_parse_with_pinned_sizes(name):
    parser = build_parser()
    for argv in _argvs(WORKLOADS[name], 5, passes=1):
        kind = argv[0]
        parser.parse_args(list(argv))
        for flag in SIZE_FLAGS[kind]:
            assert flag in argv, (flag, argv)
        assert ("--seed" in argv) == (kind in ("holonomy", "rank")), argv
        for flag in VALUE_FLAGS:
            assert flag not in argv, f"{flag} must be passed as {flag}=value"

"""Compare the CLI outputs of two navgeo checkouts on the benchmark requests.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each checkout serves the warm-up requests plus pass 0 of every benchmark
workload, for seeds 1 and 2 (112 requests), `validate` on every built-in
and every benchmark scenario file, with the default sample and with
`--points 2000` (22 requests), and a fixed list of requests that reach the
small-batch float integration where no workload does (EXTRA, 17 requests;
151 in all), through its own `navgeo.cli.main`, in a fresh process whose
working directory is that checkout. The workload request lists come from
`bench/workloads.py` of the checkout this script lives in; nothing under
`bench/` is written.

The report gives the number of byte-identical outputs, every exit-code or
stderr mismatch, every stdout whose text differs outside its numbers, and
the largest relative change |a - b| / max(|a|, |b|) of any printed number.
Numbers below FLOOR in magnitude in both outputs are compared by their
absolute change instead, reported on its own line. The exit status is 0
when exit codes, stderr and the non-numeric text all agree.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
FLOOR = 1e-12  # magnitude below which numbers compare absolutely
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


_BOX4 = ["--scenario", "bench/scenarios/rot_box_4d.json"]
_WIND3 = ["--scenario", "bench/scenarios/constant_wind_3d.json"]
_ROT3 = ["--scenario", "bench/scenarios/rot_ball_3d.json"]
# Requests no workload makes: geodesics of the three sprays in 3D and 4D,
# calm and dashing to the chart edge; the natural transport ODE in 4D; and
# holonomy at the default 24 probes, above numkernel.SCALAR_ROWS (20), and
# at 20 probes, on it.
EXTRA = [
    ["geodesic", *scen, "--spray", spray, start, direction,
     "--time", "0.5", "--dt", "0.005"]
    for scen, start, direction in (
        (_BOX4, "--from=0.1,-0.2,0.3,0.05", "--dir=0.4,0.3,-0.2,0.5"),
        (_BOX4, "--from=0.5,0.4,0.3,0.2", "--dir=1.5,1.0,0.8,0.4"),
        (_WIND3, "--from=0.1,0.2,-0.1", "--dir=0.5,-0.3,0.2"),
        (_WIND3, "--from=0.5,-0.4,0.3", "--dir=1.6,-1.2,0.9"))
    for spray in ("natural", "randers", "riemann")
] + [
    ["transport", *_BOX4, "--curve=0.1+0.3*t,-0.2+0.1*t^2,0.3*t,0.1-0.2*t",
     "--vector=0.5,0.2,-0.3,0.4", "--method", "ode"],
    ["holonomy", "--builtin", "rotation_disk",
     "--loop=0.2+0.3*cos(2*pi*t),0.1+0.3*sin(2*pi*t)"],
    ["holonomy", "--builtin", "rotation_disk",
     "--loop=0.2+0.3*cos(2*pi*t),0.1+0.3*sin(2*pi*t)", "--probes", "20"],
    ["holonomy", *_ROT3, "--loop=0.1+0.3*cos(2*pi*t),0.3*sin(2*pi*t),0.05",
     "--seed", "3"],
    ["holonomy", *_BOX4, "--loop=0.2*cos(2*pi*t),0.2*sin(2*pi*t),0.1,-0.1",
     "--seed", "3", "--probes", "20"],
]


def requests() -> list:
    """argv lists of the warm-up requests plus pass 0 of every workload,
    then the validate requests and EXTRA, which no workload makes."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import (BUILTIN_DOMAINS, SCENARIO_DIR, WORKLOADS,
                           pass_requests, scenario_args, warmup_requests)
    served = [list(req.argv) for name in sorted(WORKLOADS) for seed in SEEDS
              for req in (warmup_requests(WORKLOADS[name], seed)
                          + pass_requests(WORKLOADS[name], seed, 0))]
    scenarios = sorted(BUILTIN_DOMAINS) + sorted(
        f.stem for f in SCENARIO_DIR.glob("*.json"))
    return served + [["validate", *scenario_args(sc), *points]
                     for sc in scenarios
                     for points in ([], ["--points", "2000"])] + EXTRA


def serve_all(argvs: list) -> list:
    """[exit code, stdout, stderr] of each request, served in this process
    by the navgeo found under ./src."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    import navgeo.cli
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = navgeo.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        outputs.append([rc, out.getvalue(), err.getvalue()])
    return outputs


def outputs_of(checkout: Path, argvs: list) -> list:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--serve"],
        cwd=checkout, input=json.dumps(argvs), capture_output=True,
        text=True, check=True)
    return json.loads(proc.stdout)


def number_changes(a: str, b: str):
    """(largest relative change, largest absolute change below the floor)
    of the numbers of two texts, or None when the texts differ outside
    their numbers."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    rel = small = 0.0
    for sa, sb in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(sa), float(sb)
        scale = max(abs(x), abs(y))
        if scale < FLOOR:
            small = max(small, abs(x - y))
        elif x != y:
            rel = max(rel, abs(x - y) / scale)
    return rel, small


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        json.dump(serve_all(json.load(sys.stdin)), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        ap.error("PARENT_DIR and CHANGE_DIR are required")

    argvs = requests()
    old = outputs_of(args.parent.resolve(), argvs)
    new = outputs_of(args.change.resolve(), argvs)
    identical, rel, small, problems = 0, 0.0, 0.0, []
    worst = None
    for argv, (rc0, out0, err0), (rc1, out1, err1) in zip(argvs, old, new):
        label = " ".join(argv[:3])
        if rc0 != rc1:
            problems.append(f"exit code {rc0} -> {rc1}: {label}")
        if err0 != err1:
            problems.append(f"stderr differs: {label}")
        if out0 == out1:
            identical += rc0 == rc1 and err0 == err1
            continue
        changes = number_changes(out0, out1)
        if changes is None:
            problems.append(f"stdout differs outside its numbers: {label}")
            continue
        if changes[0] > rel:
            rel, worst = changes[0], label
        small = max(small, changes[1])
    print(f"requests: {len(argvs)}")
    print(f"byte-identical: {identical}")
    print(f"largest relative change of a printed number: {rel:.3g}"
          + (f" ({worst})" if worst else ""))
    print(f"largest absolute change of a number below {FLOOR:g}: "
          f"{small:.3g}")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

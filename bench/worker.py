"""One benchmark process. Each role runs in a fresh process: `run.py`
starts `load` and `trace`, and `load` starts the `setup` processes.

    python3 bench/worker.py setup --workload W
    python3 bench/worker.py load  --workload W --seed S --seconds T
    python3 bench/worker.py trace --workload W --seed S

The working directory is the checkout root. The last line of standard
output is one JSON object with the role's results.

Requests run in a closed loop with one client and one thread: each argv
goes through `navgeo.cli.main` with stdout and stderr captured, and the next
request starts when the previous one returns. Only the call is timed; the
output check runs after it, outside the timed span.

The benchmark's own modules import NumPy, so they are imported inside the
functions that use them, after set-up has been timed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# builds of the workload's scenarios per set-up process; the median counts
SETUP_BUILDS = 5
# fresh set-up processes started during the timed loop, evenly spaced in it
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 30
# requests the timed loop leaves beyond the task_tail_s percentile
TAIL_BEYOND = 10


def _setup(workload_name: str):
    """Import navgeo, then build and validate every scenario the workload
    uses, SETUP_BUILDS times over. Returns (import time plus the median
    build time, workload, scenarios)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import navgeo.cli  # noqa: F401  (pulls in numpy and every layer)
    from navgeo import scenarios
    import_s = time.perf_counter() - t0
    # the benchmark's own modules are not part of set-up
    from workloads import SCENARIO_DIR, WORKLOADS
    workload = WORKLOADS[workload_name]
    builds = []
    for _ in range(SETUP_BUILDS):
        t0 = time.perf_counter()
        built = {}
        for name in workload.scenarios():
            path = SCENARIO_DIR / f"{name}.json"
            built[name] = (scenarios.load_scenario(str(path))
                           if path.is_file() else scenarios.builtin(name))
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)
    src = (ROOT / "src").resolve()
    if src not in Path(navgeo.__file__).resolve().parents:
        raise SystemExit(f"navgeo was imported from {navgeo.__file__}, "
                         f"not from {src}")
    return setup_s, workload, built


def _oracles(built: dict) -> dict:
    from checks import Oracle
    from navgeo.scenarios import serialize
    return {name: Oracle(serialize(s)) for name, s in built.items()}


def serve(argv) -> tuple:
    """(seconds, exit code, stdout, stderr) of one CLI request."""
    import navgeo.cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = navgeo.cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a request that raises is a failed request
        rc = "raised"
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


class Ledger:
    """Counts served requests and failed output checks."""

    def __init__(self, oracles: dict):
        from checks import check_output
        self.check = check_output
        self.oracles = oracles
        self.attempted = 0
        self.failures = []

    def run(self, req) -> float:
        seconds, rc, out, err = serve(req.argv)
        self.attempted += 1
        problem = self.check(req, rc, out, err, self.oracles[req.scenario])
        if problem is not None:
            self.failures.append({"argv": list(req.argv), "problem": problem})
        return seconds


def _versions() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh_setup_s(workload_name: str) -> float:
    """set-up time of a fresh `setup` process, which inherits the pinned
    environment and the working directory of this one."""
    proc = subprocess.run(
        [sys.executable, __file__, "setup", "--workload", workload_name],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"setup process failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def role_load(workload, seed: int, seconds: float, ledger: Ledger) -> dict:
    from workloads import pass_requests, warmup_requests
    for req in warmup_requests(workload, seed):
        ledger.run(req)
    times, classes, passes, setups = [], [], 0, []
    # whole passes only, so every run serves the same class mix, and enough
    # requests that task_tail_s leaves TAIL_BEYOND of them beyond it
    min_requests = -(-TAIL_BEYOND * 100 // (100 - workload.tail_pct))
    while sum(times) < seconds or len(times) < min_requests:
        for req in pass_requests(workload, seed, passes):
            # set-up samples spread over the loop, untimed, so that they see
            # the same drift in the shared host's speed as the requests
            if (len(setups) < SETUP_RUNS
                    and sum(times) >= len(setups) * seconds / SETUP_RUNS):
                setups.append(_fresh_setup_s(workload.name))
            times.append(ledger.run(req))
            classes.append(req.klass)
        passes += 1
    return {"times": times, "classes": classes, "passes": passes,
            "fresh_setups_s": setups}


def role_trace(workload, seed: int, ledger: Ledger) -> dict:
    from probes import run_probes
    from tracer import Tracer
    from workloads import pass_requests, warmup_requests
    for req in warmup_requests(workload, seed):
        ledger.run(req)
    reqs = [r for k in range(workload.trace_passes)
            for r in pass_requests(workload, seed, k)]
    tracer = Tracer()
    untraced = traced = 0.0

    def run_traced(req):
        tracer.install()
        try:
            return ledger.run(req)
        finally:
            tracer.uninstall()

    # each request runs untraced and traced back to back, alternating which
    # goes first, so drift in the shared host's speed cancels in the ratio
    for i, req in enumerate(reqs):
        if i % 2:
            traced += run_traced(req)
            untraced += ledger.run(req)
        else:
            untraced += ledger.run(req)
            traced += run_traced(req)
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = {"value": traced / untraced - 1.0,
                                      "unit": "ratio"}
    probe_metrics, probe_absent = run_probes()
    metrics.update(probe_metrics)
    return {"metrics": metrics, "traced_requests": len(reqs),
            "untraced_s": untraced, "traced_s": traced,
            "absent": tracer.absent + probe_absent}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "load", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    setup_s, workload, built = _setup(args.workload)
    result = {"setup_s": setup_s}
    if args.role != "setup":
        ledger = Ledger(_oracles(built))
        if args.role == "load":
            result.update(role_load(workload, args.seed, args.seconds, ledger))
        else:
            result.update(role_trace(workload, args.seed, ledger))
        result.update(attempted=ledger.attempted,
                      failed=len(ledger.failures),
                      failures=ledger.failures[:5],
                      peak_rss_mb=_peak_rss_mb(), versions=_versions())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

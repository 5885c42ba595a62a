"""navgeo benchmark: seeded CLI request workloads, end-to-end and per-layer.

    python3 bench/run.py --workload paths --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. `--trace 0` reports the end-to-end metrics
of an untraced run; `--trace 1` reports the per-layer metrics of a separate
traced run, the tracing overhead, and the layer probes. `--workload all`
runs every workload, untraced and traced, and prints each result line.

Every role runs in its own fresh process (see worker.py) with the BLAS
thread pools pinned to one thread and NAVGEO_THREADS unset. Set-up is
measured in the load process and in fresh set-up processes that it starts
between requests; each imports navgeo once and builds its scenarios several
times, and the median over the processes is reported. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the percentile behind task_tail_s, the sample
counts, the failures, and the Python, NumPy and BLAS versions.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 140
E2E_UNITS = {"setup_s": "s", "task_p50_s": "s", "task_tail_s": "s",
             "tasks_per_s": "1/s", "peak_rss_mb": "MB", "success_frac": "ratio"}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NAVGEO_THREADS"}
    env.update(PINNED_ENV)
    return env


def _worker(role: str, workload: str, *extra) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), role,
           "--workload", workload, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker for {workload} exceeded "
                         f"{RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} worker for {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(workload, seed: int, seconds: float):
    res = _worker("load", workload.name, "--seed", str(seed),
                  "--seconds", repr(seconds))
    setups = [res["setup_s"], *res["fresh_setups_s"]]
    times = res["times"]
    tail = statistics.quantiles(times, n=100, method="inclusive")[
        workload.tail_pct - 1]
    beyond = sum(t > tail for t in times)
    if beyond < 10:
        raise BenchError(f"only {beyond} requests beyond task_tail_s "
                         f"(p{workload.tail_pct} of {len(times)})")
    # one pass over the request list, each request at its median over the
    # passes: a burst of contention on the shared host moves this far less
    # than the raw count over the busy time, which is recorded beside it
    per_class = {}
    for klass, t in zip(res["classes"], times):
        per_class.setdefault(klass, []).append(t)
    pass_s = sum(statistics.median(ts) for ts in per_class.values())
    values = {
        "setup_s": statistics.median(setups),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail,
        "tasks_per_s": len(per_class) / pass_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "success_frac": 1.0 - res["failed"] / res["attempted"],
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    info = {"workload": workload.name, "seed": seed, "trace": 0,
            "task_tail_percentile": workload.tail_pct,
            "timed_requests": len(times),
            "requests_beyond_tail": beyond,
            "passes": res["passes"], "busy_s": sum(times),
            "tasks_per_busy_s": len(times) / sum(times),
            "setup_samples_s": setups, "failures": res["failures"],
            "versions": res["versions"]}
    return res, metrics, info


def per_layer(workload, seed: int):
    res = _worker("trace", workload.name, "--seed", str(seed))
    info = {"workload": workload.name, "seed": seed, "trace": 1,
            "traced_requests": res["traced_requests"],
            "untraced_s": res["untraced_s"], "traced_s": res["traced_s"],
            "absent": res["absent"], "failures": res["failures"],
            "versions": res["versions"]}
    return res, res["metrics"], info


def run_one(workload, seed: int, seconds: float, trace: bool) -> None:
    if trace:
        res, metrics, info = per_layer(workload, seed)
    else:
        res, metrics, info = end_to_end(workload, seed, seconds)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}),
          flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "navgeo" / "__init__.py").is_file():
        print(f"bench: no navgeo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    if args.workload == "all":
        chosen = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    elif args.workload in WORKLOADS:
        chosen = [(WORKLOADS[args.workload], bool(args.trace))]
    else:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    try:
        for workload, trace in chosen:
            run_one(workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

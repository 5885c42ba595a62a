"""Per-class request times of a benchmark workload, served in-process.

    python3 tools/class_timings.py WORKLOAD [--passes N] [--seed S]

Run it from the root of a checkout. The navgeo under ./src serves the
warm-up requests of WORKLOAD untimed, then passes 0 .. N - 1 of it, as
`bench/workloads.py` of that checkout generates them for seed S, each
request through `navgeo.cli.main` with its output captured, one after
another in this process. Only the call is timed. The report gives each
request class's median time, then the formula of the benchmark's
`tasks_per_s`: the number of classes over the sum of the per-class
medians, then the process's peak RSS in MB (`ru_maxrss` / 1024, as the
benchmark worker reports its `peak_rss_mb`). The exit status is 1 when a request exits non-zero. Nothing
under bench/ is written.

Alternating runs of two checkouts (compile their bytecode first, with
`python3 -m compileall -q src`) compare them class by class, away from
the process start-up and set-up that a benchmark run also times.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import resource
import statistics
import sys
import time
from pathlib import Path


def _serve(main, argv) -> tuple[float, int]:
    """(seconds, exit code) of one CLI request."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    return time.perf_counter() - t0, rc


def class_times(workload_name: str, passes: int, seed: int):
    """(workload, {class index: [seconds per pass]}, [argv of each request
    that exited non-zero]) for the checkout in the working directory."""
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import navgeo.cli
    from workloads import WORKLOADS, pass_requests, warmup_requests
    workload = WORKLOADS[workload_name]
    for req in warmup_requests(workload, seed):
        _serve(navgeo.cli.main, req.argv)
    times = {k: [] for k in range(len(workload.classes))}
    failed = []
    for index in range(passes):
        for req in pass_requests(workload, seed, index):
            seconds, rc = _serve(navgeo.cli.main, req.argv)
            times[req.klass].append(seconds)
            if rc != 0:
                failed.append(list(req.argv))
    return workload, times, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload, times, failed = class_times(args.workload, args.passes,
                                          args.seed)
    medians = {k: statistics.median(ts) for k, ts in times.items()}
    print(f"{workload.name}: seed {args.seed}, {args.passes} passes, "
          f"median ms per class")
    for k, (kind, scenario, options) in enumerate(workload.classes):
        label = " ".join([kind, scenario]
                         + [f"{key}={val}" for key, val in options.items()])
        print(f"{k:3d} {1e3 * medians[k]:9.2f}  {label}")
    pass_s = sum(medians.values())
    print(f"sum of class medians {1e3 * pass_s:.2f} ms; "
          f"tasks_per_s {len(medians) / pass_s:.2f}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.2f} MB")
    for argv_ in failed:
        print("exited non-zero: " + " ".join(argv_))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

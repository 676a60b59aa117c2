#!/usr/bin/env python3
r"""Time the first K units of a perfbench workload in one process, as one
JSON line of the minimum milliseconds a job takes, per kind and in total,
the work done per second of those minimum times, and the process's peak
resident set size in MB.

    PYTHONPATH=src python scripts/time_sweep_units.py --workload sweep --seed 29 \
        --units 90 --rounds 7

Each round runs every job of the K units once, in order, through
``nbdirichlet.cli.run``, as perfbench runs it (BLAS pinned to one thread,
stdout discarded); a job's time is its fastest round, and a kind's time the
mean of its jobs' times. Rounds interleave the jobs instead of repeating one
job back to back. ``work_per_s`` is the total work over the total of the
jobs' times, with work counted as perfbench counts it: the prox steps a flow
job's config asks for, and the samples a verify report tested, summed over
its checks. Configs are written before the first round and outputs go
to a temporary directory, so only the CLI calls are timed. The units come
from this checkout's ``perfbench/workloads.py``, read without writing to
it; ``nbdirichlet`` comes from ``sys.path``, so pointing PYTHONPATH at
another tree's ``src`` times that tree. To compare two trees, alternate
runs of this script on each and compare their lines.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import pathlib
import resource
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="sweep")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args()
    if args.units < 1 or args.rounds < 1:
        ap.error("--units and --rounds must be at least 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # read perfbench/ without writing into it
    import workloads

    from nbdirichlet.cli import run

    units = list(itertools.islice(workloads.iter_units(args.workload, args.seed), args.units))
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []  # (kind, argv)
        for idx, unit in enumerate(units):
            for k, job in enumerate(unit.jobs):
                config = pathlib.Path(tmp, f"u{idx:04d}-{k}-config.json")
                config.write_text(json.dumps(job.config))
                out = pathlib.Path(tmp, f"u{idx:04d}-{k}-output")
                jobs.append((unit.kind, [job.command, str(config), "--output", str(out)]))
        best = [float("inf")] * len(jobs)
        for _ in range(args.rounds):
            for i, (_, argv) in enumerate(jobs):
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    run(argv)
                    best[i] = min(best[i], time.perf_counter() - t0)
        work = 0
        for _, argv in jobs:
            if argv[0] == "flow":
                work += json.loads(pathlib.Path(argv[1]).read_text())["flow"]["n_steps"]
            else:
                report = json.loads(pathlib.Path(argv[3]).read_text())
                work += sum(check["n_tested"] for check in report["checks"])

    kinds: dict[str, list[float]] = {}
    for (kind, _), t in zip(jobs, best):
        kinds.setdefault(kind, []).append(t)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "units": args.units,
        "rounds": args.rounds,
        "jobs": len(jobs),
        "ms_per_job": round(1e3 * sum(best) / len(best), 4),
        "kinds": {k: round(1e3 * sum(v) / len(v), 4) for k, v in sorted(kinds.items())},
        # unrounded, so work_per_s * jobs * ms_per_job / 1e3 gives the work back
        "work_per_s": work / sum(best),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

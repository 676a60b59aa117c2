#!/usr/bin/env python3
"""Benchmark of the nbdirichlet CLI on seeded `verify` and `flow` jobs.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`. The jobs
run in this process through `nbdirichlet.cli.run([...])`, in a closed loop:
one client, one job at a time. Every job's output is checked (checks.py);
a job that raises, exits 2 or fails its check counts as failed.

`--trace 0` reports the end-to-end metrics. `--trace 1` wraps the package's
functions (tracer.py), runs the jobs traced, runs the same jobs again
untraced to measure the tracing overhead, and reports the per-layer
metrics. The last line of stdout is the result as one JSON object; the line
before it records the environment. Both, and the spans of a traced run, are
also written under `.perfbench_out/`.
"""

import os

# Pin the BLAS pools before numpy is first imported (here or in a child).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5  # fresh processes whose set-up time gives setup_s
TAIL_PERCENTILE = 90  # job_s.tail; a 30 s run holds >= 100 jobs of every workload
END_TO_END = (
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("work_per_s", "work/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
# what the program reports back per job, by command
EXIT_CODE = {"verify": 1, "flow": 0}  # identity_halfsum makes every verify exit 1


@dataclass(frozen=True)
class JobResult:
    kind: str
    seconds: float
    work: int  # samples tested (verify) or prox steps taken (flow)
    ok: bool


class _Sink:
    """Discards the CLI's progress lines so the result stays the last line."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def setup(workload: str, seed: int):
    """Import the program, generate the first round of jobs and build the
    form of each; return the stream of units, starting with that round."""
    import scipy.optimize  # noqa: F401  (imported lazily by the p not in {1, 2} prox)

    import nbdirichlet

    stream = workloads.iter_units(workload, seed)
    first = list(itertools.islice(stream, len(workloads.kinds(workload))))
    for unit in first:
        config = unit.jobs[0].config
        nbdirichlet.make_form(config["forms"][0] if "forms" in config else config["form"])
    return itertools.chain(first, stream)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter until its set-up
    is done, over SETUP_REPEATS processes run one after another."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(t1 - t0)
    return statistics.median(samples)


def run_unit(cli, checks, unit, tag: str, workdir: Path, tracer=None) -> list[JobResult]:
    """Run the jobs of one unit back to back, timing each CLI call, then
    check their outputs together. A failed check fails every job of the unit."""
    times, outputs, problems = [], [], []
    sink = _Sink()
    for k, job in enumerate(unit.jobs):
        config_path = workdir / f"{tag}-{k}-config.json"
        out = workdir / f"{tag}-{k}-{'report.json' if job.command == 'verify' else 'trace.csv'}"
        config_path.write_text(json.dumps(job.config))
        argv = [job.command, str(config_path), "--output", str(out)]
        if tracer is not None:
            tracer.job += 1
            tracer.active = True
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink):
                code = cli.run(argv)
        except Exception:  # a job that raises is a failed job; keep running
            code = None
            problems.append(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
            if out.is_file():
                tracer.counts["cli.report_bytes"] += out.stat().st_size
        if code != EXIT_CODE[job.command]:
            problems.append(f"{job.command} exited with {code}")
        outputs.append(out)
        config_path.unlink()
    work = [0] * len(unit.jobs)
    if not problems:
        try:
            if unit.jobs[0].command == "verify":
                doc = json.loads(outputs[0].read_text())
                n_samples = unit.jobs[0].config["suite"]["n_samples"]
                problems += checks.check_report(unit.kind, doc, n_samples)
                work = [sum(c["n_tested"] for c in doc["checks"])]
            else:
                traces = [checks.read_trace(p) for p in outputs]
                (cfg_f, cfg_g), (tr_f, tr_g) = [j.config for j in unit.jobs], traces
                problems += checks.check_pair(cfg_f, tr_f, cfg_g, tr_g)
                work = [tr.states.shape[0] - 1 for tr in traces]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    for out in outputs:
        out.unlink(missing_ok=True)
    if problems:
        print(f"job {tag} ({unit.kind}) failed: {'; '.join(problems)}", file=sys.stderr)
    return [JobResult(unit.kind, t, w, not problems) for t, w in zip(times, work)]


def run_loop(cli, checks, units, seconds: float, workdir: Path, tracer=None):
    """Run units from the stream until `seconds` of wall time have passed;
    return the job results and the units run."""
    results: list[JobResult] = []
    done = []
    start = time.perf_counter()
    for idx, unit in enumerate(units):
        if time.perf_counter() - start >= seconds:
            break
        results += run_unit(cli, checks, unit, f"u{idx}", workdir, tracer)
        done.append(unit)
    return results, done


def end_to_end(results: list[JobResult], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in results]
    total = sum(times)
    failed = sum(not r.ok for r in results)
    return {
        "setup_s": setup_s,
        "job_s.p50": statistics.median(times),
        "job_s.tail": statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
        "work_per_s": sum(r.work for r in results if r.ok) / total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(results),
    }


def kind_summary(results: list[JobResult]) -> dict:
    """Per job kind: jobs, median job time, and share of the timed wall time."""
    total = sum(r.seconds for r in results)
    out = {}
    for kind in sorted({r.kind for r in results}):
        times = [r.seconds for r in results if r.kind == kind]
        out[kind] = {
            "jobs": len(times),
            "median_s": statistics.median(times),
            "time_share": sum(times) / total,
        }
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nbdirichlet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process loaded, asked of the library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.rsplit("/", 1)[-1]})
    found = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def environment(args, extra: dict) -> dict:
    import numpy
    import scipy

    import checks

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "clients": 1,
        "tail_percentile": TAIL_PERCENTILE,
        "flow_tolerances": checks.TOLERANCES,
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "nbdirichlet" / "__init__.py").is_file():
        print(f"error: no nbdirichlet package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    units = setup(args.workload, args.seed)
    import checks
    from nbdirichlet import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    extra: dict = {}
    try:
        if args.trace:
            from tracer import PER_LAYER, Tracer

            tracer = Tracer()
            tracer.install()
            try:
                results, done = run_loop(cli, checks, units, args.seconds, workdir, tracer)
            finally:
                tracer.uninstall()
            traced_s = sum(r.seconds for r in results)
            again = [
                r for idx, unit in enumerate(done)
                for r in run_unit(cli, checks, unit, f"r{idx}", workdir)
            ]
            untraced_s = sum(r.seconds for r in again)
            values = tracer.metrics(len(results), traced_s - untraced_s, untraced_s)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
            (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.dump()))
            extra["trace_overhead_s"] = traced_s - untraced_s
            results += again
        else:
            results, _ = run_loop(cli, checks, units, args.seconds, workdir)
            values = end_to_end(results, setup_s)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra.update(jobs=len(results), kinds=kind_summary(results))
    failed = sum(not r.ok for r in results)
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}
    env = environment(args, extra)
    (OUT / f"result-{tag}.json").write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

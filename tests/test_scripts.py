import json
import os
import pathlib
import re
import subprocess
import sys

from nbdirichlet.verifier import replay

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_verification_sweep_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification_sweep.py"),
         "--n-samples", "20", "--outdir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) == 10
    assert "identities.json" in [p.name for p in reports]
    for path in reports:
        for check in json.loads(path.read_text())["checks"]:
            assert replay(check["witness"]) == check["worst_violation"], (path.name, check["name"])


def test_flow_experiment_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_flow_experiment.py"),
         "--steps", "5", "--outdir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "graph_quadratic.csv", "grid_tv.csv", "nonlocal_z4.csv"
    ]
    rows = re.findall(r"order margin (\S+)\s+contraction margin (\S+)", proc.stdout)
    assert len(rows) == 3, proc.stdout
    for order, contraction in rows:
        assert float(order) <= 1e-8 and float(contraction) <= 1e-8, proc.stdout


def test_dump_outputs_script_is_deterministic(tmp_path):
    # two dumps of the same units are the same files, byte for byte
    def dump(workload, outdir):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "dump_outputs.py"), "--workload", workload,
             "--seed", "3", "--units", "2", "--outdir", str(outdir)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return {p.name: p.read_bytes() for p in outdir.iterdir()}

    for workload in ("sweep", "flow_newton", "flow_admm"):
        first = dump(workload, tmp_path / workload / "a")
        assert first == dump(workload, tmp_path / workload / "b")
        codes = first.pop("exit_codes.txt").decode().splitlines()
        # one line and one output per job: a verify report, or a flow trace per datum
        assert len(codes) == len(first) == (2 if workload == "sweep" else 4), codes
        expected = "1" if workload == "sweep" else "0"
        assert all(line.split()[-1] == expected for line in codes), codes


def _time_units(workload, seed, units):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_sweep_units.py"), "--workload", workload,
         "--seed", str(seed), "--units", str(units), "--rounds", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (line,) = proc.stdout.splitlines()
    return json.loads(line)


def test_time_sweep_units_script():
    # one JSON line: the minimum time a job takes, per kind and in total, the
    # work per second of those times, and the peak resident set size
    out = _time_units("sweep", 29, 3)
    assert (out["workload"], out["seed"], out["units"], out["rounds"], out["jobs"]) == (
        "sweep", 29, 3, 1, 3)
    assert out["ms_per_job"] > 0 and sum(out["kinds"].values()) > 0
    assert 0 < out["work_per_s"] < float("inf")
    assert out["peak_rss_mb"] > 0
    # work as perfbench counts it: a flow job's prox steps; the first flow_admm
    # unit of seed 3 is a p = 1.5 grid pair, one step a datum
    out = _time_units("flow_admm", 3, 1)
    assert (out["jobs"], list(out["kinds"])) == (2, ["grid_abs_p1.5"])
    work = out["work_per_s"] * out["jobs"] * out["ms_per_job"] / 1e3
    assert abs(work - 2) < 1e-3, out

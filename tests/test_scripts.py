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

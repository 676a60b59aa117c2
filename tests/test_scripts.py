import json
import os
import pathlib
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

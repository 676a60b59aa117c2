"""Byte-identity of shipped reports: sha256 digests of the reports that the
CLI and the sweep script write for fixed configs and seeds, and of the |v|
grid's trace from the flow experiment script.

A change to the sampling order, to a kernel's arithmetic or to the report
format changes a digest. The forms covered here need no ``pow`` beyond
squares, so their bits do not depend on the platform's libm: the grids
with p = 2 or 4 and the nonlocal z^4 kernel are left out.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from nbdirichlet.cli import run

ROOT = pathlib.Path(__file__).resolve().parents[1]


def digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the digests of report version 2; the test ids name the config alone, so a
# new version changes the digests and keeps the ids
VERIFY_DIGESTS = {
    "graph_quadratic": "a00f2a2b38ef6e6065d667b55933d9fe0968e504e9b4dd5f54d57e9d8a6e8fb9",
    "counterexample_grid": "a050e342a610c5eadc1d0c2e7a9ca1cdcd79a9712ce0167007faa30c8b3727fc",
    # a one-way max(z, 0) kernel on weighted nodes: fails symmetry and normal
    # contraction, so it skips the proof chain
    "nonlocal_one_way": "eb8ad6a9ea5a8575a1271a5c504ac84d4d4155ff331d50cf5193fbcd7766ac5a",
}


@pytest.mark.parametrize("config, code", [
    ("graph_quadratic", 1), ("counterexample_grid", 1), ("nonlocal_one_way", 1),
])
def test_verify_report_digest(tmp_path, config, code):
    out = tmp_path / "report.json"
    assert run(["verify", str(ROOT / "configs" / f"{config}.json"), "--output", str(out)]) == code
    assert digest(out) == VERIFY_DIGESTS[config]


def test_demo_counterexample_digest(tmp_path):
    out = tmp_path / "demo.json"
    assert run(["demo", "counterexample", "--output", str(out)]) == 1
    assert digest(out) == "61c744c0811253f486dc8fb74c0faa3056245eb3607d230a2ce009b13b69b0a8"


SWEEP_DIGESTS = {
    "graph_quadratic_20": "e0f0e04da13c581edd80e23c903f58987a80991c69de9faf567ce49176125bf7",
    "nonlocal_z2": "7924656d090510c8222967bff3fbf2c8d201c9a728cc43db7d96fa6c9a71cc29",
    "nonlocal_abs": "57261884457a533017fdc3b74c7a2a135012cc58eed5cd2c9f75990af77ef4b4",
    "grid_abs_p1": "13e21f503ce19d55de8428f0db0133aa8b933b4e7d40fe3e1687ded57699aaa3",
    "grid_finsler": "fbb7ec0159ee86a454f04cf3222ea31b015fdbf8ad4781312188197a35fcc5b5",
    "grid_max_positive_part": "823cfc8eecbfc7f21f534433bd9da07435106f5ffafab7097fc59656da029018",
    "identities": "cdf23947f9c443cfb82684d48c52ece432ca50d902a24c77978fe89be39cdf50",
}


def test_verification_sweep_digests(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification_sweep.py"),
         "--seed", "0", "--n-samples", "20", "--outdir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = {label: digest(tmp_path / f"{label}.json") for label in SWEEP_DIGESTS}
    assert got == SWEEP_DIGESTS


def test_flow_experiment_grid_tv_digest(tmp_path):
    # the |v| grid's trace: the chain prox and its duality gap, no pow, no LAPACK
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_flow_experiment.py"),
         "--seed", "0", "--steps", "20", "--outdir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert digest(tmp_path / "grid_tv.csv") == (
        "3c378ad1d06942f31580f538fcf9e93c647927ef7d42adc7cb4513b1c400a3d9"
    )

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


@pytest.mark.parametrize(
    "config, code, expected",
    [
        ("graph_quadratic", 1, "9e5fe85e8806ac12645d6e9d89e70ab97950ffba368baa431b6eb529bff20fb9"),
        ("counterexample_grid", 1, "907d0c954125a4cc563c41b1976bbec670c85bccdf572dcc77bd8c3255850731"),
    ],
)
def test_verify_report_digest(tmp_path, config, code, expected):
    out = tmp_path / "report.json"
    assert run(["verify", str(ROOT / "configs" / f"{config}.json"), "--output", str(out)]) == code
    assert digest(out) == expected


def test_demo_counterexample_digest(tmp_path):
    out = tmp_path / "demo.json"
    assert run(["demo", "counterexample", "--output", str(out)]) == 1
    assert digest(out) == "e0b4d7cbd8cb4f5593b9d29879e6af5110ded667a62acb11fb55127e37cf82e5"


SWEEP_DIGESTS = {
    "graph_quadratic_20": "546d4ca4babef03d796affb0e7fca4cf66c6695db240a92cf939f6fad0eec370",
    "nonlocal_z2": "6960aa8364905d8ba559b0347b58d34bc55ba8545a0b92ef4ebce0b301bc3c4b",
    "nonlocal_abs": "ff0ee7e8e5b9e169b8882be3568253cede7cad61bc0f29ea6252ac809d1f1a49",
    "grid_abs_p1": "a70460084f17b0b75587b95a29acfe38da545f7267a21ab4117226a744dd1a19",
    "grid_finsler": "e5d1ea0530b49009c6a75701c712b7215b1cc12b263c52632209591616e1784e",
    "grid_max_positive_part": "2145d9e7037ac334c8918937fdaf4f9a754f7a7ac2361ee189ba6b8b76b4bd0b",
    "identities": "95d8171c4b5d2cbbf1b227a441f10bab78204f2a99f1c941789427ba1dcb09d8",
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

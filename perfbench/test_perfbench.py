"""Tests of the benchmark itself: its output checks must reject tampered
outputs, and the metrics it prints must be the ones BENCHMARK.json names.

    python -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from nbdirichlet import cli  # noqa: E402


def first_unit(workload: str, kind: str, seed: int = 0):
    return next(u for u in workloads.iter_units(workload, seed) if u.kind == kind)


def run_job(job, tmp_path: Path, name: str) -> Path:
    config = tmp_path / f"{name}-config.json"
    config.write_text(json.dumps(job.config))
    out = tmp_path / f"{name}-out"
    assert cli.run([job.command, str(config), "--output", str(out)]) in (0, 1)
    return out


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    unit = first_unit("sweep", "graph_quadratic")
    out = run_job(unit.jobs[0], tmp_path_factory.mktemp("sweep"), "verify")
    return unit.kind, json.loads(out.read_text())


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    unit = first_unit("flow_newton", "graph_quadratic")
    tmp = tmp_path_factory.mktemp("flow")
    traces = [checks.read_trace(run_job(job, tmp, f"flow{k}")) for k, job in enumerate(unit.jobs)]
    return [job.config for job in unit.jobs], traces


def entry(doc: dict, base: str) -> dict:
    return next(c for c in doc["checks"] if c["name"].split("[", 1)[0] == base)


def test_untampered_report_passes(report):
    kind, doc = report
    assert checks.check_report(kind, doc, workloads.SWEEP_SAMPLES) == []


@pytest.mark.parametrize("base", ["minmax", "identity_halfsum"])
def test_flipped_verdict_fails(report, base):
    kind, doc = report
    doc = copy.deepcopy(doc)
    c = entry(doc, base)
    c["passed"] = not c["passed"]
    assert checks.check_report(kind, doc, workloads.SWEEP_SAMPLES)


def test_perturbed_witness_fails(report):
    kind, doc = report
    doc = copy.deepcopy(doc)
    witness = entry(doc, "identity_halfsum")["witness"]  # a nonzero violation
    witness["f"] = [1.5 * x for x in witness["f"]]
    problems = checks.check_report(kind, doc, workloads.SWEEP_SAMPLES)
    assert any("replay" in p for p in problems)


def test_fewer_samples_than_configured_fail(report):
    kind, doc = report
    assert checks.check_report(kind, doc, workloads.SWEEP_SAMPLES + 1)


def test_untampered_pair_passes(pair):
    (cfg_f, cfg_g), (tr_f, tr_g) = pair
    assert checks.check_pair(cfg_f, tr_f, cfg_g, tr_g) == []


def test_swapped_pair_fails(pair):
    (cfg_f, cfg_g), (tr_f, tr_g) = pair
    problems = checks.check_pair(cfg_g, tr_g, cfg_f, tr_f)
    assert any("order margin" in p for p in problems)


def test_rising_energy_fails(pair):
    (cfg_f, _), (tr_f, _) = pair
    energies = tr_f.energies.copy()
    energies[-1] = energies[0] + 1.0
    assert checks.check_trace(cfg_f, checks.Trace(energies, tr_f.states))


def test_units_depend_only_on_the_seed():
    def head(seed):
        stream = workloads.iter_units("flow_admm", seed)
        return [json.dumps(next(stream).jobs[0].config) for _ in range(6)]

    assert head(3) == head(3)
    assert head(3) != head(4)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench("--workload", "sweep", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}
    if trace == "1":  # calls through names bound by `from .x import y` are seen
        value = {name: m["value"] for name, m in result["metrics"].items()}
        assert value["verifier.samples"] > 0 and value["contraction.compose.calls"] > 0
        assert value["samplers.draws"] > 0 and value["flow.steps"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

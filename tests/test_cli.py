import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nbdirichlet import cli
from nbdirichlet.cli import canonical_json, run
from nbdirichlet.verifier import replay

ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GRAPH_CONFIG = {
    "seed": 0,
    "forms": [
        {
            "kind": "graph_quadratic",
            "nodes": 5,
            "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [3, 4, 1.0]],
        }
    ],
    "suite": {"n_samples": 60},
}


def test_canonical_json_is_sorted_and_fixed_precision():
    doc = {"b": 1.0 / 3.0, "a": [True, None, 2]}
    s = canonical_json(doc)
    assert s == '{"a":[true,null,2],"b":0.33333333333333331}'
    odd = canonical_json([float("nan"), float("inf"), -float("inf")])
    assert odd == "[NaN,Infinity,-Infinity]"
    assert np.isnan(json.loads(odd)[0]) and json.loads(odd)[1:] == [np.inf, -np.inf]


def _reference_canonical(obj, memo: dict) -> str:
    """canonical_json before its fast paths for str keys and float lists."""
    if type(obj) is float:
        return format(obj, ".17g") if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, (dict, list, tuple)):
        text = memo.get(id(obj))
        if text is None:
            if isinstance(obj, dict):
                items = sorted(obj.items())
                inner = ",".join(f"{json.dumps(k)}:{_reference_canonical(v, memo)}" for k, v in items)
                text = "{" + inner + "}"
            else:
                text = "[" + ",".join(_reference_canonical(v, memo) for v in obj) + "]"
            memo[id(obj)] = text
        return text
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if math.isfinite(obj) else json.dumps(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def test_canonical_json_equals_its_reference_encoder():
    shared = [0.5, -0.0, 1e-300]
    field = np.random.default_rng(0).uniform(-3, 3, 20).tolist()
    docs = [
        [], [[]], {}, [1.0, 2.0], [-0.0, 0.0], [5e-324, 1.7976931348623157e308, -1e-7, 1e21],
        [1.0, float("nan")], [float("inf"), 2.0], [-float("inf")], [1.0, 2, 3.0], [1.0, True],
        [1.0, None], [np.float64(1.5), 2.0], [2.0, np.float32(0.1)], (1.0, 2.0), (float("nan"),),
        [np.int64(3), np.float64("nan"), np.float64("-inf")], [1.0, [2.0, 3.0]], field,
        {"a": shared, "b": shared, "c": {"a": shared, "x": [shared, shared]}},
        {"é\n\"": 1.0, "a": [1.0, -0.0], 'q"': "s\u2028"},
        {1: "int", 2.5: "float", False: "bool"}, {"1": "str", "2.5": 1.0},
        {"checks": [{"name": "a", "witness": {"f": field, "g": [x for x in field]}}] * 3},
    ]
    for doc in docs:
        assert canonical_json(doc) == _reference_canonical(doc, {}), doc
    # 1, 1.0 and True are one dict key with three texts
    for key in (1, 1.0, True):
        assert canonical_json([{key: 0}, {"1": 0}]) == _reference_canonical([{key: 0}, {"1": 0}], {})


def test_run_builds_its_parser_once_and_dispatches_at_call_time(tmp_path, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        path = write_config(tmp_path, "c.json", GRAPH_CONFIG)
        out = str(tmp_path / "r.json")
        assert run(["verify", path, "--output", out]) == 1
        calls = []
        monkeypatch.setattr(cli, "_cmd_verify", lambda args: calls.append(args.config) or 7)
        assert run(["verify", path, "--output", out]) == 7
        assert calls == [path] and built == [1]
    finally:
        cli._parser.cache_clear()


def test_decompose_command(capsys):
    assert run(["decompose", "--breakpoints", "-1,0,2"]) == 0
    out = capsys.readouterr().out
    assert "factor 0: [-1, 0]" in out
    assert "residual: [2]" in out


def test_decompose_command_at_large_magnitudes(capsys):
    # the factorisation is exact past 2**53 too, so the command prints it
    assert run(["decompose", "--breakpoints", "-1e300,-5e299,1e300"]) == 0
    out = capsys.readouterr().out
    assert "factor 0: [-1.0000000000000001e+300, -5.0000000000000003e+299]" in out
    assert "residual: [1.0000000000000001e+300]" in out


def test_commands_without_admm_run_without_scipy(tmp_path):
    # scipy is imported by the ADMM solver only: decompose, envelope and
    # verify do not load it, and print and write the same with it blocked
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps([[-1.0, -1.0], [0.0, 0.0], [2.0, -1.5]]))
    commands = [
        ["decompose", "--breakpoints", "-1,0,2"],
        ["envelope", "--samples", str(samples), "--radius", "1.0"],
        ["verify", str(ROOT / "configs" / "graph_quadratic.json"), "--output", "{out}"],
    ]
    script = (
        "import sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from nbdirichlet.cli import run\n"
        "code = run(sys.argv[2:])\n"
        "assert sys.modules.get('scipy') is None, 'scipy was imported'\n"
        "sys.exit(code)\n"
    )
    for argv in commands:
        seen = []
        for side in ("free", "blocked"):
            out = tmp_path / f"{side}.json"
            proc = subprocess.run(
                [sys.executable, "-c", script, side, *(a.format(out=out) for a in argv)],
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                capture_output=True, text=True, timeout=120,
            )
            assert not proc.stderr, proc.stderr
            report = out.read_bytes() if out.exists() else None
            seen.append((proc.returncode, proc.stdout.replace(str(out), "OUT"), report))
        assert seen[0] == seen[1], argv
        assert seen[0][0] in (0, 1)


def test_decompose_rejects_bad_input(capsys):
    assert run(["decompose", "--breakpoints", "2,1"]) == 2
    assert run(["decompose", "--breakpoints", "a,b"]) == 2


def test_envelope_command(tmp_path, capsys):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps([[-1.0, -1.0], [0.0, 0.0], [1.0, -1.0]]))
    assert run(["envelope", "--samples", str(samples), "--radius", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "breakpoints: [-1, 0, 1]" in out
    assert "value_at_0: 0" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[0.0, 0.0], [1.0, 9.0]]))
    assert run(["envelope", "--samples", str(bad), "--radius", "1.0"]) == 2
    for sample in ([math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0]):
        bad.write_text(json.dumps([[0.0, 0.0], sample]))  # NaN and Infinity literals
        assert run(["envelope", "--samples", str(bad), "--radius", "2.0"]) == 2


def test_demo_counterexample(tmp_path, capsys):
    out = tmp_path / "ce.json"
    code = run(["demo", "counterexample", "--output", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["version"] == 2
    (check,) = doc["checks"]
    assert check["name"] == "counterexample_max_positive_part"
    assert check["passed"] is False
    assert check["witness"]["energy_f"] == 0.0
    assert check["witness"]["energy_neg_f"] == 1.0
    printed = capsys.readouterr().out
    assert "E(f) = 0" in printed and "E(-f) = 1" in printed


def test_verify_report_schema_and_exit_code(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", GRAPH_CONFIG)
    out = tmp_path / "report.json"
    code = run(["verify", cfg, "--output", str(out)])
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "seed", "checks"}
    for entry in doc["checks"]:
        assert set(entry) == {"name", "passed", "worst_violation", "n_tested", "witness"}
    failing = [c["name"] for c in doc["checks"] if not c["passed"]]
    # exit code is 1 iff the report contains at least one failed check;
    # identity_halfsum fails by algebra, so a full run exits 1
    assert code == (1 if failing else 0)
    assert failing == ["identity_halfsum"]
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["symmetry[graph_quadratic#0]"]["passed"] is True
    assert "proof_fold2_straddle_clamp_split[graph_quadratic#0]" in by_name  # symmetric: proof chain ran


def test_verify_asymmetric_form_skips_proof_chain(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "seed": 1,
            "forms": [
                {
                    "kind": "local_grid_1d",
                    "nodes": 11,
                    "h": 0.1,
                    "integrand": {"name": "max_positive_part"},
                }
            ],
            "suite": {"n_samples": 60},
        },
    )
    out = tmp_path / "report.json"
    assert run(["verify", cfg, "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    names = [c["name"] for c in doc["checks"]]
    assert not any(n.startswith("proof_") for n in names)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["symmetry[local_grid_1d#0]"]["passed"] is False
    assert by_name["normal_contraction[local_grid_1d#0]"]["passed"] is False


def test_verify_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", GRAPH_CONFIG)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["verify", cfg, "--output", str(a)])
    run(["verify", cfg, "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_config_errors(tmp_path):
    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad)]) == 2
    assert run(["verify", write_config(tmp_path, "empty.json", {"forms": []})]) == 2
    assert (
        run(["verify", write_config(tmp_path, "badform.json", {"forms": [{"kind": "nope"}]})])
        == 2
    )
    assert (
        run(
            [
                "verify",
                write_config(
                    tmp_path, "badsuite.json", {**GRAPH_CONFIG, "suite": {"bogus": 1}}
                ),
            ]
        )
        == 2
    )


TWO_NODES = {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]}
ABS_GRID = {"kind": "local_grid_1d", "nodes": 5, "h": 0.25, "integrand": {"name": "abs_power", "p": 1}}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("verify", {"forms": [{"kind": "nonlocal_psi", "kernel": [1, 2]}]}),
        ("verify", {"forms": [{**TWO_NODES, "node_weights": [1, -1]}]}),
        ("flow", {"form": {**TWO_NODES, "node_weights": [1, -1]}}),
        ("flow", {"form": TWO_NODES, "initial": [float("nan"), 0.0]}),
        ("flow", {"form": TWO_NODES, "initial": 5}),
        # non-numeric or malformed descriptor values
        ("verify", {"forms": [{"kind": "local_grid_1d", "nodes": "abc", "h": 0.1}]}),
        ("verify", {"forms": [{"kind": "nonlocal_psi", "kernel": [[0, 1], [1, 0]],
                               "psi": {"name": "power", "p": "x"}}]}),
        ("verify", {"forms": [{**TWO_NODES, "edges": [[0, 1]]}]}),
        ("verify", {"forms": [{"kind": "nonlocal_psi", "kernel": [[0, 1], [1, 0]], "psi": 5}]}),
        ("verify", {"forms": [{"kind": "local_grid_1d", "nodes": 5, "h": 0.25, "integrand":
                               {"name": "finsler_weighted", "weights": ["a", "b", "c", "d"]}}]}),
        ("flow", {"form": {"kind": "local_grid_1d", "nodes": "abc", "h": 0.1}}),
        ("flow", {"form": {**TWO_NODES, "edges": [[0, 1]]}}),
        # a sample count must be an integer: not a float, not a bool
        ("verify", {**GRAPH_CONFIG, "suite": {"n_samples": 2.5}}),
        ("verify", {**GRAPH_CONFIG, "suite": {"n_samples": 1e9}}),
        ("verify", {**GRAPH_CONFIG, "suite": {"n_samples": True}}),
        ("flow", {"form": TWO_NODES, "flow": {"max_inner_iters": 0}}),
        # a section that is not a JSON object
        ("verify", {**GRAPH_CONFIG, "suite": 5}),
        ("verify", {**GRAPH_CONFIG, "forms": 5}),
        ("flow", {"form": TWO_NODES, "flow": 5}),
        # keys outside the section's schema
        ("verify", {**GRAPH_CONFIG, "suite": {"amplitude": -2}}),
        ("verify", {**GRAPH_CONFIG, "suite": {"n_samples": 60, "max_depth": 0}}),
        ("flow", {"form": TWO_NODES, "flow": {"nstep": 2}}),
        # a step count must be an integer
        ("flow", {"form": TWO_NODES, "flow": {"n_steps": 2.7}}),
        # so must the seed: not a float, a bool or a numeric string
        ("verify", {**GRAPH_CONFIG, "seed": 2.7}),
        ("flow", {"form": TWO_NODES, "seed": True}),
        ("verify", {**GRAPH_CONFIG, "seed": "3"}),
        # JSON Infinity is not a step, a tolerance or an exponent
        ("flow", {"form": ABS_GRID, "flow": {"tau": math.inf}}),
        ("flow", {"form": TWO_NODES, "flow": {"inner_tol": math.inf}}),
        ("verify", {"forms": [{"kind": "nonlocal_psi", "kernel": [[0, 1], [1, 0]],
                               "psi": {"name": "power", "p": math.inf}}]}),
        # descriptor integers follow the same rule, and node_weights fit nodes
        ("verify", {"forms": [{**ABS_GRID, "nodes": 10.9}]}),
        ("verify", {"forms": [{**ABS_GRID, "nodes": "7"}]}),
        ("verify", {"forms": [{**TWO_NODES, "edges": [[0.9, 1.2, 1.0]]}]}),
        ("verify", {"forms": [{"kind": "graph_quadratic", "nodes": True}]}),
        ("verify", {"forms": [{**TWO_NODES, "nodes": 5, "node_weights": [1.0, 2.0]}]}),
        # a bool or a string is not a number: no tau = 1.0 from true, no |z|
        # from "p": true, no edge weight 1.5 from "1.5"
        ("flow", {"form": TWO_NODES, "flow": {"tau": True}}),
        ("flow", {"form": TWO_NODES, "flow": {"tau": "0.5"}}),
        ("flow", {"form": TWO_NODES, "flow": {"inner_tol": True}}),
        ("flow", {"form": TWO_NODES, "flow": {"inner_tol": "1e-9"}}),
        ("verify", {"forms": [{**ABS_GRID, "h": True}]}),
        ("verify", {"forms": [{**ABS_GRID, "h": "0.25"}]}),
        ("verify", {"forms": [{**ABS_GRID, "integrand": {"name": "abs_power", "p": True}}]}),
        ("verify", {"forms": [{"kind": "nonlocal_psi", "kernel": [[0, 1], [1, 0]],
                               "psi": {"name": "power", "p": "2"}}]}),
        ("verify", {"forms": [{**TWO_NODES, "edges": [[0, 1, "1.5"]]}]}),
        ("verify", {"forms": [{**TWO_NODES, "edges": [[0, 1, True]]}]}),
    ],
)
def test_typed_config_errors_exit_2(tmp_path, command, doc):
    assert run([command, write_config(tmp_path, "cfg.json", doc)]) == 2


def test_negative_seed_exit_2(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {**GRAPH_CONFIG, "seed": -3})
    assert run(["verify", cfg, "--output", str(tmp_path / "report.json")]) == 2
    assert not (tmp_path / "report.json").exists()
    flow = write_config(tmp_path, "flow.json", {"seed": -3, "form": TWO_NODES})
    assert run(["flow", flow, "--output", str(tmp_path / "trace.csv")]) == 2


def test_flow_command_writes_trace(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "flow.json",
        {
            "seed": 0,
            "form": {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]},
            "initial": [1.0, 0.0],
            "flow": {"tau": 0.5, "n_steps": 2, "inner_tol": 1e-9},
        },
    )
    out = tmp_path / "trace.csv"
    assert run(["flow", cfg, "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,time,energy,residual,v0,v1"
    last = lines[-1].split(",")
    assert abs(float(last[4]) - 0.625) <= 1e-12
    assert abs(float(last[5]) - 0.375) <= 1e-12


def test_flow_that_does_not_converge_exits_1(tmp_path, capsys):
    # |v|^16 on a fine grid: the Newton Hessian is singular at the first step
    grid = {"kind": "local_grid_1d", "nodes": 50, "h": 1.0 / 49,
            "integrand": {"name": "abs_power", "p": 16}}
    cfg = write_config(tmp_path, "flow.json", {"seed": 0, "form": grid, "flow": {"tau": 1e-3}})
    out = tmp_path / "trace.csv"
    assert run(["flow", cfg, "--output", str(out)]) == 1
    assert "error: flow stopped: step 0: Newton prox" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_whose_energy_overflows_exits_1(tmp_path, capsys):
    # each term 4 * 6^395 of E(u0) is finite and their sum is +inf
    kernel = {"kind": "nonlocal_psi", "kernel": [[0, 4, 4], [4, 0, 4], [4, 4, 0]],
              "psi": {"name": "power", "p": 395}}
    cfg = write_config(tmp_path, "flow.json", {"form": kernel, "initial": [0, 6, 0]})
    out = tmp_path / "trace.csv"
    assert run(["flow", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: flow stopped: step 0: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_whose_energy_overflows_exits_1(tmp_path, capsys):
    # |v|^2000 is past the largest float for |v| > 1.5: a non-finite
    # violation is red, and its witness replays to it
    kernel = {"kind": "nonlocal_psi", "kernel": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
              "psi": {"name": "power", "p": 2000}}
    cfg = write_config(tmp_path, "verify.json", {"forms": [kernel], "suite": {"n_samples": 40}})
    out = tmp_path / "report.json"
    assert run(["verify", cfg, "--output", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    checks = json.loads(out.read_text())["checks"]
    assert not all(math.isfinite(c["worst_violation"]) for c in checks)
    for c in checks:
        got, want = replay(c["witness"]), c["worst_violation"]
        assert got == want or math.isnan(got) and math.isnan(want), c["name"]


def test_flow_whose_admm_factor_is_singular_exits_1(tmp_path, capsys):
    # rho * D^T D swamps diag(m / tau), so splu finds the factor exactly singular
    kernel = {"kind": "nonlocal_psi", "kernel": [[0, 1e155, 1e155], [1e155, 0, 1e155], [1e155, 1e155, 0]],
              "psi": {"name": "power", "p": 1}}
    cfg = write_config(tmp_path, "flow.json", {"form": kernel, "initial": [1, -1, 0.5],
                                               "flow": {"tau": 1.0, "n_steps": 2}})
    out = tmp_path / "trace.csv"
    assert run(["flow", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: flow stopped: step 0: ADMM prox: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_with_a_nonfinite_state_exits_1(tmp_path, capsys):
    # the differences overflow, so the chain prox returns a non-finite state
    grid = {"kind": "local_grid_1d", "nodes": 3, "h": 1.0,
            "integrand": {"name": "max_positive_part"}}
    cfg = write_config(tmp_path, "flow.json", {"form": grid, "initial": [1.7e308, -1.7e308, 0.0]})
    out = tmp_path / "trace.csv"
    assert run(["flow", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: flow stopped: step 0: " in err and "Traceback" not in err
    assert not out.exists()


def test_flow_command_initial_size_mismatch(tmp_path):
    cfg = write_config(
        tmp_path,
        "flow.json",
        {
            "form": {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]},
            "initial": [1.0, 0.0, 3.0],
        },
    )
    assert run(["flow", cfg]) == 2


@pytest.mark.parametrize(
    "initial",
    [
        ["1", True, "-0.5"],  # numpy reads this as [1, 1, -0.5]
        [1.0, True, -0.5],
        [1.0, None, -0.5],
        [1.0, 10**400, -0.5],  # an integer past the largest float
    ],
)
def test_flow_initial_must_be_finite_numbers(tmp_path, capsys, initial):
    form = {"kind": "graph_quadratic", "nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}
    cfg = write_config(tmp_path, "flow.json", {"form": form, "initial": initial})
    out = tmp_path / "trace.csv"
    assert run(["flow", cfg, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial datum: ") and "Traceback" not in err
    assert not out.exists()


FLOW_CONFIG = {
    "form": {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]},
    "initial": [1.0, 0.0],
    "flow": {"tau": 0.5, "n_steps": 2},
}


@pytest.mark.parametrize("output", [None, [], 7, True])
@pytest.mark.parametrize("command", ["verify", "flow"])
def test_output_that_is_not_a_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                           command, output):
    # 7 would be a file descriptor to open() and True fd 1, which it closes
    def no_work(*args, **kwargs):
        raise AssertionError("the run started before its output was checked")

    monkeypatch.setattr(cli, "verify_form", no_work)
    monkeypatch.setattr(cli, "evolve", no_work)
    doc = (GRAPH_CONFIG if command == "verify" else FLOW_CONFIG) | {"output": output}
    assert run([command, write_config(tmp_path, "cfg.json", doc)]) == 2
    assert "error: 'output' must be a path string" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
@pytest.mark.parametrize("command", ["verify", "flow", "demo"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, where):
    dest = str(tmp_path / "missing" / "out.json" if where == "missing_dir" else tmp_path)
    if command == "demo":
        argv = ["demo", "counterexample"]
    else:
        doc = GRAPH_CONFIG if command == "verify" else FLOW_CONFIG
        argv = [command, write_config(tmp_path, "cfg.json", doc)]
    assert run(argv + ["--output", dest]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {dest}: " in err and "Traceback" not in err


def test_usage_error_exit_code():
    assert run([]) == 2
    assert run(["demo", "unknown-demo"]) == 2

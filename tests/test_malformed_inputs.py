"""Malformed input fails with a typed error, whatever leaf is wrong.

One to three leaves of a catalog descriptor, of a verify or flow config, or
of a witness are replaced by values of the wrong type or out of range. The
CLI returns 0, 1 or 2 and never raises, and says ``error:`` when it returns
2; ``make_form`` raises only its typed errors; ``replay`` returns a float or
raises ValueError. An entry of an array from outside that is a bool, a
numeric string or None is never read as a number: the CLI returns 2 and
``replay`` raises ValueError. The library's entries read their run
parameters (tau, a step's tolerance and budget, a seed, the twist weights)
by the config types' rules and raise ValueError before any solve or draw.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbdirichlet import flow
from nbdirichlet.catalog import instance_catalog
from nbdirichlet.cli import canonical_json, run
from nbdirichlet.errors import BadSpec, BadWeight, EmptySpace
from nbdirichlet.forms import make_form
from nbdirichlet.lattice_ops import twist_residuals
from nbdirichlet.measure import make_field
from nbdirichlet.samplers import SuiteConfig, check_rng
from nbdirichlet.verifier import check_identities, counterexample_demo, replay, verify_form

BAD_LEAVES = [
    None, True, False, "", "x", "1.5", [], {}, [[1.0]], [[], [0]], 0, -1, -2.5,
    math.nan, math.inf, -math.inf, 1e308,
]

_CATALOG = instance_catalog(0)
# small sizes: a mutation can only lower them or make them invalid
_DESCRIPTORS = [_CATALOG[k] for k in ("graph_quadratic_20", "nonlocal_abs", "grid_abs_p4",
                                      "grid_finsler", "grid_max_positive_part")]


def _witnesses() -> list:
    cfg = SuiteConfig(n_samples=3)
    form = make_form({"kind": "local_grid_1d", "nodes": 4, "h": 0.5,
                      "integrand": {"name": "abs_power", "p": 2}})
    results = {r.name: r for r in verify_form(form, cfg) + check_identities(cfg)}
    names = ("minmax", "clamp", "normal_contraction", "proof_fold1_conclusion",
             "proof_fold2_straddle_clamp_split", "identity_twist")
    return [counterexample_demo().witness] + [results[k].witness for k in names]


_WITNESSES = _witnesses()


def _targets() -> list:
    targets = [("make_form", d) for d in _DESCRIPTORS]
    targets += [("verify", {"seed": 1, "forms": [d], "suite": {"n_samples": 3}})
                for d in _DESCRIPTORS]
    targets += [
        ("flow", {"seed": 2, "form": d,
                  "flow": {"tau": 0.05, "n_steps": 2, "inner_tol": 1e-9, "max_inner_iters": 2000}})
        for d in _DESCRIPTORS
    ]
    targets.append(("flow", {"form": {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]},
                             "initial": [1.0, 0.0], "flow": {"tau": 0.5, "n_steps": 2}}))
    return targets + [("replay", w) for w in _WITNESSES]


def _leaves(doc, path=()):
    """The paths of every leaf of a JSON document: its scalars and its empty
    containers."""
    items = list(doc.items() if isinstance(doc, dict) else enumerate(doc)
                 if isinstance(doc, list) else ())
    if not items:
        yield path
    for k, v in items:
        yield from _leaves(v, (*path, k))


def _mutated(doc, paths, values):
    doc = copy.deepcopy(doc)
    for path, value in zip(paths, values):
        *head, last = path
        parent = doc
        for k in head:
            parent = parent[k]
        parent[last] = copy.deepcopy(value)
    return doc


@st.composite
def _cases(draw):
    what, doc = draw(st.sampled_from(_targets()))
    paths = draw(st.lists(st.sampled_from(list(_leaves(doc))), min_size=1, max_size=3,
                          unique=True))
    values = draw(st.lists(st.sampled_from(BAD_LEAVES), min_size=len(paths),
                           max_size=len(paths)))
    return what, _mutated(doc, paths, values)


def _check(what, doc):
    if what == "make_form":
        try:
            make_form(doc)
        except (BadSpec, BadWeight, EmptySpace):
            pass
    elif what == "replay":
        try:
            assert isinstance(replay(doc), float)
        except ValueError:
            pass
    else:
        with tempfile.TemporaryDirectory() as tmp:
            config = pathlib.Path(tmp, "config.json")
            config.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([what, str(config), "--output", str(pathlib.Path(tmp, "out"))])
            assert code in (0, 1, 2)
            if code == 2:
                assert "error:" in err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_cases())
# a form kind or a witness's check that is not a string, which is unhashable
@example(("verify", {"forms": [{"kind": [], "nodes": 3, "h": 0.1}]}))
@example(("flow", {"form": {"kind": {}, "nodes": 3, "h": 0.1}}))
@example(("replay", {**_WITNESSES[1], "check": ["minmax"]}))
@example(("replay", {**_WITNESSES[1], "check": {}}))
# a space weight that numpy cannot read as a float
@example(("replay", {**_WITNESSES[-1], "weights": [{}, *_WITNESSES[-1]["weights"][1:]]}))
def test_malformed_leaves_fail_with_typed_errors(case):
    _check(*case)


# every array that a config, a witness or a samples file brings in, as
# (what, document, path of the array): node weights, a kernel row, Finsler
# weights, a flow's initial datum, an identity witness's space weights and
# envelope samples
_ARRAYS = [
    ("flow", {"form": {"kind": "graph_quadratic", "nodes": 2, "node_weights": [1.0, 2.0],
                       "edges": [[0, 1, 1.0]]},
              "initial": [1.0, 0.0], "flow": {"tau": 0.5, "n_steps": 2}}, ("form", "node_weights")),
    ("flow", {"form": {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]},
              "initial": [1.0, 0.0], "flow": {"tau": 0.5, "n_steps": 2}}, ("initial",)),
    ("verify", {"seed": 1, "forms": [_CATALOG["nonlocal_abs"]], "suite": {"n_samples": 3}},
     ("forms", 0, "kernel", 3)),
    ("verify", {"seed": 1, "forms": [_CATALOG["grid_finsler"]], "suite": {"n_samples": 3}},
     ("forms", 0, "integrand", "weights")),
    ("replay", _WITNESSES[-1], ("weights",)),
    ("envelope", [[-1, -0.5], [0, 0], [1.5, 1]], (1,)),
]


@st.composite
def _bad_entries(draw):
    what, doc, path = draw(st.sampled_from(_ARRAYS))
    array = doc
    for k in path:
        array = array[k]
    index = draw(st.integers(min_value=0, max_value=len(array) - 1))
    bad = draw(st.sampled_from([True, False, "1.5", "0", None]))
    return what, _mutated(doc, [(*path, index)], [bad])


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_bad_entries())
def test_array_entries_from_outside_are_numbers(case):
    what, doc = case
    if what == "replay":
        with pytest.raises(ValueError):
            replay(doc)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp, "input.json"))
        pathlib.Path(path).write_text(json.dumps(doc))
        out = str(pathlib.Path(tmp, "out"))
        argv = (["envelope", "--samples", path, "--radius", "2"] if what == "envelope"
                else [what, path, "--output", out])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert run(argv) == 2
        assert err.getvalue().startswith("error:")
        assert not pathlib.Path(out).exists()


def _two_nodes():
    form = make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]})
    return form, make_field(form.space, [1.0, 0.0])


_ONES = np.ones((1, 3))
# (entry, bad value, the message of the config type's rule)
_RUN_PARAMETERS = [
    *[(entry, bad, "tau must be a real number")
      for entry in ("prox_step", "prox_certificate", "exact_graph_resolvent")
      for bad in (True, "0.1", None)],
    *[("max_inner_iters", bad, "max_inner_iters must be an integer") for bad in (2.5, True)],
    ("inner_tol", -1.0, "inner_tol must be positive"),
    ("inner_tol", math.nan, "inner_tol must be finite"),
    ("inner_tol", "1e-9", "inner_tol must be a real number"),
    *[(entry, bad, "seed must be an integer")
      for entry in ("SuiteConfig", "check_rng") for bad in (2.5, True, "3")],
    *[(entry, -1, "seed must be at least 0") for entry in ("SuiteConfig", "check_rng")],
    *[(entry, bad, r"t and s must lie in \[0, 1\]") for entry in ("t", "s") for bad in (True, "0.5")],
]


@pytest.mark.parametrize("entry, bad, message", _RUN_PARAMETERS)
def test_run_parameters_follow_the_config_rules(monkeypatch, entry, bad, message):
    # each entry reads tau, the step's tolerance and budget, the seed and the
    # twist weights by the config types' rules, before any solve or draw
    def reached(*args, **kwargs):
        raise AssertionError(f"{entry} solved or drew with {bad!r}")

    for target, name in ((flow, "_certified_step"), (flow, "_gradient"),
                         (np.linalg, "solve"), (np.random, "default_rng")):
        monkeypatch.setattr(target, name, reached)
    form, u = _two_nodes()
    call = {
        "prox_step": lambda: flow.prox_step(form, u, bad),
        "prox_certificate": lambda: flow.prox_certificate(form, u, u, bad),
        "exact_graph_resolvent": lambda: flow.exact_graph_resolvent(form, u, bad),
        "max_inner_iters": lambda: flow.prox_step(form, u, 0.5, max_inner_iters=bad),
        "inner_tol": lambda: flow.prox_step(form, u, 0.5, inner_tol=bad),
        "SuiteConfig": lambda: SuiteConfig(n_samples=3, seed=bad),
        "check_rng": lambda: check_rng(bad, "symmetry"),
        "t": lambda: twist_residuals(_ONES, -_ONES, 0.5, bad, 0.0),
        "s": lambda: twist_residuals(_ONES, -_ONES, 0.5, 0.0, bad),
    }[entry]
    with pytest.raises(ValueError, match=message):
        call()


def test_a_numpy_integer_seed_gives_the_reports_of_the_int():
    form = make_form(_DESCRIPTORS[1])
    reports = [[r.report_entry() for r in verify_form(form, SuiteConfig(n_samples=5, seed=seed))]
               for seed in (7, np.int64(7), np.uint8(7))]
    assert canonical_json(reports[1]) == canonical_json(reports[0])
    assert canonical_json(reports[2]) == canonical_json(reports[0])

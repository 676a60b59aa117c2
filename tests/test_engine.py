"""The batched sweep engine: a check's kernel gives every row of a batch the
bits it gives that row alone, so neither the chunking of a sweep nor the
one-row batch of ``replay`` can show in a report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbdirichlet import verifier
from nbdirichlet.catalog import instance_catalog
from nbdirichlet.contraction import (
    PLFunction,
    alternating_table,
    compose,
    family_table,
    folded_table,
    make_phi,
    pl_eval,
    pl_table,
)
from nbdirichlet.forms import make_form
from nbdirichlet.measure import MeasureSpace
from nbdirichlet.samplers import SuiteConfig, check_rng, sample_values
from nbdirichlet.verifier import CHECKS, _violations, replay

FORM_CHECKS = [c for c in CHECKS if c.group != "identity"]
IDENTITY_CHECKS = [c for c in CHECKS if c.group == "identity"]
POS_PART = PLFunction((0.0,), (0.0, 1.0), 0.0)


def bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def draw(check, space, cfg, n):
    rng = check_rng(cfg.seed, check.name)
    return [check.sample(rng, space.n, idx) for idx in range(n)]


def assert_rows_match(check, target, samples):
    batch = _violations(check, target, samples)
    rows = np.concatenate([_violations(check, target, [p]) for p in samples])
    assert batch.shape == (len(samples),)
    assert bits(batch) == bits(rows), check.name


CATALOG = instance_catalog(0)


@pytest.mark.parametrize("label", sorted(CATALOG))
def test_batch_equals_rows_on_every_catalog_form(label):
    form = make_form(CATALOG[label])
    cfg = SuiteConfig(n_samples=12, seed=5)
    for check in FORM_CHECKS:
        assert_rows_match(check, form, draw(check, form.space, cfg, 12))


@pytest.mark.parametrize("weights", [np.ones(7), np.linspace(0.5, 2.0, 20)])
def test_batch_equals_rows_on_identities(weights):
    space = MeasureSpace(weights)
    cfg = SuiteConfig(n_samples=12, seed=5)
    for check in IDENTITY_CHECKS:
        assert_rows_match(check, space, draw(check, space, cfg, 12))


@pytest.mark.parametrize("label", ["nonlocal_z4", "grid_abs_p2", "grid_max_positive_part"])
def test_chunking_does_not_show(monkeypatch, label):
    form = make_form(CATALOG[label])
    cfg = SuiteConfig(n_samples=45, seed=2)
    whole = [verifier._sweep(c, form, cfg) for c in FORM_CHECKS]
    ids = [verifier._sweep(c, form.space, cfg) for c in IDENTITY_CHECKS]
    # 7 and 11 rows a chunk: the last chunk is partial, the witness may sit in any
    for rows in (7, 11):
        width = max(form.space.n, form.n_terms)
        monkeypatch.setattr(verifier, "_CHUNK_VALUES", rows * width)
        assert [verifier._sweep(c, form, cfg) for c in FORM_CHECKS] == whole
        monkeypatch.setattr(verifier, "_CHUNK_VALUES", rows * form.space.n)
        assert [verifier._sweep(c, form.space, cfg) for c in IDENTITY_CHECKS] == ids
    for r in whole + ids:
        assert replay(r.witness) == r.worst_violation, r.name


def test_chunked_non_finite_witness_is_the_first(monkeypatch):
    form = make_form(
        {"kind": "nonlocal_psi", "kernel": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
         "psi": {"name": "power", "p": 2000}}
    )
    cfg = SuiteConfig(n_samples=30, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = verifier._sweep(CHECKS[0], form, cfg)
        monkeypatch.setattr(verifier, "_CHUNK_VALUES", 4 * form.n_terms)
        chunked = verifier._sweep(CHECKS[0], form, cfg)
        violations = _violations(CHECKS[0], form, draw(CHECKS[0], form.space, cfg, 30))
    first = int(np.flatnonzero(~np.isfinite(violations))[0])
    assert bits([chunked.worst_violation]) == bits([whole.worst_violation]) == bits([violations[first]])
    assert chunked.witness == whole.witness and not whole.passed


# -- extremes -----------------------------------------------------------------


def test_form_without_terms():
    form = make_form({"kind": "graph_quadratic", "nodes": 1, "edges": []})
    assert form.n_terms == 0
    cfg = SuiteConfig(n_samples=9, seed=1)
    for check in FORM_CHECKS:
        samples = draw(check, form.space, cfg, 9)
        assert_rows_match(check, form, samples)
        assert bits(_violations(check, form, samples)) == bits(np.zeros(9)), check.name
    results = verifier.verify_form(form, cfg)
    assert all(r.passed for r in results)
    assert len(results) == len(FORM_CHECKS)
    for r in results + verifier.check_identities(cfg, form.space):
        assert replay(r.witness) == r.worst_violation, r.name


fields = st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(fields, fields, st.sampled_from([0.0, 0.0, 1e-3, 0.7])),
                min_size=1, max_size=5))
def test_alpha_zero_rows(rows):
    form = make_form(CATALOG["grid_abs_p1"] | {"nodes": 4})
    space = form.space
    samples = [
        {"f": np.array(f), "g": np.array(g), "alpha": a, "t": 0.25, "s": 0.5} for f, g, a in rows
    ]
    for check in CHECKS:
        if "alpha" not in check.keys:
            continue
        target = space if check.group == "identity" else form
        picked = [{k: p[k] for k in check.keys} for p in samples]
        assert_rows_match(check, target, picked)
    # at alpha = 0 the clamp sends each field onto the other
    zero = [p for p in samples if p["alpha"] == 0.0]
    if zero:
        mid = _violations(verifier._BY_NAME["identity_midpoint"], space,
                          [{k: p[k] for k in ("f", "g", "alpha")} for p in zero])
        assert np.all(mid <= 1e-12)


weights = st.floats(1e-12, 1e12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.data())
def test_extreme_weights(n, data):
    node_weights = data.draw(st.lists(weights, min_size=n, max_size=n))
    edges = [
        [i, j, data.draw(weights)] for i in range(n) for j in range(i + 1, n)
        if data.draw(st.booleans())
    ]
    form = make_form(
        {"kind": "graph_quadratic", "nodes": n, "node_weights": node_weights, "edges": edges}
    )
    cfg = SuiteConfig(n_samples=5, seed=data.draw(st.integers(0, 2**40)))
    for check in FORM_CHECKS:
        assert_rows_match(check, form, draw(check, form.space, cfg, 5))
    for check in IDENTITY_CHECKS:
        assert_rows_match(check, form.space, draw(check, form.space, cfg, 5))
    for r in verifier.check_criteria(form, cfg):
        assert replay(r.witness) == r.worst_violation, r.name


# -- closed-form contraction tables -------------------------------------------


def table_rows(t):
    """Per row: breakpoints, slopes, relative values, rel0, anchor, as bits."""
    return [
        (bits(t.bps[r, :t.nb[r]]), bits(t.slopes[r, :t.nb[r] + 1]), bits(t.rel[r, :t.nb[r]]),
         bits([t.rel0[r]]), bits([t.anchor[r]]))
        for r in range(t.bps.shape[0])
    ]


X = [0.0, 1e-13, 5e-12, 0.05, 1.0, 2.5, 5.999]
X1X2 = [
    (0.0, 0.05), (0.0, 3.0), (0.0, 1e-13),  # the x1 = 0 branch
    (1.0, 1.05), (1.0, np.nextafter(1.0, 2.0)), (1.0, 1.0 + 1e-13), (2.0, 2.0 + 5e-12),  # x2 just above x1
    (1e-13, 2.0), (1e-13, 1.5e-13), (0.3, 4.0),
]


def test_fold1_tables_equal_make_phi_and_compose():
    kinks = np.array(X)[:, None]
    assert table_rows(alternating_table(kinks)) == table_rows(pl_table([make_phi([x]) for x in X]))
    want = [compose(make_phi([x]), POS_PART) for x in X]
    assert table_rows(folded_table(kinks)) == table_rows(pl_table(want))
    # x = 0: the flat piece has slope -0.0
    assert bits(want[0].slopes) == bits([-0.0, -1.0])


def test_fold2_tables_equal_make_phi_and_compose():
    kinks = np.array(X1X2)
    assert table_rows(alternating_table(kinks)) == table_rows(
        pl_table([make_phi(list(k)) for k in X1X2]))
    assert table_rows(folded_table(kinks)) == table_rows(
        pl_table([compose(make_phi(list(k)), POS_PART) for k in X1X2]))
    for slopes in ((0.0, -1.0, 1.0), (1.0, -1.0, 0.0)):
        assert table_rows(family_table(kinks, slopes)) == table_rows(
            pl_table([PLFunction(k, slopes, 0.0) for k in X1X2]))
    straddle = np.array([[-0.5, 0.5], [-3.0, 0.05], [-1e-13, 1e-13]])
    assert table_rows(alternating_table(straddle)) == table_rows(
        pl_table([make_phi(list(k)) for k in straddle]))


def test_table_evaluation_equals_plfunction_call():
    rng = np.random.default_rng(4)
    phis = [compose(make_phi(list(k)), POS_PART) for k in X1X2] + [make_phi([]), make_phi([-1.0])]
    x = np.concatenate([rng.uniform(-4, 4, (len(phis), 9)), np.zeros((len(phis), 2))], axis=1)
    x[:, -1] = -0.0
    got = pl_eval(pl_table(phis), x)
    assert bits(got) == bits([phi(row) for phi, row in zip(phis, x)])


# -- sampler pins ----------------------------------------------------------------


@pytest.mark.parametrize(
    "seed, first, second",
    [
        # uniform, then uniform
        (0, [-1.3812797174167781, -2.7541588563828316, -2.9008341868288254,
             1.879621435201635, 2.47653346366633],
         [1.3769793659039902, 0.261749948792537, 2.610434542726609,
          1.8951213247291925, -2.9835689989791114]),
        # a step, then uniform
        (2, [-1.2090531395152602, -1.2090531395152602, 1.8853544435656815,
             1.8853544435656815, 1.8853544435656815],
         [1.371363160870768, -1.8725935598003793, -2.669120236001591,
          -1.3501837925637714, 0.9445980892535557]),
        # a reversed ramp, then a ramp
        (3, [1.8076467912383816, 0.4929722163862067, -0.401238358581157,
             -1.5791369604234018, -2.4352281465576047],
         [-2.3179678804715795, -0.6526308570260277, -0.4162318775149334,
          0.10044109572818183, 1.4074629084552868]),
    ],
)
def test_sample_field_first_draws(seed, first, second):
    rng = np.random.default_rng(seed)
    assert sample_values(rng, 5).tolist() == first
    assert sample_values(rng, 5).tolist() == second

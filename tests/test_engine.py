"""The batched sweep engine: a check's kernel gives every row of a batch the
bits it gives that row alone, so neither the chunking of a sweep nor the
one-row batch of ``replay`` can show in a report."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbdirichlet import samplers, verifier
from nbdirichlet.catalog import instance_catalog
from nbdirichlet.contraction import (
    PLFunction,
    PLTable,
    closed_form_table,
    compose,
    make_phi,
    negate,
    pl_eval,
    pl_table,
)
from nbdirichlet.forms import make_form
from nbdirichlet.measure import MeasureSpace
from nbdirichlet.samplers import SuiteConfig, check_rng
from nbdirichlet.verifier import CHECKS, _violations, replay

FORM_CHECKS = [c for c in CHECKS if c.group != "identity"]
IDENTITY_CHECKS = [c for c in CHECKS if c.group == "identity"]
POS_PART = PLFunction((0.0,), (0.0, 1.0), 0.0)


def bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def columns(check, space, cfg, n):
    """The first n samples of the check's sweep, drawn for this check
    alone: its parameters by key, a row or an entry each. A check with a
    contraction draws all cfg.n_samples of them first, -id the first; then
    the check's own block of n rows is cut into its laws' columns, and each
    law is applied on its own."""
    rng = check_rng(cfg.seed, check.name)
    params = {}
    if "phi" in check.keys:
        params["phi"] = [samplers.sample_contraction(rng) for _ in range(cfg.n_samples)][:n]
        params["phi"][0] = tuple(negate(make_phi([])))
    words = rng.random((n, sum(law.width(space.n) for law in check.sample)))
    lo = 0
    for law in check.sample:
        hi = lo + law.width(space.n)
        params.update(zip(law.keys, law.draw(words[:, lo:hi], space.n, np.arange(n))))
        lo = hi
    return params


def draw(check, space, cfg, n):
    """The first n samples of the check's sweep, one dict each."""
    cols = columns(check, space, cfg, n)
    return [{k: v[i] for k, v in cols.items()} for i in range(n)]


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


GROUPS = ("criteria", "contraction", "proof")


@pytest.mark.parametrize("label", ["nonlocal_z4", "grid_abs_p2", "grid_max_positive_part"])
def test_chunking_does_not_show(monkeypatch, label):
    form = make_form(CATALOG[label])
    cfg = SuiteConfig(n_samples=45, seed=2)
    whole = [r for g in GROUPS for r in verifier._run(g, form, cfg)]
    ids = verifier._run("identity", form.space, cfg)
    # 7 and 11 rows a chunk in the largest group, more in the others: the
    # last chunk is partial, the witness may sit in any
    for rows in (7, 11):
        budget = rows * form.space.n * len(verifier.PROOF_NAMES)
        monkeypatch.setattr(verifier, "_CHUNK_VALUES", budget)
        assert [r for g in GROUPS for r in verifier._run(g, form, cfg)] == whole
        assert verifier._run("identity", form.space, cfg) == ids
    # 1 and 3 rows a chunk in the one-check contraction group, whose
    # contractions are drawn before its first block
    for rows in (1, 3):
        monkeypatch.setattr(verifier, "_CHUNK_VALUES", rows * form.space.n)
        assert verifier._run("contraction", form, cfg) == [whole[len(verifier.CRITERIA_NAMES)]]
    for r in whole + ids:
        assert replay(r.witness) == r.worst_violation, r.name


def test_chunked_non_finite_witness_is_the_first(monkeypatch):
    form = make_form(
        {"kind": "nonlocal_psi", "kernel": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
         "psi": {"name": "power", "p": 2000}}
    )
    cfg = SuiteConfig(n_samples=30, seed=0)
    assert CHECKS[0].group == "criteria"
    with np.errstate(over="ignore", invalid="ignore"):
        whole = verifier._run("criteria", form, cfg)[0]
        # 4 rows a chunk
        budget = 4 * form.space.n * len(verifier.CRITERIA_NAMES)
        monkeypatch.setattr(verifier, "_CHUNK_VALUES", budget)
        chunked = verifier._run("criteria", form, cfg)[0]
        violations = _violations(CHECKS[0], form, draw(CHECKS[0], form.space, cfg, 30))
    first = int(np.flatnonzero(~np.isfinite(violations))[0])
    assert bits([chunked.worst_violation]) == bits([whole.worst_violation]) == bits([violations[first]])
    assert chunked.witness == whole.witness and not whole.passed


def eager(arg):
    """A kernel's energy argument, with a deferred table evaluation done on
    its own: its family's table and one pl_eval, negated if it is."""
    if not isinstance(arg, verifier._Apply):
        return arg
    if arg.of is not None:
        return -eager(arg.of)
    return pl_eval(closed_form_table([(arg.kinks, arg.slopes)]), arg.f)


def _reference_sweep(check, target, cfg):
    """One check on its own, as the sweep ran before a group shared its
    pass: every sample from the check's stream, one kernel call, each energy
    argument its own energy evaluation, then a loop over the samples keeping
    the first strict maximum and stopping at a non-finite one."""
    space = target if check.group == "identity" else target.space
    cols = columns(check, space, cfg, cfg.n_samples)
    stacked = {}
    for k in check.keys:
        if isinstance(cols[k], list):
            stacked[k] = pl_table(cols[k])
        else:
            stacked[k] = cols[k][:, None] if cols[k].ndim == 1 else cols[k]
    out = check.kernel(**stacked)
    if check.group != "identity":
        args, combine = out
        out = combine(*(target.energy_of_values(eager(a)) for a in args))
    worst, at = -math.inf, None
    for i, v in enumerate(out.tolist()):
        if not math.isfinite(v) or v > worst:
            worst, at = v, i
            if not math.isfinite(v):
                break
    params = {k: v[at] if isinstance(v, list) or v.ndim == 2 else float(v[at]) for k, v in cols.items()}
    passed = math.isfinite(worst) and worst <= verifier.TOLERANCES[check.group]
    return verifier.CheckResult(check.name, passed, worst,
                                verifier._witness(check, target, params), cfg.n_samples)


@pytest.mark.parametrize("label", [*sorted(CATALOG), "identities_7", "identities_12"])
def test_group_pass_equals_the_per_check_reference(monkeypatch, label):
    cfg = SuiteConfig(n_samples=45, seed=9)
    if label.startswith("identities"):
        target = MeasureSpace(np.linspace(0.5, 2.0, int(label.split("_")[1])))
        space, groups = target, ("identity",)
    else:
        target = make_form(CATALOG[label])
        space, groups = target.space, GROUPS
    # 15 rows a chunk in the one-check group, 3 in the four- and five-check
    # ones and 1 in the proof chain: every group takes at least 3 chunks, and
    # the last may be partial
    monkeypatch.setattr(verifier, "_CHUNK_VALUES", 15 * space.n)
    for group in groups:
        checks = [c for c in CHECKS if c.group == group]
        assert math.ceil(cfg.n_samples / max(1, 15 // len(checks))) >= 3
        results = verifier._run(group, target, cfg)
        assert results == [_reference_sweep(c, target, cfg) for c in checks], group
        for r in results:
            assert replay(r.witness) == r.worst_violation, r.name


@pytest.mark.parametrize("desc", [
    {"kind": "local_grid_1d", "nodes": 400, "h": 0.01, "integrand": {"name": "abs_power", "p": 4}},
    {"kind": "nonlocal_psi", "kernel": (np.ones((40, 40)) - np.eye(40)).tolist(),
     "psi": {"name": "power", "p": 4}},
])
def test_a_group_chunk_holds_bounded_memory(desc):
    # the proof group, 11 checks, on chunks of _CHUNK_VALUES field values
    # per parameter: the fields, the 36 energy arguments of its 11 kernels
    # and their concatenation hold about 8 times that (2.7-3.5 MB measured);
    # the energy terms, 1560 a row on the kernel and 33 MB if taken at once,
    # are summed in blocks of at most about 16k
    form = make_form(desc)
    rows = verifier._CHUNK_VALUES // (form.space.n * len(verifier.PROOF_NAMES))
    peaks = []
    for n_chunks in (1, 4):
        cfg = SuiteConfig(n_samples=n_chunks * rows, seed=1)
        tracemalloc.start()
        try:
            verifier._run("proof", form, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    field_values = rows * form.space.n * len(verifier.PROOF_NAMES)
    assert max(peaks) < 8 * (16 * field_values + 4 * 2**14), peaks
    assert peaks[1] < 1.25 * peaks[0], peaks  # it does not grow with n_samples


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
    (8e-13, 1.5e-12),  # x1 merges into 0 and x2 does not, though it lies within merge range of x1
]


def test_fold1_tables_equal_make_phi_and_compose():
    kinks = np.array(X)[:, None]
    assert table_rows(closed_form_table([(kinks, (1.0, -1.0))])) == table_rows(
        pl_table([make_phi([x]) for x in X]))
    want = [compose(make_phi([x]), POS_PART) for x in X]
    assert table_rows(closed_form_table([(kinks, None)])) == table_rows(pl_table(want))
    # x = 0: the flat piece has slope -0.0
    assert bits(want[0].slopes) == bits([-0.0, -1.0])


def test_fold2_tables_equal_make_phi_and_compose():
    kinks = np.array(X1X2)
    assert table_rows(closed_form_table([(kinks, (1.0, -1.0, 1.0))])) == table_rows(
        pl_table([make_phi(list(k)) for k in X1X2]))
    assert table_rows(closed_form_table([(kinks, None)])) == table_rows(
        pl_table([compose(make_phi(list(k)), POS_PART) for k in X1X2]))
    for slopes in ((0.0, -1.0, 1.0), (1.0, -1.0, 0.0)):
        assert table_rows(closed_form_table([(kinks, slopes)])) == table_rows(
            pl_table([PLFunction(k, slopes, 0.0) for k in X1X2]))
    with pytest.raises(ValueError):
        closed_form_table([(np.array([[1.0, 2.0, 3.0]]), None)])
    straddle = np.array([[-0.5, 0.5], [-3.0, 0.05], [-1e-13, 1e-13]])
    assert table_rows(closed_form_table([(straddle, (1.0, -1.0, 1.0))])) == table_rows(
        pl_table([make_phi(list(k)) for k in straddle]))


def test_folded_tables_equal_compose_on_near_coincident_kinks():
    # kinks at 0, within the merge tolerance of 0 or of each other, a float
    # apart, or far apart, in every combination
    pool = [0.0, 1e-13, 5e-13, 8e-13, 1e-12, 1.2e-12, 1.5e-12, 2e-12, 2.5e-12, 1.0,
            np.nextafter(1.0, 2.0), 1.0 + 1e-13, 1.0 + 2e-12, 1.0 + 3e-12, 2.0, 3.0]
    rng = np.random.default_rng(8)
    for k in (1, 2):
        kinks = np.array([np.sort(rng.choice(pool, k, replace=False)) for _ in range(300)])
        want = [compose(make_phi(list(row)), POS_PART) for row in kinks]
        assert table_rows(closed_form_table([(kinks, None)])) == table_rows(pl_table(want)), k


def test_deferred_table_evaluations_equal_eager_ones(monkeypatch):
    # the six fold families in one call, k = 1 and k = 2, with the forced
    # x = 0 rows, kinks within the merge tolerance of 0 or of each other,
    # and negated evaluations: one table and one pl_eval give every
    # evaluation the bits of its own table and pl_eval
    rng = np.random.default_rng(11)
    one = np.array(X)[:, None]
    two = np.array(X1X2)
    straddle = np.array([[-0.5, 0.5], [-3.0, 0.05], [-1e-13, 1e-13], [-2.0, 1e-12]])

    def fields(kinks):
        f = rng.uniform(-4.0, 4.0, (len(kinks), 7))
        f[:, :kinks.shape[1]] = kinks  # at the kinks, at 0 and at -0
        f[:, -2:] = [0.0, -0.0]
        return f

    f1, f2 = fields(one), fields(two)
    apps = [
        verifier._alternating_at(one, f1),
        verifier._folded_at(one, f1),
        verifier._alternating_at(two, f2),
        verifier._folded_at(two, f2),
        verifier._Apply(verifier._SIGMA_FOLD2_ONESIDED, two, fields(two)),
        verifier._Apply(verifier._PSI_FOLD2_STRADDLE, straddle, fields(straddle)),
        verifier._alternating_at(straddle, fields(straddle)),
        verifier._folded_at(one[::-1], fields(one)),  # a second evaluation of one family
    ]
    assert -(-apps[0]) is apps[0]
    args = [*apps, -apps[1], -apps[4], f2, -apps[5]]
    calls = []
    build, evaluate = PLTable.build.__func__, verifier.pl_eval
    monkeypatch.setattr(PLTable, "build", classmethod(
        lambda cls, *a: calls.append("build") or build(cls, *a)))
    monkeypatch.setattr(verifier, "pl_eval", lambda *a: calls.append("pl_eval") or evaluate(*a))
    got = verifier._applied(args)
    monkeypatch.undo()
    assert calls == ["build", "pl_eval"] and got[-2] is f2
    assert [bits(g) for g in got] == [bits(eager(a)) for a in args]
    # the table itself holds every family's rows as its own table does
    parts = [(one, None), (two, None), (one, (1.0, -1.0)), (two, (1.0, -1.0, 1.0)),
             (two, verifier._SIGMA_FOLD2_ONESIDED), (straddle, verifier._PSI_FOLD2_STRADDLE)]
    own = [closed_form_table([part]) for part in parts]
    assert table_rows(closed_form_table(parts)) == [r for t in own for r in table_rows(t)]


def test_table_evaluation_equals_plfunction_call():
    rng = np.random.default_rng(4)
    phis = [compose(make_phi(list(k)), POS_PART) for k in X1X2] + [make_phi([]), make_phi([-1.0])]
    x = np.concatenate([rng.uniform(-4, 4, (len(phis), 9)), np.zeros((len(phis), 2))], axis=1)
    x[:, -1] = -0.0
    got = pl_eval(pl_table(phis), x)
    assert bits(got) == bits([phi(row) for phi, row in zip(phis, x)])


# -- sampler laws and pins ---------------------------------------------------------


@pytest.mark.parametrize(
    "check", [c for c in CHECKS if set(c.keys) - {"f", "g", "phi"}], ids=lambda c: c.name
)
def test_scalar_laws(check):
    # 400 samples of the check's sweep in one block: each scalar in its
    # law's range, and the forced rows first
    p = columns(check, MeasureSpace(np.ones(5)), SuiteConfig(n_samples=400, seed=3), 400)
    amp = samplers.AMPLITUDE
    if "alpha" in p:
        a = p["alpha"]
        assert np.all((a == 0.0) | ((a >= 1e-3) & (a <= 10.0)))
        assert 0.07 < np.mean(a == 0.0) < 0.18  # 1/8
    if "x" in p:
        x = p["x"]
        assert x[0] == 0.0 and np.all((x[1:] > 0.0) & (x[1:] < 2.0 * amp))
    if "x1" in p and "onesided" in check.name:
        x1, x2 = p["x1"], p["x2"]
        assert np.all((x1 >= 0.0) & (x1 < amp) & (x2 - x1 >= 0.05 - 1e-12) & (x2 - x1 < amp))
        assert 0.1 < np.mean(x1 == 0.0) < 0.2  # 0.15
        assert np.min(x1[x1 > 0.0]) < 0.1  # else uniform on [0, amp)
    elif "x1" in p:
        x1, x2 = p["x1"], p["x2"]
        lo, hi = (1.05, 3.0) if check.name.endswith("mirror") else (0.02, 0.98)
        assert np.all((x2 >= 0.05) & (x2 < amp))
        assert np.all((-x1 / x2 >= lo - 1e-12) & (-x1 / x2 <= hi + 1e-12))
    if "t" in p:
        t, s = p["t"], p["s"]
        assert list(zip(t[:4], s[:4])) == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
        assert np.all((t >= 0.0) & (s >= 0.0) & (t + s <= 1.0 + 1e-15))


@pytest.mark.parametrize(
    "seed, first, second",
    [
        # uniform, then uniform
        (0, [-2.7541588563828316, -2.9008341868288254, 1.879621435201635,
             2.47653346366633, 0.6398146546030792],
         [2.610434542726609, 1.8951213247291925, -2.9835689989791114,
          2.1444256595254156, -2.798486548167214]),
        # a step split after one point, then a reversed ramp
        (2, [1.8853544435656815, -2.4485043471894183, -2.4485043471894183,
             -2.4485043471894183, -2.4485043471894183],
         [1.015783791447122, 0.9445980892535557, 0.3735939766825682,
          -0.40421525517127677, -2.0996264201679833]),
        # a reversed ramp, then a ramp
        (3, [1.8076467912383816, 0.4929722163862067, -0.12569221115499563,
             -0.401238358581157, -2.4352281465576047],
         [-2.3179678804715795, -0.6526308570260277, -0.4162318775149334,
          0.10044109572818183, 0.5207914286288444]),
    ],
)
def test_sample_field_first_draws(seed, first, second):
    # the first two fields on 5 points of a block drawn from a Generator
    rows = samplers.field_values(np.random.default_rng(seed).random((2, 7)), 5)
    assert rows.tolist() == [first, second]


def test_sample_field_from_hand_made_words():
    # kind, direction or split, then five amplitudes 6u - 3; u = 0.25, 0.5,
    # 0.75, 0, 0.125 give -1.5, 0, 1.5, -3, -2.25 exactly
    amps = [0.25, 0.5, 0.75, 0.0, 0.125]
    words = np.array([
        [0.9, 0.3, *amps],  # uniform
        [0.1, 0.7, *amps],  # a ramp
        [0.1, 0.2, *amps],  # a reversed ramp
        [0.3, 0.0, *amps],  # a step split at 0: the second level throughout
        [0.3, 0.5, *amps],  # a step split at floor(0.5 * 6) = 3
        [0.3, 0.99, *amps],  # a step split at floor(0.99 * 6) = 5 = n: the first level throughout
    ])
    assert samplers.field_values(words, 5).tolist() == [
        [-1.5, 0.0, 1.5, -3.0, -2.25],
        [-3.0, -2.25, -1.5, 0.0, 1.5],
        [1.5, 0.0, -1.5, -2.25, -3.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [-1.5, -1.5, -1.5, 0.0, 0.0],
        [-1.5, -1.5, -1.5, -1.5, -1.5],
    ]
    # on one point a step is its one amplitude, whatever the split
    assert samplers.field_values(np.array([[0.3, 0.0, 0.75], [0.3, 0.9, 0.75]]), 1).tolist() == [
        [1.5], [1.5]]

import json

import numpy as np
import pytest

from nbdirichlet import flow
from nbdirichlet.cli import run
from nbdirichlet.errors import NoConvergence, SpaceMismatch
from nbdirichlet.flow import (
    FlowConfig,
    evolve,
    exact_graph_resolvent,
    prox_step,
    trace_to_csv,
)
from nbdirichlet.catalog import instance_catalog
from nbdirichlet.forms import make_form
from nbdirichlet.measure import MeasureSpace, make_field


def two_node():
    return make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]})


def random_graph(n, seed, weighted_nodes=True):
    rng = np.random.default_rng(seed)
    edges = [
        [i, j, float(rng.uniform(0.2, 2.0))]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    weights = rng.uniform(0.5, 2.0, n) if weighted_nodes else np.ones(n)
    return make_form(
        {"kind": "graph_quadratic", "nodes": n, "node_weights": weights.tolist(), "edges": edges}
    )


def test_identity_resolvent_on_empty_edges():
    form = make_form({"kind": "graph_quadratic", "nodes": 3, "edges": []})
    u = make_field(form.space, [1.0, -2.0, 0.5])
    v = prox_step(form, u, 0.7)
    assert np.array_equal(v.values, u.values)


def test_constants_are_fixed_points():
    for desc in (
        {"kind": "graph_quadratic", "nodes": 4, "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 1.0]]},
        {"kind": "local_grid_1d", "nodes": 7, "h": 0.2, "integrand": {"name": "max_positive_part"}},
        {"kind": "local_grid_1d", "nodes": 7, "h": 0.2, "integrand": {"name": "abs_power", "p": 4}},
    ):
        form = make_form(desc)
        u = make_field(form.space, np.full(form.space.n, -0.8))
        v = prox_step(form, u, 0.3)
        assert np.max(np.abs(v.values - u.values)) <= 1e-12


def test_two_node_exact_value():
    form = two_node()
    u = make_field(form.space, [1.0, 0.0])
    v = prox_step(form, u, 0.5)
    assert np.max(np.abs(v.values - [0.75, 0.25])) <= 1e-12


def test_evolve_matches_repeated_resolvent():
    form = two_node()
    u = make_field(form.space, [1.0, 0.0])
    trace = evolve(form, u, FlowConfig(tau=0.5, n_steps=2))
    assert np.max(np.abs(trace.states[2] - [0.625, 0.375])) <= 1e-12
    assert len(trace.states) == 3 and len(trace.energies) == 3 and len(trace.residuals) == 2
    assert trace.states.shape == (3, 2) and np.array_equal(trace.states[0], u.values)


def test_energies_strictly_decrease_for_nonconstant_data():
    form = random_graph(6, seed=0)
    rng = np.random.default_rng(1)
    u = make_field(form.space, rng.uniform(-2, 2, 6))
    trace = evolve(form, u, FlowConfig(tau=0.1, n_steps=5))
    diffs = np.diff(trace.energies)
    assert np.all(diffs < 0)


def test_graph_prox_matches_dense_resolvent():
    rng = np.random.default_rng(2)
    for seed in range(5):
        form = random_graph(8, seed=seed)
        u = make_field(form.space, rng.uniform(-3, 3, 8))
        tau = float(rng.uniform(0.05, 1.0))
        v = prox_step(form, u, tau)
        w = exact_graph_resolvent(form, u, tau)
        assert np.max(np.abs(v.values - w.values)) <= 1e-8


def test_energy_monotone_every_shipped_form():
    descs = [
        {"kind": "graph_quadratic", "nodes": 6,
         "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [3, 4, 1.0], [4, 5, 0.3]]},
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "max_positive_part"}},
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 1}},
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 2}},
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 4}},
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125,
         "integrand": {"name": "finsler_weighted", "weights": [1, 0.5, 2, 1, 1.5, 0.8, 1.2, 1]}},
    ]
    rng = np.random.default_rng(3)
    K = rng.uniform(0, 1, (6, 6))
    np.fill_diagonal(K, 0)
    descs.append({"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": 4}})
    descs.append({"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": 1}})
    for desc in descs:
        form = make_form(desc)
        for rep in range(8):  # evolve() itself enforces the 1e-10 slack
            u = make_field(form.space, rng.uniform(-2, 2, form.space.n))
            trace = evolve(form, u, FlowConfig(tau=0.05, n_steps=4))
            assert np.all(np.diff(trace.energies) <= 1e-10)


def test_order_preservation_and_linf_contraction():
    rng = np.random.default_rng(4)
    K = rng.uniform(0, 1, (5, 5))
    np.fill_diagonal(K, 0)
    forms = [
        random_graph(5, seed=7),
        make_form({"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": 4}}),
        make_form({"kind": "local_grid_1d", "nodes": 5, "h": 0.25, "integrand": {"name": "abs_power", "p": 1}}),
    ]
    slack = 10 * 1e-9
    for form in forms:
        n = form.space.n
        for rep in range(4):
            f_vals = rng.uniform(-2, 2, n)
            g_vals = f_vals + rng.uniform(0, 2, n)
            f = make_field(form.space, f_vals)
            g = make_field(form.space, g_vals)
            cfg = FlowConfig(tau=0.1, n_steps=4)
            tf = evolve(form, f, cfg)
            tg = evolve(form, g, cfg)
            bound = np.max(np.abs(f.values - g.values))
            for sf, sg in zip(tf.states, tg.states):
                neg_part = max(0.0, float(np.max(sf - sg)))
                assert neg_part <= slack
                assert np.max(np.abs(sf - sg)) <= bound + slack


def test_semigroup_nesting_exact():
    form = random_graph(6, seed=11)
    rng = np.random.default_rng(5)
    u = make_field(form.space, rng.uniform(-2, 2, 6))
    full = evolve(form, u, FlowConfig(tau=0.07, n_steps=5))
    first = evolve(form, u, FlowConfig(tau=0.07, n_steps=2))
    second = evolve(form, make_field(form.space, first.states[-1]), FlowConfig(tau=0.07, n_steps=3))
    chained = np.vstack([first.states, second.states[1:]])
    assert chained.shape == full.states.shape
    for a, b in zip(full.states, chained):
        assert np.array_equal(a, b)


def test_no_convergence_raises():
    # a p in (1, 2) grid goes through ADMM, whose budget max_inner_iters caps
    form = make_form(
        {"kind": "local_grid_1d", "nodes": 7, "h": 0.2, "integrand": {"name": "abs_power", "p": 1.5}}
    )
    u = make_field(form.space, np.arange(7, dtype=float))
    with pytest.raises(NoConvergence):
        prox_step(form, u, 0.5, max_inner_iters=2)


def test_newton_honours_its_iteration_budget():
    # a p = 4 grid step takes tens of Newton iterations; three are not enough
    form = make_form(
        {"kind": "local_grid_1d", "nodes": 40, "h": 0.025, "integrand": {"name": "abs_power", "p": 4}}
    )
    u = np.random.default_rng(3).uniform(-1, 1, 40)
    with pytest.raises(NoConvergence, match="in 3 iterations"):
        flow._newton_prox(form, u, 1e-3, 3)
    assert np.all(np.isfinite(flow._newton_prox(form, u, 1e-3, 1000)))


def test_newton_failures_are_typed():
    # |v|^16 with h = 1/49: the Hessian of the first step is singular
    form = make_form(
        {"kind": "local_grid_1d", "nodes": 50, "h": 1.0 / 49, "integrand": {"name": "abs_power", "p": 16}}
    )
    u = np.random.default_rng(0).uniform(-1, 1, 50)
    with pytest.raises(NoConvergence, match="Newton prox"):
        flow._newton_prox(form, u, 1e-3, 200_000)
    # a gradient that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergence, match="not finite"):
            flow._newton_prox(form, 1e30 * u, 1e-3, 200_000)


@pytest.mark.parametrize(
    "p, h",
    [
        (2, 1e-8),  # the gradient's rounding noise is above 1e-13 of its scale
        (4, 1e-10),  # and the Hessian is singular to rounding on half the seeds
    ],
)
def test_newton_stall_ends_before_the_budget(monkeypatch, p, h):
    # at the rounding floor no step lowers the merit, so the solve returns and
    # the certificate decides: every datum ends in a certified step or a typed
    # failure, long before the budget
    form = make_form(
        {"kind": "local_grid_1d", "nodes": 20, "h": h, "integrand": {"name": "abs_power", "p": p}}
    )
    solve, solves = np.linalg.solve, []

    def counted(H, b):
        solves.append(1)
        assert len(solves) <= 1000, "the Newton solve runs on towards its budget"
        return solve(H, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    certified = []
    for seed in range(12):
        u = make_field(form.space, np.random.default_rng(seed).uniform(-1, 1, 20))
        solves.clear()
        try:
            prox_step(form, u, 1.0)
            certified.append(seed)
        except NoConvergence:
            pass
    assert 0 in certified


def test_newton_gradient_rises_on_the_way(monkeypatch):
    # where neighbours agree the Hessian of |v|^p, p > 2, vanishes, and a full
    # Newton step can throw the gradient far off (from 9.5e-7 to 8e23 of its
    # scale, |v|^6); the line search takes no step that raises the merit
    # sum_k g_k^2 / m_k, read here off the right-hand sides -g of the solves
    solve, rhs = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda H, b: rhs.append(b) or solve(H, b))
    for p, n, h, tau in ((4, 20, 1e-6, 1.0), (6, 60, 1e-8, 10.0)):
        form = make_form(
            {"kind": "local_grid_1d", "nodes": n, "h": h, "integrand": {"name": "abs_power", "p": p}}
        )
        u = np.random.default_rng(0).uniform(-1, 1, n)
        rhs.clear()
        w = flow._newton_prox(form, u, tau, 200_000)
        merits = [np.sum(b * b / form.space.weights) for b in rhs]
        assert len(merits) > 1 and np.all(np.diff(merits) < 0)
        grad = form.space.weights * (w - u) / tau + form.diffs_adjoint(
            form.coeffs * form.piece.grad(form.diffs(w))
        )
        assert np.max(np.abs(grad)) <= 1e-10 * (1.0 + np.max(np.abs(form.space.weights * u)) / tau)


def test_certificates_within_tolerance():
    # every solver's steps are exact to rounding: each residual, an upper
    # bound on F(v) - min F, is within rounding of 0, and it is never
    # negative beyond rounding
    rng = np.random.default_rng(6)
    K = rng.uniform(0, 1, (6, 6))
    np.fill_diagonal(K, 0)
    forms = [
        random_graph(6, seed=13),
        make_form({"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 1}}),
        make_form({"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 1.5}}),
        make_form({"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": 1}}),
    ]
    for form in forms:
        u = make_field(form.space, rng.uniform(-2, 2, form.space.n))
        trace = evolve(form, u, FlowConfig(tau=0.1, n_steps=3, inner_tol=1e-9))
        for k, r in enumerate(trace.residuals):
            obj = flow._objective(form, trace.states[k + 1], trace.states[k], 0.1)
            assert abs(r) <= 1e-12 * (1.0 + abs(obj))


def test_certificate_tolerance_is_relative(monkeypatch):
    # the duality gap subtracts two numbers as large as the objective, so on
    # large data its rounding alone can exceed an absolute 1e-9; a step's
    # certificate is held to inner_tol * (1 + |F(v)| + |F(v) - certificate|)
    form = make_form({"kind": "local_grid_1d", "nodes": 20, "h": 1 / 19, "integrand": {"name": "abs_power", "p": 1}})
    u = make_field(form.space, 1e9 * np.random.default_rng(7).uniform(-1, 1, 20))
    v = prox_step(form, u, 1e-3)
    obj = flow._objective(form, v.values, u.values, 1e-3)
    assert obj > 1e9
    monkeypatch.setattr(flow, "prox_certificate", lambda *args: 1e-9 * obj)
    assert np.array_equal(prox_step(form, u, 1e-3).values, v.values)
    monkeypatch.setattr(flow, "prox_certificate", lambda *args: 3e-9 * (1.0 + obj))
    with pytest.raises(NoConvergence, match="exceeds its tolerance"):
        prox_step(form, u, 1e-3)


def _kernel_form(psi, n, seed):
    K = np.random.default_rng(seed).uniform(0, 1, (n, n))
    np.fill_diagonal(K, 0)
    return make_form({"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": psi})


def _grid_form(integrand, n):
    return make_form({"kind": "local_grid_1d", "nodes": n, "h": 1 / (n - 1), "integrand": integrand})


# label -> (form, the solver _certified_step picks for it)
CERTIFIED_PATHS = {
    "newton grid p=2": (lambda: _grid_form({"name": "abs_power", "p": 2}, 30), "newton"),
    "newton grid p=4": (lambda: _grid_form({"name": "abs_power", "p": 4}, 30), "newton"),
    "newton graph quadratic": (lambda: random_graph(12, seed=30), "newton"),
    "newton nonlocal p=4": (lambda: _kernel_form({"name": "power", "p": 4}, 10, 31), "newton"),
    "chain |v|": (lambda: _grid_form({"name": "abs_power", "p": 1}, 30), "chain"),
    "chain a(x)|v|": (
        lambda: _grid_form({"name": "finsler_weighted", "weights": np.linspace(0.2, 3.0, 29).tolist()}, 30),
        "chain",
    ),
    "chain max(v, 0)": (lambda: _grid_form({"name": "max_positive_part"}, 30), "chain"),
    "admm nonlocal |z|": (lambda: _kernel_form({"name": "power", "p": 1}, 10, 32), "admm"),
    "admm nonlocal max(z, 0)": (lambda: _kernel_form({"name": "positive_part"}, 10, 33), "admm"),
    "admm grid p=1.5": (lambda: _grid_form({"name": "abs_power", "p": 1.5}, 30), "admm"),
}


@pytest.mark.parametrize("label", list(CERTIFIED_PATHS))
def test_certificate_bounds_the_suboptimality(label):
    # prox_certificate(w) >= F(w) - min F for the solver's step, for points
    # around it and for the datum itself, which is not stationary: a
    # certificate that compares w with a few other points reads about 0 there
    make, path = CERTIFIED_PATHS[label]
    form = make()
    assert path == ("newton" if form.piece.smooth else "chain" if flow._is_chain(form) else "admm")
    tau = 1e-2
    rng = np.random.default_rng(40)
    u = rng.uniform(-1, 1, form.space.n)
    duals = ()
    if path == "newton":
        v = flow._newton_prox(form, u, tau, 200_000)
    elif path == "chain":
        v = flow._chain_prox(form, u, tau)
    else:
        v, lam = flow._admm_prox(form, u, tau, 200_000)
        duals = (lam,)
        if form.piece.box is not None:  # off a chain the gap needs them
            with pytest.raises(ValueError, match="edge multipliers"):
                flow.prox_certificate(form, make_field(form.space, v), make_field(form.space, u), tau)
    if form.kind == "graph_quadratic":
        v_star = exact_graph_resolvent(form, make_field(form.space, u), tau).values
    else:
        v_star = v  # F(v) >= min F, so F(w) - F(v) <= F(w) - min F
    f_star = flow._objective(form, v_star, u, tau)

    def certificate(w):
        return flow.prox_certificate(form, make_field(form.space, w), make_field(form.space, u), tau, *duals)

    gap_u = flow._objective(form, u, u, tau) - f_star
    assert gap_u > 1e-3 and certificate(u) >= gap_u
    f_v = flow._objective(form, v, u, tau)
    assert certificate(v) <= 1e-12 * (1.0 + abs(f_v))
    for size in (1e-8, 1e-4, 1e-2, 1.0):
        for _ in range(3):
            w = v + size * rng.uniform(-1, 1, form.space.n)
            f_w = flow._objective(form, w, u, tau)
            assert f_w - f_star <= certificate(w) + 1e-12 * (1.0 + abs(f_w) + abs(f_star))


@pytest.mark.parametrize("label", ["nonlocal_z2", "grid_abs_p2"])
def test_exact_resolvent_of_scaled_quadratics(label):
    # E = scale * sum_e c_e (w_i - w_j)^2 with scale 1 (nonlocal) and 5 (grid):
    # the closed form must reproduce the certified step, scale and all
    form = make_form(instance_catalog(0)[label])
    rng = np.random.default_rng(50)
    for tau in (1e-3, 0.05, 1.0):
        u = make_field(form.space, rng.uniform(-2, 2, form.space.n))
        v = prox_step(form, u, tau)
        w = exact_graph_resolvent(form, u, tau)
        assert np.max(np.abs(v.values - w.values)) <= 1e-12 * (1.0 + np.max(np.abs(u.values)))


def test_exact_resolvent_of_graph_quadratics_keeps_its_bits():
    # on a graph quadratic (scale 1/2) the step is (M + tau L)^-1 M u, bit for bit
    form = random_graph(8, seed=3)
    u = make_field(form.space, np.random.default_rng(51).uniform(-3, 3, 8))
    M = np.diag(form.space.weights)
    for tau in (1e-3, 0.05, 1.0):
        expected = np.linalg.solve(M + tau * form.laplacian(), M @ u.values)
        assert np.array_equal(exact_graph_resolvent(form, u, tau).values, expected)


def test_exact_resolvent_rejects_what_it_cannot_solve():
    catalog = instance_catalog(0)
    for label in ("nonlocal_z4", "grid_abs_p4", "nonlocal_abs", "grid_abs_p1", "grid_max_positive_part"):
        form = make_form(catalog[label])
        with pytest.raises(ValueError, match="quadratic piece"):
            exact_graph_resolvent(form, make_field(form.space, np.zeros(form.space.n)), 0.05)
    form = two_node()
    u = make_field(form.space, [1.0, 0.0])
    for tau in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            exact_graph_resolvent(form, u, tau)


def test_prox_certificate_checks_its_inputs_as_prox_step_does():
    # no bound for a step that prox_step refuses: a negative or zero tau
    # gave a negative bound or NaN, and a field off the form's space a bound
    # or a bare numpy error
    form = two_node()
    u = make_field(form.space, [1.0, 0.0])
    for tau in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            flow.prox_certificate(form, u, u, tau)
    elsewhere = make_field(MeasureSpace([1.0, 2.0]), [1.0, 0.0])
    longer = make_field(MeasureSpace([1.0, 1.0, 1.0]), [1.0, 0.0, 0.0])
    grid = make_form({"kind": "local_grid_1d", "nodes": 3, "h": 0.5,
                      "integrand": {"name": "max_positive_part"}})
    on_grid = make_field(grid.space, [1.0, 0.0, -1.0])
    for target, v, w in ((form, elsewhere, u), (form, u, elsewhere), (form, longer, u),
                         (form, u, longer), (grid, u, on_grid), (grid, on_grid, u)):
        with pytest.raises(SpaceMismatch):
            flow.prox_certificate(target, v, w, 0.5)
    assert 0.0 < flow.prox_certificate(form, u, u, 0.5) < np.inf


def test_trace_csv_schema(tmp_path):
    form = two_node()
    u = make_field(form.space, [1.0, 0.0])
    trace = evolve(form, u, FlowConfig(tau=0.5, n_steps=2))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,time,energy,residual,v0,v1"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 0.5 and float(first[4]) == 1.0


def test_evolve_certifies_each_step_once(monkeypatch):
    from nbdirichlet import flow

    certificates = []
    original = flow.prox_certificate

    def counted(*args):
        certificates.append(original(*args))
        return certificates[-1]

    monkeypatch.setattr(flow, "prox_certificate", counted)
    form = random_graph(6, seed=13)
    u = make_field(form.space, np.random.default_rng(6).uniform(-2, 2, 6))
    trace = evolve(form, u, FlowConfig(tau=0.1, n_steps=3))
    assert len(certificates) == 3
    assert trace.residuals == certificates


@pytest.mark.parametrize(
    "integrand, n",
    [
        ({"name": "max_positive_part"}, 3000),
        ({"name": "abs_power", "p": 1}, 2000),
        ({"name": "max_positive_part"}, 100_000),
        ({"name": "abs_power", "p": 1}, 100_000),
    ],
)
def test_chain_step_on_large_grids(integrand, n):
    # a certified step at sizes where ADMM is slow (n = 2000) or does not
    # converge (n = 20 000); the chain solver is O(n)
    form = make_form({"kind": "local_grid_1d", "nodes": n, "h": 1.0 / (n - 1), "integrand": integrand})
    u = make_field(form.space, np.random.default_rng(9).uniform(-1, 1, n))
    v = prox_step(form, u, 1e-3)
    m = form.space.weights
    assert abs(float(m @ v.values) - float(m @ u.values)) <= 1e-12 * n  # D^T preserves mass
    assert form.energy_of_values(v.values) < form.energy_of_values(u.values)


def test_evolve_energy_slack_is_relative(monkeypatch):
    from nbdirichlet import flow

    form = two_node()

    def energies_rising_by(rise):
        # the initial energy, then each step's from _certified_step
        values = iter([1e12 + k * rise for k in range(4)])
        monkeypatch.setattr(form, "energy_of_values", lambda u: next(values))
        monkeypatch.setattr(
            flow, "_certified_step", lambda form, u, *args: (u, 0.0, next(values))
        )

    u = make_field(form.space, [1.0, 0.0])
    cfg = FlowConfig(tau=0.5, n_steps=3)
    energies_rising_by(1e-3)  # a few ulps of 1e12, far above an absolute 1e-10
    assert evolve(form, u, cfg).energies[-1] > 1e12
    energies_rising_by(1e-9 * (1.0 + 1e12))
    with pytest.raises(NoConvergence, match="energy increased"):
        evolve(form, u, cfg)


GRID_INTEGRANDS = ("abs_power", "finsler_weighted", "max_positive_part")


def chain_grid(integrand, n, rng, decades=6.0):
    """A local_grid_1d form on n nodes at h = 1/(n-1); finsler weights are
    log-uniform over [10^-decades, 10^decades]."""
    spec = {"name": integrand}
    if integrand == "abs_power":
        spec["p"] = 1
    elif integrand == "finsler_weighted":
        spec["weights"] = (10.0 ** rng.uniform(-decades, decades, n - 1)).tolist()
    return make_form({"kind": "local_grid_1d", "nodes": n, "h": 1.0 / (n - 1), "integrand": spec})


def test_chain_dispatch_follows_the_form_structure():
    rng = np.random.default_rng(20)
    for integrand in GRID_INTEGRANDS:
        assert flow._is_chain(chain_grid(integrand, 9, rng))
    K = np.zeros((4, 4))
    K[[1, 2, 3], [0, 1, 2]] = [0.5, 2.0, 1.0]  # a path kernel is a chain as well
    path = {"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "positive_part"}}
    assert flow._is_chain(make_form(path))
    not_chains = [
        {**path, "kernel": K.T.tolist()},  # pairs (k, k+1)
        {**path, "kernel": (K + K.T).tolist()},  # both orientations
        {**path, "psi": {"name": "power", "p": 1.5}},
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 2}},
    ]
    for desc in not_chains:
        assert not flow._is_chain(make_form(desc))


@pytest.mark.parametrize("integrand", GRID_INTEGRANDS)
def test_chain_prox_meets_its_optimality_conditions(integrand):
    # On a chain, m(x - u)/tau + D^T lam = 0 fixes the edge duals by a cumulative
    # sum: lam_k = sum_{j <= k} m_j (x_j - u_j)/tau, and the sum over all nodes is 0.
    # x is the prox iff each lam_k lies in w_k [lo, hi], at w_k hi where
    # x_{k+1} > x_k and at w_k lo where x_{k+1} < x_k.
    # Each check is relative to the terms it sums, so a large weight elsewhere
    # on the chain buys no slack.
    rng = np.random.default_rng(21)
    for n in (2, 3, 50, 2000):
        for tau in (1e-6, 1e-3, 1.0, 1e2):
            form = chain_grid(integrand, n, rng, decades=12.0)
            u = rng.uniform(-1.0, 1.0, n)
            x = flow._chain_prox(form, u, tau)
            m = form.space.weights
            lo, hi = form.piece.box
            w = form.coeffs * form.piece.scale
            lam = np.cumsum(m * (x - u) / tau)
            tol = 1e-12 * np.cumsum(m * (np.abs(x) + np.abs(u)) / tau)
            assert abs(lam[-1]) <= tol[-1]
            lam, tol, z = lam[:-1], tol[:-1] + 1e-12 * w, np.diff(x)
            assert np.all(lam >= w * lo - tol) and np.all(lam <= w * hi + tol)
            up, down = z > 1e-12, z < -1e-12
            assert np.all(np.abs(lam[up] - w[up] * hi) <= tol[up])
            assert np.all(np.abs(lam[down] - w[down] * lo) <= tol[down])


@pytest.mark.parametrize("integrand", GRID_INTEGRANDS)
@pytest.mark.parametrize("n", [2, 3, 50, 500])
def test_chain_prox_agrees_with_admm(integrand, n):
    rng = np.random.default_rng([22, n])
    for tau in (1e-6, 1e-3, 1.0, 1e2):
        form = chain_grid(integrand, n, rng)
        m = form.space.weights
        u = rng.uniform(-1.0, 1.0, n)
        x = flow._chain_prox(form, u, tau)
        y, _ = flow._admm_prox(form, u, tau, 200_000)
        obj_x, obj_y = flow._objective(form, x, u, tau), flow._objective(form, y, u, tau)
        slack = 1e-12 * (1.0 + abs(obj_y))
        assert obj_x <= obj_y + slack
        # the objective is 1/tau strongly convex in the m-norm, so ADMM's
        # distance from the minimizer is bounded by its objective excess
        assert float(m @ (x - y) ** 2) / (2.0 * tau) <= obj_y - obj_x + slack
        if tau <= 1e-3:
            # at larger tau/m ADMM's residual stop fixes its state only to
            # about 1e-13 tau/m, and to less with weights spread over 12 decades
            assert np.max(np.abs(x - y)) <= 1e-10 * (1.0 + np.max(np.abs(u)))
        c = np.full(n, float(rng.normal()))
        assert np.array_equal(flow._chain_prox(form, c, tau), c)


def _reference_cross_from_left(knots, left, right, level):
    a, b, lev = left
    while knots and a * knots[0][0] + b + lev < level:
        _, da, db, _, lev = knots.popleft()
        a, b = a + da, b + db
    if not knots:
        a, b, lev = right
        return (level - lev - b) / a, (a, b, lev)
    return min((level - lev - b) / a, knots[0][0]), (a, b, lev)


def _reference_chain_prox(form, u, tau):
    """_chain_prox as it was before its end pieces stopped being tuples."""
    from collections import deque

    lo, hi = form.piece.box
    w = form.coeffs.tolist()
    shift = u[0]
    slope = form.space.weights / tau
    slopes, icpts = slope.tolist(), (-slope * (u - shift)).tolist()
    n = u.size
    knots = deque()
    left = right = (slopes[0], icpts[0], 0.0)
    t_lo, t_hi = [0.0] * (n - 1), [0.0] * (n - 1)
    for k in range(n - 1):
        lo_k, hi_k = w[k] * lo, w[k] * hi
        t_lo[k], (a, b, lev) = _reference_cross_from_left(knots, left, right, lo_k)
        knots.appendleft((t_lo[k], a, b, lo_k, lev))
        a, b, lev = right
        while len(knots) > 1 and a * knots[-1][0] + b + lev > hi_k:
            _, da, db, lev, _ = knots.pop()
            a, b = a - da, b - db
        t_hi[k] = max((hi_k - lev - b) / a, knots[-1][0])
        knots.append((t_hi[k], -a, -b, lev, hi_k))
        left = (slopes[k + 1], icpts[k + 1], lo_k)
        right = (slopes[k + 1], icpts[k + 1], hi_k)
    x = [0.0] * n
    x[-1] = _reference_cross_from_left(knots, left, right, 0.0)[0]
    for k in range(n - 2, -1, -1):
        x[k] = min(max(x[k + 1], t_lo[k]), t_hi[k])
    return np.array(x) + shift


@pytest.mark.parametrize("integrand", GRID_INTEGRANDS)
def test_chain_prox_keeps_the_reference_bits(integrand):
    rng = np.random.default_rng(23)
    for n in (2, 3, 50, 500):
        for tau in (1e-6, 1e-3, 1.0, 1e2):
            form = chain_grid(integrand, n, rng, decades=12.0)
            u = rng.uniform(-1.0, 1.0, n)
            assert np.array_equal(
                flow._chain_prox(form, u, tau), _reference_chain_prox(form, u, tau)
            ), (n, tau)


def test_trace_csv_keeps_the_per_float_bytes(tmp_path):
    # one %-template a row writes what format(x, ".17g") wrote float by float
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 3.0, -2.0, 1e16, 0.1]
    n = len(specials)
    states = np.array([specials, np.random.default_rng(3).normal(size=n), [1.0] * n])
    trace = flow.FlowTrace(states, [2.5, 1e308, -0.0], [5e-324, 1e-300], FlowConfig(tau=0.1, n_steps=2))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, str(path))
    lines = [",".join(["step", "time", "energy", "residual"] + [f"v{i}" for i in range(n)])]
    for k, (state, e) in enumerate(zip(trace.states, trace.energies)):
        res = 0.0 if k == 0 else trace.residuals[k - 1]
        row = [k * trace.config.tau, e, res, *state]
        lines.append(",".join([str(k)] + [format(float(x), ".17g") for x in row]))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _reference_admm_prox(form, u, tau, max_iters):
    """_admm_prox as it was before its loop was cut down, with the prox of
    ScalarPiece inlined as it was: kappa and its box bounds at every
    iteration, np.clip, and the dual residual s at every iteration."""
    from scipy.sparse import csc_matrix, diags
    from scipy.sparse.linalg import splu

    from nbdirichlet.forms import _power_prox_magnitude

    m = form.space.weights
    n = m.size
    ii, jj, c = form.i_idx, form.j_idx, form.coeffs
    piece = form.piece

    def prox(y, coeff, rho):
        kappa = coeff * piece.scale / rho
        if piece.box is not None:
            return y - np.clip(y, kappa * piece.box[0], kappa * piece.box[1])
        return np.sign(y) * _power_prox_magnitude(np.abs(y), kappa * piece.p, piece.p)

    ones = np.ones(c.size)
    DtD = csc_matrix(
        (np.concatenate([ones, ones, -ones, -ones]),
         (np.concatenate([ii, jj, ii, jj]), np.concatenate([ii, jj, jj, ii]))),
        shape=(n, n),
    )
    base = diags(m / tau, format="csc")

    def factor(rho):
        return splu(base + rho * DtD, permc_spec="MMD_AT_PLUS_A")

    rho = max(float(np.median(c * piece.scale)), 1e-3)
    lu = factor(rho)
    rhs0 = m * u / tau
    w = u.copy()
    z = form.diffs(w)
    lam = np.zeros(c.size)
    eps = 1e-13 * (1.0 + float(np.max(np.abs(z))))
    it = 0
    while it < max_iters:
        it += 1
        w = lu.solve(rhs0 + rho * form.diffs_adjoint(z - lam))
        dw = form.diffs(w)
        y = dw + lam
        z_new = prox(y, c, rho)
        s = rho * float(np.max(np.abs(form.diffs_adjoint(z_new - z))))
        z = z_new
        lam = y - z
        r = float(np.max(np.abs(dw - z)))
        if r <= eps and s <= eps:
            return w, flow._face_multipliers(form, z, rho * lam)
        if it % 64 == 0:
            if r > 10.0 * s and rho < 1e8:
                rho *= 2.0
                lam /= 2.0
                lu = factor(rho)
            elif s > 10.0 * r and rho > 1e-8:
                rho /= 2.0
                lam *= 2.0
                lu = factor(rho)
    raise NoConvergence(f"ADMM prox did not converge in {max_iters} iterations")


ADMM_FORMS = {
    "nonlocal |z|": lambda: _kernel_form({"name": "power", "p": 1}, 12, 40),
    "nonlocal max(z, 0)": lambda: _kernel_form({"name": "positive_part"}, 12, 41),
    "grid |v|^1.5": lambda: _grid_form({"name": "abs_power", "p": 1.5}, 30),
    "chain |v|, 50 nodes": lambda: _grid_form({"name": "abs_power", "p": 1}, 50),
}


@pytest.mark.parametrize("label", list(ADMM_FORMS))
def test_admm_iterates_match_the_reference(label):
    # each iteration computes only what its iterates need, so the state and
    # the multipliers must be the reference's, and so must the budget's end
    form = ADMM_FORMS[label]()
    rng = np.random.default_rng(42)
    for tau in (1e-6, 1e-3, 1.0, 1e2):
        u = rng.uniform(-1.0, 1.0, form.space.n)
        w_ref, lam_ref = _reference_admm_prox(form, u, tau, 200_000)
        w, lam = flow._admm_prox(form, u, tau, 200_000)
        assert np.array_equal(w, w_ref), (label, tau)
        assert np.array_equal(lam, lam_ref), (label, tau)
        for solver in (_reference_admm_prox, flow._admm_prox):
            with pytest.raises(NoConvergence, match="in 5 iterations"):
                solver(form, u, tau, 5)


def test_a_step_whose_certificate_overflows_stops_the_flow(tmp_path, capsys):
    # the duality gap's sums pass the largest float: the certificate is +inf,
    # which bounds the step but certifies nothing, so the flow stops
    grid = {"kind": "local_grid_1d", "nodes": 3, "h": 1.0, "integrand": {"name": "abs_power", "p": 1}}
    initial = [8e307, -8e307, 8e307]
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"form": grid, "initial": initial, "flow": {"tau": 1.0, "n_steps": 2}}))
    out = tmp_path / "trace.csv"
    assert run(["flow", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: flow stopped: step 0: prox certificate inf" in err and "Traceback" not in err
    assert not out.exists()
    form = make_form(grid)
    u = make_field(form.space, initial)
    v = make_field(form.space, flow._chain_prox(form, u.values, 1.0))
    with np.errstate(over="ignore"):
        assert flow.prox_certificate(form, v, u, 1.0) == np.inf
    # a finite objective and a gap whose (D^T lam)^2 overflows: the step
    # passed with its certificate +inf
    w = 1e160
    kernel = make_form({"kind": "nonlocal_psi", "kernel": [[0, w, w], [w, 0, w], [w, w, 0]],
                        "psi": {"name": "power", "p": 1}})
    with np.errstate(over="ignore"), pytest.raises(NoConvergence, match="prox certificate inf"):
        prox_step(kernel, make_field(kernel.space, [1.0, -1.0, 0.5]), 1e-200)


def test_integer_run_parameters_give_the_bits_of_floats():
    # tau, inner_tol and max_inner_iters are read as FlowConfig reads them
    for form in (two_node(), random_graph(6, 1), _grid_form({"name": "abs_power", "p": 1}, 8)):
        u = make_field(form.space, np.random.default_rng(5).uniform(-1.0, 1.0, form.space.n))
        want = prox_step(form, u, 1.0).values
        assert np.array_equal(prox_step(form, u, 1).values, want)
        assert np.array_equal(prox_step(form, u, np.int64(1), 1e-9, np.int64(200_000)).values, want)
    form = two_node()
    u = make_field(form.space, [1.0, 0.0])
    assert np.array_equal(exact_graph_resolvent(form, u, 1).values, exact_graph_resolvent(form, u, 1.0).values)
    assert flow.prox_certificate(form, u, u, 1) == flow.prox_certificate(form, u, u, 1.0)

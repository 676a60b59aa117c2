import numpy as np
import pytest

from nbdirichlet.catalog import instance_catalog
from nbdirichlet.errors import BadSpec, SpaceMismatch
from nbdirichlet.forms import ScalarPiece, eval_form, make_form
from nbdirichlet.measure import make_field, make_space
from nbdirichlet.samplers import SuiteConfig
from nbdirichlet.verifier import check_criteria


def graph2():
    return make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]})


def maxpos_grid():
    return make_form(
        {
            "kind": "local_grid_1d",
            "nodes": 11,
            "h": 0.1,
            "integrand": {"name": "max_positive_part"},
        }
    )


def nonlocal_form(p=4.0, n=6, seed=0, directed=False):
    rng = np.random.default_rng(seed)
    K = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(K, 0.0)
    if not directed:
        K = 0.5 * (K + K.T)
    return make_form(
        {"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": p}}
    )


ALL_FORMS = [
    graph2,
    maxpos_grid,
    lambda: nonlocal_form(4.0),
    lambda: nonlocal_form(1.0),
    lambda: make_form(
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 1}}
    ),
    lambda: make_form(
        {"kind": "local_grid_1d", "nodes": 9, "h": 0.125, "integrand": {"name": "abs_power", "p": 4}}
    ),
    lambda: make_form(
        {
            "kind": "local_grid_1d",
            "nodes": 9,
            "h": 0.125,
            "integrand": {"name": "finsler_weighted", "weights": [0.5, 1, 2, 1, 0.7, 1.1, 0.9, 3]},
        }
    ),
]


def test_make_form_examples():
    assert graph2().n_terms == 1
    with pytest.raises(BadSpec):
        make_form({"kind": "local_grid_1d", "nodes": 11, "h": 0.0, "integrand": {"name": "abs_power"}})
    nl = nonlocal_form(4.0)
    assert nl.piece.p == 4.0


def test_make_form_guards():
    with pytest.raises(BadSpec):
        make_form({"kind": "unknown"})
    with pytest.raises(BadSpec):
        make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 0, 1.0]]})
    with pytest.raises(BadSpec):
        make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, -1.0]]})
    with pytest.raises(BadSpec):
        make_form({"kind": "nonlocal_psi", "kernel": [[0, -1], [0, 0]]})
    with pytest.raises(BadSpec):
        make_form({"kind": "local_grid_1d", "nodes": 9, "h": 0.1, "integrand": {"name": "abs_power", "p": 0.5}})
    with pytest.raises(BadSpec):
        make_form({"kind": "local_grid_1d", "nodes": 1, "h": 0.1, "integrand": {"name": "abs_power"}})


def test_eval_form_examples():
    g = graph2()
    assert eval_form(g, make_field(g.space, [1.0, 0.0])) == 0.5
    for build in ALL_FORMS:
        form = build()
        const = make_field(form.space, np.full(form.space.n, 1.7))
        assert eval_form(form, const) == 0.0


def test_counterexample_energies_exact():
    form = maxpos_grid()
    f = make_field(form.space, -np.arange(11) / 10.0)
    assert eval_form(form, f) == 0.0
    assert eval_form(form, -f) == pytest.approx(1.0, abs=1e-12)


def test_eval_space_mismatch():
    g = graph2()
    with pytest.raises(SpaceMismatch):
        eval_form(g, make_field(make_space([1.0, 2.0]), [0.0, 0.0]))


def test_nonnegative_on_random_fields():
    rng = np.random.default_rng(1)
    for build in ALL_FORMS:
        form = build()
        for _ in range(50):
            u = make_field(form.space, rng.uniform(-5, 5, form.space.n))
            assert eval_form(form, u) >= 0.0


def test_sampled_convexity():
    rng = np.random.default_rng(2)
    for build in ALL_FORMS:
        form = build()
        for _ in range(100):
            f = make_field(form.space, rng.uniform(-3, 3, form.space.n))
            g = make_field(form.space, rng.uniform(-3, 3, form.space.n))
            mid = 0.5 * f + 0.5 * g
            assert eval_form(form, mid) <= 0.5 * eval_form(form, f) + 0.5 * eval_form(form, g) + 1e-9


def symmetry(form):
    cfg = SuiteConfig(n_samples=50, seed=0)
    return next(r for r in check_criteria(form, cfg) if r.name == "symmetry")


def test_symmetry_reports():
    assert symmetry(graph2()).passed
    assert symmetry(nonlocal_form(4.0, directed=True)).passed
    rep = symmetry(maxpos_grid())
    assert not rep.passed and rep.worst_violation > 0.1
    assert len(rep.witness["f"]) == rep.witness["form"]["nodes"]
    # directed kernel with a non-even psi is genuinely asymmetric
    rng = np.random.default_rng(3)
    K = np.triu(rng.uniform(0.5, 1.0, (4, 4)), k=1)
    directed = make_form(
        {"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "positive_part"}}
    )
    assert not symmetry(directed).passed


def test_discrete_locality_additive_on_separated_supports():
    # if at every grid edge at least one of the two differences vanishes,
    # the energy adds exactly
    rng = np.random.default_rng(4)
    for name, extra in (
        ("abs_power", {"p": 3}),
        ("max_positive_part", {}),
        ("finsler_weighted", {"weights": list(rng.uniform(0.5, 2, 10))}),
    ):
        form = make_form(
            {"kind": "local_grid_1d", "nodes": 11, "h": 0.1, "integrand": {"name": name, **extra}}
        )
        for _ in range(25):
            u_vals = np.zeros(11)
            v_vals = np.zeros(11)
            u_vals[:5] = rng.uniform(-2, 2, 5)  # u varies only on the left block
            v_vals[6:] = rng.uniform(-2, 2, 5)  # v varies only on the right block
            v_vals[:6] = v_vals[6]  # constant there: edge differences vanish
            u_vals[5:] = u_vals[4]
            u = make_field(form.space, u_vals)
            v = make_field(form.space, v_vals)
            lhs = eval_form(form, u + v)
            rhs = eval_form(form, u) + eval_form(form, v)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_graph_quadratic_half_prefactor_once_per_edge():
    # doubled edge list doubles the energy; the 1/2 applies per edge
    one = make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]})
    two = make_form(
        {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}
    )
    u = make_field(one.space, [2.0, -1.0])
    assert eval_form(two, u) == 2 * eval_form(one, u)


def test_descriptor_round_trips_for_every_catalog_kind():
    for label, desc in instance_catalog(0).items():
        form = make_form(desc)
        again = make_form(form.descriptor())
        assert again.descriptor() == form.descriptor(), label
        assert again.kind == form.kind == desc["kind"]
        assert np.array_equal(again.i_idx, form.i_idx) and np.array_equal(again.j_idx, form.j_idx)
        assert np.array_equal(again.coeffs, form.coeffs) and again.piece == form.piece
        assert again.space == form.space


def test_diffs_adjoint_is_the_transpose_of_diffs():
    rng = np.random.default_rng(8)
    for label, desc in instance_catalog(0).items():
        form = make_form(desc)
        n, n_e = form.space.n, form.n_terms
        D = np.zeros((n_e, n))
        D[np.arange(n_e), form.i_idx] += 1.0
        D[np.arange(n_e), form.j_idx] -= 1.0
        u = rng.uniform(-3, 3, n)
        y = rng.uniform(-3, 3, n_e)
        assert abs(form.diffs(u) @ y - u @ form.diffs_adjoint(y)) <= 1e-12, label
        assert np.max(np.abs(form.diffs_adjoint(y) - D.T @ y)) <= 1e-12, label


@pytest.mark.parametrize("p", [1.25, 1.5, 1.75, 3.0])
def test_power_prox_matches_scalar_root_finder(p):
    from scipy.optimize import brentq

    rng = np.random.default_rng(int(p * 100))
    size = 10_000
    y = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-4, 4, size)
    kappa = 10.0 ** rng.uniform(-8, 8, size)  # kappa = coeff * scale / rho
    y[:50] = 0.0
    kappa[25:75] = 0.0
    scale, rho = 0.7, 1.3
    piece = ScalarPiece("power", p, scale)
    coeff = kappa * rho / scale
    got = piece.prox(y, coeff, rho)
    ki = coeff * scale / rho
    ref = np.empty(size)
    for k in range(size):
        a = abs(y[k])
        if a == 0.0 or ki[k] == 0.0:
            ref[k] = a
        else:
            fn = lambda t: ki[k] * p * t ** (p - 1.0) + t - a
            ref[k] = brentq(fn, 0.0, a, xtol=1e-15, rtol=1e-15)
    ref *= np.sign(y)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(y)))
    assert np.array_equal(piece.prox(-y, coeff, rho), -got)
    assert np.all(got[:50] == 0.0)


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_power_grad_matches_finite_differences(p):
    # |z|^p is differentiable for every p > 1, though C^2 only from p = 2;
    # the flow's gradient certificate needs the derivative at p = 1.5
    piece = ScalarPiece("power", p, 0.7)
    z = np.random.default_rng(8).uniform(-2.0, 2.0, 200)
    z = z[np.abs(z) > 0.1]
    h = 1e-6
    fd = (piece.value(z + h) - piece.value(z - h)) / (2.0 * h)
    assert np.all(np.abs(piece.grad(z) - fd) <= 1e-7 * np.abs(fd))
    assert np.array_equal(piece.grad(np.zeros(3)), np.zeros(3))

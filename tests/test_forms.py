import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbdirichlet.catalog import instance_catalog
from nbdirichlet.errors import BadSpec, SpaceMismatch
from nbdirichlet.flow import FlowConfig, evolve
from nbdirichlet import forms
from nbdirichlet.forms import _VECTOR_TERMS, ScalarPiece, _row_sums, _sum_terms, make_form
from nbdirichlet.measure import MeasureSpace, make_field
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
    # the exponent is checked before the grid's scale h^(1-p)/p is computed
    for p in (0.5, -1000.0):
        with pytest.raises(BadSpec, match="at least 1"):
            make_form({"kind": "local_grid_1d", "nodes": 9, "h": 10.0, "integrand": {"name": "abs_power", "p": p}})
    # an infinite exponent is no piece
    with pytest.raises(BadSpec):
        make_form({"kind": "nonlocal_psi", "kernel": [[0, 1], [1, 0]], "psi": {"name": "power", "p": np.inf}})
    with pytest.raises(BadSpec):
        make_form({"kind": "local_grid_1d", "nodes": 9, "h": 0.1, "integrand": {"name": "abs_power", "p": np.inf}})


def test_pair_coefficients_are_numbers():
    # a kernel entry or a Finsler weight is a finite int or float, as a
    # field value is: a bool, a string or None is not read as a number
    grid = {"kind": "local_grid_1d", "nodes": 3, "h": 0.5}
    for bad in (True, False, "1.5", None, [1.0], np.nan, np.inf, np.True_):
        with pytest.raises(BadSpec, match="kernel weight"):
            make_form({"kind": "nonlocal_psi", "kernel": [[0, bad], [1, 0]]})
        with pytest.raises(BadSpec, match="Finsler weight"):
            make_form({**grid, "integrand": {"name": "finsler_weighted", "weights": [1.0, bad]}})
    with pytest.raises(BadSpec):
        make_form({"kind": "nonlocal_psi", "kernel": np.array([[False, True], [True, False]])})
    with pytest.raises(BadSpec):
        make_form({**grid, "integrand": {"name": "finsler_weighted", "weights": np.array([True, True])}})
    # integer arrays and numpy scalars are numbers, and normalise as lists do
    for kernel in (np.array([[0, 2], [1, 0]]), [[0, np.int64(2)], [1.0, 0]]):
        form = make_form({"kind": "nonlocal_psi", "kernel": kernel})
        assert form.descriptor()["kernel"] == [[0.0, 2.0], [1.0, 0.0]]
    for weights in (np.array([1, 2]), [np.float64(1.0), 2]):
        form = make_form({**grid, "integrand": {"name": "finsler_weighted", "weights": weights}})
        assert form.coeffs.tolist() == form.descriptor()["integrand"]["weights"] == [1.0, 2.0]


def test_eval_form_examples():
    g = graph2()
    assert g.energy_of_values(np.array([1.0, 0.0])) == 0.5
    for build in ALL_FORMS:
        form = build()
        const = np.full(form.space.n, 1.7)
        assert form.energy_of_values(const) == 0.0


def test_counterexample_energies_exact():
    form = maxpos_grid()
    f = -np.arange(11) / 10.0
    assert form.energy_of_values(f) == 0.0
    assert form.energy_of_values(-f) == pytest.approx(1.0, abs=1e-12)


def test_eval_space_mismatch():
    # the flow checks its datum's space on entry, before the first energy
    g = graph2()
    elsewhere = make_field(MeasureSpace([1.0, 2.0]), [0.0, 0.0])
    with pytest.raises(SpaceMismatch, match="field does not live on the form's space"):
        evolve(g, elsewhere, FlowConfig(tau=0.5, n_steps=1))


def test_nonnegative_on_random_fields():
    rng = np.random.default_rng(1)
    for build in ALL_FORMS:
        form = build()
        for _ in range(50):
            u = rng.uniform(-5, 5, form.space.n)
            assert form.energy_of_values(u) >= 0.0


def test_sampled_convexity():
    rng = np.random.default_rng(2)
    for build in ALL_FORMS:
        form = build()
        E = form.energy_of_values
        for _ in range(100):
            f = rng.uniform(-3, 3, form.space.n)
            g = rng.uniform(-3, 3, form.space.n)
            mid = 0.5 * f + 0.5 * g
            assert E(mid) <= 0.5 * E(f) + 0.5 * E(g) + 1e-9


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
            lhs = form.energy_of_values(u_vals + v_vals)
            rhs = form.energy_of_values(u_vals) + form.energy_of_values(v_vals)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_graph_quadratic_half_prefactor_once_per_edge():
    # doubled edge list doubles the energy; the 1/2 applies per edge
    one = make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]})
    two = make_form(
        {"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}
    )
    u = np.array([2.0, -1.0])
    assert two.energy_of_values(u) == 2 * one.energy_of_values(u)


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


def test_laplacian_is_d_transpose_w_d():
    # integer weights keep every sum exact, so any summation order gives the
    # same bits; pair weights other than the coefficients, as Newton's Hessian
    rng = np.random.default_rng(4)
    for label, desc in instance_catalog(0).items():
        form = make_form(desc)
        D = form.diffs(np.eye(form.space.n)).T  # row e is D's row for pair e
        w = rng.integers(-3, 9, form.n_terms).astype(float)
        assert np.array_equal(form.laplacian(w), D.T @ np.diag(w) @ D), label
        assert np.array_equal(form.laplacian(np.ones(form.n_terms)), D.T @ D), label


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
    piece = ScalarPiece(p, scale)
    coeff = kappa * rho / scale
    ki = coeff * scale / rho
    got = piece.prox(y, ki)
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
    assert np.array_equal(piece.prox(-y, ki), -got)
    assert np.all(got[:50] == 0.0)


def _reference_power_prox_magnitude(a, kp, p):
    """_power_prox_magnitude as it was before its sweep was cut down: the
    active entries gathered on every call, q * kp and rtol * t formed where
    they are used, the bracket and the bisection by np.where on every sweep,
    and np.all."""
    out = np.where(kp == 0.0, a, 0.0)
    idx = np.flatnonzero((a > 0.0) & (kp > 0.0))
    if idx.size == 0:
        return out
    a, kp = a[idx], kp[idx]
    q = p - 1.0
    rtol = 4.0 * np.finfo(float).eps * (1.0 + 1.0 / q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        hi = np.minimum(a, (a / kp) ** (1.0 / q))
        lo = np.zeros_like(a)
        t = hi
        for _ in range(200):
            tq = t**q
            resid = t + kp * tq - a
            lo = np.where(resid < 0.0, t, lo)
            hi = np.where(resid > 0.0, t, hi)
            nxt = t - resid / (1.0 + q * kp * tq / t)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            t, step = nxt, np.abs(nxt - t)
            if np.all((step <= rtol * t) | (hi - lo <= rtol * t)):
                break
    out[idx] = t
    return out


@pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
def test_power_prox_keeps_the_reference_bits(p):
    # the sweep does less work per pass, with the same elementwise arithmetic;
    # the entries with a = 0 or kp = 0 send the rest through the all-active path
    rng = np.random.default_rng(int(p * 1000))
    size = 10_000
    a = 10.0 ** rng.uniform(-6, 6, size)
    kp = 10.0 ** rng.uniform(-10, 10, size)
    a[:50] = 0.0
    kp[25:75] = 0.0
    kp[100:200] = a[100:200] * 10.0 ** rng.uniform(-1, 1, 100)  # kp of the order of a
    got = forms._power_prox_magnitude(a, kp, p)
    assert np.array_equal(got, _reference_power_prox_magnitude(a, kp, p))
    assert np.all(got[:50] == 0.0) and np.array_equal(got[50:75], a[50:75])


def test_diffs_keep_the_reference_bits():
    # a field takes both ends in one take, a stack in two: u_i - u_j per pair
    # either way, bit for bit
    rng = np.random.default_rng(12)
    empty = make_form({"kind": "graph_quadratic", "nodes": 3})
    assert empty.n_terms == 0
    for label, desc in [*instance_catalog(0).items(), ("no pairs", empty.descriptor())]:
        form = make_form(desc)
        n = form.space.n
        for values in (
            rng.uniform(-1e3, 1e3, n),
            rng.normal(size=(7, n)) * 10.0 ** rng.uniform(-300, 300, (7, n)),
            np.zeros((0, n)),
        ):
            ref = values.take(form.i_idx, axis=-1) - values.take(form.j_idx, axis=-1)
            got = form.diffs(values)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), label


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_power_grad_matches_finite_differences(p):
    # |z|^p is differentiable for every p > 1, though C^2 only from p = 2;
    # the flow's gradient certificate needs the derivative at p = 1.5
    piece = ScalarPiece(p, 0.7)
    z = np.random.default_rng(8).uniform(-2.0, 2.0, 200)
    z = z[np.abs(z) > 0.1]
    h = 1e-6
    fd = (piece.value(z + h) - piece.value(z - h)) / (2.0 * h)
    assert np.all(np.abs(piece.grad(z) - fd) <= 1e-7 * np.abs(fd))
    assert np.array_equal(piece.grad(np.zeros(3)), np.zeros(3))


def test_support_pieces_match_the_old_formulas():
    # |z| and max(z, 0) as the support functions of [-1, 1] and [0, 1]
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng(9)
    z = np.concatenate([
        [0.0, -0.0, tiny, -tiny, tiny / 8, -tiny / 8, 1e300, -1e300, 1.0, -1.0],
        [np.inf, -np.inf, np.nan],
        rng.uniform(-10.0, 10.0, 500),
        rng.standard_normal(100) * 1e-310,
    ])
    for box, old in (((-1.0, 1.0), np.abs(z)), ((0.0, 1.0), np.maximum(z, 0.0))):
        got = ScalarPiece(box=box).value(z)
        assert np.array_equal(np.isnan(got), np.isnan(old))
        assert np.all((got == old) | np.isnan(old))
        y = z[np.isfinite(z)]
        coeff = rng.uniform(0.0, 3.0, y.size)
        kappa = coeff / 1.7
        ref = y - np.clip(y, kappa * box[0], kappa * box[1])
        assert np.array_equal(ScalarPiece(box=box).prox(y, kappa), ref)


def _grid(integrand, h=0.25):
    return {"kind": "local_grid_1d", "nodes": 5, "h": h, "integrand": integrand}


def _kernel(psi):
    return {"kind": "nonlocal_psi", "kernel": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "psi": psi}


@pytest.mark.parametrize(
    "desc, piece",
    [
        (_grid({"name": "abs_power", "p": 1}), {"box": (-1.0, 1.0)}),
        (_grid({"name": "finsler_weighted", "weights": [1, 2, 3, 4]}), {"box": (-1.0, 1.0)}),
        (_kernel({"name": "power", "p": 1}), {"box": (-1.0, 1.0)}),
        (_grid({"name": "max_positive_part"}), {"box": (0.0, 1.0)}),
        (_kernel({"name": "positive_part"}), {"box": (0.0, 1.0)}),
        (_grid({"name": "abs_power", "p": 3}), {"p": 3.0, "scale": 0.25**-2.0 / 3.0}),
        (_grid({"name": "abs_power", "p": 1.5}, h=0.1), {"p": 1.5, "scale": 0.1**-0.5 / 1.5}),
        (_grid({"name": "abs_power"}), {"p": 2.0, "scale": 0.25**-1.0 / 2.0}),
        ({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]}, {"p": 2.0, "scale": 0.5}),
        (_kernel({"name": "power", "p": 4}), {"p": 4.0, "scale": 1.0}),
        (_kernel({"name": "power", "p": 1.5}), {"p": 1.5, "scale": 1.0}),
    ],
)
def test_descriptors_map_to_their_pieces(desc, piece):
    got = make_form(desc).piece
    assert got == ScalarPiece(**piece)
    # a piece is rebuilt from its own fields
    assert dataclasses.replace(got) == got == eval(repr(got), {"ScalarPiece": ScalarPiece})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": 1.0},
        {"p": 0.5, "scale": 2.0},
        {"p": np.nan},
        {"p": np.inf},
        {},
        {"p": 3.0, "scale": 0.0},
        {"box": (0.5, 1.0)},
        {"box": (-1.0, -0.5)},
        {"box": (-np.inf, 1.0)},
        {"box": (0.0, 0.0)},
        {"p": 2.0, "box": (-1.0, 1.0)},
        {"scale": 2.0, "box": (0.0, 1.0)},
    ],
)
def test_bad_pieces_raise_badspec(kwargs):
    with pytest.raises(BadSpec):
        ScalarPiece(**kwargs)


def test_energy_sum_past_the_largest_float_is_inf():
    # each term 4 * 6^395 is finite; their sum is not, and fsum raises on it
    form = make_form(
        {"kind": "nonlocal_psi", "kernel": [[0, 4, 4], [4, 0, 4], [4, 4, 0]],
         "psi": {"name": "power", "p": 395}}
    )
    u = np.array([0.0, 6.0, 0.0])
    assert np.all(np.isfinite(form.coeffs * form.piece.value(form.diffs(u))))
    assert form.energy_of_values(u) == np.inf
    stack = form.energy_of_values(np.stack([u, np.array([0.0, 1.0, 0.0])]))
    assert stack[0] == np.inf and stack[1] == 16.0
    assert np.isnan(form.energy_of_values(np.array([np.nan, 6.0, 0.0])))
    # a difference that overflows to -inf has the max(z, 0) term 0, not 0 * inf = NaN
    form = make_form(_grid({"name": "max_positive_part"}, h=1.0) | {"nodes": 3})
    u = np.array([1.7e308, -1.7e308, 0.0])
    with np.errstate(over="ignore"):
        assert form.energy_of_values(u) == 1.7e308
        assert np.array_equal(form.energy_of_values(np.stack([u, -u])), [1.7e308, np.inf])


def test_wide_energy_rows_keep_the_overflow_rule(monkeypatch):
    # the 3-node case above on 8 nodes, 56 terms a row, ten times over: a
    # block large enough to be summed without fsum
    n = 8
    form = make_form(
        {"kind": "nonlocal_psi", "kernel": (4.0 * (np.ones((n, n)) - np.eye(n))).tolist(),
         "psi": {"name": "power", "p": 395}}
    )
    u = np.zeros(n)
    u[1] = 6.0
    assert np.all(np.isfinite(form.coeffs * form.piece.value(form.diffs(u))))
    nan_row = u.copy()
    nan_row[0] = np.nan
    rows = np.stack([u, 6.0 * u / 36.0, nan_row, np.zeros(n)] * 10)
    assert rows.shape[0] * form.n_terms >= _VECTOR_TERMS
    shapes = []
    monkeypatch.setattr(forms, "_row_sums", lambda t: shapes.append(t.shape) or _row_sums(t))
    stack = form.energy_of_values(rows).reshape(10, 4)
    assert shapes == [(40, form.n_terms)]
    assert np.all(stack[:, 0] == np.inf)
    assert np.all(stack[:, 1] == 8.0 * (n - 1))  # 2 (n - 1) terms of 4 * 1^395
    assert np.all(np.isnan(stack[:, 2]))
    assert np.all(stack[:, 3] == 0.0) and not np.any(np.signbit(stack[:, 3]))


@pytest.mark.parametrize("label", ["nonlocal_z4", "grid_abs_p4", "graph_quadratic_20"])
@pytest.mark.parametrize("n_rows", [1, 7, 150, 401, 2000])
def test_energy_blocks_do_not_show(monkeypatch, label, n_rows):
    # a stack is summed in blocks, each by fsum or _row_sums after its size;
    # every row is the fsum of its own terms bit for bit, whatever block it is in
    form = make_form(instance_catalog(3)[label])
    values = np.random.default_rng(n_rows).uniform(-3.0, 3.0, (n_rows, form.space.n))
    want = [_sum_terms((form.coeffs * form.piece.value(form.diffs(row))).tolist()) for row in values]
    sizes = []
    monkeypatch.setattr(forms, "_row_sums", lambda t: sizes.append(t.size) or _row_sums(t))
    got = form.energy_of_values(values)
    assert struct.pack(f"<{n_rows}d", *got) == struct.pack(f"<{n_rows}d", *want)
    assert all(_VECTOR_TERMS <= size <= forms._BLOCK_TERMS + form.n_terms for size in sizes)
    if n_rows * form.n_terms >= 2 * forms._BLOCK_TERMS:
        assert len(sizes) >= 2


# terms that put rows near ties, the underflow threshold and DBL_MAX
_SPECIAL_TERMS = [
    0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 2.0**-53, 2.0**-54, 3.0 * 2.0**-54, 2.0**52, 2.0**53,
    1.0 + 2.0**-52, 1e16, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7e308,
    -1.7e308, 2.0**1000, math.inf, math.nan,
]


@st.composite
def _term_rows(draw):
    """Rows of one width on both sides of the cut, each mixing the special
    terms, floats of every exponent, one magnitude at a scale, and rows built
    to sum to a tie: a value whose ulp is 2^j with half-ulp pieces."""
    width = draw(st.sampled_from([1, 2, 5, 19, 47, 48, 49, 90, 182]))
    n_rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-1074, 1000))
    shape = (n_rows, width)
    kinds = [
        rng.choice(_SPECIAL_TERMS, shape),
        rng.choice([-1.0, 1.0], shape) * np.ldexp(rng.random(shape), rng.integers(-1074, 1024, shape)),
        rng.uniform(-4.0, 4.0, shape) * scale,
        rng.integers(-(2**20), 2**20, shape) * 2.0**-20 * scale,
        rng.choice([0.0, 0.0, 0.25, 0.5, -0.25], shape) * scale,
    ]
    pick = rng.integers(0, len(kinds), shape) if draw(st.booleans()) else draw(
        st.integers(0, len(kinds) - 1))
    terms = np.choose(pick, kinds)
    if draw(st.booleans()):  # ulp of the first term is scale, the rest add to ties
        terms[:, 0] = 2.0**52 * scale + rng.integers(0, 8, n_rows) * scale
    return terms


@settings(max_examples=400, deadline=None)
@given(_term_rows())
def test_row_sums_equal_fsum_bit_for_bit(terms):
    got = _row_sums(terms)
    for row, value in zip(terms.tolist(), got.tolist()):
        want = _sum_terms(row)
        assert struct.pack("<d", value) == struct.pack("<d", want) or (
            math.isnan(value) and math.isnan(want)
        ), (row, value, want)

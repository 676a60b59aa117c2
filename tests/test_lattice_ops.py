import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbdirichlet.lattice_ops import (
    h_alpha,
    phi_alpha,
    project_band,
    project_oracle,
    project_order,
    twist_residuals,
)

finite = st.floats(min_value=-20, max_value=20, allow_nan=False)
alphas = st.floats(min_value=0, max_value=10, allow_nan=False)


@st.composite
def pair(draw, n_max=10):
    """Weights m of a measure space and two fields f, g on it."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    m, f, g = (
        np.array(draw(st.lists(elems, min_size=n, max_size=n)))
        for elems in (st.floats(min_value=0.1, max_value=5), finite, finite)
    )
    return m, f, g


def test_h_alpha_examples():
    f = np.array([5.0])
    g = np.array([1.0])
    assert h_alpha(f, g, 2.0)[0] == 3.0
    assert np.array_equal(h_alpha(f, f, 7.0), f)
    assert np.array_equal(h_alpha(f, g, 0.0), g)


@given(pair(), alphas)
@settings(max_examples=150)
def test_h_alpha_band_bounds(mfg, a):
    _, f, g = mfg
    h = h_alpha(f, g, a)
    assert np.all(g - a <= h) and np.all(h <= g + a)
    # band membership in the same arithmetic the clamp sees: |f-g| <= a can
    # disagree with f <= g+a by one ulp when g is large and a is tiny
    inside = (f >= g - a) & (f <= g + a)
    assert np.array_equal(h[inside], f[inside])


def test_phi_alpha_examples():
    assert phi_alpha(0.0, 5.0) == 0.0
    assert phi_alpha(1.0, 2.0) == 2.0
    assert phi_alpha(3.0, 1.0) == 4.0
    assert phi_alpha(-3.0, 1.0) == -4.0
    with pytest.raises(ValueError):
        phi_alpha(1.0, -0.5)


def test_project_order_examples():
    f = np.array([2.0, -1.0])
    g = np.array([0.0, 0.0])
    p1, p2 = project_order(f, g)
    assert np.array_equal(p1, [1.0, -1.0])
    assert np.array_equal(p2, [1.0, 0.0])
    assert np.all(p1 <= p2)
    lo = np.array([-1.0, 0.0])
    q1, q2 = project_order(lo, g)
    assert np.array_equal(q1, lo) and np.array_equal(q2, g)


def test_project_band_examples():
    f = np.array([3.0])
    g = np.array([0.0])
    p1, p2 = project_band(f, g, 1.0)
    assert (p1[0], p2[0]) == (2.0, 1.0)
    # constraint inactive: pair returned unchanged
    q1, q2 = project_band(f, g, 10.0)
    assert q1[0] == 3.0 and q2[0] == 0.0


def test_oracle_examples():
    zero = np.array([0.0])
    p = project_oracle("order", np.array([2.0]), zero)
    assert (p[0][0], p[1][0]) == (1.0, 1.0)
    p = project_oracle("band", np.array([3.0]), zero, 1.0)
    assert (p[0][0], p[1][0]) == (2.0, 1.0)


@pytest.mark.parametrize(
    "kind, alpha",
    [("cone", None), ("Band", 1.0), ("order", 0.0)],
)
def test_oracle_rejects_unknown_kind_and_order_alpha(kind, alpha):
    with pytest.raises(ValueError):
        project_oracle(kind, np.array([2.0]), np.array([0.0]), alpha)


@given(pair(), alphas)
@settings(max_examples=200)
def test_projections_agree_with_oracle(mfg, a):
    _, f, g = mfg
    for closed, oracle in (
        (project_order(f, g), project_oracle("order", f, g)),
        (project_band(f, g, a), project_oracle("band", f, g, a)),
    ):
        for c, o in zip(closed, oracle):
            assert np.max(np.abs(c - o)) <= 1e-12


def linf(x):
    return float(np.max(np.abs(x)))


@given(pair(), alphas)
@settings(max_examples=150)
def test_projections_idempotent(mfg, a):
    _, f, g = mfg
    p1, p2 = project_order(f, g)
    q1, q2 = project_order(p1, p2)
    assert linf(q1 - p1) <= 1e-12 and linf(q2 - p2) <= 1e-12
    b1, b2 = project_band(f, g, a)
    c1, c2 = project_band(b1, b2, a)
    assert linf(c1 - b1) <= 1e-12 and linf(c2 - b2) <= 1e-12
    assert np.all(np.abs(b1 - b2) <= a * (1 + 1e-12) + 1e-12)


@given(pair(n_max=6), pair(n_max=6), alphas)
@settings(max_examples=150)
def test_projections_nonexpansive(mfg, mfg2, a):
    # in the weighted L2 norm of the first pair's measure space
    m, f, g = mfg
    _, f2, g2 = mfg2
    if f2.size != f.size:
        return

    def dist(pair_a, pair_b):
        return np.sqrt(
            np.sum(m * (pair_a[0] - pair_b[0]) ** 2) + np.sum(m * (pair_a[1] - pair_b[1]) ** 2)
        )

    before = dist((f, g), (f2, g2))
    assert dist(project_order(f, g), project_order(f2, g2)) <= before * (1 + 1e-10) + 1e-10
    assert dist(project_band(f, g, a), project_band(f2, g2, a)) <= before * (1 + 1e-10) + 1e-10


def test_twist_examples():
    u = np.array([0.5, -0.2, 0.1])
    v = np.array([0.4, 0.0, 0.0])
    # |u - v| <= alpha everywhere: both residuals vanish for any t, s
    r = twist_residuals(u, v, 1.0, 0.37, 0.91)
    assert max(r) <= 1e-15
    # t = s = 0 endpoint
    w = np.array([5.0, -3.0, 2.0])
    r = twist_residuals(w, v, 0.25, 0.0, 0.0)
    assert max(r) <= 1e-15


def test_twist_zero_on_simplex():
    rng = np.random.default_rng(9)
    for _ in range(500):
        u = rng.uniform(-4, 4, 6)
        v = rng.uniform(-4, 4, 6)
        a = rng.uniform(0, 3)
        t = rng.uniform(0, 1)
        ss = rng.uniform(0, 1 - t)
        assert max(twist_residuals(u, v, a, t, ss)) <= 1e-12


def test_twist_fails_beyond_simplex():
    # the relation genuinely does not extend to t + s > 1
    u = np.array([2.5])
    v = np.array([0.0])
    r = twist_residuals(u, v, 0.7, 0.3, 0.9)
    assert max(r) > 0.1


def test_midpoint_law_matches_band_projection():
    rng = np.random.default_rng(10)
    for _ in range(500):
        u = rng.uniform(-4, 4, 5)
        v = rng.uniform(-4, 4, 5)
        a = rng.uniform(0, 3)
        h = h_alpha(u, v, a)
        k = h_alpha(v, u, a)
        p1, p2 = project_band(u, v, a)
        assert np.max(np.abs(0.5 * (u + h) - p1)) <= 1e-12
        assert np.max(np.abs(0.5 * (v + k) - p2)) <= 1e-12


def test_halfsum_components_equal_clamp_average():
    # the true relation behind the (false) half-sum display:
    # P1_{2,a}(f,g) = (f + H_a(f,g))/2 = P2_{2,a}(g,f)
    rng = np.random.default_rng(11)
    for _ in range(300):
        f = rng.uniform(-4, 4, 4)
        g = rng.uniform(-4, 4, 4)
        a = rng.uniform(0, 3)
        p1 = project_band(f, g, a)[0]
        p2 = project_band(g, f, a)[1]
        avg = 0.5 * (f + h_alpha(f, g, a))
        assert np.max(np.abs(p1 - avg)) <= 1e-12
        assert np.max(np.abs(p2 - avg)) <= 1e-12

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbdirichlet import contraction
from nbdirichlet.contraction import (
    PLFunction,
    _peel,
    closed_form_table,
    compose,
    decompose,
    envelope,
    make_phi,
    negate,
    pl_eval,
    pl_table,
)
from nbdirichlet.errors import InconsistentSamples, NotAlternating, NotIncreasing
from nbdirichlet.samplers import sample_contraction, sample_envelope_contraction

GRID = np.linspace(-20.0, 20.0, 2001)


@st.composite
def breakpoint_lists(draw, max_k=8, span=10.0):
    k = draw(st.integers(min_value=0, max_value=max_k))
    xs = draw(
        st.lists(
            st.floats(min_value=-span, max_value=span),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    xs = sorted(xs)
    if any(b - a < 1e-9 for a, b in zip(xs, xs[1:])):
        xs = list(np.arange(len(xs)) * 0.5 - 1.0)
    return xs


def random_phi(rng, max_k=10, span=10.0):
    k = int(rng.integers(0, max_k + 1))
    bps = np.sort(rng.uniform(-span, span, k))
    while np.any(np.diff(bps) <= 0):
        bps = np.sort(rng.uniform(-span, span, k))
    return make_phi(bps)


def test_make_phi_examples():
    ident = make_phi([])
    assert ident.breakpoints == () and ident.slopes == (1.0,)
    assert ident(5.0) == 5.0

    neg_abs = make_phi([0])
    assert neg_abs(1.0) == -1.0 and neg_abs(-1.0) == -1.0
    assert neg_abs(2.0) == -2.0

    phi = make_phi([-1, 2])
    for x, v in [(-1, 1.0), (0, 0.0), (2, -2.0), (3, -1.0), (-3, -1.0)]:
        assert phi(float(x)) == pytest.approx(v, abs=1e-15)


def test_make_phi_rejects_unordered():
    with pytest.raises(NotIncreasing):
        make_phi([1.0, 1.0])
    with pytest.raises(NotIncreasing):
        make_phi([2.0, -1.0])


def test_canonical_merges_equal_slopes():
    pl = PLFunction((0.0, 1.0), (1.0, 1.0, -1.0), 0.0)
    assert pl.breakpoints == (1.0,)
    assert pl.slopes == (1.0, -1.0)


def test_slope_magnitude_guard():
    with pytest.raises(ValueError):
        PLFunction((), (1.5,), 0.0)


@pytest.mark.parametrize("row", [
    ((1.0, 1.0), (1.0, -1.0, 1.0), 0.0),  # not increasing
    ((2.0, -1.0), (1.0, -1.0, 1.0), 0.0),
    ((0.0, np.nan), (1.0, -1.0, 1.0), 0.0),  # not finite
    ((np.inf,), (1.0, -1.0), 0.0),
    ((1.0,), (1.0,), 0.0),  # a slope short
    ((1.0,), (1.0, -1.5), 0.0),  # |slope| > 1
    ((), (-1.0 - 2e-9,), 0.0),
    ((1.0,), (1.0, -1.0), np.inf),  # anchor not finite
    ((1.0,), (1.0, np.nan), 0.0),  # a NaN slope
    ((), (np.nan,), 0.0),
    ((1.0,), (1.0, -1.0), None),  # anchor not a number
    ((1.0,), (1.0, -1.0), "0"),
    ((1.0,), (1.0, -1.0), "x"),
])
def test_table_checks_each_row_as_plfunction_does(row):
    # a row is checked where a table is built, with PLFunction's errors
    with pytest.raises((TypeError, ValueError)) as want:  # NotIncreasing is a ValueError
        PLFunction(*row)
    with pytest.raises((TypeError, ValueError)) as got:
        pl_table([tuple(make_phi([0.5])), row, tuple(make_phi([]))])
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_compose_identity_laws():
    rng = np.random.default_rng(0)
    ident = make_phi([])
    for _ in range(20):
        phi = random_phi(rng)
        left = compose(ident, phi)
        right = compose(phi, ident)
        assert np.allclose(left(GRID), phi(GRID), atol=1e-12)
        assert np.allclose(right(GRID), phi(GRID), atol=1e-12)
    minus = negate(ident)
    assert compose(minus, minus) == ident


def test_compose_example():
    got = compose(make_phi([2]), make_phi([-1, 0]))
    want = make_phi([-1, 0, 2])
    assert got == want


def test_compose_past_two_to_the_53():
    # 1e16 - 1.0 rounds back onto 1e16, so the slope left of a kink there is
    # read further out
    assert compose(make_phi([]), make_phi([1e16])) == make_phi([1e16])
    assert compose(make_phi([-1e16]), make_phi([])) == make_phi([-1e16])
    # the midpoint of 1e308 and 1.5e308 is taken without their sum, which overflows
    assert compose(make_phi([]), make_phi([1e308, 1.5e308])) == make_phi([1e308, 1.5e308])


@given(breakpoint_lists(max_k=5), breakpoint_lists(max_k=5))
@settings(max_examples=150, deadline=None)
def test_compose_pointwise_oracle(bps_out, bps_in):
    outer, inner = make_phi(bps_out), make_phi(bps_in)
    comp = compose(outer, inner)
    xs = np.linspace(-25, 25, 401)
    assert np.max(np.abs(comp(xs) - outer(inner(xs)))) <= 1e-12 * 26


def test_compose_through_zero_slope_plateau():
    pos_part = PLFunction((0.0,), (0.0, 1.0), 0.0)
    comp = compose(make_phi([1.0]), pos_part)
    xs = np.linspace(-5, 5, 1001)
    assert np.allclose(comp(xs), make_phi([1.0])(np.maximum(xs, 0.0)), atol=1e-14)


def test_lipschitz_property_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        phi = random_phi(rng)
        xs = rng.uniform(-30, 30, 1000)
        ys = rng.uniform(-30, 30, 1000)
        assert np.all(np.abs(phi(xs) - phi(ys)) <= np.abs(xs - ys) + 1e-12)


def test_eval_exact_at_anchor():
    rng = np.random.default_rng(2)
    for _ in range(50):
        phi = random_phi(rng)
        assert phi(0.0) == 0.0
    plateau = PLFunction((-1.0, 1.0), (1.0, 0.0, 1.0), 0.5)
    assert plateau(0.0) == 0.5


def test_decompose_base_cases():
    factors, residual = decompose(make_phi([-2.0, 1.0]))
    assert len(factors) == 1 and residual == make_phi([])
    assert factors[0] == make_phi([-2.0, 1.0])

    factors, residual = decompose(make_phi([0.5]))
    assert factors == [] and residual == make_phi([0.5])

    factors, residual = decompose(make_phi([]))
    assert factors == [] and residual == make_phi([])


def test_decompose_spec_example():
    factors, residual = decompose(make_phi([-1, 0, 2]))
    assert len(factors) == 1
    assert factors[0] == make_phi([-1, 0])
    assert residual == make_phi([2])
    rebuilt = compose(residual, factors[0])
    assert rebuilt == make_phi([-1, 0, 2])


def test_decompose_rejects_non_alternating():
    with pytest.raises(NotAlternating):
        decompose(negate(make_phi([])))
    with pytest.raises(NotAlternating):
        decompose(PLFunction((0.0,), (0.0, 1.0), 0.0))
    with pytest.raises(NotAlternating):
        decompose(PLFunction((), (1.0,), 1.0))  # F_0's slope, anchored at 1


def test_decompose_roundtrip_random():
    rng = np.random.default_rng(4)
    for _ in range(150):
        k = int(rng.integers(0, 16))
        bps = np.sort(rng.uniform(-10, 10, k))
        while np.any(np.diff(bps) <= 0):
            bps = np.sort(rng.uniform(-10, 10, k))
        phi = make_phi(bps)
        factors, residual = decompose(phi)
        assert len(factors) == k // 2
        assert all(f == make_phi(f.breakpoints) and len(f.breakpoints) == 2 for f in factors)
        assert residual == make_phi(residual.breakpoints)
        assert len(residual.breakpoints) == k - 2 * (k // 2)
        rebuilt = reduce(compose, factors, residual)
        assert np.max(np.abs(rebuilt(GRID) - phi(GRID))) <= 1e-9


def test_decompose_with_exactly_equal_gaps():
    for bps in (
        [0.0, 1.0, 2.0],
        [-2.0, -1.0, 0.0, 1.0],
        [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0],
        [-1.0, 0.0, 1.0],
    ):
        phi = make_phi(bps)
        factors, residual = decompose(phi)
        rebuilt = reduce(compose, factors, residual)
        assert np.max(np.abs(rebuilt(GRID) - phi(GRID))) <= 1e-9


@pytest.mark.parametrize("bps", [[1e16, 3e16], [-1e300, -5e299, 1e300], [1e308, 1.5e308]])
def test_decompose_roundtrip_at_large_magnitudes(bps):
    phi = make_phi(bps)
    assert reduce(compose, *decompose(phi)) == phi


def peel_with_tail(phi):
    """Reference factorisation: peel while three or more kinks remain, then
    split the last one or two off by hand."""
    bps = list(phi.breakpoints)
    emitted = []
    while len(bps) >= 3:
        pair, bps = _peel(bps)
        emitted.append(make_phi(pair))
    if len(bps) == 2:
        emitted.append(make_phi(bps))
        residual = make_phi([])
    else:
        residual = make_phi(bps)
    return emitted[::-1], residual


def test_decompose_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(14)
    for k in range(11):
        for _ in range(20):
            # grid points give equal gaps and kinks at 0 too
            phi = make_phi(np.sort(rng.choice(np.linspace(-10.0, 10.0, 81), k, replace=False)))
            assert repr(decompose(phi)) == repr(peel_with_tail(phi))


def test_envelope_examples():
    e = envelope([(0.0, 0.0)], 1.0)
    xs = np.linspace(-3, 3, 601)
    assert np.allclose(e(xs), np.abs(xs), atol=1e-14)
    assert e == negate(make_phi([0.0]))

    e = envelope([(-1.0, -1.0), (0.0, 0.0), (1.0, -1.0)], 1.0)
    assert e(0.5) == pytest.approx(-0.5, abs=1e-14)
    inside = np.linspace(-1, 1, 201)
    assert np.allclose(e(inside), -np.abs(inside), atol=1e-14)

    e = envelope([(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)], 1.0)
    assert np.allclose(e(inside), inside, atol=1e-14)


def test_envelope_preconditions():
    with pytest.raises(InconsistentSamples):
        envelope([(0.0, 0.0), (1.0, 2.0)], 1.0)  # slope 2 between samples
    with pytest.raises(InconsistentSamples):
        envelope([(1.0, 0.5)], 1.0)  # origin sample missing
    with pytest.raises(InconsistentSamples):
        envelope([(0.0, 0.0), (0.0, 0.0)], 1.0)  # duplicate positions
    with pytest.raises(ValueError):
        envelope([(0.0, 0.0)], 0.0)
    # NaN compares false, so neither the distinctness nor the consistency
    # test alone catches a non-finite sample
    for bad in ((np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (-np.inf, 0.0), (1.0, np.inf)):
        with pytest.raises(InconsistentSamples):
            envelope([(0.0, 0.0), bad], 2.0)


def brute_envelope(samples, xs):
    ys, vs = np.array(samples).T
    return np.min(vs[:, None] + np.abs(xs[None, :] - ys[:, None]), axis=0)


def random_samples(rng):
    """A 1-Lipschitz sample set through (0, 0), partly outside [-R, R], with
    some gaps of slope exactly +1 or -1 (no crossing inside them)."""
    R = rng.uniform(0.5, 5.0)
    ys = np.unique(np.concatenate([rng.uniform(-2.0 * R, 2.0 * R, rng.integers(1, 10)), [0.0]]))
    slopes = np.where(rng.random(ys.size) < 0.3, rng.choice([-1.0, 1.0], ys.size),
                      rng.uniform(-1.0, 1.0, ys.size))
    vs = np.zeros(ys.size)
    i0 = int(np.flatnonzero(ys == 0.0)[0])
    for i in range(i0 + 1, ys.size):
        vs[i] = vs[i - 1] + slopes[i] * (ys[i] - ys[i - 1])
    for i in range(i0 - 1, -1, -1):
        vs[i] = vs[i + 1] - slopes[i] * (ys[i + 1] - ys[i])
    return list(zip(ys, vs)), R


def assert_min_of_cones(samples, R):
    e = envelope(samples, R)
    ys = np.array([y for y, _ in samples])
    xs = np.concatenate([np.linspace(-R, R, 4001), ys[np.abs(ys) <= R]])
    tol = 1e-12 * (1.0 + R + max(abs(v) for _, v in samples))
    assert np.max(np.abs(e(xs) - brute_envelope(samples, xs))) <= tol
    assert set(e.slopes) <= {-1.0, 1.0}


@pytest.mark.parametrize("samples, R", [
    ([(0.0, 0.0)], 2.0),  # a single sample
    ([(-7.0, -3.0), (-1.0, 0.5), (0.0, 0.0), (2.0, 2.0), (9.0, 1.0)], 3.0),  # outside [-R, R]
    ([(-2.0, 2.0), (0.0, 0.0), (1.5, -1.5)], 1.0),  # |dv| = dy on every gap
    ([(-1.0, -1.0 - 1e-13), (0.0, 0.0), (1.0, 1.0 + 1e-13)], 1.5),  # inside the slack
])
def test_envelope_is_the_minimum_of_cones(samples, R):
    assert_min_of_cones(samples, R)


def test_random_envelopes_are_the_minimum_of_cones():
    rng = np.random.default_rng(7)
    for _ in range(300):
        assert_min_of_cones(*random_samples(rng))


@pytest.mark.parametrize("seed", [35, 75, 84])
def test_sampled_envelope_slopes_are_exactly_unit(seed):
    # a kink of these envelopes lies within 1e-4 of its neighbour, where a
    # slope taken as a difference quotient of values comes out near 1 - 1e-12
    _, slopes, _ = sample_envelope_contraction(np.random.default_rng(seed), 9, 5.0)
    assert all(abs(s) == 1.0 for s in slopes)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_envelope_properties(seed, n_pts):
    rng = np.random.default_rng(seed)
    ys = np.unique(np.concatenate([rng.uniform(-4, 4, n_pts), [0.0]]))
    vals = np.zeros(ys.size)
    i0 = int(np.flatnonzero(ys == 0.0)[0])
    for i in range(i0 + 1, ys.size):
        vals[i] = vals[i - 1] + rng.uniform(-1, 1) * (ys[i] - ys[i - 1])
    for i in range(i0 - 1, -1, -1):
        vals[i] = vals[i + 1] - rng.uniform(-1, 1) * (ys[i + 1] - ys[i])
    R = 4.0
    e = envelope(list(zip(ys, vals)), R)
    assert e(0.0) == 0.0
    assert e.anchor == 0.0 and all(abs(s) <= 1.0 for s in e.slopes)
    xs = np.linspace(-R, R, 801)
    ex = e(xs)
    # 1-Lipschitz and below every sample cone, equal at the samples
    assert np.all(np.abs(np.diff(ex)) <= np.diff(xs) + 1e-12)
    for y, v in zip(ys, vals):
        assert np.all(ex <= v + np.abs(xs - y) + 1e-9)
        assert e(float(y)) == pytest.approx(v, abs=1e-9)


def test_envelope_near_coincident_grid_points():
    # grid points 8e-8 apart once rounded an inner slope to 1 + 1.4e-9, which
    # PLFunction rejects
    ys = [-4.777726829226124, -4.297894463446887, -3.78320457847938, -2.023758063154287,
          -1.5972550479332517, -1.5972253362842723, 0.0, 1.1006047849956833,
          1.2135483999518692, 1.64603764407906]
    vals = [-1.6525559481223766, -1.6025654173976964, -1.2970402851138962, -0.4997813170419292,
            -0.901796522123185, -0.9017669719205547, 0.0, 0.8821759370840881,
            0.9890416153507408, 1.3641830890789028]
    R = 6.0
    e = envelope(list(zip(ys, vals)), R)
    assert e(0.0) == 0.0
    assert e.anchor == 0.0 and all(abs(s) <= 1.0 for s in e.slopes)
    xs = np.linspace(-R, R, 801)
    ex = e(xs)
    assert np.all(np.abs(np.diff(ex)) <= np.diff(xs) + 1e-12)
    for y, v in zip(ys, vals):
        assert np.all(ex <= v + np.abs(xs - y) + 1e-9)
        assert e(float(y)) == pytest.approx(v, abs=1e-9)


def test_many_kinks_evaluate_in_little_memory():
    # each point's interval comes from a binary search over the kinks, so
    # memory does not grow with points x kinks (that comparison takes 25 MB)
    rng = np.random.default_rng(0)
    kinks = np.cumsum(rng.uniform(0.01, 1.0, 5000)) - 2000.0
    phi = make_phi(kinks)
    xs = rng.uniform(kinks[0] - 1.0, kinks[-1] + 1.0, 5000)
    xs[:100] = kinks[::50]  # at a kink: the interval on its right
    t = phi.table
    tracemalloc.start()
    try:
        got = phi(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    idx = np.searchsorted(kinks, xs, side="right")
    j = np.maximum(idx - 1, 0)
    expect = t.anchor[0] + ((t.rel[0, j] + t.slopes[0, idx] * (xs - t.bps[0, j])) - t.rel0[0])
    assert np.array_equal(got, expect)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _search_pl_eval(t, x):
    """pl_eval with each point's interval found by a binary search in its
    row, one bit of the index at a time: the reference for the comparison
    count that replaced it."""
    linear = t.slopes[:, :1] * x
    n_rows, k = t.bps.shape
    if k == 0:
        rel = linear
    else:
        flat = t.bps.ravel()
        before = np.arange(0, n_rows * k, k)[:, None] - 1
        idx = np.zeros(x.shape, dtype=np.intp)
        bit = 1 << (k.bit_length() - 1)
        while bit:
            cand = np.minimum(idx + bit, k)
            idx = np.where(flat[before + cand] <= x, cand, idx)
            bit >>= 1
        j = np.maximum(idx - 1, 0)
        rows = np.arange(n_rows)[:, None]
        empty = (t.nb == 0)[:, None]
        bj = np.where(empty, 0.0, t.bps[rows, j])
        rel = np.where(empty, linear, t.rel[rows, j] + t.slopes[rows, idx] * (x - bj))
    return t.anchor[:, None] + (rel - t.rel0[:, None])


@pytest.mark.parametrize("budget", [None, 50])
def test_pl_eval_equals_the_binary_search_bit_for_bit(monkeypatch, budget):
    # tables of sampled contractions with 0 to 26 kinks, so most rows are
    # padded; the points hit every kink, its neighbours and +-0.0. A budget
    # of 50 compares the points a few at a time.
    if budget is not None:
        monkeypatch.setattr(contraction, "_COMPARE", budget)
    rng = np.random.default_rng(11)
    for trial in range(60):
        phis = [sample_contraction(rng) for _ in range(int(rng.integers(1, 40)))]
        if trial % 3 == 0:
            phis.append(make_phi(np.sort(rng.uniform(-5, 5, 26))))
        if trial % 5 == 0:
            phis = [make_phi([]), negate(make_phi([]))] + phis
        t = pl_table(phis)
        kinks = t.bps[np.isfinite(t.bps)]
        pool = np.concatenate([kinks, np.nextafter(kinks, -np.inf), np.nextafter(kinks, np.inf),
                               [0.0, -0.0], rng.uniform(-8.0, 8.0, 50)])
        x = rng.choice(pool, (len(phis), int(rng.integers(1, 30))))
        x[:, 0] = -0.0 if trial % 2 else 0.0
        assert _bits(pl_eval(t, x)) == _bits(_search_pl_eval(t, x)), trial


def test_scalar_evaluation_equals_pl_eval_bit_for_bit():
    # sampled contractions (F_k, compositions, envelopes) and their negations,
    # at random points, at +-0.0, at every breakpoint and its neighbours
    rng = np.random.default_rng(5)
    for trial in range(3000):
        row = sample_contraction(rng)
        if trial % 2:
            row = negate(row)
        b = np.array(row[0])
        xs = np.concatenate([rng.uniform(-8.0, 8.0, 12), [0.0, -0.0], b,
                             np.nextafter(b, -np.inf), np.nextafter(b, np.inf)])
        want = pl_eval(pl_table([row]), xs[None, :])[0]
        at = contraction._evaluator(row)
        assert _bits([at(x) for x in xs.tolist()]) == _bits(want), row


def test_scalar_evaluation_keeps_signed_zeros():
    # rows without breakpoints: anchor + (s x - s 0), with the signs of zero;
    # the last has rel = [0, -0.0], which np.cumsum keeps and 0 + -0.0 loses
    for phi in (PLFunction((), (-1.0,), -0.0), PLFunction((), (1.0,), -0.0),
                PLFunction((), (-0.0,), 0.0), PLFunction((), (0.0,), -0.0),
                PLFunction((1.0,), (-0.0, 1.0), -0.0),
                PLFunction((0.0, 1.0), (1.0, -0.0, -1.0), -0.0)):
        for x in (0.0, -0.0, 1.0, -1.0):
            want = pl_eval(phi.table, np.array([[x]]))[0]
            assert _bits([contraction._evaluator(phi)(x)]) == _bits(want), (phi, x)


def _reference_rel_at(t, x):
    """_rel_at as it was before rows with breakpoints skipped the empty-row
    selections: every row goes through them."""
    linear = t.slopes[:, :1] * x
    n_rows, k = t.bps.shape
    if k == 0:
        return linear
    width = max(1, contraction._COMPARE // (n_rows * k))
    parts = [
        np.count_nonzero(t.bps[:, None, :] <= x[:, s : s + width, None], axis=2)
        for s in range(0, max(x.shape[1], 1), width)
    ]
    idx = parts[0] if len(parts) == 1 else np.hstack(parts)
    j = np.maximum(idx - 1, 0)
    rows = np.arange(n_rows)[:, None]
    empty = (t.nb == 0)[:, None]
    bj = np.where(empty, 0.0, t.bps[rows, j])
    return np.where(empty, linear, t.rel[rows, j] + t.slopes[rows, idx] * (x - bj))


def test_rel_at_equals_the_reference_on_padded_empty_and_full_rows():
    rng = np.random.default_rng(23)
    kinks = np.sort(rng.uniform(-5.0, 5.0, (30, 3)), axis=1)
    tables = {
        "full": closed_form_table([(kinks, (1.0, -1.0, 1.0, -1.0))]),
        "full, broadcast slopes": closed_form_table([(kinks, (0.0, -1.0, 1.0, -0.5))]),
        "full, one kink": closed_form_table([(kinks[:, :1], (1.0, -1.0))]),
        "padded": pl_table([make_phi(row[: i % 4]) for i, row in enumerate(kinks) if i % 4]),
        "padded and empty": pl_table([make_phi(row[: i % 4]) for i, row in enumerate(kinks)]),
        "empty": pl_table([make_phi([]), negate(make_phi([]))] * 5),
    }
    for name, t in tables.items():
        n_rows = t.bps.shape[0]
        finite = t.bps[np.isfinite(t.bps)]
        pool = np.concatenate([finite, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf),
                               [0.0, -0.0], rng.uniform(-8.0, 8.0, 40)])
        x = rng.choice(pool, (n_rows, 25))
        x[:, 0] = -0.0
        assert _bits(contraction._rel_at(t, x)) == _bits(_reference_rel_at(t, x)), name
        assert _bits(t.rel0) == _bits(_reference_rel_at(t, np.zeros((n_rows, 1)))[:, 0]), name

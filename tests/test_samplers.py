"""The samplers draw with rng.random() where they once called rng.uniform:
numpy's uniform(lo, hi) is lo + (hi - lo) * random() on the same stream, so
every sampled value keeps its bits. These tests hold the uniform calls, one
sample at a time, as the reference for the samplers and for the laws that
map blocks of words to fields and band radii. The contraction samplers draw
canonical rows with the row algebra; the reference builds PLFunctions with
make_phi, negate, compose and envelope."""

import math

import numpy as np
import pytest

from nbdirichlet.contraction import PLFunction, compose, envelope, make_phi, negate, pl_table
from nbdirichlet.samplers import (
    AMPLITUDE,
    BREAKPOINT_RANGE,
    ENVELOPE_POINTS,
    MAX_BREAKPOINTS,
    MAX_DEPTH,
    P_RAMP,
    P_STEP,
    field_values,
    sample_alpha,
    sample_contraction,
    sample_envelope_contraction,
    sample_f_k,
)
from nbdirichlet.verifier import _MINUS_ID

SEEDS = range(300)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, 2.0 * AMPLITUDE), (0.0, AMPLITUDE), (0.05, AMPLITUDE), (0.02, 0.98), (1.05, 3.0),
     (-1.0, 1.0), (0.0, 1.0), (float(np.log(1e-3)), float(np.log(10.0)))],
)
def test_scalar_draw_equals_uniform_bit_for_bit(lo, hi):
    for seed in SEEDS:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(8):
            want = float(a.uniform(lo, hi))
            got = lo + (hi - lo) * b.random()
            assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want


@pytest.mark.parametrize("span, n", [(AMPLITUDE, 1), (AMPLITUDE, 2), (AMPLITUDE, 17), (5.0, 8)])
def test_array_draw_equals_uniform_bit_for_bit(span, n):
    for seed in SEEDS:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = a.uniform(-span, span, n)
        got = 2.0 * span * b.random(n) - span
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert a.random() == b.random()  # the streams stay in step


def _uniform_sample_values(rng, n):
    """One field from its n + 2 words, one sample at a time."""
    draw, arg = rng.random(2)
    amps = rng.uniform(-AMPLITUDE, AMPLITUDE, n)
    if draw < P_RAMP:
        vals = np.sort(amps)
        if arg < 0.5:
            vals = vals[::-1]
    elif draw < P_RAMP + P_STEP:
        split = int(arg * (n + 1))
        lo, hi = amps[0], amps[min(1, n - 1)]
        vals = np.where(np.arange(n) < split, lo, hi)
    else:
        vals = amps
    return vals


def _uniform_sample_alpha(rng):
    draw = rng.random()
    alpha = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
    return 0.0 if draw < 0.125 else alpha


def _uniform_sample_f_k(rng, max_k, span):
    k = int(rng.integers(0, max_k + 1))
    bps = np.sort(rng.uniform(-span, span, k))
    while np.any(np.diff(bps) <= 0.0):
        bps = np.sort(rng.uniform(-span, span, k))
    return make_phi(bps)


def _uniform_sample_envelope_contraction(rng, n_points, span):
    ys = np.sort(rng.uniform(-span, span, n_points))
    ys = np.unique(np.concatenate([ys, [0.0]]))
    vals = np.zeros(ys.size)
    i0 = int(np.flatnonzero(ys == 0.0)[0])
    for i in range(i0 + 1, ys.size):
        vals[i] = vals[i - 1] + rng.uniform(-1.0, 1.0) * (ys[i] - ys[i - 1])
    for i in range(i0 - 1, -1, -1):
        vals[i] = vals[i + 1] - rng.uniform(-1.0, 1.0) * (ys[i + 1] - ys[i])
    return envelope(list(zip(ys, vals)), span + 1.0)


def _uniform_sample_g_composition(rng, max_depth, span):
    def element():
        phi = _uniform_sample_f_k(rng, 2, span)
        return negate(phi) if rng.uniform() < 0.5 else phi

    depth = int(rng.integers(1, max_depth + 1))
    phi = element()
    for _ in range(depth - 1):
        phi = compose(element(), phi)
    return phi


def _uniform_sample_contraction(rng):
    """The contraction sampler's law, drawn as PLFunctions; the family
    (0 F_k, 1 composition, 2 envelope) with it."""
    draw = rng.uniform()
    if draw < 0.5:
        return 0, _uniform_sample_f_k(rng, MAX_BREAKPOINTS, BREAKPOINT_RANGE)
    if draw < 0.8:
        return 1, _uniform_sample_g_composition(rng, MAX_DEPTH, BREAKPOINT_RANGE)
    return 2, _uniform_sample_envelope_contraction(rng, ENVELOPE_POINTS, BREAKPOINT_RANGE)


def _pl_bits(phi):
    bps, slopes, anchor = phi
    return np.array([*bps, *slopes, anchor]).view(np.int64).tolist()


def test_samplers_equal_their_uniform_forms_bit_for_bit():
    for seed in SEEDS:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 2, 7, 20):
            want, got = _uniform_sample_values(a, n), field_values(b.random((1, n + 2)), n)[0]
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert np.float64(sample_alpha(b)).view(np.int64) == np.float64(
            _uniform_sample_alpha(a)).view(np.int64)
        assert _pl_bits(sample_f_k(b, 8, 5.0)) == _pl_bits(_uniform_sample_f_k(a, 8, 5.0))
        assert _pl_bits(sample_envelope_contraction(b, 9, 5.0)) == _pl_bits(
            _uniform_sample_envelope_contraction(a, 9, 5.0))
        assert a.random() == b.random()


def _table_bytes(t):
    return [getattr(t, f).tobytes() for f in ("bps", "slopes", "rel", "rel0", "anchor", "nb")]


def test_contraction_rows_equal_plfunctions_bit_for_bit():
    # 40 draws a stream, the first replaced by the forced -id as the
    # normal-contraction check does: each row is the PLFunction the
    # reference builds, in canonical form (PLFunction(*row) keeps its bits,
    # the signs of zero slopes and anchors included), and the table of the
    # rows is the table of the PLFunctions
    families = set()
    for seed in range(250):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [_uniform_sample_contraction(a) for _ in range(40)]
        families.update(family for family, _ in drawn)
        want = [negate(make_phi([]))] + [phi for _, phi in drawn[1:]]
        rows = [sample_contraction(b) for _ in range(40)]
        rows[0] = _MINUS_ID
        for row, phi in zip(rows, want):
            assert _pl_bits(row) == _pl_bits(phi), seed
            assert _pl_bits(PLFunction(*row)) == _pl_bits(row), seed
        assert _table_bytes(pl_table(rows)) == _table_bytes(pl_table(want)), seed
        assert a.random() == b.random()
    assert families == {0, 1, 2}


# -- the field law on blocks -----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 20, 2500])
def test_field_block_equals_its_rows(n):
    # the fields of a block are those of its rows one at a time, and each
    # kind of field shows up
    for seed in range(40):
        words = np.random.default_rng(seed).random((120, n + 2))
        rows = field_values(words, n)
        assert rows.shape == (120, n)
        for row, w in zip(rows, words):
            assert row.tobytes() == field_values(w[None, :], n)[0].tobytes(), seed
        kinds = np.where(words[:, 0] < P_RAMP, 0, np.where(words[:, 0] < P_RAMP + P_STEP, 1, 2))
        assert set(kinds.tolist()) == {0, 1, 2}

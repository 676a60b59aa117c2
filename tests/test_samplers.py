"""The samplers draw with rng.random() where they once called rng.uniform:
numpy's uniform(lo, hi) is lo + (hi - lo) * random() on the same stream, so
every sampled value keeps its bits. These tests hold the uniform calls, one
sample at a time, as the reference for the samplers and for the laws that
map blocks of words to fields and band radii."""

import math

import numpy as np
import pytest

from nbdirichlet.contraction import envelope, make_phi
from nbdirichlet.samplers import (
    AMPLITUDE,
    P_RAMP,
    P_STEP,
    field_values,
    sample_alpha,
    sample_envelope_contraction,
    sample_f_k,
)

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


def _pl_bits(phi):
    return np.array([*phi.breakpoints, *phi.slopes, phi.anchor]).view(np.int64).tolist()


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

"""The samplers draw with rng.random() where they once called rng.uniform:
numpy's uniform(lo, hi) is lo + (hi - lo) * random() on the same stream, so
every sampled value, and every report, keeps its bits. These tests hold the
uniform calls as the reference.

A sweep draws through a ``_Stream``, which reads the PCG64 words of the
check's Generator in blocks; the tests below hold the Generator as its
reference: every value, field and integer must be the one the Generator
gives."""

import math

import numpy as np
import pytest

from nbdirichlet.contraction import envelope, make_phi
from nbdirichlet.samplers import (
    AMPLITUDE,
    MAX_BREAKPOINTS,
    MAX_DEPTH,
    P_RAMP,
    P_STEP,
    _RAMP,
    _STEP,
    _UNIFORM,
    _Stream,
    fields,
    sample_alpha,
    sample_contraction,
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


def _sample_values(rng, n):
    """One sampled field drawn from a Generator: the sweep's field sampler
    before it drew from a _Stream."""
    draw = rng.random()
    if draw < P_RAMP:
        vals = np.sort(2.0 * AMPLITUDE * rng.random(n) - AMPLITUDE)
        if rng.random() < 0.5:
            vals = vals[::-1]
    elif draw < P_RAMP + P_STEP:
        lo = 2.0 * AMPLITUDE * rng.random() - AMPLITUDE
        hi = 2.0 * AMPLITUDE * rng.random() - AMPLITUDE
        split = int(rng.integers(0, n + 1))
        vals = np.full(n, hi)
        vals[:split] = lo
    else:
        vals = 2.0 * AMPLITUDE * rng.random(n) - AMPLITUDE
    return vals


def _uniform_sample_values(rng, n):
    draw = rng.random()
    if draw < P_RAMP:
        vals = np.sort(rng.uniform(-AMPLITUDE, AMPLITUDE, n))
        if rng.random() < 0.5:
            vals = vals[::-1]
    elif draw < P_RAMP + P_STEP:
        lo, hi = rng.uniform(-AMPLITUDE, AMPLITUDE, 2)
        split = int(rng.integers(0, n + 1))
        vals = np.where(np.arange(n) < split, lo, hi)
    else:
        vals = rng.uniform(-AMPLITUDE, AMPLITUDE, n)
    return vals


def _uniform_sample_alpha(rng):
    if rng.random() < 0.125:
        return 0.0
    return float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))


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
            want, got = _uniform_sample_values(a, n), _sample_values(b, n)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert np.float64(sample_alpha(b)).view(np.int64) == np.float64(
            _uniform_sample_alpha(a)).view(np.int64)
        assert _pl_bits(sample_f_k(b, 8, 5.0)) == _pl_bits(_uniform_sample_f_k(a, 8, 5.0))
        assert _pl_bits(sample_envelope_contraction(b, 9, 5.0)) == _pl_bits(
            _uniform_sample_envelope_contraction(a, 9, 5.0))
        assert a.random() == b.random()


# -- the block stream -----------------------------------------------------------

# the ranges the samplers draw (a step's split on 1-500 points, F_k's k,
# a composition's depth), the full 32-bit range, and one that rejects a
# quarter of its 32-bit draws
RANGES = [(0, n + 1) for n in (1, 2, 5, 7, 10, 19, 20, 500)] + [
    (0, MAX_BREAKPOINTS + 1), (0, 3), (1, MAX_DEPTH + 1), (-7, 11), (5, 6),
    (0, 2**32), (0, 3 * 2**30),
]


def _f64_bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_stream_equals_the_generator_bit_for_bit():
    # a mixed run of random() and integers() per seed; some runs draw long
    # fields between them, so they cross several block boundaries
    for seed in range(1000):
        gen, stream = np.random.default_rng(seed), _Stream(np.random.default_rng(seed))
        plan = np.random.default_rng(10**6 + seed)
        for step in range(40):
            op = int(plan.integers(0, 3))
            if op == 0:
                assert _f64_bits(stream.random()) == _f64_bits(gen.random()), (seed, step)
            elif op == 1:
                lo, hi = RANGES[int(plan.integers(0, len(RANGES)))]
                got, want = stream.integers(lo, hi), int(gen.integers(lo, hi))
                assert type(got) is int and got == want, (seed, step, lo, hi)
            else:
                n = int(plan.integers(1, 4000 if seed % 10 == 0 else 30))
                want = _sample_values(gen, n)
                assert fields([stream.field(n)])[0].tobytes() == want.tobytes(), (seed, n)
        assert stream.random() == gen.random()


def test_high_rejection_range_equals_the_generator():
    # 2**32 mod (3 * 2**30) = 2**30: a quarter of the 32-bit draws are
    # rejected, and each rejection takes a half-word
    gen, stream = np.random.default_rng(7), _Stream(np.random.default_rng(7))
    for _ in range(5000):
        assert stream.integers(0, 3 * 2**30) == int(gen.integers(0, 3 * 2**30))
        assert stream.random() == gen.random()


@pytest.mark.parametrize("n", [1, 2, 5, 20, 2500])
def test_recipes_build_the_generator_fields_row_by_row(n):
    # one stacked build per chunk, with the chunk's blocks released after it
    # as a sweep does; each kind of field shows up
    for seed in range(40):
        gen, stream = np.random.default_rng(seed), _Stream(np.random.default_rng(seed))
        kinds = set()
        for _ in range(4):
            recipes = [stream.field(n) for _ in range(30)]
            want = [_sample_values(gen, n) for _ in range(30)]
            rows = fields(recipes)
            stream.release()
            assert rows.shape == (30, n)
            for row, w in zip(rows, want):
                assert row.tobytes() == w.tobytes(), seed
            kinds |= {r[3] for r in recipes}
            assert stream.random() == gen.random()
        assert kinds == {_UNIFORM, _RAMP, _STEP}


def test_samplers_draw_the_same_from_a_stream():
    for seed in range(200):
        gen, stream = np.random.default_rng(seed), _Stream(np.random.default_rng(seed))
        for _ in range(5):
            assert _pl_bits(sample_contraction(stream)) == _pl_bits(sample_contraction(gen))
            assert _f64_bits(sample_alpha(stream)) == _f64_bits(sample_alpha(gen))
        assert stream.random() == gen.random()


def test_stream_refuses_other_generators():
    with pytest.raises(TypeError, match="PCG64"):
        _Stream(np.random.Generator(np.random.MT19937(0)))
    with pytest.raises(TypeError, match="PCG64"):
        _Stream(np.random.Generator(np.random.PCG64DXSM(0)))
    gen = np.random.default_rng(0)
    gen.integers(0, 10)  # keeps the upper half of its word
    with pytest.raises(ValueError, match="half"):
        _Stream(gen)
    gen.integers(0, 10)  # uses it
    _Stream(gen)


def test_stream_refuses_ranges_it_cannot_draw():
    stream = _Stream(np.random.default_rng(0))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        stream.integers(0, 2**32 + 1)
    with pytest.raises(ValueError, match="lo < hi"):
        stream.integers(3, 3)
    assert stream.integers(4, 5) == 4  # one value: no word is drawn
    assert stream.random() == np.random.default_rng(0).random()

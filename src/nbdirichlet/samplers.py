"""Seeded samplers for fields, band radii and contractions.

Field samples mix i.i.d. uniform amplitudes with structured monotone ramps and
two-level step functions, which activate the casewise branches of the clamp
operators far more often than generic noise. Band radii mix the degenerate
alpha = 0 with a log-uniform range. Contraction samples mix alternating
families F_k, depth-bounded compositions of unit-slope generators, and
Lipschitz-envelope approximants of random 1-Lipschitz data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .contraction import PLFunction, compose, envelope, make_phi, negate
from .errors import require_int


def check_rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per (seed, check name); stable across runs.

    The seed is a nonnegative integer of any size, and distinct seeds give
    distinct streams (numpy raises ValueError for a negative one).
    """
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng([int(seed), *words])


# The sampler constants. They fix the RNG calls of every check, and so the
# bytes of every report; they are not settings.
AMPLITUDE = 3.0  # field values lie in [-AMPLITUDE, AMPLITUDE]
P_RAMP = 0.25  # share of sorted ramps among the fields
P_STEP = 0.25  # share of two-level steps; the rest are i.i.d. uniform
MAX_BREAKPOINTS = 8  # F_k samples have k <= MAX_BREAKPOINTS
MAX_DEPTH = 3  # generators per composition
ENVELOPE_POINTS = 9  # sample points of an envelope contraction
BREAKPOINT_RANGE = 5.0  # breakpoints lie in [-BREAKPOINT_RANGE, BREAKPOINT_RANGE]


@dataclass(frozen=True)
class SuiteConfig:
    n_samples: int = 500
    seed: int = 0

    def __post_init__(self):
        require_int("n_samples", self.n_samples, 1)


def sample_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """The values of one sampled field on n points: a sorted ramp (reversed
    half the time), a two-level step, or i.i.d. uniform amplitudes."""
    # numpy's uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit, on
    # the same stream; a scalar random() costs a fraction of a scalar uniform()
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


_LOG_ALPHA = (float(np.log(1e-3)), float(np.log(10.0)))  # the log-uniform range


def sample_alpha(rng: np.random.Generator) -> float:
    """alpha = 0 with probability 1/8, else log-uniform on [1e-3, 10]."""
    if rng.random() < 0.125:
        return 0.0
    lo, hi = _LOG_ALPHA
    return float(np.exp(lo + (hi - lo) * rng.random()))


def sample_f_k(
    rng: np.random.Generator, max_k: int, span: float
) -> PLFunction:
    k = int(rng.integers(0, max_k + 1))
    while True:
        bps = sorted(2.0 * span * rng.random() - span for _ in range(k))
        if all(b1 < b2 for b1, b2 in zip(bps, bps[1:])):
            return make_phi(bps)


def sample_g_element(rng: np.random.Generator, span: float) -> PLFunction:
    """One generator: (id or -id) composed with an F_j, j <= 2."""
    phi = sample_f_k(rng, 2, span)
    return negate(phi) if rng.random() < 0.5 else phi


def sample_g_composition(
    rng: np.random.Generator, max_depth: int, span: float
) -> PLFunction:
    depth = int(rng.integers(1, max_depth + 1))
    phi = sample_g_element(rng, span)
    for _ in range(depth - 1):
        phi = compose(sample_g_element(rng, span), phi)
    return phi


def sample_envelope_contraction(
    rng: np.random.Generator, n_points: int, span: float
) -> PLFunction:
    """Envelope of a random 1-Lipschitz sample set anchored at (0, 0)."""
    ys = sorted({*(2.0 * span * rng.random() - span for _ in range(n_points)), 0.0})
    vals = [0.0] * len(ys)
    i0 = ys.index(0.0)
    for i in range(i0 + 1, len(ys)):  # integrate bounded slopes from origin
        vals[i] = vals[i - 1] + (2.0 * rng.random() - 1.0) * (ys[i] - ys[i - 1])
    for i in range(i0 - 1, -1, -1):
        vals[i] = vals[i + 1] - (2.0 * rng.random() - 1.0) * (ys[i + 1] - ys[i])
    return envelope(list(zip(ys, vals)), span + 1.0)


def sample_contraction(rng: np.random.Generator) -> PLFunction:
    draw = rng.random()
    if draw < 0.5:
        return sample_f_k(rng, MAX_BREAKPOINTS, BREAKPOINT_RANGE)
    if draw < 0.8:
        return sample_g_composition(rng, MAX_DEPTH, BREAKPOINT_RANGE)
    return sample_envelope_contraction(rng, ENVELOPE_POINTS, BREAKPOINT_RANGE)


def pl_to_witness(phi: PLFunction) -> dict:
    return {
        "breakpoints": list(phi.breakpoints),
        "slopes": list(phi.slopes),
        "anchor": phi.anchor,
    }


def pl_from_witness(d: dict) -> PLFunction:
    return PLFunction(tuple(d["breakpoints"]), tuple(d["slopes"]), d["anchor"])

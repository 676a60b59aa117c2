"""Seeded samplers for fields, band radii and contractions.

Field samples mix i.i.d. uniform amplitudes with structured monotone ramps and
two-level step functions, which activate the casewise branches of the clamp
operators far more often than generic noise. Band radii mix the degenerate
alpha = 0 with a log-uniform range. Contraction samples mix alternating
families F_k, depth-bounded compositions of unit-slope generators, and
Lipschitz-envelope approximants of random 1-Lipschitz data.

Every check owns a numpy Generator (``check_rng``). A field and a band
radius are laws on a fixed number of uniform words, written over arrays:
``field_values`` maps rows of n + 2 words to fields on n points and
``alpha_values`` pairs of words to radii. So a sweep builds the fields and
radii of many samples from one ``rng.random((rows, words))`` block; one
radius is ``alpha_values(rng.random(2))``. Contractions are drawn one at a
time, by ``random()`` and ``integers()`` calls (a run of ``random()`` calls
as one ``rng.random(k)``, which reads the same words), as canonical rows
``(breakpoints, slopes, anchor)`` built with the row algebra of
``contraction``: no ``PLFunction`` is made, and the table the rows go into
checks them (``contraction.pl_table``).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .contraction import _alternating, _zigzag, compose, negate
from .errors import require_int


def check_rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per (seed, check name); stable across runs.

    The seed is a nonnegative integer of any size, and distinct seeds give
    distinct streams (numpy raises ValueError for a negative one).
    """
    return np.random.default_rng([int(seed), *_name_words(name)])


@functools.cache
def _name_words(name: str) -> tuple[int, ...]:
    """The first four big-endian 32-bit words of the name's sha256 digest."""
    digest = hashlib.sha256(name.encode()).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))


# The sampler constants. They fix the laws of every check's draws, and so the
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


def field_values(words: np.ndarray, n: int) -> np.ndarray:
    """The fields on n points that rows of n + 2 uniform words give, (N, n).

    Word 0 picks the kind: a ramp below P_RAMP, a two-level step below
    P_RAMP + P_STEP, i.i.d. uniform amplitudes otherwise. Words 2 and up are
    the amplitudes 2 * AMPLITUDE * u - AMPLITUDE. Word 1 is a ramp's
    direction (the sorted amplitudes, reversed below 0.5) or a step's split
    floor(u * (n + 1)): its first two amplitudes, the first before the split
    and the second from it on (on one point both are its one amplitude).
    """
    kind, arg = words[:, :1], words[:, 1:2]
    amp = 2.0 * AMPLITUDE * words[:, 2:] - AMPLITUDE
    ramp = np.sort(amp, axis=1)
    ramp = np.where(arg < 0.5, ramp[:, ::-1], ramp)
    split = np.floor(arg * (n + 1))
    step = np.where(np.arange(n) < split, amp[:, :1], amp[:, 1:2] if n > 1 else amp)
    return np.where(kind < P_RAMP, ramp, np.where(kind < P_RAMP + P_STEP, step, amp))


_LOG_ALPHA = (float(np.log(1e-3)), float(np.log(10.0)))  # the log-uniform range


def alpha_values(words: np.ndarray) -> np.ndarray:
    """The band radii that pairs of uniform words (..., 2) give: alpha = 0
    when the first is below 1/8, else log-uniform on [1e-3, 10] by the
    second."""
    lo, hi = _LOG_ALPHA
    return np.where(words[..., 0] < 0.125, 0.0, np.exp(lo + (hi - lo) * words[..., 1]))


def sample_f_k(rng: np.random.Generator, max_k: int, span: float) -> tuple:
    """The row of make_phi(bps) for k <= max_k uniform breakpoints in
    [-span, span], drawn again until they are distinct."""
    k = int(rng.integers(0, max_k + 1))
    while True:
        bps = sorted([2.0 * span * u - span for u in rng.random(k).tolist()])
        if all(b1 < b2 for b1, b2 in zip(bps, bps[1:])):
            return _alternating(tuple(bps))


def sample_g_element(rng: np.random.Generator, span: float) -> tuple:
    """One generator: (id or -id) composed with an F_j, j <= 2."""
    phi = sample_f_k(rng, 2, span)
    return negate(phi) if rng.random() < 0.5 else phi


def sample_g_composition(rng: np.random.Generator, max_depth: int, span: float) -> tuple:
    depth = int(rng.integers(1, max_depth + 1))
    phi = sample_g_element(rng, span)
    for _ in range(depth - 1):
        phi = compose(sample_g_element(rng, span), phi)
    return phi


def sample_envelope_contraction(rng: np.random.Generator, n_points: int, span: float) -> tuple:
    """Envelope of a random 1-Lipschitz sample set anchored at (0, 0)."""
    ys = sorted({*(2.0 * span * u - span for u in rng.random(n_points).tolist()), 0.0})
    i0 = ys.index(0.0)
    # the slopes of the gaps right of the origin outwards, then left of it
    u = [2.0 * w - 1.0 for w in rng.random(len(ys) - 1).tolist()]
    vals = [0.0] * len(ys)
    for i in range(i0 + 1, len(ys)):  # integrate bounded slopes from origin
        vals[i] = vals[i - 1] + u[i - i0 - 1] * (ys[i] - ys[i - 1])
    for i in range(i0 - 1, -1, -1):
        vals[i] = vals[i + 1] - u[len(ys) - 2 - i] * (ys[i + 1] - ys[i])
    return _zigzag(ys, vals, span + 1.0)


def sample_contraction(rng: np.random.Generator) -> tuple:
    """One contraction row: F_k with k <= MAX_BREAKPOINTS (half the draws), a
    composition of at most MAX_DEPTH generators (three in ten), else an
    envelope of ENVELOPE_POINTS samples."""
    draw = rng.random()
    if draw < 0.5:
        return sample_f_k(rng, MAX_BREAKPOINTS, BREAKPOINT_RANGE)
    if draw < 0.8:
        return sample_g_composition(rng, MAX_DEPTH, BREAKPOINT_RANGE)
    return sample_envelope_contraction(rng, ENVELOPE_POINTS, BREAKPOINT_RANGE)

"""Seeded samplers for fields, band radii and contractions.

Field samples mix i.i.d. uniform amplitudes with structured monotone ramps and
two-level step functions, which activate the casewise branches of the clamp
operators far more often than generic noise. Band radii mix the degenerate
alpha = 0 with a log-uniform range. Contraction samples mix alternating
families F_k, depth-bounded compositions of unit-slope generators, and
Lipschitz-envelope approximants of random 1-Lipschitz data.

Every check owns a numpy Generator (``check_rng``). The sweep reads it
through a ``_Stream``, which takes the Generator's PCG64 words in blocks and
returns, draw for draw, the values the Generator would; a field is drawn as
a recipe into the block, and ``fields`` turns the recipes of a chunk, of
one stream or several, into their (N, n) array in one pass. The public samplers call only ``random()`` and ``integers()``, so
they take a Generator or a stream alike.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .contraction import PLFunction, compose, envelope, make_phi, negate
from .errors import as_real, require_int


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


_BLOCK = 1 << 11  # 64-bit words a stream reads from its bit generator at a time
_UNIFORM, _RAMP, _STEP = 0, 1, 2  # the kinds of field a stream draws


class _Stream:
    """A check's RNG stream, read from its PCG64 bit generator in blocks.

    ``random()`` and ``integers(lo, hi)`` return, in the same order, exactly
    what the numpy Generator would have: random() is (w >> 11) * 2**-53 of
    the next word w, and integers() is numpy's bounded 32-bit Lemire draw,
    which takes the low half of a word and keeps its upper half for the next
    32-bit draw. So the samplers that call only these two run unchanged on
    a stream.

    ``field(n)`` draws one field on n points: a sorted ramp (reversed half
    the time), a two-level step, or i.i.d. uniform amplitudes, each
    amplitude 2 * AMPLITUDE * random() - AMPLITUDE. It returns a recipe that
    points at the field's words, and ``fields`` builds the rows of a list of
    recipes at once. The amplitudes of a block are computed when it is read.
    """

    def __init__(self, rng: np.random.Generator):
        bits = rng.bit_generator
        if type(bits) is not np.random.PCG64:
            raise TypeError(f"a stream reads PCG64 words, not {type(bits).__name__}")
        if bits.state["has_uint32"]:
            raise ValueError("the generator holds half a word of an earlier 32-bit draw")
        self._raw = bits.random_raw
        self._half = None  # the upper half-word a 32-bit draw left
        self._kept: list[tuple[int, np.ndarray]] = []  # (first word, amplitudes) of blocks
        self._base = -_BLOCK  # stream index of the current block's first word
        self._i = _BLOCK  # index in the current block of the next word
        self._advance()

    def _advance(self) -> None:
        """Read blocks until the next word is in the current one."""
        while self._i >= _BLOCK:
            self._i -= _BLOCK
            self._base += _BLOCK
            self._words = self._raw(_BLOCK)
            self._u = (self._words >> 11) * (1.0 / 9007199254740992.0)
            self._kept.append((self._base, 2.0 * AMPLITUDE * self._u - AMPLITUDE))

    def random(self) -> float:
        if self._i >= _BLOCK:
            self._advance()
        i = self._i
        self._i = i + 1
        return self._u.item(i)

    def _uint32(self) -> int:
        half, self._half = self._half, None
        if half is not None:
            return half
        if self._i >= _BLOCK:
            self._advance()
        word = self._words.item(self._i)
        self._i += 1
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi), for hi - lo <= 2**32."""
        rng = hi - lo - 1  # numpy draws from the closed range [0, rng]
        if rng < 0:
            raise ValueError(f"integers needs lo < hi, got {lo}, {hi}")
        if rng > 0xFFFFFFFF:
            raise ValueError(f"a stream draws ranges of at most 2**32 values, got {rng + 1}")
        if rng == 0:
            return lo
        if rng == 0xFFFFFFFF:
            return lo + self._uint32()
        excl = rng + 1
        m = self._uint32() * excl
        if m & 0xFFFFFFFF < excl:  # reject the low values that would bias m >> 32
            threshold = (0xFFFFFFFF - rng) % excl
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * excl
        return lo + (m >> 32)

    def field(self, n: int) -> tuple:
        """One sampled field on n points, as a recipe for ``fields``:
        (stream, n, first word, kind, arg), where arg is a ramp's sign (-1.0
        if it is reversed) or a step's split; lo and hi are a step's two
        words."""
        draw = self.random()
        pos = self._base + self._i
        if draw < P_RAMP:
            self._i += n
            return (self, n, pos, _RAMP, -1.0 if self.random() < 0.5 else 1.0)
        if draw < P_RAMP + P_STEP:
            self._i += 2
            return (self, n, pos, _STEP, self.integers(0, n + 1))
        self._i += n
        return (self, n, pos, _UNIFORM, None)

    def release(self) -> None:
        """Forget the blocks before the next word: recipes drawn from now
        on do not read them."""
        pos = self._base + self._i
        while len(self._kept) > 1 and self._kept[1][0] <= pos:
            del self._kept[0]


def fields(recipes: list[tuple]) -> np.ndarray:
    """The (N, n) values of N field recipes, of one stream or several, in
    the given order: one gather of the streams' amplitudes, then the ramps
    sorted row by row."""
    n = recipes[0][1]
    streams = list(dict.fromkeys(r[0] for r in recipes))
    blocks, offset, size = [], {}, 0
    for stream in streams:
        stream._advance()  # the blocks hold every recipe's words
        offset[stream] = size - stream._kept[0][0]
        blocks += [a for _, a in stream._kept]
        size += _BLOCK * len(stream._kept)
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    pos = np.fromiter([r[2] + offset[r[0]] for r in recipes], np.intp, len(recipes))
    cols = np.arange(n)
    idx = pos[:, None] + cols
    steps = [(k, r[4]) for k, r in enumerate(recipes) if r[3] == _STEP]
    if steps:  # lo before the split, hi from it on
        rows, split = np.array(steps).T
        idx[rows] = pos[rows, None] + (cols >= split[:, None])
    out = values[idx]
    ramps = [(k, r[4]) for k, r in enumerate(recipes) if r[3] == _RAMP]
    if ramps:  # -sort(-x) is x sorted in decreasing order, bit for bit
        rows, sign = np.array(ramps).T
        rows, sign = rows.astype(np.intp), sign[:, None]
        out[rows] = sign * np.sort(sign * out[rows], axis=1)
    return out


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
    """The contraction a witness records; each breakpoint, slope and the
    anchor must be a finite int or float, or ValueError is raised."""
    def reals(key: str) -> tuple:
        return tuple(as_real(f"phi {key}", x) for x in d[key])

    return PLFunction(reals("breakpoints"), reals("slopes"), as_real("phi anchor", d["anchor"]))

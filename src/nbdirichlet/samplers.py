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
from dataclasses import dataclass, field

import numpy as np

from .contraction import PLFunction, compose, envelope, make_phi, negate
from .measure import Field, MeasureSpace, make_field


def check_rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per (seed, check name); stable across runs.

    The seed is a nonnegative integer of any size, and distinct seeds give
    distinct streams (numpy raises ValueError for a negative one).
    """
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng([int(seed), *words])


@dataclass(frozen=True)
class FieldSamplerSpec:
    amplitude: float = 3.0
    p_ramp: float = 0.25
    p_step: float = 0.25


@dataclass(frozen=True)
class ContractionSamplerSpec:
    max_breakpoints: int = 8
    max_depth: int = 3
    envelope_points: int = 9
    breakpoint_range: float = 5.0


@dataclass(frozen=True)
class SuiteConfig:
    n_samples: int = 500
    seed: int = 0
    criteria_tol: float = 1e-9
    contraction_tol: float = 1e-9
    proof_tol: float = 1e-9
    identity_tol: float = 1e-12
    fields: FieldSamplerSpec = field(default_factory=FieldSamplerSpec)
    contractions: ContractionSamplerSpec = field(
        default_factory=ContractionSamplerSpec
    )

    def __post_init__(self):
        if isinstance(self.n_samples, bool) or not isinstance(self.n_samples, (int, np.integer)):
            raise ValueError(f"n_samples must be an integer, got {self.n_samples!r}")
        if self.n_samples < 1:
            raise ValueError("need at least one sample per check")
        for tol in (
            self.criteria_tol,
            self.contraction_tol,
            self.proof_tol,
            self.identity_tol,
        ):
            if not tol > 0.0:
                raise ValueError("tolerances must be positive")


def sample_values(rng: np.random.Generator, n: int, spec: FieldSamplerSpec) -> np.ndarray:
    """The values of one sampled field on n points: a sorted ramp (reversed
    half the time), a two-level step, or i.i.d. uniform amplitudes."""
    amp = spec.amplitude
    draw = rng.random()
    if draw < spec.p_ramp:
        vals = np.sort(rng.uniform(-amp, amp, n))
        if rng.random() < 0.5:
            vals = vals[::-1]
    elif draw < spec.p_ramp + spec.p_step:
        lo, hi = rng.uniform(-amp, amp, 2)
        split = int(rng.integers(0, n + 1))
        vals = np.where(np.arange(n) < split, lo, hi)
    else:
        vals = rng.uniform(-amp, amp, n)
    return vals


def sample_field(
    rng: np.random.Generator, space: MeasureSpace, spec: FieldSamplerSpec
) -> Field:
    return make_field(space, sample_values(rng, space.n, spec))


def sample_alpha(rng: np.random.Generator) -> float:
    """alpha = 0 with probability 1/8, else log-uniform on [1e-3, 10]."""
    if rng.random() < 0.125:
        return 0.0
    return float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))


def sample_f_k(
    rng: np.random.Generator, max_k: int, span: float
) -> PLFunction:
    k = int(rng.integers(0, max_k + 1))
    bps = np.sort(rng.uniform(-span, span, k))
    while np.any(np.diff(bps) <= 0.0):
        bps = np.sort(rng.uniform(-span, span, k))
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
    ys = np.sort(rng.uniform(-span, span, n_points))
    ys = np.unique(np.concatenate([ys, [0.0]]))
    vals = np.zeros(ys.size)
    i0 = int(np.flatnonzero(ys == 0.0)[0])
    for i in range(i0 + 1, ys.size):  # integrate bounded slopes from origin
        vals[i] = vals[i - 1] + rng.uniform(-1.0, 1.0) * (ys[i] - ys[i - 1])
    for i in range(i0 - 1, -1, -1):
        vals[i] = vals[i + 1] - rng.uniform(-1.0, 1.0) * (ys[i + 1] - ys[i])
    return envelope(list(zip(ys, vals)), span + 1.0)


def sample_contraction(
    rng: np.random.Generator, spec: ContractionSamplerSpec
) -> PLFunction:
    draw = rng.random()
    if draw < 0.5:
        return sample_f_k(rng, spec.max_breakpoints, spec.breakpoint_range)
    if draw < 0.8:
        return sample_g_composition(rng, spec.max_depth, spec.breakpoint_range)
    return sample_envelope_contraction(
        rng, spec.envelope_points, spec.breakpoint_range
    )


def pl_to_witness(phi: PLFunction) -> dict:
    return {
        "breakpoints": list(phi.breakpoints),
        "slopes": list(phi.slopes),
        "anchor": phi.anchor,
    }


def pl_from_witness(d: dict) -> PLFunction:
    return PLFunction(tuple(d["breakpoints"]), tuple(d["slopes"]), d["anchor"])

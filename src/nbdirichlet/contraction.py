"""The algebra of piecewise-linear 1-Lipschitz functions on the real line.

A ``PLFunction`` is stored canonically as strictly increasing breakpoints, one
slope per interval with no two adjacent slopes equal, and the value at 0. The
module builds the alternating-slope family F_k (slopes +1, -1, ... starting at
+1, anchored to 0 at 0), composes piecewise-linear functions exactly, factors
any F_k element into two-breakpoint pieces, and approximates arbitrary
contractions through lower Lipschitz envelopes of sampled values.

A ``PLTable`` holds many such functions, one per row, and ``pl_eval``
evaluates every row at its own points with the arithmetic of one
``PLFunction`` call; a ``PLFunction`` evaluates as a one-row table. The
contraction families of the verifier's proof chain have closed-form tables.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import InconsistentSamples, NotAlternating, NotIncreasing

_MERGE_TOL = 1e-12  # breakpoints closer than this (relative) are one kink
_SLOPE_TOL = 1e-9   # slack allowed before |slope| <= 1 is declared violated


def _snap_slope(s: float) -> float:
    for target in (-1.0, 0.0, 1.0):
        if s != target and abs(s - target) <= 1e-12:
            return target
    return s


@dataclass(frozen=True)
class PLFunction:
    """Canonical piecewise-linear function with slopes in [-1, 1].

    ``slopes[i]`` applies on (breakpoints[i-1], breakpoints[i]) with the
    conventions breakpoints[-1] = -inf, breakpoints[len] = +inf; ``anchor`` is
    the value at x = 0. Construction merges adjacent equal slopes and rejects
    non-increasing breakpoints or slopes beyond magnitude 1.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor: float = 0.0

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        slopes = tuple(float(s) for s in self.slopes)
        if not all(map(math.isfinite, bps)):
            raise NotIncreasing("breakpoints must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise NotIncreasing("breakpoints must be strictly increasing")
        if len(slopes) != len(bps) + 1:
            raise ValueError("need exactly one slope per interval")
        if any(abs(s) > 1.0 + _SLOPE_TOL for s in slopes):
            raise ValueError("slope magnitude exceeds 1: not a contraction carrier")
        slopes = tuple(min(1.0, max(-1.0, s)) for s in slopes)
        if not math.isfinite(self.anchor):
            raise ValueError("anchor value must be finite")
        # canonical form: drop breakpoints between equal adjacent slopes
        keep_bps: list[float] = []
        keep_slopes: list[float] = [slopes[0]]
        for b, s in zip(bps, slopes[1:]):
            if s == keep_slopes[-1]:
                continue
            keep_bps.append(b)
            keep_slopes.append(s)
        object.__setattr__(self, "breakpoints", tuple(keep_bps))
        object.__setattr__(self, "slopes", tuple(keep_slopes))
        object.__setattr__(self, "anchor", float(self.anchor))

    @cached_property
    def table(self) -> "PLTable":
        """This function as a one-row ``PLTable``."""
        return pl_table([self])

    def __call__(self, x):
        """Evaluate at a scalar or an array of points."""
        arr = np.asarray(x, dtype=float)
        out = pl_eval(self.table, arr.reshape(1, -1))
        return float(out[0, 0]) if arr.ndim == 0 else out.reshape(arr.shape)

    @cached_property
    def _rel(self) -> tuple[list[float], float]:
        """The table's rel row and rel0, in Python floats: 0, then the running
        sum of slopes[i] * (breakpoints[i] - breakpoints[i - 1]) as np.cumsum
        adds it, and the relative value at 0."""
        b, s = self.breakpoints, self.slopes
        rel = [0.0, *accumulate(s[i] * (b[i] - b[i - 1]) for i in range(1, len(b)))]
        return rel, self._relative(rel, 0.0)

    def _relative(self, rel: list[float], x: float) -> float:
        b, s = self.breakpoints, self.slopes
        if not b:
            return s[0] * x
        idx = bisect_right(b, x)
        j = max(idx - 1, 0)
        return rel[j] + s[idx] * (x - b[j])

    def _at(self, x: float) -> float:
        """The value at a finite float x, with pl_eval's arithmetic bit for bit."""
        rel, rel0 = self._rel
        return self.anchor + (self._relative(rel, x) - rel0)

    def slope_at(self, x: float) -> float:
        """Slope on the interval containing x (right interval at a kink)."""
        return self.slopes[bisect_right(self.breakpoints, x)]

    def approx_equal(self, other: "PLFunction", tol: float = 1e-12) -> bool:
        if len(self.breakpoints) != len(other.breakpoints):
            return False
        return (
            abs(self.anchor - other.anchor) <= tol
            and all(
                abs(a - b) <= tol * (1.0 + abs(a))
                for a, b in zip(self.breakpoints, other.breakpoints)
            )
            and all(abs(a - b) <= tol for a, b in zip(self.slopes, other.slopes))
        )


@dataclass(frozen=True)
class PLTable:
    """N piecewise-linear functions, one per row, for batched evaluation.

    Row r has ``nb[r]`` breakpoints ``bps[r, :nb[r]]`` (the rest of the row
    is +inf), slopes ``slopes[r, :nb[r] + 1]``, the values at its
    breakpoints relative to the first one in ``rel``, the relative value at
    0 in ``rel0`` and the value at 0 in ``anchor``. ``pl_eval`` evaluates
    row r at row r of its argument; a ``PLFunction`` is a one-row table.
    """

    bps: np.ndarray     # (N, K)
    slopes: np.ndarray  # (N, K + 1)
    rel: np.ndarray     # (N, K)
    rel0: np.ndarray    # (N,)
    anchor: np.ndarray  # (N,)
    nb: np.ndarray      # (N,)

    @classmethod
    def build(cls, bps, slopes, anchor, nb=None) -> "PLTable":
        """Tables of canonical rows: strictly increasing breakpoints and
        adjacent slopes that differ. A row with nb[r] < K breakpoints repeats
        its last breakpoint and slope after them (any breakpoint if it has
        none)."""
        n_rows, k = bps.shape
        rel = np.zeros((n_rows, k))
        if k > 1:  # padding adds zero-length pieces
            rel[:, 1:] = np.cumsum(slopes[:, 1:-1] * np.diff(bps, axis=1), axis=1)
        if nb is None:
            nb = np.full(n_rows, k)
        else:
            bps = np.where(np.arange(k) < nb[:, None], bps, np.inf)
        table = cls(bps, slopes, rel, np.zeros(n_rows), anchor, nb)
        object.__setattr__(table, "rel0", _rel_at(table, np.zeros((n_rows, 1)))[:, 0])
        return table


_COMPARE = 1 << 20  # booleans _rel_at compares at once


def _rel_at(t: PLTable, x: np.ndarray) -> np.ndarray:
    """Values at x relative to the first breakpoint, row by row."""
    n_rows, k = t.bps.shape
    if k == 0:
        return t.slopes[:, :1] * x
    # idx = the number of breakpoints <= x, the +inf padding included, by
    # one comparison of every point with every breakpoint of its row; the
    # points go a slice at a time, so it holds at most _COMPARE booleans
    width = max(1, _COMPARE // (n_rows * k))
    parts = [
        np.count_nonzero(t.bps[:, None, :] <= x[:, s : s + width, None], axis=2)
        for s in range(0, max(x.shape[1], 1), width)
    ]
    idx = parts[0] if len(parts) == 1 else np.hstack(parts)
    j = np.maximum(idx - 1, 0)
    rows = np.arange(n_rows)[:, None]
    if t.nb.all():  # j is a breakpoint of every row, not its +inf padding
        return t.rel[rows, j] + t.slopes[rows, idx] * (x - t.bps[rows, j])
    empty = (t.nb == 0)[:, None]  # the rows without breakpoints are linear
    bj = np.where(empty, 0.0, t.bps[rows, j])
    return np.where(empty, t.slopes[:, :1] * x, t.rel[rows, j] + t.slopes[rows, idx] * (x - bj))


def pl_eval(t: PLTable, x: np.ndarray) -> np.ndarray:
    """Row r of the table at the points x[r] (x is (N, m)), for finite x."""
    return t.anchor[:, None] + (_rel_at(t, x) - t.rel0[:, None])


def pl_table(phis) -> PLTable:
    """The given functions as the rows of one table."""
    k = max(len(p.breakpoints) for p in phis)
    bps = [p.breakpoints + (p.breakpoints or (0.0,))[-1:] * (k - len(p.breakpoints)) for p in phis]
    slopes = [p.slopes + p.slopes[-1:] * (k - len(p.breakpoints)) for p in phis]
    return PLTable.build(
        np.array(bps).reshape(len(phis), k),
        np.array(slopes),
        np.array([p.anchor for p in phis]),
        np.array([len(p.breakpoints) for p in phis]),
    )


def _compact(keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each array with the kept entries of each row moved to its front and
    the row's last kept entry repeated after them, then the number kept."""
    order = np.argsort(~keep, axis=1, kind="stable")
    count = np.count_nonzero(keep, axis=1)
    last = np.minimum(np.arange(keep.shape[1]), np.maximum(count - 1, 0)[:, None])
    at = np.take_along_axis(order, last, axis=1)
    return *(np.take_along_axis(a, at, axis=1) for a in arrays), count


def family_table(kinks: np.ndarray, slopes) -> PLTable:
    """PLFunction(row, slopes, 0.0) for every row of strictly increasing
    kinks (N, k), for k + 1 slopes of which no two adjacent are equal."""
    _check_increasing(kinks)
    n_rows = kinks.shape[0]
    row = np.asarray(slopes, dtype=float)
    return PLTable.build(kinks, np.broadcast_to(row, (n_rows, row.size)), np.zeros(n_rows))


def alternating_table(kinks: np.ndarray) -> PLTable:
    """make_phi(row) for every row of strictly increasing kinks (N, k)."""
    return family_table(kinks, np.resize([1.0, -1.0], kinks.shape[1] + 1))


def _check_increasing(kinks: np.ndarray) -> None:
    if np.any(kinks[:, 1:] <= kinks[:, :-1]):
        raise NotIncreasing("breakpoints must be strictly increasing")


def folded_table(kinks: np.ndarray) -> PLTable:
    """compose(make_phi(row), 0 v id) for every row of nonnegative, strictly
    increasing kinks (N, k): 0 up to 0, then make_phi(row).

    The closed form of what ``compose`` builds, with its merging of
    near-coincident breakpoints and the sign of its flat slope: -0.0 when a
    kink sits at 0.
    """
    _check_increasing(kinks)
    n_rows, k = kinks.shape
    # compose's candidates: 0 and the positive kinks, deduplicated in order
    cand = np.concatenate([np.zeros((n_rows, 1)), kinks], axis=1)
    keep = np.ones((n_rows, k + 1), dtype=bool)
    last = cand[:, 0]
    for c in range(1, k + 1):
        x = cand[:, c]
        keep[:, c] = (x > 0.0) & (x - last > _MERGE_TOL * (1.0 + np.abs(x)))
        last = np.where(keep[:, c], x, last)
    cand, n_cand = _compact(keep, cand)
    # make_phi's slope at compose's representative point right of each
    # candidate, and the flat slope: make_phi's slope at 0, times 0
    inside = np.arange(k + 1) < n_cand[:, None] - 1
    nxt = np.concatenate([cand[:, 1:], cand[:, -1:]], axis=1)
    reps = np.where(inside, 0.5 * (cand + nxt), cand + 1.0)
    parity = np.count_nonzero(kinks[:, None, :] <= reps[:, :, None], axis=2) % 2
    right = np.where(parity == 0, 1.0, -1.0)
    flat = np.where(np.count_nonzero(kinks <= 0.0, axis=1) % 2 == 0, 0.0, -0.0)
    # canonical form: drop a candidate whose right slope repeats the last one
    last = flat
    for c in range(k + 1):
        keep[:, c] = (c < n_cand) & (right[:, c] != last)
        last = np.where(keep[:, c], right[:, c], last)
    bps, right, nb = _compact(keep, cand, right)
    slopes = np.concatenate([flat[:, None], right], axis=1)
    return PLTable.build(bps, slopes, np.zeros(n_rows), nb)


@dataclass(frozen=True)
class ContractionClass:
    """Classification tag: F(k), G, GeneralNormal or NotNormal."""

    kind: str  # "F" | "G" | "GeneralNormal" | "NotNormal"
    k: int | None = None

    def __str__(self) -> str:
        return f"F({self.k})" if self.kind == "F" else self.kind


def negate(phi: PLFunction) -> PLFunction:
    """-phi; used to realize G = {id, -id} o (F0 u F1 u F2)."""
    return PLFunction(phi.breakpoints, tuple(-s for s in phi.slopes), -phi.anchor)


def make_phi(breakpoints) -> PLFunction:
    """The alternating contraction with the given kinks: slope (-1)^i on the
    i-th interval, value 0 at 0. make_phi([]) is the identity."""
    bps = [float(b) for b in breakpoints]
    slopes = tuple(1.0 if i % 2 == 0 else -1.0 for i in range(len(bps) + 1))
    return PLFunction(tuple(bps), slopes, 0.0)


def is_normal_contraction(phi: PLFunction) -> bool:
    """True iff every |slope| <= 1 (guaranteed by the carrier) and phi(0) = 0."""
    return phi.anchor == 0.0 and all(abs(s) <= 1.0 for s in phi.slopes)


def classify(phi: PLFunction) -> ContractionClass:
    """F(k) for exact alternating +1/-1 slopes starting at +1; G for unit
    slopes with at most two kinks; GeneralNormal for other contractions."""
    if not is_normal_contraction(phi):
        return ContractionClass("NotNormal")
    slopes = phi.slopes
    if all(s == (1.0 if i % 2 == 0 else -1.0) for i, s in enumerate(slopes)):
        return ContractionClass("F", len(phi.breakpoints))
    if all(abs(s) == 1.0 for s in slopes) and len(phi.breakpoints) <= 2:
        return ContractionClass("G")
    return ContractionClass("GeneralNormal")


def _dedupe_sorted(xs: list[float]) -> list[float]:
    out: list[float] = []
    for x in xs:
        if not out or x - out[-1] > _MERGE_TOL * (1.0 + abs(x)):
            out.append(x)
    return out


def compose(outer: PLFunction, inner: PLFunction) -> PLFunction:
    """Exact pointwise composition outer(inner(x)) in canonical form.

    Breakpoints are inner's kinks plus, on every strictly monotone affine
    piece of inner, the preimages of outer's kinks; zero-slope pieces of
    inner map whole intervals to one value and produce no preimages.
    """
    in_bps = list(inner.breakpoints)
    candidates = list(in_bps)
    out_bps = outer.breakpoints
    if out_bps:
        bounds = [-math.inf, *in_bps, math.inf]
        # inner at its kinks; at 0 when it has none (one affine piece)
        at = [inner._at(x) for x in in_bps or [0.0]]
        for p, s in enumerate(inner.slopes):
            if s == 0.0:
                continue
            lo_x, hi_x = bounds[p], bounds[p + 1]
            v_lo = -math.inf * s if math.isinf(lo_x) else at[p - 1]
            v_hi = math.inf * s if math.isinf(hi_x) else at[p]
            if not in_bps:
                ref, v_ref = 0.0, at[0]
            elif math.isinf(lo_x):
                ref, v_ref = hi_x, v_hi
            else:
                ref, v_ref = lo_x, v_lo
            v_min, v_max = min(v_lo, v_hi), max(v_lo, v_hi)
            for b in out_bps:
                if v_min < b < v_max:
                    x = ref + (b - v_ref) / s
                    if lo_x < x < hi_x:
                        candidates.append(x)
    candidates = _dedupe_sorted(sorted(candidates))
    # slopes from representative interior points of each interval
    if candidates:
        reps = (
            [candidates[0] - 1.0]
            + [0.5 * (a + b) for a, b in zip(candidates, candidates[1:])]
            + [candidates[-1] + 1.0]
        )
    else:
        reps = [0.0]
    slopes = tuple(_snap_slope(outer.slope_at(inner._at(x)) * inner.slope_at(x)) for x in reps)
    return PLFunction(tuple(candidates), slopes, outer._at(inner._at(0.0)))


def recompose(factors: list[PLFunction], residual: PLFunction) -> PLFunction:
    """Rebuild residual o factors[0] o ... o factors[-1] (factors[-1] first)."""
    result = residual
    for fac in factors:
        result = compose(result, fac)
    return result


def _peel(bps: list[float]) -> tuple[tuple[float, float], list[float]]:
    """One reduction step: split off the minimal-gap pair (smallest index on
    ties) and return it with the breakpoints of the outer remainder."""
    gaps = [b2 - b1 for b1, b2 in zip(bps, bps[1:])]
    j = min(range(len(gaps)), key=lambda i: (gaps[i], i))
    xi, xi1 = bps[j], bps[j + 1]
    d = xi1 - xi
    lower = bps[:j]
    upper = bps[j + 2 :]
    if xi1 <= 0.0:
        new = [b + 2.0 * d for b in lower] + upper
    elif xi >= 0.0:
        new = lower + [b - 2.0 * d for b in upper]
    else:
        # inner factor is y-2*xi below xi and y-2*xi1 above xi1
        new = [b - 2.0 * xi for b in lower] + [b - 2.0 * xi1 for b in upper]
    return (xi, xi1), new


def decompose(phi: PLFunction) -> tuple[list[PLFunction], PLFunction]:
    """Factor an F_k element into floor(k/2) pieces of F_2 and a residual.

    Returns (factors, residual) with residual in F_0 u F_1 and
    phi = residual o factors[0] o ... o factors[-1] pointwise; factors[-1]
    (the first factor the recursion emits, the minimal-gap pair) is applied
    first. The factorisation is checked against the composition oracle on
    a dense grid.
    """
    tag = classify(phi)
    if tag.kind != "F":
        raise NotAlternating(f"decompose needs an F_k input, got {tag}")
    bps = list(phi.breakpoints)
    emitted: list[PLFunction] = []
    while len(bps) >= 2:
        pair, bps = _peel(bps)
        emitted.append(make_phi(pair))
    residual = make_phi(bps)
    factors = emitted[::-1]
    rebuilt = recompose(factors, residual)
    if phi.breakpoints:
        span = max(phi.breakpoints[-1] - phi.breakpoints[0], 1.0)
        lo, hi = phi.breakpoints[0] - span, phi.breakpoints[-1] + span
    else:
        lo, hi = -1.0, 1.0
    grid = np.linspace(lo, hi, 257)
    err = float(np.max(np.abs(rebuilt(grid) - phi(grid))))
    if err > 1e-9 * (1.0 + max(abs(lo), abs(hi))):
        raise NotAlternating(
            f"factorisation failed oracle validation (max error {err:.3e})"
        )
    return factors, residual


def _np_min(a: float, b: float) -> float:
    """np.minimum(a, b) of two numbers: b when they are equal, which can
    differ from min(a, b) in the sign of a zero."""
    return a if a < b else b


def envelope(samples, radius: float) -> PLFunction:
    """Lower 1-Lipschitz envelope x -> min_i value_i + |x - y_i| on [-R, R].

    ``samples`` is an iterable of finite (y, value) pairs with distinct y,
    containing the origin sample (0, 0) and consistent up to a rounding
    slack: |value_i - value_j| <= |y_i - y_j|. Consistency leaves only the
    neighbours' cones on a gap (y_i, y_i+1), so the envelope is a zigzag of
    slopes +1 and -1: it equals value_i at y_i and rises from there until it
    meets the fall to y_i+1 at c_i = ((value_i+1 + y_i+1) - (value_i - y_i)) / 2
    (a gap that c_i lies outside has one slope). The slope is -1 left of the
    first sample and +1 right of the last, also outside [-R, R].
    """
    pts = sorted((float(y), float(v)) for y, v in samples)
    if not pts:
        raise InconsistentSamples("need at least one sample")
    R = float(radius)
    if not math.isfinite(R) or R <= 0.0:
        raise ValueError("radius must be positive and finite")
    ys = [p[0] for p in pts]
    vs = [p[1] for p in pts]
    if not all(map(math.isfinite, ys + vs)):
        raise InconsistentSamples("sample positions and values must be finite")
    gaps = [b - a for a, b in zip(ys, ys[1:])]
    if any(g <= 0.0 for g in gaps):
        raise InconsistentSamples("sample positions must be distinct")
    slack = 1e-12 * (1.0 + max(map(abs, ys)))
    if any(abs(b - a) > g + slack for a, b, g in zip(vs, vs[1:], gaps)):
        raise InconsistentSamples("sample values are not 1-Lipschitz consistent")
    if 0.0 not in ys or vs[ys.index(0.0)] != 0.0:
        raise InconsistentSamples("samples must contain the origin pair (0, 0)")

    # prefix/suffix minima: on (y_i, y_i+1) the envelope is
    # min(x + left[i], -x + right[i + 1])
    left = list(accumulate((v - y for y, v in pts), _np_min))
    right = list(accumulate((v + y for y, v in reversed(pts)), _np_min))[::-1]
    kinks: list[float] = []
    after: list[float] = []  # the slope right of each kink
    for i, y in enumerate(ys):
        cross = 0.5 * (right[i + 1] - left[i]) if i + 1 < len(ys) else math.inf
        kinks.append(y)
        after.append(1.0 if cross > y else -1.0)  # rises right of the sample
        if y < cross < (ys[i + 1] if i + 1 < len(ys) else math.inf):
            kinks.append(cross)  # and falls right of the crossing
            after.append(-1.0)
    lo, hi = bisect_right(kinks, -R), bisect_left(kinks, R)
    first = after[lo - 1] if lo else -1.0  # the slope just right of -R
    # anchor 0 pins value 0 at the origin sample
    return PLFunction((-R, *kinks[lo:hi], R), (-1.0, first, *after[lo:hi], 1.0), 0.0)

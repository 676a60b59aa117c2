"""The algebra of piecewise-linear 1-Lipschitz functions on the real line.

A contraction is a row ``(breakpoints, slopes, anchor)`` of Python floats in
canonical form: strictly increasing breakpoints, one slope per interval with
no two adjacent slopes equal, and the value at 0. The module builds the
alternating-slope family F_k (slopes +1, -1, ... starting at +1, anchored to
0 at 0), composes piecewise-linear functions exactly, factors any F_k
element (a row that is make_phi's for its breakpoints) into two-breakpoint
pieces by algebra on the breakpoints alone, and approximates arbitrary
contractions through lower Lipschitz envelopes of sampled values. The
algebra is written once, on rows. A ``PLFunction`` is a checked row:
``make_phi``, ``envelope`` and ``decompose`` give PLFunctions, and
``negate`` and ``compose`` give a PLFunction for PLFunctions and an
unchecked row for rows, which is how the samplers draw contractions.

A ``PLTable`` holds many rows, and ``pl_eval`` evaluates every row at its
own points with the arithmetic of one ``PLFunction`` call; a ``PLFunction``
evaluates as a one-row table, and ``pl_table`` checks every row of a table
by the row checks that ``PLFunction`` applies to its one. The contraction
families of the verifier's proof chain have closed-form tables, and
``closed_form_table`` builds the rows of several of them as one table; its
folded rows are ``compose``'s, in closed form for the shapes the chain draws.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .errors import InconsistentSamples, NotAlternating, NotIncreasing, as_real, as_reals

_MERGE_TOL = 1e-12  # breakpoints closer than this (relative) are one kink
_SLOPE_TOL = 1e-9   # slack allowed before |slope| <= 1 is declared violated


def _padded(bps, slopes, anchors):
    """Rows given as their breakpoint sequences, slope sequences and anchors,
    as the arrays of a table (bps, slopes, anchor, nb), after the row checks,
    which PLFunction shares, on every row at once: NotIncreasing for
    breakpoints that are not finite or not strictly increasing, ValueError
    for a row without exactly one slope per interval, for a slope that is NaN
    or beyond 1 + _SLOPE_TOL in magnitude or for an anchor that is not
    finite, TypeError for an anchor that is not a number. A row with
    nb[r] < K breakpoints repeats its last breakpoint (0.0 if it has none)
    and its last slope."""
    n = len(bps)
    nb = np.fromiter(map(len, bps), np.intp, n)
    ends = np.cumsum(nb)
    k = int(nb.max())
    # every row's breakpoints one after another, then the 0.0 of the rows
    # without any; row r's column c is its breakpoint min(c, nb[r] - 1)
    flat = np.fromiter(chain(chain.from_iterable(bps), (0.0,)), float, ends[-1] + 1)
    start = np.where(nb > 0, ends - nb, ends[-1])
    padded = flat[start[:, None] + np.minimum(np.arange(k), np.maximum(nb - 1, 0)[:, None])]
    if not np.isfinite(padded).all():
        raise NotIncreasing("breakpoints must be finite")
    if ((padded[:, 1:] <= padded[:, :-1]) & (np.arange(1, k) < nb[:, None])).any():
        raise NotIncreasing("breakpoints must be strictly increasing")
    ns = np.fromiter(map(len, slopes), np.intp, n)
    if (ns != nb + 1).any():
        raise ValueError("need exactly one slope per interval")
    ends = np.cumsum(ns)
    flat = np.fromiter(chain.from_iterable(slopes), float, ends[-1])
    slopes = flat[(ends - ns)[:, None] + np.minimum(np.arange(k + 1), nb[:, None])]
    if not (np.abs(slopes) <= 1.0 + _SLOPE_TOL).all():  # a NaN fails too
        raise ValueError("slope magnitude exceeds 1: not a contraction carrier")
    if not all(map(math.isfinite, anchors)):  # a TypeError for a string or None
        raise ValueError("anchor value must be finite")
    return padded, slopes, np.fromiter(anchors, float, n), nb


def _merge(bps: tuple, slopes: tuple) -> tuple[tuple, tuple]:
    """Canonical form: the breakpoints between equal adjacent slopes dropped."""
    keep_bps: list[float] = []
    keep_slopes: list[float] = [slopes[0]]
    for b, s in zip(bps, slopes[1:]):
        if s != keep_slopes[-1]:
            keep_bps.append(b)
            keep_slopes.append(s)
    return tuple(keep_bps), tuple(keep_slopes)


@dataclass(frozen=True)
class PLFunction:
    """Canonical piecewise-linear function with slopes in [-1, 1]: a checked row.

    ``slopes[i]`` applies on (breakpoints[i-1], breakpoints[i]) with the
    conventions breakpoints[-1] = -inf, breakpoints[len] = +inf; ``anchor`` is
    the value at x = 0. Construction converts the entries to floats, checks
    the row as a table checks each of its rows (``_padded``, with its
    errors), clamps the slopes to [-1, 1] and merges adjacent equal slopes.
    It unpacks to its row, so ``PLFunction(*phi) == phi``.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor: float = 0.0

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        slopes = tuple(float(s) for s in self.slopes)
        _padded((bps,), (slopes,), (self.anchor,))
        bps, slopes = _merge(bps, tuple(min(1.0, max(-1.0, s)) for s in slopes))
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "anchor", float(self.anchor))

    def __iter__(self):
        return iter((self.breakpoints, self.slopes, self.anchor))

    @cached_property
    def table(self) -> "PLTable":
        """This function as a one-row ``PLTable``."""
        return pl_table([self])

    def __call__(self, x):
        """Evaluate at a scalar or an array of points."""
        arr = np.asarray(x, dtype=float)
        out = pl_eval(self.table, arr.reshape(1, -1))
        return float(out[0, 0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
    def build(cls, bps, slopes, anchor, nb) -> "PLTable":
        """Tables of canonical rows: strictly increasing breakpoints and
        adjacent slopes that differ. A row with nb[r] < K breakpoints repeats
        its last breakpoint and slope after them (any breakpoint if it has
        none)."""
        n_rows, k = bps.shape
        rel = np.zeros((n_rows, k))
        if k > 1:  # padding adds zero-length pieces
            rel[:, 1:] = np.cumsum(slopes[:, 1:-1] * np.diff(bps, axis=1), axis=1)
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
    # breakpoints lead, so the count adds whole (N, m) slabs, and the points
    # go a slice at a time, so it holds at most _COMPARE booleans
    width = max(1, _COMPARE // (n_rows * k))
    bps = t.bps.T[:, :, None]
    parts = [(bps <= x[:, s : s + width]).sum(axis=0) for s in range(0, max(x.shape[1], 1), width)]
    idx = parts[0] if len(parts) == 1 else np.hstack(parts)
    j = np.maximum(idx - 1, 0)
    rows = np.arange(n_rows)[:, None]
    empty = (t.nb == 0)[:, None]  # the rows without breakpoints are linear
    bj = np.where(empty, 0.0, t.bps[rows, j])
    return np.where(empty, t.slopes[:, :1] * x, t.rel[rows, j] + t.slopes[rows, idx] * (x - bj))


def pl_eval(t: PLTable, x: np.ndarray) -> np.ndarray:
    """Row r of the table at the points x[r] (x is (N, m)), for finite x."""
    return t.anchor[:, None] + (_rel_at(t, x) - t.rel0[:, None])


def pl_table(rows) -> PLTable:
    """Canonical rows (breakpoints, slopes, anchor), or PLFunctions, as the
    rows of one table. Every row is checked as ``PLFunction`` checks one,
    with its errors, in one pass over the table."""
    bps, slopes, anchors = zip(*rows)
    return PLTable.build(*_padded(bps, slopes, anchors))


def _widen(a: np.ndarray, width: int) -> np.ndarray:
    """Each row of a with its last entry repeated up to the width."""
    return a[:, np.minimum(np.arange(width), a.shape[1] - 1)]


def closed_form_table(parts) -> PLTable:
    """The rows of each (kinks, slopes) of parts in turn, for strictly
    increasing kinks (N, k), as one table built once; a row evaluates the
    same whatever the other rows. Row r is PLFunction(kinks[r], slopes, 0.0)
    for k + 1 slopes of which no two adjacent are equal or, where slopes is
    None, compose(make_phi(kinks[r]), 0 v id) for one or two kinks, bit for
    bit (_folded). A row with fewer breakpoints than the widest repeats its
    last breakpoint and slope."""
    rows = []
    for kinks, pattern in parts:
        if (kinks[:, 1:] <= kinks[:, :-1]).any():
            raise NotIncreasing("breakpoints must be strictly increasing")
        if pattern is None:
            rows.append(_folded(kinks))
        else:
            s = np.broadcast_to(np.asarray(pattern, dtype=float), (len(kinks), len(pattern)))
            rows.append((kinks, s, np.full(len(kinks), kinks.shape[1])))
    bps, slopes, nb = zip(*rows)
    k = max(b.shape[1] for b in bps)
    nb = np.concatenate(nb)
    return PLTable.build(
        np.concatenate([_widen(b, k) for b in bps]),
        np.concatenate([_widen(s, k + 1) for s in slopes]),
        np.zeros(len(nb)),
        nb,
    )


def _folded(kinks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """closed_form_table's folded rows for kinks as (breakpoints, slopes, nb),
    compose(make_phi(kinks[r]), 0 v id) padded as the table pads. In closed
    form: a positive normal first kink (below that, compose's midpoints can
    round onto a kink), with any second kink beyond the merge tolerance, gives
    (0, k1[, k2]) and (0.0, 1, -1[, 1]); a first kink of +-0 merges into
    0 v id's and gives (0[, k2]) and (-0.0, -1[, 1]). compose builds the rest."""
    n_rows, k = kinks.shape
    if not 1 <= k <= 2:
        raise ValueError("a folded table has one or two kinks a row")
    zero = kinks[:, 0] == 0.0
    apart = kinks[:, 0] >= np.finfo(float).tiny
    if k == 2:  # from 0 where the first kink is not positive: no overflow
        apart &= kinks[:, 1] - np.maximum(kinks[:, 0], 0.0) > _MERGE_TOL * np.abs(kinks[:, 1])
    bps = np.zeros((n_rows, k + 1))
    bps[:, 1:] = kinks
    slopes = np.tile((0.0, *_alternating_slopes(k)), (n_rows, 1))
    nb = np.full(n_rows, k + 1)
    # a kink at +-0 merges into 0 v id's: those rows drop column 1
    keep = [0, *range(2, k + 2)]
    bps[zero] = _widen(bps[zero][:, keep[:-1]], k + 1)
    slopes[zero] = _widen(slopes[zero][:, keep], k + 2)
    slopes[zero, 0] = -0.0
    nb[zero] = k
    for r in np.flatnonzero(~(zero | apart)):
        b, s, _ = compose(make_phi(kinks[r]), PLFunction((0.0,), (0.0, 1.0)))  # 0 v id
        bps[r] = b + b[-1:] * (k + 1 - len(b))
        slopes[r] = s + s[-1:] * (k + 2 - len(s))
        nb[r] = len(b)
    return bps, slopes, nb


def _like(phi, row):
    """The row, checked as a PLFunction when phi is one."""
    return PLFunction(*row) if isinstance(phi, PLFunction) else row


def negate(phi):
    """-phi, of a PLFunction or a row; used to realize G = {id, -id} o (F0 u F1 u F2)."""
    bps, slopes, anchor = phi
    return _like(phi, (bps, tuple(-s for s in slopes), -anchor))


def _alternating_slopes(k: int) -> tuple:
    """The slopes of F_k: +1, -1, ... on its k + 1 intervals."""
    return ((1.0, -1.0) * (k // 2 + 1))[: k + 1]


def _alternating(bps: tuple) -> tuple:
    """The row of make_phi(bps), for a tuple of floats."""
    return bps, _alternating_slopes(len(bps)), 0.0


def make_phi(breakpoints) -> PLFunction:
    """The alternating contraction with the given kinks: slope (-1)^i on the
    i-th interval, value 0 at 0. make_phi([]) is the identity."""
    return PLFunction(*_alternating(tuple(float(b) for b in breakpoints)))


def _dedupe_sorted(xs: list[float]) -> list[float]:
    out: list[float] = []
    for x in xs:
        if not out or x - out[-1] > _MERGE_TOL * max(abs(x), abs(out[-1])):
            out.append(x)
    return out


def _evaluator(row):
    """The row's value at a finite float x, as a function of x, with
    pl_eval's arithmetic bit for bit: the relative values at the breakpoints
    are 0, then the running sum of slopes[i] * (b[i] - b[i - 1]) as np.cumsum
    adds it."""
    b, s, anchor = row
    if not b:
        rel0 = s[0] * 0.0
        return lambda x: anchor + (s[0] * x - rel0)
    rel = [0.0, *accumulate(s[i] * (b[i] - b[i - 1]) for i in range(1, len(b)))]
    idx = bisect_right(b, 0.0)
    j = max(idx - 1, 0)
    rel0 = rel[j] + s[idx] * (0.0 - b[j])

    def at(x: float) -> float:
        idx = bisect_right(b, x)
        j = max(idx - 1, 0)
        return anchor + ((rel[j] + s[idx] * (x - b[j])) - rel0)

    return at


def compose(outer, inner):
    """Exact pointwise composition outer(inner(x)) in canonical form, of two
    PLFunctions (a PLFunction) or of two rows (a row).

    Breakpoints are inner's kinks plus, on every strictly monotone affine
    piece of inner, the preimages of outer's kinks; zero-slope pieces of
    inner map whole intervals to one value and produce no preimages.
    """
    out_bps, out_slopes, _ = outer
    in_bps, in_slopes, _ = inner
    inner_at = _evaluator(inner)
    candidates = list(in_bps)
    if out_bps:
        bounds = [-math.inf, *in_bps, math.inf]
        # inner at its kinks; at 0 when it has none (one affine piece)
        at = [inner_at(x) for x in in_bps or [0.0]]
        for p, s in enumerate(in_slopes):
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
        # the end points step past their candidate by more than its rounding
        reps = (
            [candidates[0] - (1.0 + abs(candidates[0]))]
            + [0.5 * a + 0.5 * b for a, b in zip(candidates, candidates[1:])]
            + [candidates[-1] + (1.0 + abs(candidates[-1]))]
        )
    else:
        reps = [0.0]
    slopes = tuple(
        out_slopes[bisect_right(out_bps, inner_at(x))] * in_slopes[bisect_right(in_bps, x)]
        for x in reps
    )
    anchor = _evaluator(outer)(inner_at(0.0))
    return _like(outer, (*_merge(tuple(candidates), slopes), anchor))


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
    first. Raises NotAlternating unless phi is make_phi of its breakpoints.
    """
    if tuple(phi) != _alternating(phi.breakpoints):
        raise NotAlternating("decompose needs an F_k input: slopes +1, -1, ... and value 0 at 0")
    bps = list(phi.breakpoints)
    emitted: list[PLFunction] = []
    while len(bps) >= 2:
        pair, bps = _peel(bps)
        emitted.append(make_phi(pair))
    return emitted[::-1], make_phi(bps)


def _np_min(a: float, b: float) -> float:
    """np.minimum(a, b) of two numbers: b when they are equal, which can
    differ from min(a, b) in the sign of a zero."""
    return a if a < b else b


def envelope(samples, radius: float) -> PLFunction:
    """Lower 1-Lipschitz envelope x -> min_i value_i + |x - y_i| on [-R, R].

    ``samples`` is a sequence of (y, value) pairs read by ``as_reals``, with
    distinct y, the origin sample (0, 0) among them, consistent up to a slack
    1e-12 max|y|: |value_i - value_j| <= |y_i - y_j|. Consistency leaves only
    the neighbours' cones on a gap (y_i, y_i+1), so the envelope is a zigzag of
    slopes +1 and -1: it equals value_i at y_i and rises from there until it
    meets the fall to y_i+1 at c_i = ((value_i+1 + y_i+1) - (value_i - y_i)) / 2
    (a gap that c_i lies outside has one slope). The slope is -1 left of the
    first sample and +1 right of the last, also outside [-R, R].
    """
    try:
        pts = as_reals("sample positions and values", samples)
    except ValueError as exc:
        raise InconsistentSamples(str(exc)) from exc
    if pts.shape[1:] != (2,) or not pts.size:
        raise InconsistentSamples("need one or more samples, each a (y, value) pair")
    R = as_real("radius", radius)
    if R <= 0.0:
        raise ValueError("radius must be positive and finite")
    ys, vs = map(list, zip(*sorted(pts.tolist())))
    gaps = [b - a for a, b in zip(ys, ys[1:])]
    if any(g <= 0.0 for g in gaps):
        raise InconsistentSamples("sample positions must be distinct")
    slack = 1e-12 * max(map(abs, ys))
    if any(abs(b - a) > g + slack for a, b, g in zip(vs, vs[1:], gaps)):
        raise InconsistentSamples("sample values are not 1-Lipschitz consistent")
    if 0.0 not in ys or vs[ys.index(0.0)] != 0.0:
        raise InconsistentSamples("samples must contain the origin pair (0, 0)")
    return PLFunction(*_zigzag(ys, vs, R))


def _zigzag(ys: list[float], vs: list[float], R: float) -> tuple:
    """The row of envelope's zigzag on [-R, R], for sorted, distinct sample
    positions ys with values vs that envelope accepts."""
    # prefix/suffix minima: on (y_i, y_i+1) the envelope is
    # min(x + left[i], -x + right[i + 1])
    left = list(accumulate((v - y for y, v in zip(ys, vs)), _np_min))
    right = list(accumulate((v + y for y, v in zip(ys[::-1], vs[::-1])), _np_min))[::-1]
    kinks: list[float] = []
    after: list[float] = []  # the slope right of each kink
    for i in range(len(ys) - 1):
        y, cross = ys[i], 0.5 * (right[i + 1] - left[i])
        kinks.append(y)
        after.append(1.0 if cross > y else -1.0)  # rises right of the sample
        if y < cross < ys[i + 1]:
            kinks.append(cross)  # and falls right of the crossing
            after.append(-1.0)
    kinks.append(ys[-1])  # rises right of the last sample
    after.append(1.0)
    lo, hi = bisect_right(kinks, -R), bisect_left(kinks, R)
    first = after[lo - 1] if lo else -1.0  # the slope just right of -R
    # anchor 0 pins value 0 at the origin sample
    return (*_merge((-R, *kinks[lo:hi], R), (-1.0, first, *after[lo:hi], 1.0)), 0.0)

"""Property-testing harness for the convex-energy criteria and identities.

Each check samples seeded tuples, records the worst signed violation
(lhs - rhs, so anything <= tolerance passes) together with a self-contained
witness, and is replayable bit-for-bit: ``replay(witness)`` rebuilds the
inputs from the witness alone and re-evaluates the same arithmetic. A check
with a non-finite sample fails, with the first such sample as its witness.

Check names say what the inequality does: "minmax" is the join/meet split
E(f v g) + E(f ^ g) <= E(f) + E(g); "clamp" is the two-sided band clamp
split E(H_a(f,g)) + E(H_a(g,f)) <= E(f) + E(g); the projection criteria are
the analogous splits through the order-cone and band projections. The
proof-chain checks walk the stepwise argument that reduces the contraction
property of a symmetric energy to those criteria, one energy inequality per
display: fold1 handles single-breakpoint contractions, fold2 the
two-breakpoint ones (one-sided when both kinks share a sign, straddle when
they enclose the origin).

Every check is one row of ``CHECKS``: its name, its group (which picks its
tolerance in ``TOLERANCES`` and the public function that runs it), the laws
of its parameters, and a batched kernel. A law maps a fixed number of
uniform words per sample to some of its parameters: a field on n points
takes n + 2 words, a scalar one to three. A group runs as one pass over
chunks of samples. For each chunk, every check draws one
``rng.random((rows, words))`` block from its own RNG stream; a check with a
contraction draws all of them, one sample at a time and each as a canonical
row (breakpoints, slopes, anchor), before its first block. Blocks drawn one
after another equal one block of all their rows, so the chunking does not
show. Everything after the draws runs once per chunk. Each law runs once,
over the stacked columns of every check that uses it (f and g are one
field law), and gives each check its fields ((N, n) arrays) and scalars.
Scalars go to the kernels as (N, 1) columns and contractions as one
``PLTable`` per kernel call, which checks every row; a row becomes a
``PLFunction`` only when a witness records it. Each check calls its kernel
once per chunk, on its own rows. A form kernel returns its energy arguments
and a combiner. An energy argument may be a deferred evaluation of a fold
family's table (``_Apply``): the deferred evaluations of every kernel of
the chunk run as one table of all their rows and one ``pl_eval``. The
energy arguments then go through one ``energy_of_values`` call, and each
combiner maps its rows of the energies to its violations with the float
operations of the inequality, in its order. Identity kernels return their
violations. Each row is computed on its own, so the bits do not depend on
the chunking or on the other checks of the pass. The pass folds the
chunk's violations, one row a check, into each check's worst sample
(``_fold``), copying a check's parameters only when its worst changes, and
then into its result (``_sweep``). ``replay`` calls the same kernel on a
one-row batch. The kernel's keyword arguments name the witness keys, so the
sweep, the witness and ``replay`` all follow from the row.

To add a check, write its batched kernel, which takes the sampled
parameters and returns (energy arguments, combiner), or the violations for
an identity, and add one row with the laws of its parameters and its group.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contraction import (
    PLFunction,
    _alternating_slopes,
    closed_form_table,
    make_phi,
    negate,
    pl_eval,
    pl_table,
)
from .errors import PreconditionFailed, as_real, as_reals
from .forms import FormInstance, make_form
from .lattice_ops import (
    h_alpha,
    project_band,
    project_oracle,
    project_order,
    twist_residuals,
)
from .measure import MeasureSpace, make_field
from .samplers import (
    AMPLITUDE,
    SuiteConfig,
    alpha_values,
    check_rng,
    field_values,
    sample_contraction,
)

# field values a chunk of a group's pass holds per sampled parameter, over
# the group's checks: a chunk has max(1, _CHUNK_VALUES // (n * checks)) rows
_CHUNK_VALUES = 1 << 15


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    witness: dict
    n_tested: int

    def report_entry(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "n_tested": self.n_tested,
            "witness": self.witness,
        }


# ---------------------------------------------------------------------------
# parameter laws. A sample's parameters follow laws on a fixed number of
# uniform words: a field on n points takes n + 2, the scalars a few. A chunk
# of a check's samples is one rng.random((rows, words)) block, a sample a
# row, each law its columns in the order of the check's laws. A forced row
# takes its words like any other, so the layout does not depend on it. Laws
# with the same draw are one law on other columns (f and g), and a pass
# draws each law once over the columns of every check that uses it.


@dataclass(frozen=True)
class _Law:
    """The law of some of a sample's parameters."""

    keys: tuple[str, ...]  # the parameters it gives
    width: Callable  # n -> the words a sample takes on n points
    draw: Callable  # (words (N, width), n, sample indices (N,)) -> its parameters, in key order


def _fields(u, n, idx) -> tuple:
    return (field_values(u, n),)


_F = _Law(("f",), lambda n: n + 2, _fields)
_G = _Law(("g",), _F.width, _fields)
_ALPHA = _Law(("alpha",), lambda n: 2, lambda u, n, idx: (alpha_values(u),))


def _x(u, n, idx) -> tuple:
    # the degenerate branch x = 0 is always exercised
    return (np.where(idx == 0, 0.0, 2.0 * AMPLITUDE * u[:, 0]),)


def _onesided(u, n, idx) -> tuple:
    x1 = np.where(u[:, 0] < 0.15, 0.0, AMPLITUDE * u[:, 1])
    return x1, x1 + (0.05 + (AMPLITUDE - 0.05) * u[:, 2])


def _straddle(lo: float, hi: float) -> tuple[_Law, ...]:
    """x1 < 0 < x2 with -x1/x2 drawn from [lo, hi]: below 1 is the stated
    assumption x2 > -x1, above 1 the mirrored configuration."""

    def draw(u, n, idx) -> tuple:
        x2 = 0.05 + (AMPLITUDE - 0.05) * u[:, 0]
        return -x2 * (lo + (hi - lo) * u[:, 1]), x2

    return (_Law(("x1", "x2"), lambda n: 2, draw), _F)


_MINUS_ID = tuple(negate(make_phi([])))  # the row of -id
_FORCED_TS = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])


def _ts(u, n, idx) -> tuple:
    ts = np.where(u.sum(axis=1, keepdims=True) > 1.0, 1.0 - u, u)  # reflect onto the simplex
    forced = idx < len(_FORCED_TS)
    ts[forced] = _FORCED_TS[idx[forced]]
    return ts[:, 0], ts[:, 1]


_FG = (_F, _G)
_FGA = (_F, _G, _ALPHA)
_X_F = (_Law(("x",), lambda n: 1, _x), _F)
_ONESIDED = (_Law(("x1", "x2"), lambda n: 3, _onesided), _F)
_STRADDLE = _straddle(0.02, 0.98)
_STRADDLE_MIRROR = _straddle(1.05, 3.0)
_TWIST = (*_FGA, _Law(("t", "s"), lambda n: 2, _ts))


def _contractions(rng: np.random.Generator, n_samples: int) -> list:
    """A check's contractions, drawn one sample at a time before its first
    block; -id is always the first, so an asymmetry surfaces there as well."""
    phis = [sample_contraction(rng) for _ in range(n_samples)]
    phis[0] = _MINUS_ID
    return phis


# ---------------------------------------------------------------------------
# batched violation kernels; used identically by the sweeps and by replay().
# Fields are (N, n) arrays, scalars (N, 1) columns, contractions PLTables. A
# form kernel returns its energy arguments, (N, n) arrays or deferred table
# evaluations (_Apply), and a combiner that maps their (N,) energies to the
# N violations with the float operations in a fixed order; an identity
# kernel returns the violations.


def _pymax(first, *rest):
    """Row-wise max(first, *rest) with Python's rule: a later value wins
    only if it is greater, so a NaN wins only in first place."""
    for other in rest:
        first = np.where(other > first, other, first)
    return first


def _split(a, b, c, d):
    """E(a) + E(b) - E(c) - E(d): a split of two energies into two."""
    return a + b - c - d


def _rise(a, b):
    """E(a) - E(b)."""
    return a - b


def _gap(a, b):
    """|E(a) - E(b)|."""
    return abs(a - b)


def _viol_minmax(f, g):
    return (np.maximum(f, g), np.minimum(f, g), f, g), _split


def _viol_clamp(f, g, alpha):
    return (h_alpha(f, g, alpha), h_alpha(g, f, alpha), f, g), _split


def _viol_order_projection(f, g):
    return (*project_order(f, g), f, g), _split


def _viol_band_projection(f, g, alpha):
    return (*project_band(f, g, alpha), f, g), _split


def _viol_symmetry(f):
    return (-f, f), _gap


def _two_rises(a, b, c, d):
    """The larger of E(a) - E(b) and E(c) - E(d)."""
    return _pymax(a - b, c - d)


def _viol_contraction(phi, f):
    # phi on f and on -f, in one evaluation: at phi = -id this is |E(f) - E(-f)|
    neg = -f
    both = pl_eval(phi, np.concatenate([f, neg], axis=1))
    return (both[:, : f.shape[1]], f, both[:, f.shape[1] :], neg), _two_rises


# the fold families: kinks are (N, k) rows; sigma and psi of fold2 are fixed
# slope patterns, sigma of fold1 and psi of the one-sided fold2 are
# make_phi(kinks) composed with 0 v id (closed_form_table's folded rows)
_SIGMA_FOLD2_ONESIDED = (0.0, -1.0, 1.0)  # 0 up to x1, x1 - y, y + x1 - 2 x2
_PSI_FOLD2_STRADDLE = (1.0, -1.0, 0.0)  # y - 2 x1 below x1, -y, then -x2


@dataclass(frozen=True, eq=False)
class _Apply:
    """pl_eval of a fold family's table at the fields f, deferred until
    _applied evaluates every one of a kernel call together. The table is
    closed_form_table([(kinks, slopes)]), folded where slopes is None; -a is
    the negated values of a."""

    slopes: tuple | None
    kinks: np.ndarray  # (N, k)
    f: np.ndarray  # (N, n)
    of: "_Apply | None" = None  # the evaluation this one negates

    def __neg__(self) -> "_Apply":
        return _Apply(self.slopes, self.kinks, self.f, self) if self.of is None else self.of

    def __len__(self) -> int:
        return len(self.f)


def _alternating_at(kinks, f) -> _Apply:
    """make_phi(kinks) at f, row by row."""
    return _Apply(_alternating_slopes(kinks.shape[1]), kinks, f)


def _folded_at(kinks, f) -> _Apply:
    """make_phi(kinks) composed with 0 v id at f, row by row."""
    return _Apply(None, kinks, f)


def _applied(args: list) -> list:
    """The energy arguments with every deferred evaluation replaced by its
    values: the evaluations of one family stacked, every family's rows in
    one table (closed_form_table) and one pl_eval. Each row is computed on
    its own, so the values are those of an eager pl_eval, bit for bit."""
    families: dict = {}
    for a in args:
        if isinstance(a, _Apply):
            base = a if a.of is None else a.of
            families.setdefault((base.slopes, base.kinks.shape[1]), {})[base] = None
    if not families:
        return args
    order = [a for family in families.values() for a in family]
    table = closed_form_table([
        (np.concatenate([a.kinks for a in family]), slopes)
        for (slopes, _), family in families.items()
    ])
    values = pl_eval(table, np.concatenate([a.f for a in order]))
    ends = np.cumsum([len(a) for a in order]).tolist()
    at = {a: values[stop - len(a) : stop] for a, stop in zip(order, ends)}
    return [
        a if not isinstance(a, _Apply) else at[a] if a.of is None else -at[a.of] for a in args
    ]


def _viol_fold1_lattice_split(f, x):
    # join/meet split of the pair (f, sigma o f): the join is 0 v f and the
    # meet is the one-fold contraction applied to f
    return (_alternating_at(x, f), np.maximum(f, 0.0), f, _folded_at(x, f)), _split


def _fold1_chain(a, b, c, d):
    """The worst step of the fold1 clamp chain, from E(sf), E(-sf), E(pf), E(-pf)."""
    return _pymax(2 * a - (a + b), (a + b) - (c + d), (c + d) - 2 * c)


def _viol_fold1_clamp_chain(f, x):
    # symmetry, then the clamp split at band radius 2x, then symmetry again
    sf = _folded_at(x, f)
    pf = np.maximum(f, 0.0)
    return (sf, -sf, pf, -pf), _fold1_chain


def _viol_fold1_conclusion(f, x):
    return (_alternating_at(x, f), f), _rise


def _viol_fold2_onesided_clamp_split(f, x1, x2):
    kinks = np.hstack([x1, x2])
    return (
        _folded_at(kinks, f),
        np.maximum(f - x1, 0.0),
        np.maximum(f, 0.0),
        _Apply(_SIGMA_FOLD2_ONESIDED, kinks, f),
    ), _split


def _fold2_onesided_chain(a, b, c, d):
    """The worst step of the one-sided fold2 clamp chain, from
    E((f - x1) v 0), E((x1 - f) ^ 0), E(sf), E(-sf)."""
    return _pymax((a + b) - 2 * a, (c + d) - (a + b), 2 * c - (c + d))


def _viol_fold2_onesided_clamp_chain(f, x1, x2):
    sf = _Apply(_SIGMA_FOLD2_ONESIDED, np.hstack([x1, x2]), f)
    return (np.maximum(f - x1, 0.0), np.minimum(x1 - f, 0.0), sf, -sf), _fold2_onesided_chain


def _viol_fold2_onesided_lattice_split(f, x1, x2):
    kinks = np.hstack([x1, x2])
    return (_alternating_at(kinks, f), np.maximum(f, 0.0), _folded_at(kinks, f), f), _split


def _viol_fold2_conclusion(f, x1, x2):
    return (_alternating_at(np.hstack([x1, x2]), f), f), _rise


def _viol_fold2_straddle_clamp_split(f, x1, x2):
    kinks = np.hstack([x1, x2])
    return (
        _alternating_at(kinks, f), np.minimum(f, x2), f, _Apply(_PSI_FOLD2_STRADDLE, kinks, f)
    ), _split


def _viol_identity_halfsum(f, g, alpha):
    p1 = project_band(f, g, alpha)[0]
    p2 = project_band(g, f, alpha)[1]
    h = h_alpha(f, g, alpha)
    return np.max(np.abs(h - (0.5 * p1 + 0.5 * p2)), axis=1)


def _viol_identity_twist(f, g, alpha, t, s):
    return _pymax(*twist_residuals(f, g, alpha, t, s))


def _viol_identity_midpoint(f, g, alpha):
    h = h_alpha(f, g, alpha)
    k = h_alpha(g, f, alpha)
    u_half = 0.5 * (f + h)
    v_half = 0.5 * (g + k)
    p1, p2 = project_band(f, g, alpha)
    return _pymax(
        np.max(np.abs(u_half - p1), axis=1), np.max(np.abs(v_half - p2), axis=1)
    )


def _viol_identity_projection_oracle(f, g, alpha):
    worst = np.zeros(f.shape[0])
    for closed, oracle in (
        (project_order(f, g), project_oracle("order", f, g)),
        (project_band(f, g, alpha), project_oracle("band", f, g, alpha)),
    ):
        for c, o in zip(closed, oracle):
            worst = _pymax(worst, np.max(np.abs(c - o), axis=1))
    return worst


# ---------------------------------------------------------------------------
# the check table


@dataclass(frozen=True)
class Check:
    """One row of the check table."""

    name: str
    group: str  # a key of TOLERANCES
    sample: tuple[_Law, ...]  # the laws of its parameters but phi (_contractions), in word order
    kernel: Callable  # (**stacked parameters) -> (energy arguments, combiner), or violations

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """Witness keys of the sampled parameters: the kernel's arguments."""
        return tuple(inspect.signature(self.kernel).parameters)


CHECKS = (
    Check("minmax", "criteria", _FG, _viol_minmax),
    Check("clamp", "criteria", _FGA, _viol_clamp),
    Check("order_projection", "criteria", _FG, _viol_order_projection),
    Check("band_projection", "criteria", _FGA, _viol_band_projection),
    Check("symmetry", "criteria", (_F,), _viol_symmetry),
    Check("normal_contraction", "contraction", (_F,), _viol_contraction),
    Check("proof_fold1_lattice_split", "proof", _X_F, _viol_fold1_lattice_split),
    Check("proof_fold1_clamp_chain", "proof", _X_F, _viol_fold1_clamp_chain),
    Check("proof_fold1_conclusion", "proof", _X_F, _viol_fold1_conclusion),
    Check("proof_fold2_onesided_clamp_split", "proof", _ONESIDED,
          _viol_fold2_onesided_clamp_split),
    Check("proof_fold2_onesided_clamp_chain", "proof", _ONESIDED,
          _viol_fold2_onesided_clamp_chain),
    Check("proof_fold2_onesided_lattice_split", "proof", _ONESIDED,
          _viol_fold2_onesided_lattice_split),
    Check("proof_fold2_onesided_conclusion", "proof", _ONESIDED, _viol_fold2_conclusion),
    Check("proof_fold2_straddle_clamp_split", "proof", _STRADDLE,
          _viol_fold2_straddle_clamp_split),
    Check("proof_fold2_straddle_conclusion", "proof", _STRADDLE, _viol_fold2_conclusion),
    Check("proof_fold2_straddle_clamp_split_mirror", "proof", _STRADDLE_MIRROR,
          _viol_fold2_straddle_clamp_split),
    Check("proof_fold2_straddle_conclusion_mirror", "proof", _STRADDLE_MIRROR,
          _viol_fold2_conclusion),
    Check("identity_halfsum", "identity", _FGA, _viol_identity_halfsum),
    Check("identity_twist", "identity", _TWIST, _viol_identity_twist),
    Check("identity_midpoint", "identity", _FGA, _viol_identity_midpoint),
    Check("identity_projection_oracle", "identity", _FGA, _viol_identity_projection_oracle),
)
# a check passes when its worst violation is at most its group's tolerance
TOLERANCES = {"criteria": 1e-9, "contraction": 1e-9, "proof": 1e-9, "identity": 1e-12}
_BY_NAME = {c.name: c for c in CHECKS}
CRITERIA_NAMES = tuple(c.name for c in CHECKS if c.group == "criteria")
PROOF_NAMES = tuple(c.name for c in CHECKS if c.group == "proof")
IDENTITY_NAMES = tuple(c.name for c in CHECKS if c.group == "identity")


def _encode(value):
    """Witness form of a sampled parameter: arrays as lists, contraction rows
    as the breakpoints, slopes and anchor of their PLFunctions, floats as
    they are."""
    if isinstance(value, tuple):
        bps, slopes, anchor = PLFunction(*value)
        return {"breakpoints": list(bps), "slopes": list(slopes), "anchor": anchor}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _entry(record, key: str, what: str):
    """record[key]; a ValueError if record is not a dict or lacks key."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} is not a mapping, got {type(record).__name__}")
    if key not in record:
        raise ValueError(f"{what} has no entry {key!r}")
    return record[key]


def _decode(key: str, value, space: MeasureSpace):
    """A witness parameter as one sample of the kernels: fields are checked
    against the target's space; scalars, and the entries of a contraction's
    breakpoints, slopes and anchor, must be finite ints or floats (not
    bools, by ``as_real`` and ``as_reals``); a bad one raises ValueError."""
    if key == "phi":
        def reals(k: str) -> tuple:
            entry = _entry(value, k, "phi")
            entries = as_reals(f"phi {k}", entry) if isinstance(entry, (list, tuple, np.ndarray)) else None
            if entries is None or entries.ndim != 1:
                raise ValueError(f"phi {k} must be a list of real numbers, got {entry!r}")
            return tuple(entries.tolist())

        anchor = as_real("phi anchor", _entry(value, "anchor", "phi"))
        return tuple(PLFunction(reals("breakpoints"), reals("slopes"), anchor))
    if key in ("f", "g"):
        return make_field(space, value).values
    return as_real(f"witness parameter {key!r}", value)


def _column(values: list):
    """One parameter of a list of samples, as a sampler gives it."""
    if isinstance(values[0], tuple):  # contraction rows
        return values
    return np.stack(values) if isinstance(values[0], np.ndarray) else np.array(values, dtype=float)


def _args(params: dict) -> dict:
    """Parameters by key as the kernels take them: contraction rows as one
    table, scalars as (N, 1) columns."""
    return {
        k: pl_table(v) if isinstance(v, list) else v[:, None] if v.ndim == 1 else v
        for k, v in params.items()
    }


@np.errstate(over="ignore", invalid="ignore")  # a non-finite violation is a result
def _evaluate(target, batches: list[tuple[Callable, dict]]) -> list[np.ndarray]:
    """The violations of each (kernel, kernel arguments) batch. On a form,
    the deferred table evaluations of every batch run together (_applied),
    the energy arguments of every batch go through one energy_of_values
    call, and each batch's combiner maps the rows of its slice of the
    energies; on a space (the identities) the kernels give the violations."""
    parts = [kernel(**params) for kernel, params in batches]
    if isinstance(target, MeasureSpace):
        return parts
    energies = target.energy_of_values(
        np.concatenate(_applied([a for args, _ in parts for a in args]))
    )
    out, start = [], 0
    for args, combine in parts:
        stop = start + len(args) * len(args[0])
        out.append(combine(*energies[start:stop].reshape(len(args), -1)))
        start = stop
    return out


def _violations(check: Check, target, samples: list[dict]) -> np.ndarray:
    """The check's kernel on one batch of samples: one violation per sample."""
    params = {k: _column([p[k] for p in samples]) for k in check.keys}
    return _evaluate(target, [(check.kernel, _args(params))])[0]


def _witness(check: Check, target, params: dict) -> dict:
    """Self-contained record of one sample: the check, the form descriptor
    (or the space's weights) and the encoded parameters."""
    if check.group == "identity":
        head = {"weights": target.weights.tolist()}
    else:
        head = {"form": target.descriptor()}
    return {"check": check.name, **head, **{k: _encode(params[k]) for k in check.keys}}


def _fold(best: list, violations: np.ndarray, params: list[dict]) -> None:
    """Each check's (worst, params, finite) after the next chunk of the
    pass, its violations (checks, N) and each check's parameters: the first
    non-finite sample, or else the first sample at the maximum, which is
    what a loop over the samples keeping the first strict maximum, and
    stopping at a non-finite one, keeps. A check's row is copied only when
    its worst changes."""
    finite = np.isfinite(violations)
    # the first non-finite sample of a row if it has one, else its first maximum
    at = np.argmax(np.where(finite, violations, np.inf), axis=1).tolist()
    for j, i in enumerate(at):
        worst, _, ok = best[j]
        if ok and (not finite[j, i] or violations[j, i] > worst):
            row = {  # each field its own copy of the row, not a view of the chunk
                k: v[i] if isinstance(v, list) else v[i].copy() if v.ndim == 2 else float(v[i])
                for k, v in params[j].items()
            }
            best[j] = (float(violations[j, i]), row, bool(finite[j, i]))


def _sweep(check: Check, target, cfg: SuiteConfig, best: tuple) -> CheckResult:
    """A check's result from its fold over every chunk of its samples."""
    worst, params, finite = best
    passed = finite and bool(worst <= TOLERANCES[check.group])
    return CheckResult(check.name, passed, worst, _witness(check, target, params), cfg.n_samples)


def _run(group: str, target, cfg: SuiteConfig) -> list[CheckResult]:
    """Run a group's checks on a form (or a space, for identities) over
    cfg.n_samples seeded samples each, in one pass over chunks of samples.

    For each chunk, every check draws one block from its own stream; each
    law runs once over the stacked columns of every check that uses it;
    each check calls its kernel on its own rows; the deferred table
    evaluations of every kernel run as one, and one energy evaluation serves
    every kernel; and the pass folds the chunk's violations, one row a
    check, into the results.
    """
    checks = [c for c in CHECKS if c.group == group]
    space = target if group == "identity" else target.space
    n = space.n
    rngs = [check_rng(cfg.seed, c.name) for c in checks]
    phis = [
        _contractions(r, cfg.n_samples) if "phi" in c.keys else None
        for c, r in zip(checks, rngs)
    ]
    # each law's draw -> (check, first column, last column, keys) of its uses
    uses: dict[Callable, list] = {}
    widths = []
    for j, c in enumerate(checks):
        lo = 0
        for law in c.sample:
            uses.setdefault(law.draw, []).append((j, lo, lo + law.width(n), law.keys))
            lo += law.width(n)
        widths.append(lo)
    rows = max(1, _CHUNK_VALUES // (n * len(checks)))
    best = [(-math.inf, None, True)] * len(checks)
    for start in range(0, cfg.n_samples, rows):
        idx = np.arange(start, min(start + rows, cfg.n_samples))
        size = len(idx)
        blocks = [r.random((size, w)) for r, w in zip(rngs, widths)]
        params = [{} if p is None else {"phi": p[start : start + size]} for p in phis]
        for draw, cols in uses.items():
            words = np.concatenate([blocks[j][:, lo:hi] for j, lo, hi, _ in cols])
            values = draw(words, n, np.tile(idx, len(cols)))
            for pos, (j, _, _, keys) in enumerate(cols):
                params[j].update(zip(keys, (v[pos * size : (pos + 1) * size] for v in values)))
        batches = [(c.kernel, _args(p)) for c, p in zip(checks, params)]
        _fold(best, np.stack(_evaluate(target, batches)), params)
    return [_sweep(c, target, cfg, b) for c, b in zip(checks, best)]


# ---------------------------------------------------------------------------
# checks


def check_criteria(form: FormInstance, cfg: SuiteConfig) -> list[CheckResult]:
    """The lattice, clamp, projection and symmetry criteria on seeded tuples."""
    return _run("criteria", form, cfg)


def check_normal_contraction(form: FormInstance, cfg: SuiteConfig) -> CheckResult:
    """Worst rise max(E(phi o f) - E(f), E(phi o -f) - E(-f)) over sampled
    contractions and fields.

    -id is always the first contraction in the sample set, where the rise is
    |E(f) - E(-f)|, so a symmetry violation surfaces here as well.
    """
    return _run("contraction", form, cfg)[0]


def run_proof_chain(
    form: FormInstance,
    cfg: SuiteConfig,
    criteria: list[CheckResult] | None = None,
) -> list[CheckResult]:
    """Every displayed inequality of the stepwise contraction argument.

    Requires a form that passes the criteria including symmetry. The straddle
    displays are sampled both under the stated assumption x2 > -x1 and under
    the mirrored configuration x2 < -x1 (recorded separately).
    """
    if criteria is None:
        criteria = check_criteria(form, cfg)
    failing = [c.name for c in criteria if not c.passed]
    if failing:
        raise PreconditionFailed(
            f"proof chain needs the criteria to pass; failing: {failing}"
        )
    return _run("proof", form, cfg)


def verify_form(form: FormInstance, cfg: SuiteConfig) -> list[CheckResult]:
    """The criteria and normal contraction, then the proof chain when every
    criterion passed."""
    criteria = check_criteria(form, cfg)
    results = criteria + [check_normal_contraction(form, cfg)]
    if all(c.passed for c in criteria):
        results += run_proof_chain(form, cfg, criteria)
    return results


def check_identities(
    cfg: SuiteConfig, space: MeasureSpace | None = None
) -> list[CheckResult]:
    """Form-independent identity checks over random (f, g, alpha, t, s).

    identity_halfsum implements the literal half-sum relation
    H_a(f,g) = P1_{2,a}(f,g)/2 + P2_{2,a}(g,f)/2, which is false off the band
    (both right-hand components equal (f + H_a(f,g))/2); it is kept as a
    first-class check and is expected to report a violation. identity_twist
    samples the simplex t + s <= 1, the exact domain on which the twist
    relation holds (it fails for t + s > 1).
    """
    if space is None:
        space = MeasureSpace(np.ones(7))
    return _run("identity", space, cfg)


def counterexample_demo() -> CheckResult:
    """The decreasing ramp on the positive-part grid integrand.

    E(f) = 0 and E(-f) = 1 for f_i = -i/10 on 11 nodes with h = 0.1, so the
    contraction phi = -id raises the energy; passed is False by design and
    the witness replays to the exact violation.
    """
    grid = {"kind": "local_grid_1d", "nodes": 11, "h": 0.1}
    form = make_form({**grid, "integrand": {"name": "max_positive_part"}})
    (check,) = (c for c in CHECKS if c.group == "contraction")
    params = {"phi": _MINUS_ID, "f": -np.arange(11) / 10.0}
    witness = _witness(check, form, params)
    witness["energy_f"] = form.energy_of_values(params["f"])
    witness["energy_neg_f"] = form.energy_of_values(-params["f"])
    violation = _violations(check, form, [params])[0]
    return CheckResult("counterexample_max_positive_part", False, float(violation), witness, 1)


def replay(witness: dict) -> float:
    """Re-evaluate the violation a witness records, bit-for-bit; a witness
    that is not a dict or lacks a key its check needs raises ValueError."""
    name = _entry(witness, "check", "witness")
    check = _BY_NAME.get(name) if isinstance(name, str) else None
    if check is None:
        raise ValueError(f"unknown check {name!r} in witness")
    if check.group == "identity":
        target = space = MeasureSpace(_entry(witness, "weights", "witness"))
    else:
        target = make_form(_entry(witness, "form", "witness"))
        space = target.space
    params = {k: _decode(k, _entry(witness, k, "witness"), space) for k in check.keys}
    return float(_violations(check, target, [params])[0])

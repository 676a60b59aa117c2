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
tolerance in ``TOLERANCES`` and the public function that runs it), a sampler
that draws one sample's parameters from the check's RNG stream, and a
batched kernel. A group runs as one pass over chunks of samples. For each
chunk, every check draws its samples in order from its own block-read
``samplers._Stream`` (fields as recipes into its blocks); the field recipes
of the whole group become (N, n) arrays in one gather, scalars (N, 1)
columns and contractions one ``PLTable`` per kernel call; checks that share a
kernel run as one call over their rows, one check after another. A form
kernel returns its energy arguments and a combiner; the energy arguments of
every kernel of the chunk go through one ``energy_of_values`` call, and each
combiner maps its slice of the energies to its violations with the float
operations of the inequality, in its order. Identity kernels return their
violations. Each row is computed on its own, so the bits do not depend on
the chunking or the grouping, and each check folds its slice of the
violations into its worst sample (``_fold``) and its result (``_sweep``).
The witness takes its fields from its rows of the chunk's arrays.
``replay`` calls the same kernel on a one-row batch. The kernel's keyword
arguments name the witness keys, so the sweep, the witness and ``replay``
all follow from the row.

To add a check, write its batched kernel, which takes the sampled
parameters and returns (energy arguments, combiner), or the violations for
an identity, and add one row with its sampler and group; a check that
reuses a kernel shares its calls.
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
    alternating_table,
    family_table,
    folded_table,
    make_phi,
    negate,
    pl_eval,
    pl_table,
)
from .errors import PreconditionFailed, as_real
from .forms import FormInstance, make_form
from .lattice_ops import (
    h_alpha,
    phi_alpha,
    project_band,
    project_oracle,
    project_order,
    twist_residuals,
)
from .measure import MeasureSpace, make_field
from .samplers import (
    AMPLITUDE,
    SuiteConfig,
    _Stream,
    check_rng,
    fields,
    pl_from_witness,
    pl_to_witness,
    sample_alpha,
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
# parameter samplers: (the check's _Stream, points per field, sample index)
# -> one sample's parameters, fields as recipes


def _draw_f(rng, n: int, idx: int) -> dict:
    return {"f": rng.field(n)}


def _draw_fg(rng, n: int, idx: int) -> dict:
    return {"f": rng.field(n), "g": rng.field(n)}


def _draw_fga(rng, n: int, idx: int) -> dict:
    return {**_draw_fg(rng, n, idx), "alpha": sample_alpha(rng)}


def _draw_phi_f(rng, n: int, idx: int) -> dict:
    # -id and id are always the first two contractions in the sample set, so
    # a symmetry violation surfaces here as well
    if idx == 0:
        phi = negate(make_phi([]))
    elif idx == 1:
        phi = make_phi([])
    else:
        phi = sample_contraction(rng)
    return {"phi": phi, **_draw_f(rng, n, idx)}


def _draw_x_f(rng, n: int, idx: int) -> dict:
    # the degenerate branch x = 0 is always exercised
    x = 0.0 if idx == 0 else 2.0 * AMPLITUDE * rng.random()
    return {"x": x, **_draw_f(rng, n, idx)}


def _draw_onesided(rng, n: int, idx: int) -> dict:
    x1 = 0.0 if rng.random() < 0.15 else AMPLITUDE * rng.random()
    x2 = x1 + (0.05 + (AMPLITUDE - 0.05) * rng.random())
    return {"x1": x1, "x2": x2, **_draw_f(rng, n, idx)}


def _draw_straddle(lo: float, hi: float) -> Callable:
    """x1 < 0 < x2 with -x1/x2 drawn from [lo, hi]: below 1 is the stated
    assumption x2 > -x1, above 1 the mirrored configuration."""

    def draw(rng, n: int, idx: int) -> dict:
        x2 = 0.05 + (AMPLITUDE - 0.05) * rng.random()
        x1 = -x2 * (lo + (hi - lo) * rng.random())
        return {"x1": x1, "x2": x2, **_draw_f(rng, n, idx)}

    return draw


_FORCED_TS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5))


def _draw_twist(rng, n: int, idx: int) -> dict:
    params = _draw_fga(rng, n, idx)
    if idx < len(_FORCED_TS):
        t, s = _FORCED_TS[idx]
    else:
        t, s = rng.random(), rng.random()
        if t + s > 1.0:  # reflect onto the valid simplex
            t, s = 1.0 - t, 1.0 - s
    return {**params, "t": float(t), "s": float(s)}


# ---------------------------------------------------------------------------
# batched violation kernels; used identically by the sweeps and by replay().
# Fields are (N, n) arrays, scalars (N, 1) columns, contractions PLTables. A
# form kernel returns its energy arguments, (N, n) arrays, and a combiner
# that maps their (N,) energies to the N violations with the float
# operations in a fixed order; an identity kernel returns the violations.


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
    hfg = np.clip(f, g - alpha, g + alpha)
    hgf = np.clip(g, f - alpha, f + alpha)
    return (hfg, hgf, f, g), _split


def _viol_order_projection(f, g):
    d = np.maximum(f - g, 0.0)
    return (f - 0.5 * d, g + 0.5 * d, f, g), _split


def _viol_band_projection(f, g, alpha):
    t = phi_alpha(f - g, alpha)
    return (g + 0.5 * t, f - 0.5 * t, f, g), _split


def _viol_symmetry(f):
    return (-f, f), _gap


def _viol_contraction(phi, f):
    return (pl_eval(phi, f), f), _rise


# the fold families: kinks are (N, k) rows; sigma and psi of fold2 are fixed
# slope patterns, sigma of fold1 and psi of the one-sided fold2 are
# make_phi(kinks) composed with 0 v id (folded_table)
_SIGMA_FOLD2_ONESIDED = (0.0, -1.0, 1.0)  # 0 up to x1, x1 - y, y + x1 - 2 x2
_PSI_FOLD2_STRADDLE = (1.0, -1.0, 0.0)  # y - 2 x1 below x1, -y, then -x2


def _viol_fold1_lattice_split(f, x):
    # join/meet split of the pair (f, sigma o f): the join is 0 v f and the
    # meet is the one-fold contraction applied to f
    return (
        pl_eval(alternating_table(x), f), np.maximum(f, 0.0), f, pl_eval(folded_table(x), f)
    ), _split


def _fold1_chain(a, b, c, d):
    """The worst step of the fold1 clamp chain, from E(sf), E(-sf), E(pf), E(-pf)."""
    return _pymax(2 * a - (a + b), (a + b) - (c + d), (c + d) - 2 * c)


def _viol_fold1_clamp_chain(f, x):
    # symmetry, then the clamp split at band radius 2x, then symmetry again
    sf = pl_eval(folded_table(x), f)
    pf = np.maximum(f, 0.0)
    return (sf, -sf, pf, -pf), _fold1_chain


def _viol_fold1_conclusion(f, x):
    return (pl_eval(alternating_table(x), f), f), _rise


def _viol_fold2_onesided_clamp_split(f, x1, x2):
    kinks = np.hstack([x1, x2])
    return (
        pl_eval(folded_table(kinks), f),
        np.maximum(f - x1, 0.0),
        np.maximum(f, 0.0),
        pl_eval(family_table(kinks, _SIGMA_FOLD2_ONESIDED), f),
    ), _split


def _fold2_onesided_chain(a, b, c, d):
    """The worst step of the one-sided fold2 clamp chain, from
    E((f - x1) v 0), E((x1 - f) ^ 0), E(sf), E(-sf)."""
    return _pymax((a + b) - 2 * a, (c + d) - (a + b), 2 * c - (c + d))


def _viol_fold2_onesided_clamp_chain(f, x1, x2):
    sf = pl_eval(family_table(np.hstack([x1, x2]), _SIGMA_FOLD2_ONESIDED), f)
    return (np.maximum(f - x1, 0.0), np.minimum(x1 - f, 0.0), sf, -sf), _fold2_onesided_chain


def _viol_fold2_onesided_lattice_split(f, x1, x2):
    kinks = np.hstack([x1, x2])
    return (
        pl_eval(alternating_table(kinks), f), np.maximum(f, 0.0), pl_eval(folded_table(kinks), f), f
    ), _split


def _viol_fold2_conclusion(f, x1, x2):
    return (pl_eval(alternating_table(np.hstack([x1, x2])), f), f), _rise


def _viol_fold2_straddle_clamp_split(f, x1, x2):
    kinks = np.hstack([x1, x2])
    return (
        pl_eval(alternating_table(kinks), f),
        np.minimum(f, x2),
        f,
        pl_eval(family_table(kinks, _PSI_FOLD2_STRADDLE), f),
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
    sample: Callable  # (stream, n, idx) -> one sample's parameters
    kernel: Callable  # (**stacked parameters) -> (energy arguments, combiner), or violations

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """Witness keys of the sampled parameters: the kernel's arguments."""
        return tuple(inspect.signature(self.kernel).parameters)


CHECKS = (
    Check("minmax", "criteria", _draw_fg, _viol_minmax),
    Check("clamp", "criteria", _draw_fga, _viol_clamp),
    Check("order_projection", "criteria", _draw_fg, _viol_order_projection),
    Check("band_projection", "criteria", _draw_fga, _viol_band_projection),
    Check("symmetry", "criteria", _draw_f, _viol_symmetry),
    Check("normal_contraction", "contraction", _draw_phi_f, _viol_contraction),
    Check("proof_fold1_lattice_split", "proof", _draw_x_f, _viol_fold1_lattice_split),
    Check("proof_fold1_clamp_chain", "proof", _draw_x_f, _viol_fold1_clamp_chain),
    Check("proof_fold1_conclusion", "proof", _draw_x_f, _viol_fold1_conclusion),
    Check("proof_fold2_onesided_clamp_split", "proof", _draw_onesided,
          _viol_fold2_onesided_clamp_split),
    Check("proof_fold2_onesided_clamp_chain", "proof", _draw_onesided,
          _viol_fold2_onesided_clamp_chain),
    Check("proof_fold2_onesided_lattice_split", "proof", _draw_onesided,
          _viol_fold2_onesided_lattice_split),
    Check("proof_fold2_onesided_conclusion", "proof", _draw_onesided, _viol_fold2_conclusion),
    Check("proof_fold2_straddle_clamp_split", "proof", _draw_straddle(0.02, 0.98),
          _viol_fold2_straddle_clamp_split),
    Check("proof_fold2_straddle_conclusion", "proof", _draw_straddle(0.02, 0.98),
          _viol_fold2_conclusion),
    Check("proof_fold2_straddle_clamp_split_mirror", "proof", _draw_straddle(1.05, 3.0),
          _viol_fold2_straddle_clamp_split),
    Check("proof_fold2_straddle_conclusion_mirror", "proof", _draw_straddle(1.05, 3.0),
          _viol_fold2_conclusion),
    Check("identity_halfsum", "identity", _draw_fga, _viol_identity_halfsum),
    Check("identity_twist", "identity", _draw_twist, _viol_identity_twist),
    Check("identity_midpoint", "identity", _draw_fga, _viol_identity_midpoint),
    Check("identity_projection_oracle", "identity", _draw_fga,
          _viol_identity_projection_oracle),
)
# a check passes when its worst violation is at most its group's tolerance
TOLERANCES = {"criteria": 1e-9, "contraction": 1e-9, "proof": 1e-9, "identity": 1e-12}
_BY_NAME = {c.name: c for c in CHECKS}
CRITERIA_NAMES = tuple(c.name for c in CHECKS if c.group == "criteria")
PROOF_NAMES = tuple(c.name for c in CHECKS if c.group == "proof")
IDENTITY_NAMES = tuple(c.name for c in CHECKS if c.group == "identity")


def _encode(value):
    """Witness form of a sampled parameter: arrays as lists, contractions as
    breakpoint/slope dicts, floats as they are."""
    if isinstance(value, PLFunction):
        return pl_to_witness(value)
    return value.tolist() if isinstance(value, np.ndarray) else value


def _decode(key: str, value, space: MeasureSpace):
    """A witness parameter as one sample of the kernels: fields are checked
    against the target's space, scalars must be finite ints or floats (not
    bools); a bad one raises ValueError."""
    if key == "phi":
        return pl_from_witness(value)
    if key in ("f", "g"):
        return make_field(space, value).values
    return as_real(f"witness parameter {key!r}", value)


def _stack(values: list):
    """One parameter of a batch of samples, other than field recipes, as the
    kernels take it."""
    first = values[0]
    if isinstance(first, PLFunction):
        return pl_table(values)
    if isinstance(first, np.ndarray):
        return np.stack(values)
    return np.array(values, dtype=float)[:, None]


def _stack_batches(batches: list[tuple[tuple[str, ...], list[dict]]]) -> list[dict]:
    """Every parameter of each (keys, samples) batch, stacked, by witness
    key; the field recipes of all batches become their arrays in one gather,
    each key's rows a slice of it."""
    stacked, recipes, slots = [], [], []
    for keys, samples in batches:
        out = {}
        for k in keys:
            values = [p[k] for p in samples]
            if isinstance(values[0], tuple):  # field recipes of a _Stream
                slots.append((out, k, len(recipes), len(recipes) + len(values)))
                recipes += values
            else:
                out[k] = _stack(values)
        stacked.append(out)
    if recipes:
        built = fields(recipes)
        for out, k, a, b in slots:
            out[k] = built[a:b]
    return stacked


def _evaluate(target, batches: list[tuple[Callable, dict]]) -> list[np.ndarray]:
    """The violations of each (kernel, stacked parameters) batch. On a form,
    the energy arguments of every batch go through one energy_of_values
    call, and each batch's combiner maps its slice of the energies; on a
    space (the identities) the kernels give the violations."""
    parts = [kernel(**params) for kernel, params in batches]
    if isinstance(target, MeasureSpace):
        return parts
    energies = target.energy_of_values(np.concatenate([a for args, _ in parts for a in args]))
    out, start = [], 0
    for args, combine in parts:
        stop = start + len(args) * len(args[0])
        out.append(combine(*np.split(energies[start:stop], len(args))))
        start = stop
    return out


def _violations(check: Check, target, samples: list[dict]) -> np.ndarray:
    """The check's kernel on one batch of samples: one violation per sample."""
    (stacked,) = _stack_batches([(check.keys, samples)])
    return _evaluate(target, [(check.kernel, stacked)])[0]


def _witness(check: Check, target, params: dict) -> dict:
    """Self-contained record of one sample: the check, the form descriptor
    (or the space's weights) and the encoded parameters."""
    if check.group == "identity":
        head = {"weights": target.weights.tolist()}
    else:
        head = {"form": target.descriptor()}
    return {"check": check.name, **head, **{k: _encode(v) for k, v in params.items()}}


def _fold(best: tuple, violations: np.ndarray, samples: list[dict], stacked: dict,
          offset: int) -> tuple:
    """A check's (worst, params, finite) after the next chunk of its
    violations, whose sample i sits at row offset + i of the stacked fields:
    the first non-finite sample, or else the first sample at the maximum,
    which is what a loop over the samples keeping the first strict maximum,
    and stopping at a non-finite one, keeps."""
    worst, _, finite = best
    if not finite:
        return best
    bad = np.flatnonzero(~np.isfinite(violations))
    i = int(bad[0]) if bad.size else int(np.argmax(violations))
    if bad.size or violations[i] > worst:
        params = {  # each field its own copy of the row, not a view of the chunk
            k: stacked[k][offset + i].copy() if isinstance(v, tuple) else v
            for k, v in samples[i].items()
        }
        return float(violations[i]), params, not bad.size
    return best


def _sweep(check: Check, target, cfg: SuiteConfig, best: tuple) -> CheckResult:
    """A check's result from its fold over every chunk of its samples."""
    worst, params, finite = best
    passed = finite and bool(worst <= TOLERANCES[check.group])
    return CheckResult(check.name, passed, worst, _witness(check, target, params), cfg.n_samples)


def _run(group: str, target, cfg: SuiteConfig) -> list[CheckResult]:
    """Run a group's checks on a form (or a space, for identities) over
    cfg.n_samples seeded samples each, in one pass over chunks of samples.

    For each chunk, every check draws its samples from its own stream; the
    group's field recipes become arrays in one gather; checks that share a
    kernel run as one kernel call over their rows, one check after another;
    one energy evaluation serves every kernel; and each check folds its
    slice of the violations into its result.
    """
    checks = [c for c in CHECKS if c.group == group]
    space = target if group == "identity" else target.space
    n = space.n
    streams = [_Stream(check_rng(cfg.seed, c.name)) for c in checks]
    kernels = dict.fromkeys(c.kernel for c in checks)
    batches = [[j for j, c in enumerate(checks) if c.kernel is k] for k in kernels]
    rows = max(1, _CHUNK_VALUES // (n * len(checks)))
    best = [(-math.inf, None, True)] * len(checks)
    for start in range(0, cfg.n_samples, rows):
        idxs = range(start, min(start + rows, cfg.n_samples))
        samples = [[c.sample(rng, n, i) for i in idxs] for c, rng in zip(checks, streams)]
        stacked = _stack_batches(
            [(checks[b[0]].keys, [p for j in b for p in samples[j]]) for b in batches]
        )
        for rng in streams:
            rng.release()
        violations = _evaluate(target, list(zip(kernels, stacked)))
        for b, v, st in zip(batches, violations, stacked):
            for pos, j in enumerate(b):
                offset = pos * len(idxs)
                chunk = v[offset : offset + len(idxs)]
                best[j] = _fold(best[j], chunk, samples[j], st, offset)
    return [_sweep(c, target, cfg, b) for c, b in zip(checks, best)]


# ---------------------------------------------------------------------------
# checks


def check_criteria(form: FormInstance, cfg: SuiteConfig) -> list[CheckResult]:
    """The lattice, clamp, projection and symmetry criteria on seeded tuples."""
    return _run("criteria", form, cfg)


def check_normal_contraction(form: FormInstance, cfg: SuiteConfig) -> CheckResult:
    """Worst E(phi o f) - E(f) over sampled contractions and fields.

    -id and id are always the first two contractions in the sample set, so a
    symmetry violation surfaces here as well.
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
    form = make_form(
        {
            "kind": "local_grid_1d",
            "nodes": 11,
            "h": 0.1,
            "integrand": {"name": "max_positive_part"},
        }
    )
    (check,) = (c for c in CHECKS if c.group == "contraction")
    params = {"phi": negate(make_phi([])), "f": -np.arange(11) / 10.0}
    witness = _witness(check, form, params)
    witness["energy_f"] = form.energy_of_values(params["f"])
    witness["energy_neg_f"] = form.energy_of_values(-params["f"])
    violation = _violations(check, form, [params])[0]
    return CheckResult("counterexample_max_positive_part", False, float(violation), witness, 1)


def replay(witness: dict) -> float:
    """Re-evaluate the violation a witness records, bit-for-bit."""
    check = _BY_NAME.get(witness["check"])
    if check is None:
        raise ValueError(f"unknown check {witness['check']!r} in witness")
    if check.group == "identity":
        target = space = MeasureSpace(witness["weights"])
    else:
        target = make_form(witness["form"])
        space = target.space
    params = {k: _decode(k, witness[k], space) for k in check.keys}
    return float(_violations(check, target, [params])[0])

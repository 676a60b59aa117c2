"""Output checks for benchmark jobs. A job whose output fails them counts
as failed, so no job is timed without its result being verified.

Each check returns a list of problems; an empty list means the output is
correct. The checks read what the CLI wrote (the JSON report, the CSV
trace), never the program's in-memory state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import nbdirichlet

CRITERIA = ("minmax", "clamp", "order_projection", "band_projection", "symmetry")
PROOF_CHAIN = (
    "proof_fold1_lattice_split",
    "proof_fold1_clamp_chain",
    "proof_fold1_conclusion",
    "proof_fold2_onesided_clamp_split",
    "proof_fold2_onesided_clamp_chain",
    "proof_fold2_onesided_lattice_split",
    "proof_fold2_onesided_conclusion",
    "proof_fold2_straddle_clamp_split",
    "proof_fold2_straddle_conclusion",
    "proof_fold2_straddle_clamp_split_mirror",
    "proof_fold2_straddle_conclusion_mirror",
)
IDENTITIES = (
    "identity_halfsum",
    "identity_twist",
    "identity_midpoint",
    "identity_projection_oracle",
)
# the one form of the catalog that is not symmetric
ASYMMETRIC_KIND = "grid_max_positive_part"

# flow tolerances, each scaled by (1 + the sup norm of the data involved)
ENERGY_SLACK = 1e-10  # E(u_{k+1}) <= E(u_k) + ENERGY_SLACK * (1 + |E(u_k)|)
PAIR_TOL = 1e-8  # order and sup-norm contraction margins of an (f, g) pair
RESOLVENT_TOL = 1e-9  # graph_quadratic step 1 against exact_graph_resolvent

TOLERANCES = {
    "energy_slack": ENERGY_SLACK,
    "pair_tol": PAIR_TOL,
    "resolvent_tol": RESOLVENT_TOL,
}


def expected_checks(kind: str) -> tuple[list[str], set[str]]:
    """Check names a verify report on one form must hold, and those that
    must fail. identity_halfsum is red by design on every report; the
    asymmetric grid fails symmetry and normal contraction and so skips the
    proof chain."""
    if kind == ASYMMETRIC_KIND:
        names = [*CRITERIA, "normal_contraction", *IDENTITIES]
        return names, {"identity_halfsum", "symmetry", "normal_contraction"}
    return [*CRITERIA, "normal_contraction", *PROOF_CHAIN, *IDENTITIES], {"identity_halfsum"}


def check_report(kind: str, doc: dict, n_samples: int) -> list[str]:
    """A verify report must hold exactly the expected checks, fail exactly
    the expected ones, test n_samples tuples per check, and every witness
    must replay to its reported worst violation exactly."""
    checks = doc.get("checks", [])
    names, red = expected_checks(kind)
    base = [c["name"].split("[", 1)[0] for c in checks]
    problems = []
    if sorted(base) != sorted(names):
        problems.append(f"checks {sorted(base)} != expected {sorted(names)}")
    failing = {b for b, c in zip(base, checks) if not c["passed"]}
    if failing != red:
        problems.append(f"failing checks {sorted(failing)} != expected {sorted(red)}")
    for b, c in zip(base, checks):
        if c["n_tested"] != n_samples:
            problems.append(f"{b}: n_tested {c['n_tested']} != {n_samples}")
        replayed = nbdirichlet.replay(c["witness"])
        if not replayed == float(c["worst_violation"]):
            problems.append(f"{b}: replay {replayed!r} != reported {c['worst_violation']!r}")
    return problems


@dataclass(frozen=True)
class Trace:
    """A flow trace as written to CSV: one energy and one state per row."""

    energies: np.ndarray
    states: np.ndarray  # (n_steps + 1, n)


def read_trace(path) -> Trace:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trace(rows[:, 2], rows[:, 4:])


def check_trace(config: dict, trace: Trace) -> list[str]:
    """One trace: the right shape, the given datum as row 0, finite values,
    and energies that do not increase."""
    u0 = np.asarray(config["initial"], dtype=float)
    n_steps = config["flow"]["n_steps"]
    if trace.states.shape != (n_steps + 1, u0.size):
        return [f"trace shape {trace.states.shape} != {(n_steps + 1, u0.size)}"]
    problems = []
    if not np.array_equal(trace.states[0], u0):
        problems.append("row 0 is not the initial datum")
    if not (np.all(np.isfinite(trace.states)) and np.all(np.isfinite(trace.energies))):
        problems.append("non-finite values in trace")
    e = trace.energies
    rise = e[1:] - e[:-1] - ENERGY_SLACK * (1.0 + np.abs(e[:-1]))
    if rise.size and float(np.max(rise)) > 0.0:
        problems.append(f"energy rises by {float(np.max(e[1:] - e[:-1])):.3e}")
    return problems


def pair_margins(trace_f: Trace, trace_g: Trace) -> tuple[float, float]:
    """(max over states of max(s_f - s_g), max over states of
    ||s_f - s_g||_inf - ||f_0 - g_0||_inf); both are <= 0 for an exact flow
    started from f <= g."""
    diff = trace_f.states - trace_g.states
    order = float(np.max(diff))
    sup = np.max(np.abs(diff), axis=1)
    return order, float(np.max(sup - sup[0]))


def check_pair(cfg_f: dict, trace_f: Trace, cfg_g: dict, trace_g: Trace) -> list[str]:
    """Both traces of one unit, the order and contraction margins of the
    pair, and for graph quadratics the first step against the closed form."""
    problems = check_trace(cfg_f, trace_f) + check_trace(cfg_g, trace_g)
    if problems:
        return problems
    scale = 1.0 + float(np.max(np.abs(trace_f.states[0]))) + float(np.max(np.abs(trace_g.states[0])))
    order, contraction = pair_margins(trace_f, trace_g)
    if order > PAIR_TOL * scale:
        problems.append(f"order margin {order:.3e} > {PAIR_TOL * scale:.3e}")
    if contraction > PAIR_TOL * scale:
        problems.append(f"contraction margin {contraction:.3e} > {PAIR_TOL * scale:.3e}")
    if cfg_f["form"]["kind"] == "graph_quadratic":
        form = nbdirichlet.make_form(cfg_f["form"])
        tau = cfg_f["flow"]["tau"]
        for trace in (trace_f, trace_g):
            u0 = trace.states[0]
            exact = nbdirichlet.exact_graph_resolvent(form, nbdirichlet.make_field(form.space, u0), tau)
            gap = float(np.max(np.abs(trace.states[1] - exact.values)))
            bound = RESOLVENT_TOL * (1.0 + float(np.max(np.abs(u0))))
            if gap > bound:
                problems.append(f"step 1 is {gap:.3e} from the exact resolvent (> {bound:.3e})")
    return problems

"""Implicit-Euler (proximal) realization of the energy gradient flow.

Each step solves v = argmin_w E(w) + ||w - u||^2_m / (2 tau) in the weighted
L2 metric. Twice-differentiable pieces go through a damped Newton iteration;
the other pieces (absolute values, positive parts, |z|^p with 1 < p < 2) go
through ADMM on the difference variables z = Dw with exact one-dimensional
proxes. Its w-update solves with diag(m/tau) + rho D^T D, a sparse matrix
factored once by ``scipy.sparse.linalg.splu`` and refactored only when
residual balancing changes rho. Every step is checked against a probe-set
suboptimality contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from .errors import NoConvergence, SpaceMismatch
from .forms import FormInstance, eval_form
from .measure import Field, make_field


@dataclass(frozen=True)
class FlowConfig:
    tau: float
    n_steps: int
    inner_tol: float = 1e-9
    max_inner_iters: int = 200_000
    probe_seed: int = 0
    n_probes: int = 32

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")


@dataclass(frozen=True)
class FlowTrace:
    """States, energies and per-step suboptimality certificates of one run."""

    states: list[Field]
    energies: list[float]
    residuals: list[float]
    config: FlowConfig

    def __post_init__(self):
        assert len(self.states) == len(self.energies)
        assert len(self.residuals) == len(self.states) - 1


def _objective(form: FormInstance, w: np.ndarray, u: np.ndarray, tau: float) -> float:
    quad = float(np.sum(form.space.weights * (w - u) ** 2)) / (2.0 * tau)
    return form.energy_of_values(w) + quad


def _newton_prox(
    form: FormInstance, u: np.ndarray, tau: float, max_iters: int
) -> np.ndarray:
    m = form.space.weights
    n = m.size
    ii, jj, c = form.i_idx, form.j_idx, form.coeffs
    piece = form.piece
    scale = 1.0 + float(np.max(np.abs(m * u))) / tau

    def gradient(w: np.ndarray) -> np.ndarray:
        return m * (w - u) / tau + form.diffs_adjoint(c * piece.grad(form.diffs(w)))

    w = u.copy()
    for _ in range(max(2, min(max_iters, 200))):
        grad = gradient(w)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= 1e-13 * scale:
            return w
        hz = c * piece.hess(w[ii] - w[jj])
        H = np.zeros((n, n))
        np.add.at(H, (ii, ii), hz)
        np.add.at(H, (jj, jj), hz)
        np.add.at(H, (ii, jj), -hz)
        np.add.at(H, (jj, ii), -hz)
        H[np.diag_indices(n)] += m / tau
        step = np.linalg.solve(H, -grad)
        if float(np.max(np.abs(step))) <= 1e-16 * (1.0 + float(np.max(np.abs(w)))):
            return w  # at floating-point resolution
        if gnorm <= 1e-6 * scale:
            # terminal phase: objective differences are below fp noise, so a
            # line search would stall; the SPD Hessian makes the pure step safe
            w = w + step
            continue
        f0 = _objective(form, w, u, tau)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            if _objective(form, w + t * step, u, tau) <= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        w = w + t * step
    if float(np.max(np.abs(gradient(w)))) <= 1e-10 * scale:
        return w
    raise NoConvergence("Newton prox did not reach its gradient tolerance")


def _admm_prox(
    form: FormInstance, u: np.ndarray, tau: float, max_iters: int
) -> np.ndarray:
    m = form.space.weights
    n = m.size
    ii, jj, c = form.i_idx, form.j_idx, form.coeffs
    piece = form.piece
    ones = np.ones(c.size)
    # D^T D summed from its pair entries; CSC, as splu wants it
    DtD = csc_matrix(
        (np.concatenate([ones, ones, -ones, -ones]),
         (np.concatenate([ii, jj, ii, jj]), np.concatenate([ii, jj, jj, ii]))),
        shape=(n, n),
    )
    base = diags(m / tau, format="csc")

    def factor(rho: float):
        return splu(base + rho * DtD, permc_spec="MMD_AT_PLUS_A")

    rho = max(float(np.median(c * piece.scale)), 1e-3)
    lu = factor(rho)
    rhs0 = m * u / tau
    w = u.copy()
    z = form.diffs(w)
    lam = np.zeros(c.size)
    eps = 1e-13 * (1.0 + float(np.max(np.abs(z))))
    it = 0
    while it < max_iters:
        it += 1
        w = lu.solve(rhs0 + rho * form.diffs_adjoint(z - lam))
        dw = form.diffs(w)
        y = dw + lam
        z_new = piece.prox(y, c, rho)
        s = rho * float(np.max(np.abs(form.diffs_adjoint(z_new - z))))
        z = z_new
        lam = y - z
        r = float(np.max(np.abs(dw - z)))
        if r <= eps and s <= eps:
            return w
        if it % 64 == 0:  # residual balancing keeps rho in a useful range
            if r > 10.0 * s and rho < 1e8:
                rho *= 2.0
                lam /= 2.0
                lu = factor(rho)
            elif s > 10.0 * r and rho > 1e-8:
                rho /= 2.0
                lam *= 2.0
                lu = factor(rho)
    raise NoConvergence(f"ADMM prox did not converge in {max_iters} iterations")


def prox_step(
    form: FormInstance,
    u: Field,
    tau: float,
    inner_tol: float = 1e-9,
    max_inner_iters: int = 200_000,
    probe_seed: int = 0,
    n_probes: int = 32,
) -> Field:
    """One implicit-Euler step: near-minimizer of E(w) + ||w-u||^2_m/(2 tau).

    The result v is certified against a probe set: for u itself and n_probes
    seeded random fields w the objective satisfies obj(v) <= obj(w) + inner_tol.
    Raises NoConvergence if the inner solver exhausts its budget or the
    certificate fails.
    """
    return _certified_step(form, u, tau, inner_tol, max_inner_iters, probe_seed, n_probes)[0]


def _certified_step(
    form: FormInstance,
    u: Field,
    tau: float,
    inner_tol: float,
    max_inner_iters: int,
    probe_seed: int,
    n_probes: int,
) -> tuple[Field, float]:
    """The step of prox_step and its certificate, computed once."""
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if u.space is not form.space and u.space != form.space:
        raise SpaceMismatch("field does not live on the form's space")
    if form.n_terms == 0:
        v = u
    elif form.smooth:
        v = make_field(form.space, _newton_prox(form, u.values, tau, max_inner_iters))
    else:
        v = make_field(form.space, _admm_prox(form, u.values, tau, max_inner_iters))
    worst = prox_certificate(form, v, u, tau, probe_seed, n_probes)
    if worst > inner_tol:
        raise NoConvergence(
            f"prox probe contract violated: certificate {worst:.3e} > {inner_tol:.3e}"
        )
    return v, worst


def prox_certificate(
    form: FormInstance,
    v: Field,
    u: Field,
    tau: float,
    probe_seed: int = 0,
    n_probes: int = 32,
) -> float:
    """max over probes w of obj(v) - obj(w); <= 0 means v beats every probe."""
    obj_v = _objective(form, v.values, u.values, tau)
    worst = obj_v - _objective(form, u.values, u.values, tau)
    rng = np.random.default_rng([probe_seed, 0x70B5])
    amp = 1.0 + float(np.max(np.abs(u.values)))
    for _ in range(n_probes):
        probe = rng.uniform(-amp, amp, form.space.n)
        worst = max(worst, obj_v - _objective(form, probe, u.values, tau))
    return worst


def evolve(form: FormInstance, u0: Field, cfg: FlowConfig) -> FlowTrace:
    """Iterate the prox step n_steps times, recording states, energies and
    each step's certificate as its residual.

    Energies are checked to be non-increasing along the trace, with a slack
    of 1e-10 * (1 + |E|) for rounding; solver failures carry the failing step
    index.
    """
    states = [u0]
    energies = [eval_form(form, u0)]
    residuals: list[float] = []
    u = u0
    for k in range(cfg.n_steps):
        try:
            v, residual = _certified_step(
                form,
                u,
                cfg.tau,
                cfg.inner_tol,
                cfg.max_inner_iters,
                cfg.probe_seed + k,
                cfg.n_probes,
            )
        except NoConvergence as exc:
            raise NoConvergence(f"step {k}: {exc}") from exc
        residuals.append(residual)
        e = eval_form(form, v)
        if e > energies[-1] + 1e-10 * (1.0 + abs(energies[-1])):
            raise NoConvergence(
                f"step {k}: energy increased from {energies[-1]!r} to {e!r}"
            )
        states.append(v)
        energies.append(e)
        u = v
    return FlowTrace(states, energies, residuals, cfg)


def exact_graph_resolvent(form, u: Field, tau: float) -> Field:
    """Closed-form step for graph quadratics: (M + tau L)^(-1) M u.

    Dense independent solve used as the oracle for prox_step.
    """
    M = np.diag(form.space.weights)
    L = form.laplacian()
    v = np.linalg.solve(M + tau * L, M @ u.values)
    return make_field(form.space, v)


def trace_to_csv(trace: FlowTrace, path: str) -> None:
    """Write one row per state: step, time, energy, residual, v0..v{n-1}."""
    n = trace.states[0].space.n
    cols = ["step", "time", "energy", "residual"] + [f"v{i}" for i in range(n)]
    lines = [",".join(cols)]
    for k, (state, e) in enumerate(zip(trace.states, trace.energies)):
        res = 0.0 if k == 0 else trace.residuals[k - 1]
        row = [str(k), _fmt(k * trace.config.tau), _fmt(e), _fmt(res)]
        row += [_fmt(x) for x in state.values]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")

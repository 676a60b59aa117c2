"""Implicit-Euler (proximal) realization of the energy gradient flow.

Each step solves v = argmin_w E(w) + ||w - u||^2_m / (2 tau) in the weighted
L2 metric, by one of three solvers chosen from the form's structure:

* twice-differentiable pieces (|z|^p, p >= 2) go through a damped Newton
  iteration, which halves its step until the merit sum_k g_k^2 / m_k,
  g = grad F, falls below (1 - t/2) times its value for step fraction t, and
  stops when max |g| is at most 1e-13 (1 + max |m u| / tau) or no halving
  lowers the merit;
* chains -- the pairs (1, 0), (2, 1), ..., (n-1, n-2), as on a 1-D grid --
  with a piecewise-linear piece (|z|, a(x)|z| or max(z, 0)) go through an
  exact O(n) dynamic program, ``_chain_prox``;
* the other pieces (|z| and max(z, 0) on other pair graphs, |z|^p with
  1 < p < 2) go through ADMM on the difference variables z = Dw with exact
  one-dimensional proxes. Its w-update solves with diag(m/tau) + rho D^T D,
  a sparse matrix factored once by ``scipy.sparse.linalg.splu`` and
  refactored only when residual balancing changes rho, as is the prox weight
  kappa = c * scale / rho. The dual residual s is computed only when the
  primal residual passes or when rho is balanced, every 64 iterations.
  scipy is imported on the first ADMM step, so nothing else loads it.

Every step carries a certificate: an upper bound on F(v) - min F, where
F(w) = E(w) + ||w - u||^2_m / (2 tau) is the step's objective. F is
1/tau-strongly convex in the m-metric, so for a differentiable piece
(|z|^p, p > 1) the gradient g = grad F(v) gives F(v) - min F <=
(tau/2) sum_k g_k^2 / m_k. A piecewise-linear piece is the support function
of a box [lo, hi], so E(w) = max over lambda in the boxes c_e * [lo, hi] of
lambda^T D w, and every such lambda gives the dual lower bound
D(lambda) = lambda^T D u - (tau/2) sum_k (D^T lambda)_k^2 / m_k on min F;
the certificate is the duality gap F(v) - D(lambda). On a chain
the multipliers are prefix sums of m (v - u) / tau, exact at the minimizer;
elsewhere they are ADMM's. On an edge whose difference is not zero both are
the face of the box that its sign picks. A step passes when its certificate is at most
inner_tol * (1 + |F(v)| + |F(v) - certificate|), relative to the objective
and to the lower bound it is computed from.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SpaceMismatch, as_real, require_int
from .forms import FormInstance, _box_residual
from .measure import Field, make_field


# the text of every float the package writes, in reports, trace rows and CLI
# prints: 17 significant digits, which read back to the same float; a
# %-template, so a whole row or list is formatted in one operation
FLOAT_FORMAT = "%.17g"


def _as_tau(value) -> float:
    """tau as a float: a real number by as_real's rule, positive and finite
    (a float that is not finite gets this message, not as_real's)."""
    tau = float(value) if isinstance(value, (float, np.floating)) else as_real("tau", value)
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    return tau


def _check_space(form: FormInstance, u: Field) -> None:
    if u.space is not form.space and u.space != form.space:
        raise SpaceMismatch("field does not live on the form's space")


@dataclass(frozen=True)
class FlowConfig:
    tau: float = 0.01
    n_steps: int = 100
    inner_tol: float = 1e-9
    max_inner_iters: int = 200_000

    def __post_init__(self):
        # stored as floats, so an integer gives the bits of the same float
        object.__setattr__(self, "tau", _as_tau(self.tau))
        object.__setattr__(self, "inner_tol", as_real("inner_tol", self.inner_tol))
        require_int("n_steps", self.n_steps, 1)
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        require_int("max_inner_iters", self.max_inner_iters, 1)


@dataclass(frozen=True)
class FlowTrace:
    """States, energies and per-step certificates of one run. states is an
    (n_steps + 1, n) array whose row k is the state after k steps, row 0 the
    initial datum; residuals[k] bounds the suboptimality of step k, the
    gradient bound or the duality gap of prox_certificate."""

    states: np.ndarray
    energies: list[float]
    residuals: list[float]
    config: FlowConfig

    def __post_init__(self):
        assert len(self.states) == len(self.energies)
        assert len(self.residuals) == len(self.states) - 1


def _proximity(form: FormInstance, w: np.ndarray, u: np.ndarray, tau: float) -> float:
    """The quadratic term ||w - u||^2_m / (2 tau) of the objective."""
    return float(np.sum(form.space.weights * (w - u) ** 2)) / (2.0 * tau)


def _objective(form: FormInstance, w: np.ndarray, u: np.ndarray, tau: float) -> float:
    return form.energy_of_values(w) + _proximity(form, w, u, tau)


def _gradient(form: FormInstance, w: np.ndarray, u: np.ndarray, tau: float) -> np.ndarray:
    """The gradient of the objective at w, for a differentiable piece."""
    return form.space.weights * (w - u) / tau + form.diffs_adjoint(
        form.coeffs * form.piece.grad(form.diffs(w))
    )


def _newton_prox(
    form: FormInstance, u: np.ndarray, tau: float, max_iters: int
) -> np.ndarray:
    """Damped Newton on the merit phi(w) = sum_k g_k^2 / m_k, g = grad F(w),
    2/tau times the step certificate. Along the Newton step phi' = -2 phi,
    so a small enough t lowers phi unless g is at its rounding floor; there
    w is returned and the certificate judges it."""
    m = form.space.weights
    n = m.size
    scale = 1.0 + float(np.max(np.abs(m * u))) / tau
    w = u.copy()
    grad = _gradient(form, w, u, tau)
    phi = float(np.sum(grad * grad / m))
    for _ in range(max_iters):
        gnorm = float(np.max(np.abs(grad)))
        if not np.isfinite(gnorm):
            raise NoConvergence("Newton prox: the gradient is not finite")
        if gnorm <= 1e-13 * scale:
            return w
        H = form.laplacian(form.coeffs * form.piece.hess(form.diffs(w)))
        H[np.diag_indices(n)] += m / tau
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Newton prox: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergence("Newton prox: the step is not finite")
        for k in range(61):  # t = 1, 1/2, ..., 2^-60
            t = 0.5**k
            trial = w + t * step
            g_t = _gradient(form, trial, u, tau)
            phi_t = float(np.sum(g_t * g_t / m))
            if phi_t < (1.0 - 0.5 * t) * phi:
                break
        else:
            return w
        w, grad, phi = trial, g_t, phi_t
    raise NoConvergence(
        f"Newton prox did not reach its gradient tolerance in {max_iters} iterations"
    )


def _admm_prox(
    form: FormInstance, u: np.ndarray, tau: float, max_iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """ADMM on z = Dw; returns w and the edge multipliers rho * lam, which lie
    in the subdifferential of the piece at z (see _face_multipliers).

    An iteration does only what its iterates need: the dual residual s is
    computed only where it is read, when the primal residual r passes or when
    rho is balanced, and what depends on rho (the factor, kappa and a box
    piece's bounds) only when rho changes."""
    from scipy.sparse import csc_matrix  # loaded only when ADMM runs
    from scipy.sparse.linalg import splu

    m = form.space.weights
    n = m.size
    c = form.coeffs
    piece = form.piece
    # D^T D summed from its pair entries; CSC, as splu wants it
    DtD = csc_matrix(form._laplacian_entries(np.ones(c.size)), shape=(n, n))
    base = csc_matrix((m / tau, np.arange(n), np.arange(n + 1)), shape=(n, n))  # diag(m/tau)
    cs = c * piece.scale
    box = piece.box
    D, Dt = form.diffs, form.diffs_adjoint
    amax = np.maximum.reduce  # ndarray.max without its Python wrapper

    def factor(rho: float):
        """The w-update's solve and the prox's kappa at rho, and for a box
        piece the bounds kappa * [lo, hi] of its prox, formed once per rho."""
        solve = splu(base + rho * DtD, permc_spec="MMD_AT_PLUS_A").solve
        kappa = cs / rho
        if box is None:
            return solve, kappa, None, None
        return solve, kappa, kappa * box[0], kappa * box[1]

    rho = max(float(np.median(cs)), 1e-3)
    solve, kappa, lo, hi = factor(rho)
    rhs0 = m * u / tau
    w = u.copy()
    z = D(w)
    lam = np.zeros(c.size)
    eps = 1e-13 * (1.0 + float(np.max(np.abs(z))))
    for it in range(1, max_iters + 1):
        w = solve(rhs0 + rho * Dt(z - lam))
        dw = D(w)
        y = dw + lam
        z_old, z = z, piece.prox(y, kappa) if lo is None else _box_residual(y, lo, hi)
        lam = y - z
        r = amax(abs(dw - z))
        if it % 64 and not r <= eps:
            continue
        s = rho * amax(abs(Dt(z - z_old)))
        if r <= eps and s <= eps:
            return w, _face_multipliers(form, z, rho * lam)
        if it % 64 == 0:  # residual balancing keeps rho in a useful range
            if r > 10.0 * s and rho < 1e8:
                rho *= 2.0
                lam /= 2.0
                solve, kappa, lo, hi = factor(rho)
            elif s > 10.0 * r and rho > 1e-8:
                rho /= 2.0
                lam *= 2.0
                solve, kappa, lo, hi = factor(rho)
    raise NoConvergence(f"ADMM prox did not converge in {max_iters} iterations")


def _face_multipliers(form: FormInstance, z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Edge multipliers of a piecewise-linear piece: the face c_e hi of the
    box where z_e > 0, c_e lo where z_e < 0, and lam_e where z_e = 0. The
    subdifferential at z_e != 0 is that face alone, and taking it from the
    box avoids the cancellation in lam_e, a difference of numbers as large
    as the data; a differentiable piece keeps lam."""
    box = form.piece.box
    if box is None:
        return lam
    return np.where(z > 0.0, form.coeffs * box[1], np.where(z < 0.0, form.coeffs * box[0], lam))


def _is_chain(form: FormInstance) -> bool:
    """The pairs are (1, 0), (2, 1), ..., (n-1, n-2) in this order and the piece
    is the support function of a box: the forms _chain_prox solves."""
    n = form.space.n
    return (
        form.piece.box is not None
        and form.n_terms == n - 1
        and np.array_equal(form.j_idx, np.arange(n - 1))
        and np.array_equal(form.i_idx, np.arange(1, n))
    )


def _cross_from_left(
    knots: deque, a: float, b: float, lev: float, lev_right: float, level: float
) -> tuple[float, float, float, float]:
    """Where the derivative that ``knots`` and the end pieces hold crosses
    ``level``, scanning from its left end; knots left of the crossing are
    popped. The end pieces share the node terms (a, b), slope and intercept,
    and clip at lev on the left and lev_right on the right. Returns the
    crossing and the piece (slope, intercept, clip level) holding it."""
    a0, b0 = a, b
    while knots and a * knots[0][0] + b + lev < level:
        _, da, db, _, lev = knots.popleft()
        a, b = a + da, b + db
    if not knots:  # the right end piece, without the rounding of the sums
        return (level - lev_right - b0) / a0, a0, b0, lev_right
    return min((level - lev - b) / a, knots[0][0]), a, b, lev  # in its piece despite rounding


def _chain_prox(form: FormInstance, u: np.ndarray, tau: float) -> np.ndarray:
    """Exact prox of a chain form (see _is_chain) by dynamic programming, O(n).

    With w_k = coeffs[k] and g the support function sigma of [lo, hi], the
    step minimizes sum_k m_k (x_k - u_k)^2 / (2 tau) + sum_k w_k
    sigma(x_{k+1} - x_k). The forward pass keeps the derivative of
    the message B_k(x_k), the minimum over x_0..x_{k-1} of the terms up to
    node k: increasing and piecewise linear. Passing edge k clips it to
    [w_k lo, w_k hi] at its crossings t-_k < t+_k of the two levels: the best
    x_k is x_{k+1} (a flat edge) for x_{k+1} between them and the nearer
    crossing otherwise. Then node k+1's term (m/tau)(x - u) is added. The
    backward pass starts at the root of the last derivative and sets
    x_k = clip(x_{k+1}, t-_k, t+_k) (Johnson, JCGS 2013).

    Each piece of the derivative is a clip level plus a sum of node terms
    (slope, intercept). A deque of knots (position, slope jump, intercept
    jump, level on the left, level on the right) lies between two end pieces,
    and only the end pieces take the node terms. Each edge adds two knots,
    so the work is O(n). The levels are copied across a knot, never added and
    subtracted, so a large weight costs no precision on the other edges; the
    data are shifted by u_0, so a constant datum comes back exactly.
    """
    lo, hi = form.piece.box
    shift = u[0]
    slope = form.space.weights / tau
    slopes, icpts = slope.tolist(), (-slope * (u - shift)).tolist()
    knots: deque = deque()
    # the end pieces: node terms (a_end, b_end), clip levels lev_lo and lev_hi
    a_end, b_end, lev_lo, lev_hi = slopes[0], icpts[0], 0.0, 0.0
    t_lo, t_hi = [], []
    for w_k, a_next, b_next in zip(form.coeffs.tolist(), slopes[1:], icpts[1:]):
        lo_k, hi_k = w_k * lo, w_k * hi
        t, a, b, lev = _cross_from_left(knots, a_end, b_end, lev_lo, lev_hi, lo_k)
        t_lo.append(t)
        knots.appendleft((t, a, b, lo_k, lev))
        # the same from the right, down to the knot just added at t-_k, where
        # the derivative is lo_k < hi_k
        a, b, lev = a_end, b_end, lev_hi
        while len(knots) > 1 and a * knots[-1][0] + b + lev > hi_k:
            _, da, db, lev, _ = knots.pop()
            a, b = a - da, b - db
        t = max((hi_k - lev - b) / a, knots[-1][0])  # in its piece despite rounding
        t_hi.append(t)
        knots.append((t, -a, -b, lev, hi_k))
        # the clipped derivative is lo_k left of t-_k and hi_k right of t+_k;
        # add node k+1's term to both
        a_end, b_end, lev_lo, lev_hi = a_next, b_next, lo_k, hi_k
    x = [_cross_from_left(knots, a_end, b_end, lev_lo, lev_hi, 0.0)[0]]
    for t_lo_k, t_hi_k in zip(reversed(t_lo), reversed(t_hi)):
        x.append(min(max(x[-1], t_lo_k), t_hi_k))
    return np.array(x[::-1]) + shift


def _chain_multipliers(
    form: FormInstance, v: np.ndarray, u: np.ndarray, tau: float
) -> np.ndarray:
    """A chain's edge multipliers at the step v from u: the prefix sums of
    m (v - u) / tau, or the box face where Dv is not zero."""
    m = form.space.weights
    return _face_multipliers(form, form.diffs(v), np.cumsum(m * (v - u) / tau)[:-1])


def prox_step(
    form: FormInstance,
    u: Field,
    tau: float,
    inner_tol: float = FlowConfig.inner_tol,
    max_inner_iters: int = FlowConfig.max_inner_iters,
) -> Field:
    """One implicit-Euler step: near-minimizer v of F(w) = E(w) + ||w-u||^2_m/(2 tau).

    The step is certified by prox_certificate, an upper bound on
    F(v) - min F, which must be at most inner_tol * (1 + |F(v)| +
    |F(v) - certificate|). Raises NoConvergence if the inner solver exhausts
    its budget, if Newton meets a singular Hessian or a non-finite gradient
    or step, or if the certificate fails. max_inner_iters bounds the Newton
    and ADMM iterations; the chain solver is direct and takes no budget.
    tau, inner_tol and max_inner_iters are read by FlowConfig's rules.
    """
    cfg = FlowConfig(tau, n_steps=1, inner_tol=inner_tol, max_inner_iters=max_inner_iters)
    _check_space(form, u)
    return _certified_step(form, u, cfg)[0]


def _certified_step(form: FormInstance, u: Field, cfg: FlowConfig) -> tuple[Field, float, float]:
    """The step of prox_step, its certificate and its energy E(v), each
    computed once; cfg has checked the parameters and the caller u's space."""
    tau, max_inner_iters = cfg.tau, cfg.max_inner_iters
    duals = None  # differentiable pieces need none
    chain = False
    if form.n_terms == 0:
        w, duals = u.values, np.zeros(0)  # no pairs, so an empty gap on any pair graph
    elif form.piece.smooth:
        w = _newton_prox(form, u.values, tau, max_inner_iters)
    elif _is_chain(form):
        w, chain = _chain_prox(form, u.values, tau), True
    else:
        w, duals = _admm_prox(form, u.values, tau, max_inner_iters)
    if not np.isfinite(w).all():
        raise NoConvergence("the prox step's state is not finite")
    v = make_field(form.space, w)
    if chain:  # a chain's multipliers are read off v
        duals = _chain_multipliers(form, v.values, u.values, tau)
    energy = form.energy_of_values(v.values)
    obj = energy + _proximity(form, v.values, u.values, tau)
    certificate = prox_certificate(form, v, u, tau, duals, obj)
    tol = cfg.inner_tol * (1.0 + abs(obj) + abs(obj - certificate))
    if not certificate <= tol or certificate == math.inf:  # an infinite bound certifies nothing
        raise NoConvergence(
            f"prox certificate {certificate:.3e} exceeds its tolerance {tol:.3e}"
        )
    return v, certificate, energy


def prox_certificate(
    form: FormInstance,
    v: Field,
    u: Field,
    tau: float,
    duals: np.ndarray | None = None,
    objective: float | None = None,
) -> float:
    """An upper bound on F(v) - min F for the step from u (see the module
    docstring): the gradient bound for a differentiable piece, the duality
    gap for a piecewise-linear one. ``duals`` are the gap's edge multipliers;
    they are projected onto their boxes first, so any values give a valid
    bound. On a chain they default to the prefix sums of m (v - u) / tau,
    or the box face where Dv is not zero; other pair graphs need them, and a
    differentiable piece ignores them. ``objective`` is F(v), if the caller
    has already summed it; the gap sums it otherwise. Where the gap's sums
    overflow, or it is NaN or -inf, it is +inf, still an upper bound. tau and
    the spaces of u and v are checked as prox_step checks them."""
    tau = _as_tau(tau)
    _check_space(form, u)
    _check_space(form, v)
    m = form.space.weights
    box = form.piece.box
    if box is None:
        g = _gradient(form, v.values, u.values, tau)
        return 0.5 * tau * float(np.sum(g * g / m))
    if duals is None:
        if not _is_chain(form):
            raise ValueError("the duality gap off a chain needs the edge multipliers")
        duals = _chain_multipliers(form, v.values, u.values, tau)
    lam = np.clip(duals, form.coeffs * box[0], form.coeffs * box[1])
    t = form.diffs_adjoint(lam)
    try:
        dual = math.fsum((lam * form.diffs(u.values)).tolist()) - 0.5 * tau * math.fsum(
            (t * t / m).tolist()
        )
    except (OverflowError, ValueError):  # a sum past the largest float bounds nothing
        return math.inf
    if objective is None:
        objective = _objective(form, v.values, u.values, tau)
    gap = objective - dual
    return gap if gap > -math.inf else math.inf  # so is a gap of NaN or -inf


@np.errstate(over="ignore")
def evolve(form: FormInstance, u0: Field, cfg: FlowConfig) -> FlowTrace:
    """Iterate the prox step n_steps times, recording states, energies and
    each step's certificate as its residual.

    Energies are checked to be non-increasing along the trace, with a slack
    of 1e-10 * (1 + |E|) for rounding; solver failures carry the failing step
    index. A state, energy or certificate that overflows ends the flow in a
    NoConvergence, so numpy does not warn of the overflow on the way.
    """
    _check_space(form, u0)
    states = np.empty((cfg.n_steps + 1, form.space.n))
    states[0] = u0.values
    energies = [form.energy_of_values(u0.values)]
    residuals: list[float] = []
    u = u0
    for k in range(cfg.n_steps):
        try:
            v, residual, e = _certified_step(form, u, cfg)
        except NoConvergence as exc:
            raise NoConvergence(f"step {k}: {exc}") from exc
        residuals.append(residual)
        if e > energies[-1] + 1e-10 * (1.0 + abs(energies[-1])):
            raise NoConvergence(
                f"step {k}: energy increased from {energies[-1]!r} to {e!r}"
            )
        states[k + 1] = v.values
        energies.append(e)
        u = v
    return FlowTrace(states, energies, residuals, cfg)


def exact_graph_resolvent(form: FormInstance, u: Field, tau: float) -> Field:
    """Closed-form step for a quadratic piece scale*z^2: E(w) = scale w.Lw,
    L the form's Laplacian, so the step is (M + tau 2 scale L)^(-1) M u.

    Dense independent solve used as the oracle for prox_step. Raises
    ValueError for a piece other than p = 2 and for a tau prox_step rejects.
    """
    tau = _as_tau(tau)
    _check_space(form, u)
    if form.piece.p != 2.0:
        raise ValueError("the closed-form resolvent needs a quadratic piece (p = 2)")
    M = np.diag(form.space.weights)
    L = form.laplacian()
    v = np.linalg.solve(M + tau * (2.0 * form.piece.scale) * L, M @ u.values)
    return make_field(form.space, v)


def trace_to_csv(trace: FlowTrace, path: str) -> None:
    """Write one row per state: step, time, energy, residual, v0..v{n-1}."""
    n = trace.states.shape[1]
    cols = ["step", "time", "energy", "residual"] + [f"v{i}" for i in range(n)]
    row = ",".join(["%d"] + [FLOAT_FORMAT] * (n + 3))
    tau = trace.config.tau
    rows = zip(trace.states.tolist(), trace.energies, [0.0] + trace.residuals)
    lines = [",".join(cols)]
    lines += [row % (k, k * tau, e, res, *state) for k, (state, e, res) in enumerate(rows)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

"""Convex energy functionals over fields.

Every form is one ``FormInstance``: E(u) = sum_e c_e * g(u_i - u_j) over a
finite family of ordered index pairs with nonnegative coefficients, and a
convex scalar piece g with g(0) = 0: scale*|z|^p with p > 1, or the support
function of a box (see ``ScalarPiece``). ``make_form`` builds it from a
JSON-style descriptor of one of three kinds:

* ``graph_quadratic`` -- unordered weighted edges, g(z) = z^2/2 (one half per edge);
* ``nonlocal_psi``    -- a per-ordered-pair kernel matrix with psi(z) = |z|^p or max(z, 0);
* ``local_grid_1d``   -- uniform 1D grid with node measure h, interior forward
  differences, integrand f(x, v) in {|v|^p / p, max(v, 0), a(x)|v|}.

To add a form, write one builder that validates its descriptor, turns it
into pair data and stores the normalised descriptor, and register it in
``_BUILDERS``. The catalog keeps convexity checkable by construction.
Energies are nonnegative reals; extreme exponents can overflow to inf, which
the verifier reports as a failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, BadWeight, EmptySpace, require_int
from .measure import MeasureSpace


@dataclass(frozen=True)
class ScalarPiece:
    """Convex scalar term g with g(0) = 0: ``ScalarPiece(p, scale)`` is
    scale*|z|^p with a finite p > 1, ``ScalarPiece(box=(lo, hi))`` the support
    function max(lo*z, hi*z) of [lo, hi], lo <= 0 <= hi, lo < hi, scale 1:
    |z| is (-1, 1), max(z, 0) is (0, 1). It is even, and makes a form
    symmetric, when lo = -hi; on a grid only then."""

    p: float | None = None
    scale: float = 1.0
    box: tuple[float, float] | None = None

    def __post_init__(self):
        if self.box is not None:
            lo, hi = (float(b) for b in self.box)
            if self.p is not None or self.scale != 1.0:
                raise BadSpec("a box piece takes no exponent and scale 1")
            if not (-math.inf < lo <= 0.0 <= hi < math.inf and lo < hi):
                raise BadSpec("a piece's box [lo, hi] needs finite lo <= 0 <= hi, lo < hi")
            object.__setattr__(self, "box", (lo, hi))
        elif self.p is None or not 1.0 < self.p < math.inf:
            raise BadSpec("power pieces need a finite exponent p > 1")
        if not self.scale > 0.0:
            raise BadSpec("piece scale must be positive")

    @property
    def smooth(self) -> bool:
        """Twice continuously differentiable (safe for Newton steps)."""
        return self.box is None and self.p >= 2.0

    def value(self, z: np.ndarray) -> np.ndarray:
        if self.box is not None:
            lo, hi = self.box
            # a zero end gives the literal 0, not 0 * z, which is NaN at z = +-inf
            return np.maximum(lo * z if lo else 0.0, hi * z if hi else 0.0)
        return self.scale * np.abs(z) ** self.p

    def grad(self, z: np.ndarray) -> np.ndarray:
        """g'(z) for |z|^p with p > 1, differentiable though C^2 only from p = 2."""
        assert self.box is None
        return self.scale * self.p * np.sign(z) * np.abs(z) ** (self.p - 1.0)

    def hess(self, z: np.ndarray) -> np.ndarray:
        assert self.smooth
        return self.scale * self.p * (self.p - 1.0) * np.abs(z) ** (self.p - 2.0)

    def prox(self, y: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """argmin_t (kappa/scale)*g(t) + (t - y)^2/2, componentwise: the prox
        of coeff*g + rho/2 (t - y)^2 at kappa = coeff*scale/rho."""
        if self.box is not None:  # Moreau: y minus its projection onto kappa*[lo, hi]
            # y minus np.clip(y, ...), bit for bit, without np.clip's Python wrappers
            return y - np.minimum(np.maximum(y, kappa * self.box[0]), kappa * self.box[1])
        return np.sign(y) * _power_prox_magnitude(np.abs(y), kappa * self.p, self.p)


def _power_prox_magnitude(a: np.ndarray, kp: np.ndarray, p: float) -> np.ndarray:
    """The root t in [0, a] of t + kp * t^(p-1) = a, componentwise (p > 1).

    Safeguarded Newton: the iterate stays in a bracket [lo, hi] that each
    step's residual sign shrinks, and a step that would leave it bisects
    instead. The start (a/kp)^(1/(p-1)), where the power term alone reaches
    a, bounds the root from above as a does, and is within a factor of the
    root where kp is large; the iteration stops at floating-point resolution.
    """
    out = np.where(kp == 0.0, a, 0.0)
    idx = np.flatnonzero((a > 0.0) & (kp > 0.0))
    if idx.size == 0:
        return out
    a, kp = a[idx], kp[idx]
    q = p - 1.0
    # the residual is known to a rounding of a, which fixes t to about eps/q
    # relative; the last steps jitter there, and the bracket closes there
    rtol = 4.0 * np.finfo(float).eps * (1.0 + 1.0 / q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        hi = np.minimum(a, (a / kp) ** (1.0 / q))
        lo = np.zeros_like(a)
        t = hi
        for _ in range(200):
            tq = t**q
            resid = t + kp * tq - a
            lo = np.where(resid < 0.0, t, lo)
            hi = np.where(resid > 0.0, t, hi)
            nxt = t - resid / (1.0 + q * kp * tq / t)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            t, step = nxt, np.abs(nxt - t)
            if np.all((step <= rtol * t) | (hi - lo <= rtol * t)):
                break
    out[idx] = t
    return out


def _sum_terms(terms: list) -> float:
    """math.fsum of nonnegative terms, or +inf (NaN if a term is) past DBL_MAX."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.nan if any(map(math.isnan, terms)) else math.inf


# an (N, n) energy evaluation takes its rows in blocks of about _BLOCK_TERMS
# terms; a block of at least _VECTOR_TERMS terms is summed by _row_sums,
# a smaller one by the fsum loop, which is faster there
_BLOCK_TERMS = 1 << 14
_VECTOR_TERMS = 2000
_U = 2.0**-53  # unit roundoff


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and its exact error (a + b) - s."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """``_sum_terms`` of every row of an (N, m) array, bit for bit.

    One ExtractVector level (Rump, Ogita & Oishi 2008): for a power of two
    sigma > (m + 2) max|t| per row, q = (sigma + t) - sigma and r = t - q
    split every term exactly, t = q + r, with q a multiple of u sigma
    (u = 2^-53) and |r| <= u sigma. Every partial sum of a row of q is a
    multiple of u sigma below sigma in magnitude (|q| <= |t| + u sigma, and
    m < 2^26), so q.sum is the exact tau = sum(q), in any order. The plain
    sum rho of the m residuals is off by at most gamma_(m-1) sum|r| <=
    gamma_(m-1) m u sigma <= 2 m^2 u^2 sigma, the bound used, with one
    subnormal added so that its rounding cannot make it too small.
    s, d = two_sum(tau, rho) is exact, s + d = tau + rho, so the exact sum
    is s + d + (sum(r) - rho). s is kept only when that lies strictly inside
    the interval that rounds to s: d + bound below half the gap to the next
    float up and d - bound above minus half the gap down. Then s is the
    correctly rounded sum that fsum returns. A row of zeros sums to +0.0, as
    under fsum. Ties, other zero sums, sums near the underflow threshold and
    rows with a term that is not finite or within (m + 2) 2^4 of DBL_MAX go
    through ``_sum_terms``, which keeps fsum's overflow rule.
    """
    width = terms.shape[1]
    big = np.max(np.abs(terms), axis=1)
    safe = big < 2.0**1020 / (width + 2)  # False for inf and NaN
    t = terms if safe.all() else np.where(safe[:, None], terms, 0.0)
    k = np.frexp((width + 2) * np.where(safe, big, 0.0))[1]  # 2^k > (m + 2) big
    sigma = np.ldexp(1.0, k)
    q = (sigma[:, None] + t) - sigma[:, None]
    s, d = _two_sum(q.sum(axis=1), (t - q).sum(axis=1))
    bound = (2.0 * width * width * _U * _U) * sigma + 5e-324
    above = np.nextafter(s, math.inf) - s
    below = s - np.nextafter(s, -math.inf)
    inside = (d + bound < 0.5 * above) & (d - bound > -0.5 * below) & (s != 0.0)
    inside |= big == 0.0  # a row of zeros: s is +0.0, the fsum of zeros
    redo = np.flatnonzero(~(safe & inside))
    if redo.size:
        s[redo] = [_sum_terms(row) for row in terms[redo].tolist()]
    return s


class FormInstance:
    """A convex energy E(u) = sum_e coeffs[e] * piece(u[i_idx[e]] - u[j_idx[e]])
    over fields on a fixed measure space, built by ``make_form``."""

    def __init__(
        self,
        space: MeasureSpace,
        i_idx: np.ndarray,
        j_idx: np.ndarray,
        coeffs: np.ndarray,
        piece: ScalarPiece,
        descriptor: dict,
    ) -> None:
        self.space = space
        self.i_idx = i_idx.astype(int)
        self.j_idx = j_idx.astype(int)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.piece = piece
        self.kind = descriptor["kind"]
        self._descriptor = descriptor
        if np.any(self.coeffs < 0.0):
            raise BadSpec("pair coefficients must be nonnegative")

    @property
    def n_terms(self) -> int:
        return self.coeffs.size

    def diffs(self, values: np.ndarray) -> np.ndarray:
        """D u: the difference u_i - u_j of every pair, in pair order; for
        each row of an (N, n) stack of fields, an (N, n_terms) stack."""
        return values.take(self.i_idx, axis=-1) - values.take(self.j_idx, axis=-1)

    def diffs_adjoint(self, y: np.ndarray) -> np.ndarray:
        """D^T y, the transpose of ``diffs``: node k collects +y_e from the
        pairs starting at k and -y_e from the pairs ending at k."""
        n = self.space.n
        return np.bincount(self.i_idx, y, n) - np.bincount(self.j_idx, y, n)

    def energy_of_values(self, values: np.ndarray):
        """E at a field's values (n,), as a float, or at each row of (N, n)
        values, as an (N,) array. Each energy is the exactly rounded sum of
        its terms, so a row's energy does not depend on the other rows; a sum
        past the largest float is +inf. A field is a stack of one row; a stack
        goes in blocks of about _BLOCK_TERMS terms, each summed by
        ``_row_sums`` when it holds at least _VECTOR_TERMS terms, else by fsum."""
        stack = values if values.ndim == 2 else values[None]
        n_rows = stack.shape[0]
        blocks = -(-n_rows * self.n_terms // _BLOCK_TERMS)  # rows in about equal blocks
        step = max(1, -(-n_rows // max(blocks, 1)))
        out = np.empty(n_rows)
        for start in range(0, n_rows, step):
            rows = slice(start, start + step)
            terms = self.coeffs * self.piece.value(self.diffs(stack[rows]))
            if terms.size >= _VECTOR_TERMS:
                out[rows] = _row_sums(terms)
            else:
                out[rows] = [_sum_terms(row) for row in terms.tolist()]
        return out if values.ndim == 2 else float(out[0])

    def descriptor(self) -> dict:
        """The normalised descriptor this form was built from; make_form of it
        gives the same form. Shared, not copied: do not mutate it."""
        return self._descriptor

    def laplacian(self) -> np.ndarray:
        """Dense Laplacian of the pair graph weighted by the coefficients; a
        graph_quadratic energy is u.Lu/2 (used by the resolvent oracle)."""
        n = self.space.n
        ii, jj, c = self.i_idx, self.j_idx, self.coeffs
        # one pass in pair order, so each entry sums its terms as a loop over
        # the edges would
        rows = np.stack([ii, jj, ii, jj], axis=1).ravel()
        cols = np.stack([ii, jj, jj, ii], axis=1).ravel()
        vals = np.stack([c, c, -c, -c], axis=1).ravel()
        L = np.zeros((n, n))
        np.add.at(L, (rows, cols), vals)
        return L


def _power_piece(p: float, h: float | None = None) -> ScalarPiece:
    """The piece of a descriptor's exponent p, finite and at least 1: |z|^p,
    or on a grid of spacing h, h * |z/h|^p / p == (h^(1-p)/p) |z|^p with z the
    raw difference. At p = 1 both are |z|, the box (-1, 1)."""
    if not 1.0 <= p < math.inf:
        raise BadSpec(f"exponent p must be finite and at least 1 (p = 1 is |z|), got {p}")
    if p == 1.0:
        return ScalarPiece(box=(-1.0, 1.0))
    return ScalarPiece(p, 1.0 if h is None else h ** (1.0 - p) / p)


def _graph_quadratic(spec: dict) -> FormInstance:
    """E(u) = 1/2 sum over unordered edges w (u_i - u_j)^2."""
    n = spec.get("nodes")
    if n is None:
        raise BadSpec("graph_quadratic descriptor needs 'nodes'")
    require_int("nodes", n, 1)
    space = MeasureSpace(spec.get("node_weights", np.ones(n)))
    if space.n != n:
        raise BadSpec(f"node_weights has {space.n} entries for {n} nodes")
    edges = []
    for i, j, w in spec.get("edges", []):
        require_int("an edge endpoint", i, 0)
        require_int("an edge endpoint", j, 0)
        i, j, w = int(i), int(j), float(w)
        if not (i < n and j < n and i != j):
            raise BadSpec(f"edge ({i}, {j}) is not a pair of distinct nodes")
        if not (np.isfinite(w) and w >= 0.0):
            raise BadSpec("edge weights must be finite and nonnegative")
        edges.append((i, j, w))
    descriptor = {
        "kind": "graph_quadratic",
        "nodes": space.n,
        "node_weights": space.weights.tolist(),
        "edges": [list(e) for e in edges],
    }
    ii = np.array([e[0] for e in edges], dtype=int)
    jj = np.array([e[1] for e in edges], dtype=int)
    ww = np.array([e[2] for e in edges], dtype=float)
    return FormInstance(space, ii, jj, ww, ScalarPiece(2.0, 0.5), descriptor)


def _nonlocal_psi(spec: dict) -> FormInstance:
    """E(u) = sum over ordered pairs w[x, y] psi(u(x) - u(y))."""
    if "kernel" not in spec:
        raise BadSpec("nonlocal_psi descriptor needs 'kernel'")
    K = np.asarray(spec["kernel"], dtype=float)
    weights = spec.get("node_weights", np.ones(K.shape[0] if K.ndim == 2 else 0))
    psi_spec = spec.get("psi", {"name": "power", "p": 2.0})
    if not isinstance(psi_spec, dict):
        raise BadSpec("psi must be a mapping with a 'name'")
    name = psi_spec.get("name")
    if name == "power":
        psi = {"name": name, "p": float(psi_spec.get("p", 2.0))}
        piece = _power_piece(psi["p"])
    elif name == "positive_part":
        piece = ScalarPiece(box=(0.0, 1.0))
        psi = {"name": name}
    else:
        raise BadSpec(f"unknown psi {name!r}")
    space = MeasureSpace(weights)
    n = space.n
    if K.shape != (n, n):
        raise BadSpec(f"kernel must be an {n}x{n} matrix")
    if not np.all(np.isfinite(K)) or np.any(K < 0.0):
        raise BadSpec("kernel weights must be finite and nonnegative")
    descriptor = {
        "kind": "nonlocal_psi",
        "nodes": n,
        "node_weights": space.weights.tolist(),
        "kernel": K.tolist(),
        "psi": psi,
    }
    ii, jj = np.nonzero((K > 0.0) & ~np.eye(n, dtype=bool))
    return FormInstance(space, ii, jj, K[ii, jj], piece, descriptor)


def _local_grid_1d(spec: dict) -> FormInstance:
    """E(u) = sum over interior edges h * f(x_i, (u_{i+1} - u_i)/h).

    Node measure is h per node (free boundary); the integrand catalog is
    abs_power (|v|^p / p), max_positive_part (v v 0) and finsler_weighted
    (a_i |v| with positive per-edge weights).
    """
    if "nodes" not in spec or "h" not in spec:
        raise BadSpec("local_grid_1d descriptor needs 'nodes' and 'h'")
    require_int("a 1D grid's nodes", spec["nodes"], 2)
    nodes = int(spec["nodes"])
    h = float(spec["h"])
    if not (np.isfinite(h) and h > 0.0):
        raise BadSpec("grid spacing h must be positive")
    integrand = dict(spec.get("integrand", {}))
    name = integrand.get("name")
    n_edges = nodes - 1
    coeffs = np.ones(n_edges)
    if name == "abs_power":
        piece = _power_piece(float(integrand.get("p", 2.0)), h)
    elif name == "max_positive_part":
        # h * max(z/h, 0) == max(z, 0)
        piece = ScalarPiece(box=(0.0, 1.0))
    elif name == "finsler_weighted":
        a = np.array(integrand.get("weights", coeffs), dtype=float)
        if a.shape != (n_edges,) or not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise BadSpec("finsler_weighted needs one positive weight per edge")
        # h * a |z/h| == a |z|
        piece = ScalarPiece(box=(-1.0, 1.0))
        coeffs = a
        integrand["weights"] = a.tolist()
    else:
        raise BadSpec(f"unknown integrand {name!r}")
    descriptor = {"kind": "local_grid_1d", "nodes": nodes, "h": h, "integrand": integrand}
    space = MeasureSpace(np.full(nodes, h))
    return FormInstance(
        space, np.arange(1, nodes), np.arange(0, nodes - 1), coeffs, piece, descriptor
    )


_BUILDERS = {
    "graph_quadratic": _graph_quadratic,
    "nonlocal_psi": _nonlocal_psi,
    "local_grid_1d": _local_grid_1d,
}


def make_form(spec: dict) -> FormInstance:
    """Build and validate a form from its JSON-style descriptor."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise BadSpec("form descriptor must be a mapping with a 'kind'")
    builder = _BUILDERS.get(spec["kind"])
    if builder is None:
        raise BadSpec(f"unknown form kind {spec['kind']!r}")
    try:
        return builder(spec)
    except (BadSpec, BadWeight, EmptySpace):
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # int(), float(), h**(1-p), ...
        raise BadSpec(f"malformed {spec['kind']} descriptor: {exc}") from exc

"""Pointwise lattice and projection operators on pairs of fields.

Provides the band clamp H_alpha(f, g) = (g-a) v f ^ (g+a), the scalar soft-band
map phi_alpha, the closed-form metric projections onto the order cone {f <= g}
and the band {|f-g| <= a}, an independent analytic projection oracle, and the
twist-condition residuals used by the identity checks.

Each operator is written once, on the values of one field (n,) or of a stack
(N, n) with per-row scalars (radius, t, s) as (N, 1) columns: the maps are
pointwise and never read the weights.
"""

import numpy as np


def _check_alpha(alpha):
    """A finite nonnegative radius, or an array of them (returned as given
    in shape, as floats); anything else, None and strings included, is a
    ValueError."""
    a = np.asarray(alpha)
    if a.dtype.kind not in "iuf" or not (np.all(np.isfinite(a)) and np.all(a >= 0.0)):
        raise ValueError("alpha must be a finite nonnegative number")
    return float(a) if a.ndim == 0 else np.asarray(a, dtype=float)


def h_alpha(f, g, alpha):
    """Clamp f into the band of radius alpha around g: (g-a) v f ^ (g+a).

    At alpha = 0 this is g everywhere (the middle case applies only where f=g).
    """
    a = _check_alpha(alpha)
    return np.clip(f, g - a, g + a)


def phi_alpha(z, alpha):
    """Scalar soft-band map ((z+a) v 0) + ((z-a) ^ 0); odd, 2-Lipschitz."""
    a = _check_alpha(alpha)
    z = np.asarray(z, dtype=float)
    out = np.maximum(z + a, 0.0) + np.minimum(z - a, 0.0)
    return float(out) if out.ndim == 0 else out


def project_order(f, g):
    """Metric projection of (f, g) onto the order cone {f <= g}.

    Closed form: both components move by half the positive part of f-g.
    """
    d = np.maximum(f - g, 0.0)
    return f - 0.5 * d, g + 0.5 * d


def project_band(f, g, alpha):
    """Metric projection of (f, g) onto the band {|f-g| <= alpha}.

    Closed form (g + phi_a(f-g)/2, f - phi_a(f-g)/2); inside the band the
    pair is returned unchanged since phi_a(z) = 2z there.
    """
    t = phi_alpha(f - g, alpha)
    return g + 0.5 * t, f - 0.5 * t


def project_oracle(kind: str, a, b, alpha=None):
    """Pointwise planar projection of each pair (a(x), b(x)), computed
    without the closed-form operators.

    Order cone (kind "order", no alpha): keep (a, b) if a <= b, else send
    both to the midpoint. Band (kind "band"): keep if |a-b| <= alpha, else
    shrink the difference to +/-alpha symmetrically, preserving a+b.
    """
    if kind not in ("order", "band"):
        raise ValueError(f"unknown constraint kind {kind!r}")
    mid = 0.5 * (a + b)
    if kind == "order":
        if alpha is not None:
            raise ValueError("the order cone takes no alpha")
        keep = a <= b
        return np.where(keep, a, mid), np.where(keep, b, mid)
    alpha = _check_alpha(alpha)
    diff = a - b
    keep = np.abs(diff) <= alpha
    half = 0.5 * alpha * np.sign(diff)
    return np.where(keep, a, mid + half), np.where(keep, b, mid - half)


def twist_residuals(u, v, alpha, t, s):
    """Residuals of the twist conditions for the band clamp.

    With h(u,v) = H_a(u,v), k(u,v) = H_a(v,u), u_t = (1-t)u + t h(u,v) and
    v_s = (1-s)v + s k(u,v), returns the sup norms over the last axis
    (||H_a(u_t, v_s) - u_{1-s}||_inf, ||H_a(v_s, u_t) - v_{1-t}||_inf);
    both vanish on the simplex t + s <= 1.
    """
    a = _check_alpha(alpha)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.all((0.0 <= t) & (t <= 1.0)) and np.all((0.0 <= s) & (s <= 1.0))):
        raise ValueError("t and s must lie in [0, 1]")
    huv = h_alpha(u, v, a)
    hvu = h_alpha(v, u, a)

    def u_at(tt):
        return (1.0 - tt) * u + tt * huv

    def v_at(ss):
        return (1.0 - ss) * v + ss * hvu

    ut = u_at(t)
    vs = v_at(s)
    res_h = np.max(np.abs(h_alpha(ut, vs, a) - u_at(1.0 - s)), axis=-1)
    res_k = np.max(np.abs(h_alpha(vs, ut, a) - v_at(1.0 - t)), axis=-1)
    return res_h, res_k

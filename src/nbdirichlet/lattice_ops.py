"""Pointwise lattice and projection operators on pairs of fields.

Provides the lattice join/meet, the band clamp H_alpha(f, g) = (g-a) v f ^ (g+a),
the scalar soft-band map phi_alpha, the closed-form metric projections onto the
order cone {f <= g} and the band {|f-g| <= a}, an independent analytic projection
oracle, and the twist-condition residuals used by the identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import Field, check_same_space


def _check_alpha(alpha):
    """A finite nonnegative radius, or an array of them (returned as given
    in shape, as floats)."""
    a = float(alpha) if np.ndim(alpha) == 0 else np.asarray(alpha, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(a >= 0.0)):
        raise ValueError("alpha must be a finite nonnegative number")
    return a


@dataclass(frozen=True)
class ConstraintSet:
    """Order cone C1 = {f <= g} or band C2,a = {|f-g| <= a}."""

    kind: str  # "order" | "band"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("order", "band"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "band":
            object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        elif self.alpha is not None:
            raise ValueError("the order cone takes no alpha")

    @classmethod
    def order(cls) -> "ConstraintSet":
        return cls("order")

    @classmethod
    def band(cls, alpha: float) -> "ConstraintSet":
        return cls("band", alpha)


# Array cores: each operator once, on the values of fields (n,) or on stacks
# of them (N, n) with per-row scalars (radius, t, s) as (N, 1) columns. The
# Field API below and the verifier's batched identity checks both call them.


def h_alpha_values(f, g, alpha):
    """(g-a) v f ^ (g+a), pointwise."""
    a = _check_alpha(alpha)
    return np.clip(f, g - a, g + a)


def phi_alpha(z, alpha):
    """Scalar soft-band map ((z+a) v 0) + ((z-a) ^ 0); odd, 2-Lipschitz."""
    a = _check_alpha(alpha)
    z = np.asarray(z, dtype=float)
    out = np.maximum(z + a, 0.0) + np.minimum(z - a, 0.0)
    return float(out) if out.ndim == 0 else out


def project_order_values(f, g):
    """Both components moved by half the positive part of f-g."""
    d = np.maximum(f - g, 0.0)
    return f - 0.5 * d, g + 0.5 * d


def project_band_values(f, g, alpha):
    """(g + phi_a(f-g)/2, f - phi_a(f-g)/2)."""
    t = phi_alpha(f - g, alpha)
    return g + 0.5 * t, f - 0.5 * t


def project_oracle_values(kind: str, a, b, alpha=None):
    """The planar projection of each pair (a(x), b(x)) onto the order cone
    (kind "order") or the band of radius alpha (kind "band")."""
    mid = 0.5 * (a + b)
    if kind == "order":
        keep = a <= b
        return np.where(keep, a, mid), np.where(keep, b, mid)
    alpha = _check_alpha(alpha)
    diff = a - b
    keep = np.abs(diff) <= alpha
    half = 0.5 * alpha * np.sign(diff)
    return np.where(keep, a, mid + half), np.where(keep, b, mid - half)


def twist_residuals(u, v, alpha, t, s):
    """The sup norms over the last axis of H_a(u_t, v_s) - u_{1-s} and
    H_a(v_s, u_t) - v_{1-t}; see ``twist_check``."""
    a = _check_alpha(alpha)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.all((0.0 <= t) & (t <= 1.0)) and np.all((0.0 <= s) & (s <= 1.0))):
        raise ValueError("t and s must lie in [0, 1]")
    huv = h_alpha_values(u, v, a)
    hvu = h_alpha_values(v, u, a)

    def u_at(tt):
        return (1.0 - tt) * u + tt * huv

    def v_at(ss):
        return (1.0 - ss) * v + ss * hvu

    ut = u_at(t)
    vs = v_at(s)
    res_h = np.max(np.abs(h_alpha_values(ut, vs, a) - u_at(1.0 - s)), axis=-1)
    res_k = np.max(np.abs(h_alpha_values(vs, ut, a) - v_at(1.0 - t)), axis=-1)
    return res_h, res_k


# ---------------------------------------------------------------------------
# the Field API


def sup(f: Field, g: Field) -> Field:
    """Pointwise maximum f v g."""
    check_same_space(f, g)
    return Field(f.space, np.maximum(f.values, g.values))


def inf(f: Field, g: Field) -> Field:
    """Pointwise minimum f ^ g."""
    check_same_space(f, g)
    return Field(f.space, np.minimum(f.values, g.values))


def h_alpha(f: Field, g: Field, alpha: float) -> Field:
    """Clamp f into the band of radius alpha around g: (g-a) v f ^ (g+a).

    At alpha = 0 this is g everywhere (the middle case applies only where f=g).
    """
    check_same_space(f, g)
    return Field(f.space, h_alpha_values(f.values, g.values, float(alpha)))


def project_order(f: Field, g: Field) -> tuple[Field, Field]:
    """Metric projection of (f, g) onto the order cone {f <= g}.

    Closed form: both components move by half the positive part of f-g.
    """
    check_same_space(f, g)
    p1, p2 = project_order_values(f.values, g.values)
    return Field(f.space, p1), Field(f.space, p2)


def project_band(f: Field, g: Field, alpha: float) -> tuple[Field, Field]:
    """Metric projection of (f, g) onto the band {|f-g| <= alpha}.

    Closed form (g + phi_a(f-g)/2, f - phi_a(f-g)/2); inside the band the
    pair is returned unchanged since phi_a(z) = 2z there.
    """
    check_same_space(f, g)
    p1, p2 = project_band_values(f.values, g.values, float(alpha))
    return Field(f.space, p1), Field(f.space, p2)


def project_oracle(
    constraint: ConstraintSet, f: Field, g: Field
) -> tuple[Field, Field]:
    """Pointwise planar projection computed without the closed-form operators.

    Order cone: keep (a, b) if a <= b, else send both to the midpoint.
    Band: keep if |a-b| <= alpha, else shrink the difference to +/-alpha
    symmetrically, preserving a+b.
    """
    check_same_space(f, g)
    p1, p2 = project_oracle_values(constraint.kind, f.values, g.values, constraint.alpha)
    return Field(f.space, p1), Field(f.space, p2)


def twist_check(
    u: Field, v: Field, alpha: float, t: float, s: float
) -> tuple[float, float]:
    """Residuals of the twist conditions for the band clamp.

    With h(u,v) = H_a(u,v), k(u,v) = H_a(v,u), u_t = (1-t)u + t h(u,v) and
    v_s = (1-s)v + s k(u,v), returns
    (||H_a(u_t, v_s) - u_{1-s}||_inf, ||H_a(v_s, u_t) - v_{1-t}||_inf);
    both vanish identically.
    """
    check_same_space(u, v)
    res_h, res_k = twist_residuals(u.values, v.values, float(alpha), float(t), float(s))
    return float(res_h), float(res_k)
